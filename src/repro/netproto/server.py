"""The database server: session handling, query execution, result transfer.

:class:`DatabaseServer` wraps an embedded :class:`repro.sqldb.Database` and
turns request messages into response messages (:mod:`repro.netproto.messages`):
sessions and the challenge/response login, admission control, out-of-band
cancellation, prepared statements, and the one result stream every query
answers with.  It knows nothing about sockets; two transports drive it:

* :class:`InProcessTransport` — same process, but every message still goes
  through the full encode/decode path so byte counts are real (tests and the
  embedded devUDF plugin).
* :class:`AsyncSocketServer` — the TCP front end: one selector event loop
  multiplexes every connection, and one executor thread runs their
  statements in turn (the paper's "remote database server" topology; what
  ``python -m repro.netproto.server`` and ``devudf demo-server`` run).
  :class:`SocketTransport` is its client side.
"""

from __future__ import annotations

import ctypes
import hmac
import itertools
import secrets
import selectors
import socket
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator

from ..errors import (
    AuthenticationError,
    CorruptionError,
    ExecutionError,
    PersistenceError,
    ProtocolError,
    QueryTimeoutError,
    ReproError,
    ServerBusyError,
    WireFormatError,
)
from ..obs import Counter, Histogram, TraceSpan, new_trace_id
from ..sqldb.context import QueryContext
from ..sqldb.database import Database, StreamedResult
from ..sqldb.result import QueryResult
from . import compression as compression_mod
from .auth import UserRegistry
from .messages import (
    DEFAULT_CHUNK_ROWS,
    ERR_SATURATED,
    ERR_SESSION_LIMIT,
    ERR_SHUTTING_DOWN,
    MSG_CANCEL,
    MSG_CANCELLED,
    MSG_CHALLENGE,
    MSG_CLOSE,
    MSG_CLOSED,
    MSG_DEALLOCATE,
    MSG_DEALLOCATED,
    MSG_ERROR,
    MSG_EXECUTE_PREPARED,
    MSG_HELLO,
    MSG_LOGIN,
    MSG_LOGIN_OK,
    MSG_PREPARE,
    MSG_PREPARED,
    MSG_QUERY,
    MSG_RESULT_CHUNK,
    MSG_STATS,
    MSG_STATS_RESULT,
    PROTOCOL_VERSION,
    error_message_for,
    result_messages,
)
from .wire import (
    decode_frame,
    decode_message,
    encode_message,
    extract_frame,
    read_frame,
)


@dataclass
class Session:
    """Per-connection server state."""

    session_id: int
    username: str | None = None
    database: str | None = None
    authenticated: bool = False
    pending_challenge: bytes | None = None
    transfer_key: bytes | None = None
    #: Capability token for out-of-band cancellation (shared with the client
    #: in ``login_ok``; a ``cancel`` message must present it).
    cancel_key: str = ""
    closed: bool = False


@dataclass
class ServerLimits:
    """Admission-control and connection-survival knobs.

    The defaults keep a small server responsive under misbehaving clients:
    at most ``max_concurrent_queries`` statements hold a slot at once (over
    TCP one executes at a time; the others are parked behind a slow reader
    or wait for their next turn), up to ``max_queue_depth`` more wait
    ``max_queue_wait`` seconds for a slot, and
    anything beyond that is *rejected immediately* with a structured
    retryable error instead of queueing unboundedly.  ``statement_timeout``
    caps every statement's runtime server-side (a client-requested timeout
    can only tighten it).  ``idle_timeout`` reaps connections that go quiet
    between requests; ``send_timeout`` bounds how long a statement stays
    parked behind a reader that stopped reading mid-result.  ``None``
    disables a knob.
    """

    max_concurrent_queries: int = 8
    max_queue_depth: int = 16
    max_queue_wait: float = 5.0
    max_sessions: int | None = None
    statement_timeout: float | None = None
    idle_timeout: float | None = 300.0
    send_timeout: float | None = 30.0


class AdmissionController:
    """Bounded concurrent-query slots with a bounded, time-limited queue."""

    def __init__(self, limits: ServerLimits) -> None:
        self.limits = limits
        self._condition = threading.Condition(threading.Lock())
        self.active = 0
        self.waiting = 0
        self._draining = False

    def try_acquire(self) -> str | None:
        """Claim a query slot; returns ``None`` or a rejection error code.

        Waits up to ``max_queue_wait`` seconds when all slots are busy and
        the wait queue has room; saturation beyond the queue (or a server
        drain) rejects immediately so the client can back off and retry.
        """
        limits = self.limits
        deadline = time.monotonic() + max(0.0, limits.max_queue_wait)
        with self._condition:
            if self._draining:
                return ERR_SHUTTING_DOWN
            if self.active < limits.max_concurrent_queries:
                self.active += 1
                return None
            if self.waiting >= limits.max_queue_depth:
                return ERR_SATURATED
            self.waiting += 1
            try:
                while self.active >= limits.max_concurrent_queries:
                    if self._draining:
                        return ERR_SHUTTING_DOWN
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return ERR_SATURATED
                    self._condition.wait(remaining)
                self.active += 1
                return None
            finally:
                self.waiting -= 1

    def would_queue(self) -> bool:
        """Whether :meth:`try_acquire` would wait for a slot now (it never
        waits once the server drains)."""
        with self._condition:
            return (not self._draining and
                    self.active >= self.limits.max_concurrent_queries)

    def release(self) -> None:
        with self._condition:
            self.active = max(0, self.active - 1)
            self._condition.notify_all()

    def begin_drain(self) -> None:
        """Reject new queries from now on; wake every queued waiter."""
        with self._condition:
            self._draining = True
            self._condition.notify_all()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no query is active; ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while self.active > 0:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._condition.wait(remaining)
            return True


class DatabaseServer:
    """Protocol logic: turns request messages into response messages."""

    #: Capacity of :attr:`slow_query_log`.
    SLOW_QUERY_LOG_SIZE = 64

    #: The server's counters, ``server.<name>`` in the database registry.
    #: ``internal_errors`` are the ``errors`` that were not a ReproError (a
    #: bug, answered); ``stalled_disconnects`` clients that did not read a
    #: streamed result for ``ServerLimits.send_timeout``;
    #: ``corruption_errors`` queries that hit a CorruptionError;
    #: ``slow_queries`` those over ``slow_query_ms``.
    COUNTER_NAMES = (
        "sessions_opened", "sessions_closed", "queries_executed",
        "bytes_sent", "bytes_received", "errors", "internal_errors",
        "queries_rejected", "queries_cancelled", "queries_timed_out",
        "client_disconnects", "idle_disconnects", "stalled_disconnects",
        "wire_errors", "corruption_errors", "slow_queries")

    def __init__(self, database: Database | None = None,
                 registry: UserRegistry | None = None, *,
                 default_user: str = "monetdb", default_password: str = "monetdb",
                 result_chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 limits: ServerLimits | None = None,
                 slow_query_ms: float | None = 500.0) -> None:
        self.database = database or Database()
        self.registry = registry or UserRegistry()
        self.result_chunk_rows = max(1, int(result_chunk_rows))
        if default_user and not self.registry.has_user(default_user):
            self.registry.add_user(default_user, default_password,
                                   database=self.database.name)
        metrics = self.database.metrics
        #: Registered afresh in the database's registry (a server counts
        #: from its own start), so SHOW STATS and the ``stats`` message read
        #: them next to the engine's and the store's metrics.
        self.counters = {name: metrics.register(Counter(f"server.{name}"))
                         for name in self.COUNTER_NAMES}
        #: End-to-end request latency (execution + encode + handoff) seen by
        #: the server, complementing the engine-side ``db.query_us``.
        self._h_query = metrics.register(Histogram("server.query_us"))
        self._register_gauges()
        #: Queries slower than this (milliseconds, wall clock from request
        #: to last response frame) land in :attr:`slow_query_log` with their
        #: trace id and span breakdown.  ``None`` disables slow-query
        #: tracking *and* per-query trace spans (the sampling policy: spans
        #: are only recorded while a slow-query verdict needs them).
        self.slow_query_ms = slow_query_ms
        #: Bounded ring of the most recent slow queries (oldest drop off).
        self.slow_query_log: "deque[dict[str, Any]]" = deque(
            maxlen=self.SLOW_QUERY_LOG_SIZE)
        self.limits = limits or ServerLimits()
        self.admission = AdmissionController(self.limits)
        #: Chaos-test hook: called with a named fault point (``"query_start"``,
        #: ``"chunk"``) before the corresponding step; a hook that raises
        #: injects that failure into the normal error path.
        self.fault_hook: Callable[[str], None] | None = None
        self._next_session = 1
        self._lock = threading.Lock()
        self._sessions: dict[int, Session] = {}
        self._active_queries: dict[int, QueryContext] = {}

    # ------------------------------------------------------------------ #
    # session management
    # ------------------------------------------------------------------ #
    def open_session(self) -> Session:
        with self._lock:
            limit = self.limits.max_sessions
            if limit is not None and len(self._sessions) >= limit:
                raise ServerBusyError(
                    f"session limit of {limit} reached",
                    code=ERR_SESSION_LIMIT)
            session = Session(session_id=self._next_session,
                              cancel_key=secrets.token_hex(8))
            self._next_session += 1
            self._sessions[session.session_id] = session
            self.counters["sessions_opened"].inc()
            return session

    def close_session(self, session: Session) -> None:
        """Release everything a connection holds; safe to call repeatedly.

        Transports call this on *every* exit path — clean close, client
        disconnect, wire garbage — so a dying connection can never leak its
        session slot or leave a query running against a peer that is gone.
        """
        with self._lock:
            if session.closed:
                return
            session.closed = True
            self._sessions.pop(session.session_id, None)
            context = self._active_queries.get(session.session_id)
            self.counters["sessions_closed"].inc()
        if context is not None:
            context.cancel("client disconnected")
        self._finish_query(session)

    @property
    def active_sessions(self) -> int:
        with self._lock:
            return len(self._sessions)

    def _register_gauges(self) -> None:
        """The live connection count and the plan / result cache counters,
        read at snapshot time as ``server.*`` gauges."""
        database = self.database

        def plan(read: Callable[[Any], int]) -> Callable[[], int]:
            return lambda: read(database.plan_cache)

        def result(read: Callable[[Any], int]) -> Callable[[], int]:
            return lambda: (0 if database.result_cache is None
                            else read(database.result_cache))

        gauges = {
            "open_connections": lambda: self.active_sessions,
            "plan_cache_entries": plan(len),
            "result_cache_entries": result(len),
            "result_cache_bytes": result(attrgetter("used_bytes")),
        }
        for field in ("hits", "misses", "evictions"):
            gauges[f"plan_cache_{field}"] = plan(attrgetter(field))
        for field in ("hits", "misses", "invalidations", "evictions"):
            gauges[f"result_cache_{field}"] = result(attrgetter(field))
        for name, read in gauges.items():
            database.metrics.gauge(f"server.{name}", read)

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    def begin_shutdown(self) -> None:
        """Stop admitting queries; in-flight statements keep running."""
        self.admission.begin_drain()

    def drain(self, timeout: float | None = 5.0) -> bool:
        """Wait for in-flight queries to finish; cancel stragglers.

        Returns ``True`` when the server went idle within ``timeout``; on
        timeout every remaining query is cooperatively cancelled and we wait
        a short grace period for the cancellations to take effect.
        """
        self.begin_shutdown()
        if self.admission.wait_idle(timeout):
            return True
        with self._lock:
            stragglers = list(self._active_queries.values())
        for context in stragglers:
            context.cancel("server shutting down")
        return self.admission.wait_idle(1.0)

    # ------------------------------------------------------------------ #
    # query slot lifecycle
    # ------------------------------------------------------------------ #
    def _register_query(self, session: Session, context: QueryContext) -> None:
        with self._lock:
            self._active_queries[session.session_id] = context

    def _finish_query(self, session: Session) -> None:
        """Drop the session's active query and free its slot (idempotent)."""
        with self._lock:
            context = self._active_queries.pop(session.session_id, None)
        if context is not None:
            self.admission.release()

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #
    def handle_message_stream(self, session: Session,
                              message: dict[str, Any]) -> Iterator[dict[str, Any]]:
        """Process one request message; yields one or more response messages.

        Chunked query results yield the ``result`` header followed by its
        ``result_chunk`` messages; everything else yields a single message.
        All fallible work happens before the first message is yielded, so an
        error is always reported as a well-formed ``error`` response.
        """
        try:
            message_type = message.get("type")
            if message_type == MSG_HELLO:
                responses: Iterable[dict[str, Any]] = (
                    self._handle_hello(session, message),)
            elif message_type == MSG_LOGIN:
                responses = (self._handle_login(session, message),)
            elif message_type in (MSG_QUERY, MSG_EXECUTE_PREPARED):
                responses = self._handle_query(session, message)
            elif message_type == MSG_PREPARE:
                responses = (self._handle_prepare(session, message),)
            elif message_type == MSG_DEALLOCATE:
                responses = (self._handle_deallocate(session, message),)
            elif message_type == MSG_CANCEL:
                # deliberately allowed pre-auth: a cancel arrives on a fresh
                # connection (the original one is busy streaming the query)
                # and is authorised by the cancel_key capability instead
                responses = (self._handle_cancel(message),)
            elif message_type == MSG_STATS:
                responses = (self._handle_stats(session),)
            elif message_type == MSG_CLOSE:
                responses = ({"type": MSG_CLOSED},)
            else:
                raise ProtocolError(f"unknown message type {message_type!r}")
        except Exception as exc:
            responses = (self._error_response(exc),)
        yield from responses

    def _error_response(self, exc: Exception) -> dict[str, Any]:
        """Build the structured error frame for ``exc``, updating stats (a
        non-``ReproError`` too: unanswered, the client waits out its timeouts;
        its text and traceback stay on the server's stderr)."""
        self.counters["errors"].inc()
        if not isinstance(exc, ReproError):
            self.counters["internal_errors"].inc()
            traceback.print_exception(exc)  # to stderr
            exc = ExecutionError(f"internal error: {type(exc).__name__}")
        if isinstance(exc, QueryTimeoutError):
            self.counters["queries_timed_out"].inc()
        if isinstance(exc, CorruptionError):
            self.counters["corruption_errors"].inc()
        return error_message_for(exc)

    def _handle_stats(self, session: Session) -> dict[str, Any]:
        """``stats`` request: the flat counter snapshot (auth required)."""
        if not session.authenticated:
            raise AuthenticationError("not authenticated")
        return {"type": MSG_STATS_RESULT,
                "stats": self.database.stats_snapshot(),
                # the slow-query ring rides next to the flat counters: its
                # entries are structured (spans, SQL text), so they cannot
                # live inside the BIGINT-valued stats table itself
                "slow_queries": list(self.slow_query_log)}

    def _handle_hello(self, session: Session, message: dict[str, Any]) -> dict[str, Any]:
        # one dialect: any other version (or none) is refused, never served
        # a downgrade; the session is untouched, so a correct hello may follow
        version = message.get("protocol_version")
        if not isinstance(version, int) or version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {version!r}: this server "
                f"speaks version {PROTOCOL_VERSION} only")
        username = str(message.get("username", ""))
        session.username = username
        session.database = str(message.get("database", self.database.name))
        salt, challenge = self.registry.challenge_for(username)
        session.pending_challenge = challenge
        return {
            "type": MSG_CHALLENGE,
            "salt": salt,
            "challenge": challenge,
            "server": "repro-monetdb",
            "protocol_version": PROTOCOL_VERSION,
        }

    def _handle_login(self, session: Session, message: dict[str, Any]) -> dict[str, Any]:
        if session.pending_challenge is None or session.username is None:
            raise ProtocolError("login before hello")
        response = message.get("response")
        if not isinstance(response, (bytes, bytearray)):
            raise ProtocolError("login response must be bytes")
        account = self.registry.verify(
            session.username, session.pending_challenge, bytes(response),
            database=session.database,
        )
        session.authenticated = True
        session.pending_challenge = None
        session.transfer_key = account.digest
        return {"type": MSG_LOGIN_OK, "database": account.database,
                "username": account.username,
                # cancellation capability: a cancel message on any connection
                # presenting this pair may abort this session's active query
                "session_id": session.session_id,
                "cancel_key": session.cancel_key}

    def _handle_cancel(self, message: dict[str, Any]) -> dict[str, Any]:
        """Out-of-band cancellation (modelled on PostgreSQL's cancel request).

        The requesting connection proves it is entitled to cancel by
        presenting the target session's id and secret ``cancel_key`` from
        ``login_ok``.  A bad key is indistinguishable from "no such query"
        so the reply leaks nothing about live sessions.
        """
        try:
            target_id = int(message.get("session_id", -1))
        except (TypeError, ValueError):
            raise ProtocolError("session_id must be an integer") from None
        key = str(message.get("cancel_key", ""))
        with self._lock:
            target = self._sessions.get(target_id)
            authorised = (target is not None and
                          hmac.compare_digest(target.cancel_key, key))
            context = (self._active_queries.get(target_id)
                       if authorised else None)
        found = context is not None
        if found:
            context.cancel("cancelled by client request")
            self.counters["queries_cancelled"].inc()
        return {"type": MSG_CANCELLED, "found": found}

    def _handle_prepare(self, session: Session,
                        message: dict[str, Any]) -> dict[str, Any]:
        """``prepare`` request: register a named template server-side."""
        if not session.authenticated:
            raise AuthenticationError("not authenticated")
        name = str(message.get("name", ""))
        sql = str(message.get("sql", ""))
        if not name.strip():
            raise ProtocolError("prepare requires a statement name")
        if not sql.strip():
            raise ProtocolError("prepare requires statement text")
        prepared = self.database.prepare(name, sql)
        return {"type": MSG_PREPARED, "name": prepared.name,
                "parameter_count": prepared.parameter_count}

    def _handle_deallocate(self, session: Session,
                           message: dict[str, Any]) -> dict[str, Any]:
        """``deallocate`` request: drop one template (or all with no name)."""
        if not session.authenticated:
            raise AuthenticationError("not authenticated")
        name = message.get("name")
        found = self.database.deallocate(
            str(name) if name is not None else None)
        return {"type": MSG_DEALLOCATED,
                "name": name, "found": found}

    def _handle_query(self, session: Session,
                      message: dict[str, Any]) -> Iterable[dict[str, Any]]:
        if not session.authenticated:
            raise AuthenticationError("not authenticated")
        prepared_name: str | None = None
        prepared_args: list[Any] = []
        if message.get("type") == MSG_EXECUTE_PREPARED:
            prepared_name = str(message.get("name", ""))
            if not prepared_name.strip():
                raise ProtocolError("execute_prepared requires a name")
            raw_args = message.get("args")
            if raw_args is None:
                raw_args = []
            if not isinstance(raw_args, list):
                raise ProtocolError("execute_prepared args must be a list")
            prepared_args = raw_args
            sql = f"EXECUTE {prepared_name}"
        else:
            sql = str(message.get("sql", ""))
            if not sql.strip():
                raise ProtocolError("empty query")
        options = message.get("options") or {}
        compression = options.get("compression") or compression_mod.CODEC_NARROW
        compression_mod.get_codec(compression)  # validate before executing
        encrypt = bool(options.get("encrypt", False))

        encryption_key = None
        if encrypt:
            if session.transfer_key is None:
                raise ProtocolError("no transfer key available for encryption")
            encryption_key = session.transfer_key.hex()

        # observability: while slow-query tracking is enabled every query
        # carries a trace id and a span (the engine adds its parse, plan
        # and prepare / execute phases); the spans are only *surfaced* for
        # queries that turn out slow — that is the sampling policy
        started = time.perf_counter()
        trace: TraceSpan | None = None
        trace_id: str | None = None
        if self.slow_query_ms is not None:
            trace_id = new_trace_id()
            trace = TraceSpan("query", start=started)
        context = QueryContext(timeout=self._effective_timeout(options),
                               trace_id=trace_id)
        context.trace = trace
        rejection = self.admission.try_acquire()
        if rejection is not None:
            self.counters["queries_rejected"].inc()
            reason = ("server is shutting down"
                      if rejection == ERR_SHUTTING_DOWN
                      else "server is saturated; retry with backoff")
            raise ServerBusyError(reason, code=rejection)
        self._register_query(session, context)
        try:
            self._fault("query_start")
            if prepared_name is not None:
                # prepared executions are repeated point/small queries: the
                # materialised path is the result-cache friendly one
                outcome: QueryResult | StreamedResult = \
                    self.database.execute_prepared(
                        prepared_name, prepared_args, context=context)
            else:
                outcome = self.database.execute_stream(
                    sql, max_rows=self.result_chunk_rows, context=context)
            self.counters["queries_executed"].inc()
            if isinstance(outcome, QueryResult):
                # execution is done: free the slot before the (possibly
                # slow) encode-and-send phase.  A streamed plan keeps it
                # until its last chunk — it executes morsel by morsel
                # underneath the stream.
                self._finish_query(session)
            stream = result_messages(
                outcome, chunk_rows=self.result_chunk_rows, compression=compression,
                encryption_key=encryption_key, trace_id=trace_id,
                catalog_version=context.catalog_version)
            # pull the header eagerly: the first morsel and its buffer
            # export (the fallible parts) run here, so early errors still
            # become plain error responses
            header = next(stream)
        except BaseException:
            self._finish_query(session)
            raise
        return self._relay_result(
            session, sql, trace, trace_id, started,
            itertools.chain((header,), self._guarded_chunks(stream)))

    def _effective_timeout(self, options: dict[str, Any]) -> float | None:
        """Combine the client-requested timeout with the server-side cap."""
        raw = options.get("timeout")
        if raw is None:
            return self.limits.statement_timeout
        try:
            requested = float(raw)
        except (TypeError, ValueError):
            raise ProtocolError("timeout must be a number") from None
        if requested < 0:
            raise ProtocolError("timeout must be non-negative")
        cap = self.limits.statement_timeout
        return requested if cap is None else min(requested, cap)

    def _fault(self, point: str) -> None:
        hook = self.fault_hook
        if hook is not None:
            hook(point)

    def _relay_result(self, session: Session, sql: str,
                      trace: "TraceSpan | None", trace_id: str | None,
                      started: float, stream: Iterator[dict[str, Any]]
                      ) -> Iterator[dict[str, Any]]:
        """Relay a result's messages; at its end free the query slot and
        finish the query's observation.

        The end is the message flagged ``last`` or an error frame in its
        place: execution is complete at that point, so both happen *before*
        that message is yielded — a lazy transport may never pull the
        generator again once it has the final frame.  The ``finally`` covers
        streams that fail or are abandoned mid-flight (a client disconnect
        closes the generator), so those are released and recorded too.

        The observation accumulates rows and payload bytes from the relayed
        frames — the encode-and-send phase included — records the end-to-end
        latency in the ``server.query_us`` histogram, and appends a
        slow-query entry (trace id, SQL, span breakdown, transfer volume)
        when the query exceeded ``slow_query_ms``.
        """
        rows = 0
        payload_bytes = 0
        respond_started = time.perf_counter()
        finalized = False

        def finalize() -> None:
            nonlocal finalized
            if finalized:
                return
            finalized = True
            self._finish_query(session)
            ended = time.perf_counter()
            if trace is not None:
                trace.add("respond", respond_started, ended)
                trace.finish()
            elapsed = ended - started
            self._h_query.observe(elapsed)
            threshold = self.slow_query_ms
            if threshold is not None and elapsed * 1000.0 >= threshold:
                self.counters["slow_queries"].inc()
                self.slow_query_log.append({
                    "trace_id": trace_id or "",
                    "sql": sql,
                    "duration_ms": round(elapsed * 1000.0, 3),
                    "rows": rows,
                    "bytes": payload_bytes,
                    "spans": trace.breakdown() if trace is not None else [],
                })

        try:
            for message in stream:
                if message.get("type") == MSG_RESULT_CHUNK:
                    rows += message["row_count"]
                    payload_bytes += len(message["payload"])
                if message.get("last") or message.get("type") == MSG_ERROR:
                    finalize()
                yield message
        finally:
            finalize()

    def _guarded_chunks(self, stream: Iterator[dict[str, Any]]
                        ) -> Iterator[dict[str, Any]]:
        """Relay streamed chunk messages, converting a mid-stream execution
        failure into an ``error`` message (the header is already out, so the
        client sees the error while consuming chunks)."""
        try:
            for chunk in stream:
                self._fault("chunk")
                yield chunk
        except Exception as exc:
            yield self._error_response(exc)

    # ------------------------------------------------------------------ #
    # framed entry point shared by the transports
    # ------------------------------------------------------------------ #
    def handle_frame_stream(self, session: Session,
                            frame_payload: bytes,
                            message: dict[str, Any] | None = None
                            ) -> Iterator[bytes]:
        """One request frame in; yields each encoded response frame lazily.

        This is the streaming entry point: a chunked result is encoded one
        chunk per iteration, so transports can flush frame *i* before frame
        *i + 1* exists.  ``message`` may carry the already-decoded payload
        (the async front end peeks at the type to route frames, so it avoids
        decoding twice).
        """
        self.counters["bytes_received"].inc(len(frame_payload))
        try:
            request = message if message is not None \
                else decode_message(frame_payload)
        except WireFormatError as exc:
            # a well-framed but undecodable payload: framing is still in
            # sync, so answer with a structured error and keep the
            # connection usable
            self.counters["wire_errors"].inc()
            encoded = encode_message(self._error_response(exc))
            self.counters["bytes_sent"].inc(len(encoded))
            yield encoded
            return
        for response in self.handle_message_stream(session, request):
            encoded = encode_message(response)
            self.counters["bytes_sent"].inc(len(encoded))
            yield encoded


class InProcessTransport:
    """A client-side transport that talks to a server object in-process.

    All messages are round-tripped through the wire codec so the byte counts
    and failure modes match the socket transport.
    """

    def __init__(self, server: DatabaseServer) -> None:
        self.server = server
        self.session = server.open_session()
        self.closed = False
        self._pending: Iterator[bytes] = iter(())

    def send(self, message: dict[str, Any]) -> None:
        """Submit one request; response frames become available to receive."""
        if self.closed:
            raise ProtocolError("transport is closed")
        request = encode_message(message)
        # strip the frame header the same way the socket path would
        payload, _ = decode_frame(request)
        # the stream is kept lazy: each receive() encodes one more frame,
        # mirroring how the socket transport overlaps encode and consume
        self._pending = self.server.handle_frame_stream(self.session, payload)

    def receive(self) -> dict[str, Any]:
        """Read the next response message of the in-flight request."""
        if self.closed:
            raise ProtocolError("transport is closed")
        try:
            frame = next(self._pending)
        except StopIteration:
            raise ProtocolError("no pending response message") from None
        response_payload, _ = decode_frame(frame)
        return decode_message(response_payload)

    def exchange(self, message: dict[str, Any]) -> dict[str, Any]:
        self.send(message)
        return self.receive()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.server.close_session(self.session)


#: What :meth:`AsyncSocketServer._write` did with a frame.
_SENT, _PARKED, _GONE = "sent", "parked", "gone"


class _AsyncConnection:
    """Per-connection state shared by :class:`AsyncSocketServer`'s loop and
    executor threads."""

    __slots__ = ("sock", "session", "recv_buffer", "lock", "send_chunks",
                 "send_bytes", "flush_requested", "want_write", "busy",
                 "closing", "dead", "pending", "last_activity", "request",
                 "stream", "parked_at")

    def __init__(self, sock: socket.socket, session: Session) -> None:
        self.sock = sock
        self.session = session
        self.recv_buffer = bytearray()
        #: Guards the send buffer, ``busy`` against ``pending``, ``parked_at``
        #: and the socket's closing: the executor writes frames, the loop
        #: flushes what the kernel did not take and tears the socket down.
        self.lock = threading.Lock()
        #: Bytes the kernel has not taken yet, oldest first.
        self.send_chunks: "deque[memoryview]" = deque()
        self.send_bytes = 0
        #: The loop flushes ``send_chunks`` (it was told, or is watching for
        #: writability), so the executor need not wake it for more.
        self.flush_requested = False
        self.want_write = False
        #: A statement of this connection is queued, running or parked
        #: (frames are handled strictly in order; more wait in ``pending``).
        self.busy = False
        self.closing = False     # flush remaining output, then close
        self.dead = False        # torn down; reject all further work
        self.pending: "deque[tuple[bytes, dict[str, Any] | None]]" = deque()
        self.last_activity = time.monotonic()
        #: A query frame waiting for its first turn: (payload, message,
        #: arrival time).
        self.request: "tuple[bytes, dict[str, Any] | None, float] | None" = None
        #: A started statement's frames between two turns.
        self.stream: Iterator[bytes] | None = None
        #: When the statement parked behind a reader past ``HIGH_WATER``.
        self.parked_at: float | None = None


class AsyncSocketServer:
    """The TCP front end: a selector event loop multiplexing many
    connections, and one executor thread running their statements in turn.

    The loop thread holds thousands of mostly-idle connections without a
    thread (and its stack) per client.  It only ever does non-blocking work:
    every socket read, splitting frames
    (:func:`repro.netproto.wire.extract_frame`), answering the cheap control
    messages (hello / login / cancel / stats / close) inline, and appending
    each query frame to a FIFO run queue.

    The executor thread runs one statement at a time — statements are
    GIL-bound, so two threads running them side by side only contend — and
    writes each response frame straight to the socket while the kernel takes
    it.  The loop is woken only for bytes the kernel left over, for a
    connection with frames queued behind the statement, or for a hang-up.

    Backpressure: a statement whose unsent bytes pass ``HIGH_WATER`` parks —
    its frame generator stays on the connection, its query slot stays held,
    and the executor moves on — until the loop has flushed the buffer below
    ``LOW_WATER`` and requeues it.  A statement parked longer than
    ``limits.send_timeout`` is disconnected and its query cancelled, so a
    client that stops reading mid-stream cannot pin an execution slot.  A
    statement that has held the executor for more than ``poll_interval``
    yields at its next frame while another statement waits for a turn, so a
    long scan cannot starve a point query.
    """

    #: Unsent-bytes watermarks: a statement parks above ``HIGH_WATER`` bytes
    #: and is requeued once the loop drains the buffer below ``LOW_WATER``.
    HIGH_WATER = 1 << 20
    LOW_WATER = 1 << 18
    #: Per-connection cap on frames queued behind an executing query; a
    #: client that pipelines past it is dropped (protocol abuse).
    MAX_PIPELINED_FRAMES = 128

    def __init__(self, database_server: DatabaseServer,
                 host: str = "127.0.0.1", port: int = 0, *,
                 poll_interval: float = 0.25) -> None:
        self.database_server = database_server
        self.poll_interval = poll_interval
        limits = database_server.limits
        self._listener = socket.create_server((host, port), backlog=1024,
                                              reuse_port=False)
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ,
                                ("accept", None))
        # wake pipe: the executor nudges the loop to apply queued callbacks
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ,
                                ("wake", None))
        self._calls: "deque[Callable[[], None]]" = deque()
        #: Statements queued, running or parked; beyond the admission slots
        #: plus their queue a query is refused at the loop.
        self._max_inflight = (limits.max_concurrent_queries
                              + limits.max_queue_depth)
        self._inflight = 0
        #: The run queue (connections whose statement waits for a turn) and
        #: ``_inflight``, under the condition the executor sleeps on.
        self._ready = threading.Condition(threading.Lock())
        self._run_queue: "deque[_AsyncConnection]" = deque()
        self._stopping = False
        #: Time from a query frame's arrival to its first executor turn.
        self._h_queue_wait = database_server.database.metrics.register(
            Histogram("server.queue_wait_us"))
        self._connections: set[_AsyncConnection] = set()
        self._running = False
        self._thread: threading.Thread | None = None
        self._executor: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        name = self._listener.getsockname()
        return name[0], name[1]

    def start_background(self) -> tuple[str, int]:
        """Start the event loop and the executor in daemon threads; returns
        (host, port)."""
        self._running = True
        self._executor = threading.Thread(target=self._execute, daemon=True,
                                          name="statement-executor")
        self._executor.start()
        self._thread = threading.Thread(target=self._serve, daemon=True,
                                        name="async-server-loop")
        self._thread.start()
        return self.address

    def stop(self, drain_timeout: float | None = 5.0) -> None:
        """Graceful shutdown: drain in-flight queries, then tear down."""
        self.database_server.drain(drain_timeout)
        self._running = False
        self._notify()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        with self._ready:
            self._stopping = True
            self._ready.notify()
        if self._executor is not None:
            self._executor.join(timeout=5)
            self._executor = None
        try:
            self._listener.close()
        except OSError:
            pass
        for sock in (self._wake_recv, self._wake_send):
            try:
                sock.close()
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # event loop
    # ------------------------------------------------------------------ #
    def _serve(self) -> None:
        last_reap = time.monotonic()
        while self._running:
            events = self._selector.select(timeout=self.poll_interval)
            for key, mask in events:
                kind, conn = key.data
                if kind == "accept":
                    self._accept()
                elif kind == "wake":
                    self._drain_wake()
                else:
                    if mask & selectors.EVENT_READ:
                        self._on_readable(conn)
                    if mask & selectors.EVENT_WRITE and not conn.dead:
                        self._on_writable(conn)
            self._run_callbacks()
            now = time.monotonic()
            if now - last_reap >= self.poll_interval:
                self._reap_idle(now)
                last_reap = now
        # loop exit: tear down every connection (stop() already drained)
        for conn in list(self._connections):
            self._drop(conn, None)

    def _notify(self) -> None:
        try:
            self._wake_send.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # wake byte already pending (or shutting down)

    def _drain_wake(self) -> None:
        try:
            while self._wake_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _call_soon(self, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` on the loop thread (thread-safe)."""
        self._calls.append(callback)
        self._notify()

    def _run_callbacks(self) -> None:
        while True:
            try:
                callback = self._calls.popleft()
            except IndexError:
                return
            callback()

    def _reap_idle(self, now: float) -> None:
        limits = self.database_server.limits
        counters = self.database_server.counters
        for conn in list(self._connections):
            parked_at = conn.parked_at
            if parked_at is not None:
                if (limits.send_timeout is not None
                        and now - parked_at > limits.send_timeout):
                    # the reader stopped mid-stream: cancel its query and
                    # drop it so the slot frees immediately
                    counters["stalled_disconnects"].inc()
                    self._drop(conn, "stalled")
                continue
            # unflushed output does not keep a connection alive: a client
            # that neither reads nor writes for idle_timeout is gone
            if (not conn.busy and limits.idle_timeout is not None
                    and now - conn.last_activity > limits.idle_timeout):
                counters["idle_disconnects"].inc()
                self._drop(conn, None)

    # ------------------------------------------------------------------ #
    # accept / read / write
    # ------------------------------------------------------------------ #
    def _accept(self) -> None:
        server = self.database_server
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            try:
                session = server.open_session()
            except ServerBusyError as exc:
                # best effort: the frame is tiny, one non-blocking send
                try:
                    sock.send(encode_message(server._error_response(exc)))
                except OSError:
                    pass
                sock.close()
                continue
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _AsyncConnection(sock, session)
            self._connections.add(conn)
            self._selector.register(sock, selectors.EVENT_READ,
                                    ("conn", conn))

    def _on_readable(self, conn: _AsyncConnection) -> None:
        counters = self.database_server.counters
        try:
            data = conn.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            counters["client_disconnects"].inc()
            self._drop(conn, None)
            return
        if not data:
            if not conn.closing:
                counters["client_disconnects"].inc()
            self._drop(conn, None)
            return
        conn.last_activity = time.monotonic()
        conn.recv_buffer += data
        self._pump_frames(conn)

    def _pump_frames(self, conn: _AsyncConnection) -> None:
        """Split buffered bytes into frames and route each one."""
        server = self.database_server
        while not conn.dead:
            try:
                payload = extract_frame(conn.recv_buffer)
            except WireFormatError as exc:
                # frame-level garbage: the stream is desynchronised — tell
                # the client why (best effort) and hang up
                server.counters["wire_errors"].inc()
                conn.recv_buffer.clear()
                conn.closing = True  # hang up once the error frame flushes
                self._enqueue_frames(
                    conn, (encode_message(server._error_response(exc)),))
                return
            if payload is None:
                return
            try:
                message: dict[str, Any] | None = decode_message(payload)
            except WireFormatError:
                message = None  # handle_frame_stream answers it structurally
            with conn.lock:
                # the executor clears ``busy`` under this lock only when
                # ``pending`` is empty, so a frame queued here is never lost
                queued = conn.busy
                if queued:
                    conn.pending.append((payload, message))
                    overflow = len(conn.pending) > self.MAX_PIPELINED_FRAMES
            if not queued:
                self._dispatch_frame(conn, payload, message)
            elif overflow:
                server.counters["wire_errors"].inc()
                self._drop(conn, None)
                return

    def _dispatch_frame(self, conn: _AsyncConnection, payload: bytes,
                        message: dict[str, Any] | None) -> None:
        """Route one frame: a query joins the run queue, everything else
        (hello/login/cancel/stats/close/garbage) is answered inline —
        cheap, non-blocking work."""
        server = self.database_server
        message_type = message.get("type") if message is not None else None
        if message_type in (MSG_QUERY, MSG_EXECUTE_PREPARED):
            with self._ready:
                admitted = self._inflight < self._max_inflight
                if admitted:
                    self._inflight += 1
                    conn.busy = True
                    conn.request = (payload, message, time.monotonic())
                    self._run_queue.append(conn)
                    self._ready.notify()
            if not admitted:
                # slots and queue are full: reject here so a flood of
                # queries cannot queue unboundedly behind them
                self._enqueue_frames(conn, (self._saturated_frame(),))
            return
        frames = list(server.handle_frame_stream(conn.session, payload,
                                                 message=message))
        if message_type == MSG_CLOSE:
            conn.closing = True  # hang up once the closed frame flushes
        self._enqueue_frames(conn, frames)

    def _saturated_frame(self) -> bytes:
        server = self.database_server
        server.counters["queries_rejected"].inc()
        error = ServerBusyError("server is saturated; retry with backoff",
                                code=ERR_SATURATED)
        return encode_message(server._error_response(error))

    def _on_writable(self, conn: _AsyncConnection) -> None:
        """Loop: send what the kernel takes of the unsent bytes, watch for
        writability while some are left, and requeue a parked statement
        once its reader has drained them below ``LOW_WATER``."""
        with conn.lock:
            if conn.dead:
                return
            lost = False
            while conn.send_chunks:
                chunk = conn.send_chunks[0]
                try:
                    sent = conn.sock.send(chunk)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError:
                    lost = True
                    break
                conn.send_bytes -= sent
                if sent < len(chunk):
                    conn.send_chunks[0] = chunk[sent:]
                    break
                conn.send_chunks.popleft()
            resume = (not lost and conn.parked_at is not None
                      and conn.send_bytes <= self.LOW_WATER)
            if resume:
                conn.parked_at = None
            conn.flush_requested = pending = bool(conn.send_chunks)
        if lost:
            self._lost(conn)
            return
        self._set_write_interest(conn, pending)
        if resume:
            self._schedule(conn)
        if not pending and conn.closing and not conn.busy:
            self._drop(conn, None)

    def _set_write_interest(self, conn: _AsyncConnection,
                            want: bool) -> None:
        if conn.dead or conn.want_write == want:
            return
        conn.want_write = want
        events = selectors.EVENT_READ
        if want:
            events |= selectors.EVENT_WRITE
        try:
            self._selector.modify(conn.sock, events, ("conn", conn))
        except (KeyError, ValueError, OSError):
            pass

    def _enqueue_frames(self, conn: _AsyncConnection,
                        frames: Iterable[bytes]) -> None:
        """Loop-thread send of frames answered inline (small: no
        backpressure)."""
        if conn.dead:
            return
        with conn.lock:
            for frame in frames:
                conn.send_chunks.append(memoryview(frame))
                conn.send_bytes += len(frame)
        self._on_writable(conn)

    def _lost(self, conn: _AsyncConnection) -> None:
        """Loop: a send failed — the peer is gone."""
        if not conn.dead:
            self.database_server.counters["client_disconnects"].inc()
            self._drop(conn, None)

    def _query_finished(self, conn: _AsyncConnection) -> None:
        """Loop-thread callback: the connection may take its next frame."""
        conn.busy = False
        if conn.dead:
            return
        while conn.pending and not conn.busy and not conn.dead:
            payload, message = conn.pending.popleft()
            self._dispatch_frame(conn, payload, message)
        if conn.closing and not conn.busy:
            with conn.lock:
                pending = bool(conn.send_chunks)
            if not pending:
                self._drop(conn, None)

    # ------------------------------------------------------------------ #
    # executor
    # ------------------------------------------------------------------ #
    def _schedule(self, conn: _AsyncConnection) -> None:
        """Append a connection whose statement waits for a turn."""
        with self._ready:
            self._run_queue.append(conn)
            self._ready.notify()

    def _runnable(self) -> int:
        """Run-queue position of the first statement that can take a turn
        (-1: none; call under ``_ready``): one to close, one already
        started, or a query with a free slot or past ``max_queue_wait`` (it
        is refused).  A query waiting for a slot keeps its place."""
        server = self.database_server
        full = server.admission.would_queue()
        patience = server.limits.max_queue_wait
        now = time.monotonic()
        for index, conn in enumerate(self._run_queue):
            if (not full or conn.dead or conn.stream is not None
                    or now - conn.request[2] >= patience):
                return index
        return -1

    def _execute(self) -> None:
        """Executor-thread body: give queued statements their turns."""
        while True:
            with self._ready:
                while True:
                    index = self._runnable()
                    if index >= 0:
                        conn = self._run_queue[index]
                        del self._run_queue[index]
                        break
                    if self._stopping and not self._run_queue:
                        return
                    self._ready.wait(
                        self.poll_interval if self._run_queue else None)
            self._take_turn(conn)

    def _take_turn(self, conn: _AsyncConnection) -> None:
        """Run one statement until it ends, parks or yields its turn."""
        stream, conn.stream = conn.stream, None
        kept = False
        try:
            if stream is None and not conn.dead:
                stream = self._start(conn)
            kept = not conn.dead and self._run(conn, stream)
        except Exception as exc:  # noqa: BLE001 - the executor survives
            # a bug past every error frame: the client's answer is cut
            traceback.print_exception(exc)  # to stderr
            self._call_soon(lambda: self._drop(conn, None))
        if not kept:
            self._statement_done(conn, stream)

    def _run(self, conn: _AsyncConnection, stream: Iterator[bytes]) -> bool:
        """Write ``stream``'s frames; ``True`` when the statement keeps its
        generator for a later turn (parked, or yielded to a waiter)."""
        turn_started = time.monotonic()
        for frame in stream:
            outcome = self._write(conn, frame)
            if outcome is _GONE:
                return False
            if outcome is _PARKED:
                conn.stream = stream  # the loop requeues it
                return True
            if time.monotonic() - turn_started > self.poll_interval:
                with self._ready:
                    if self._runnable() >= 0:  # yield to a waiting statement
                        conn.stream = stream
                        self._run_queue.append(conn)
                        return True
        return False

    def _start(self, conn: _AsyncConnection) -> Iterator[bytes]:
        """A queued query's first turn: its frame generator (nothing runs
        until the first frame is pulled)."""
        payload, message, arrived = conn.request
        conn.request = None
        self._h_queue_wait.observe(time.monotonic() - arrived)
        if self.database_server.admission.would_queue():
            return self._refused()  # waited past max_queue_wait
        return self.database_server.handle_frame_stream(
            conn.session, payload, message=message)

    def _refused(self) -> Iterator[bytes]:
        yield self._saturated_frame()

    def _write(self, conn: _AsyncConnection, frame: bytes) -> str:
        """Executor: send ``frame`` while the kernel takes it and buffer the
        rest for the loop (waking it only if it is not flushing already).
        ``_PARKED`` once the unsent bytes pass ``HIGH_WATER``."""
        view = memoryview(frame)
        with conn.lock:
            if conn.dead:
                return _GONE
            if not conn.send_chunks:
                try:
                    while view:
                        view = view[conn.sock.send(view):]
                except (BlockingIOError, InterruptedError):
                    pass
                except OSError:
                    self._call_soon(lambda: self._lost(conn))
                    return _GONE
                if not view:
                    return _SENT
            conn.send_chunks.append(view)
            conn.send_bytes += len(view)
            wake = not conn.flush_requested
            conn.flush_requested = True
            outcome = _SENT
            if conn.send_bytes > self.HIGH_WATER:
                conn.parked_at = time.monotonic()
                outcome = _PARKED
        if wake:
            self._call_soon(lambda: self._on_writable(conn))
        return outcome

    def _statement_done(self, conn: _AsyncConnection,
                        stream: Iterator[bytes] | None) -> None:
        """Executor: the statement ended or its connection is gone."""
        if stream is not None:
            # closing the generator runs the server's _relay_result
            # finally-block, freeing the admission slot even when the
            # stream was abandoned mid-flight
            stream.close()
        with self._ready:
            self._inflight -= 1
        with conn.lock:
            conn.last_activity = time.monotonic()
            wake = not conn.dead and (bool(conn.pending) or conn.closing)
            if not wake:
                conn.busy = False
        if wake:
            self._call_soon(lambda: self._query_finished(conn))

    # ------------------------------------------------------------------ #
    # teardown
    # ------------------------------------------------------------------ #
    def _drop(self, conn: _AsyncConnection,
              reason: str | None) -> None:
        """Loop-thread teardown of one connection (idempotent).

        Releases everything the connection holds: the selector slot, the
        socket, the session (which cancels its active query), and a parked
        statement, which the executor closes."""
        if conn.dead:
            return
        self._connections.discard(conn)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        with conn.lock:
            conn.dead = True
            parked = conn.parked_at is not None
            conn.parked_at = None
            try:
                conn.sock.close()
            except OSError:
                pass
        # cancels the active query (if any) and frees the session slot
        self.database_server.close_session(conn.session)
        if parked:
            self._schedule(conn)


class SocketTransport:
    """Client-side transport over a TCP socket."""

    def __init__(self, host: str, port: int, *, timeout: float = 10.0) -> None:
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._stream = self._socket.makefile("rwb")
        self.closed = False

    def send(self, message: dict[str, Any]) -> None:
        if self.closed:
            raise ProtocolError("transport is closed")
        payload = encode_message(message)
        # encode_message returns a full frame already
        self._stream.write(payload)
        self._stream.flush()

    def receive(self) -> dict[str, Any]:
        if self.closed:
            raise ProtocolError("transport is closed")
        response_payload = read_frame(self._stream)
        return decode_message(response_payload)

    def exchange(self, message: dict[str, Any]) -> dict[str, Any]:
        self.send(message)
        return self.receive()

    def close(self) -> None:
        if not self.closed:
            try:
                self._stream.close()
                self._socket.close()
            finally:
                self.closed = True


def single_malloc_arena() -> bool:
    """Serve every thread's ``malloc`` from one glibc arena; False where
    there is no ``mallopt``.  The server runs two threads, the event loop
    and the one executor its statements take turns on, so a second arena
    buys no concurrency, while it would keep its own freed column buffers
    resident."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(-8, 1) == 1  # M_ARENA_MAX = 1


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.netproto.server`` — a standalone database server.

    With ``--db`` the server is durable: state is recovered from the file +
    WAL on start, every mutation is write-ahead logged, and shutdown (clean
    exit or Ctrl-C) checkpoints automatically.
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="repro-server",
        description="Serve a repro-monetdb database over the wire protocol")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default: pick a free port)")
    parser.add_argument("--db", default=None, metavar="PATH",
                        help="durable single-file database path "
                             "(default: in-memory)")
    parser.add_argument("--name", default="demo", help="database name")
    parser.add_argument("--user", default="monetdb")
    parser.add_argument("--password", default="monetdb")
    parser.add_argument("--chunk-rows", type=int, default=DEFAULT_CHUNK_ROWS,
                        dest="chunk_rows", help="result rows per chunk frame")
    parser.add_argument("--max-concurrent", type=int,
                        default=ServerLimits.max_concurrent_queries,
                        help="statements admitted at once: one executes, "
                             "the rest are parked behind a slow reader or "
                             "wait for their next turn")
    parser.add_argument("--max-queue", type=int,
                        default=ServerLimits.max_queue_depth,
                        help="queries allowed to wait for a slot")
    parser.add_argument("--statement-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="server-side cap on statement runtime")
    parser.add_argument("--slow-query-ms", type=float, default=500.0,
                        dest="slow_query_ms", metavar="MILLISECONDS",
                        help="log queries slower than this to the bounded "
                             "slow-query ring with their trace spans "
                             "(0 disables; default: 500)")
    parser.add_argument("--idle-timeout", type=float,
                        default=ServerLimits.idle_timeout, metavar="SECONDS",
                        help="disconnect clients idle this long")
    parser.add_argument("--verify-on-start", action="store_true",
                        dest="verify_on_start",
                        help="scrub every image/WAL checksum before serving; "
                             "refuse to start on corruption (needs --db)")
    parser.add_argument("--result-cache-bytes", type=int, default=8 << 20,
                        dest="result_cache_bytes", metavar="BYTES",
                        help="byte budget for caching results of identical "
                             "read-only SELECTs, invalidated on writes "
                             "(0 disables; default: 8 MiB)")
    args = parser.parse_args(argv)

    limits = ServerLimits(max_concurrent_queries=args.max_concurrent,
                          max_queue_depth=args.max_queue,
                          statement_timeout=args.statement_timeout,
                          idle_timeout=args.idle_timeout)
    if args.verify_on_start and not args.db:
        parser.error("--verify-on-start requires --db")
    single_malloc_arena()  # before any thread or column buffer exists
    try:
        database = Database(name=args.name, path=args.db,
                            result_cache_bytes=args.result_cache_bytes)
    except PersistenceError as exc:
        # a corrupt image fails the open itself; with --verify-on-start the
        # operator asked for a clean verdict, not a traceback
        if not args.verify_on_start:
            raise
        print(f"verify: CORRUPT: {exc}")
        return 1
    if args.verify_on_start:
        report = database.verify()
        print(f"verify: generation={report.generation} "
              f"tables={len(report.image.tables)} "
              f"corrupt_segments={report.corrupt_segments} "
              f"wal_records={report.wal_records} "
              f"ok={report.ok}")
        if not report.ok:
            for fault in report.image.faults:
                print(f"verify: CORRUPT table={fault.table} "
                      f"rows={fault.start_row}..{fault.stop_row} "
                      f"offset={fault.offset}: {fault.reason}")
            if report.image.error:
                print(f"verify: CORRUPT file: {report.image.error}")
            if report.wal_error:
                print(f"verify: CORRUPT wal: {report.wal_error}")
            database.close()
            return 1
    database_server = DatabaseServer(
        database, default_user=args.user, default_password=args.password,
        result_chunk_rows=args.chunk_rows, limits=limits,
        slow_query_ms=args.slow_query_ms if args.slow_query_ms > 0 else None)
    socket_server = AsyncSocketServer(database_server, host=args.host,
                                      port=args.port)
    host, port = socket_server.start_background()
    mode = f"durable ({args.db})" if args.db else "in-memory"
    print(f"server listening on {host}:{port} "
          f"(user={args.user} database={args.name}, {mode})")
    print(json.dumps({"host": host, "port": port, "db": args.db}, indent=2))
    try:
        socket_server._thread.join()  # noqa: SLF001 - foreground serve
    except KeyboardInterrupt:
        pass
    finally:
        socket_server.stop()
        # auto-checkpoint on shutdown for durable databases
        database.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    import sys

    sys.exit(main())
