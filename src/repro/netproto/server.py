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
  multiplexes every connection over a bounded worker pool (the paper's
  "remote database server" topology; what ``python -m repro.netproto.server``
  and ``devudf demo-server`` run).  :class:`SocketTransport` is its client
  side.
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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
from ..obs import MetricsRegistry, TraceSpan, new_trace_id
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
    queries_executed: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    closed: bool = False


class ServerStats:
    """Aggregate server statistics (used by the workflow benchmarks).

    Counters are incremented concurrently from in-process callers, the query
    worker pool and the front end's event loop, so every write goes
    through the thread-safe :class:`~repro.obs.MetricsRegistry` backing via
    :meth:`inc` — plain ``stats.x += 1`` (a lost-update race) raises
    ``AttributeError``.  Reads keep the historical attribute surface:
    ``stats.queries_executed`` returns the current counter value.

    The per-statement query log is a *bounded* ring (``query_log_limit``
    most recent statements); entries pushed out of a full ring are counted
    in ``query_log_dropped`` rather than growing the list without limit.
    """

    #: Every named counter; writes outside :meth:`inc` are rejected.
    COUNTER_NAMES = (
        "sessions_opened",
        "sessions_closed",
        "queries_executed",
        "bytes_sent",
        "bytes_received",
        "errors",
        # the ``errors`` that were not a :class:`ReproError` (a bug, answered)
        "internal_errors",
        # resilience counters: admission rejections, cooperative aborts, and
        # the connection failure modes the chaos suite exercises
        "queries_rejected",
        "queries_cancelled",
        "queries_timed_out",
        "client_disconnects",
        "idle_disconnects",
        # clients dropped for not reading a streamed result for longer than
        # ``ServerLimits.send_timeout`` (front end backpressure guard)
        "stalled_disconnects",
        "wire_errors",
        # queries that failed with a :class:`repro.errors.CorruptionError`
        # (quarantined rows touched, checksum mismatch mid-statement)
        "corruption_errors",
        # queries slower than the server's ``slow_query_ms`` threshold
        "slow_queries",
        # statements evicted from the bounded query log
        "query_log_dropped",
    )
    _COUNTER_SET = frozenset(COUNTER_NAMES)

    #: Default capacity of the bounded query log.
    QUERY_LOG_LIMIT = 1_000

    def __init__(self, *, registry: MetricsRegistry | None = None,
                 query_log_limit: int = QUERY_LOG_LIMIT) -> None:
        self._registry = registry if registry is not None else MetricsRegistry()
        self._counters = {name: self._registry.counter(name)
                          for name in self.COUNTER_NAMES}
        #: End-to-end request latency (execution + encode + handoff) seen by
        #: the server, complementing the engine-side ``db.query_us``.
        self._h_query = self._registry.histogram("query_us")
        self.query_log: deque[str] = deque(maxlen=max(1, int(query_log_limit)))
        self._log_lock = threading.Lock()

    def __getattr__(self, name: str) -> int:
        # only reached when normal attribute lookup fails: counters are not
        # instance attributes precisely so reads land here
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            return counters[name].value
        raise AttributeError(name)

    def __setattr__(self, name: str, value: Any) -> None:
        if name in self._COUNTER_SET:
            raise AttributeError(
                f"ServerStats.{name} is a concurrent counter; use "
                f"stats.inc({name!r}) instead of assignment")
        super().__setattr__(name, value)

    def inc(self, name: str, amount: int = 1) -> None:
        """Atomically add ``amount`` to the named counter."""
        self._counters[name].inc(amount)

    def observe_query(self, seconds: float) -> None:
        """Record one request's end-to-end latency."""
        self._h_query.observe(seconds)

    def log_query(self, sql: str) -> None:
        """Append to the bounded query log, counting evicted entries."""
        with self._log_lock:
            log = self.query_log
            if len(log) == log.maxlen:
                self._counters["query_log_dropped"].inc()
            log.append(sql)

    def counters(self) -> dict[str, int]:
        """Counters plus latency quantiles as a flat dict (``stats`` message)."""
        return self._registry.snapshot()


@dataclass
class ServerLimits:
    """Admission-control and connection-survival knobs.

    The defaults keep a small server responsive under misbehaving clients:
    at most ``max_concurrent_queries`` statements execute at once, up to
    ``max_queue_depth`` more wait ``max_queue_wait`` seconds for a slot, and
    anything beyond that is *rejected immediately* with a structured
    retryable error instead of queueing unboundedly.  ``statement_timeout``
    caps every statement's runtime server-side (a client-requested timeout
    can only tighten it).  ``idle_timeout`` reaps connections that go quiet
    between requests; ``send_timeout`` bounds how long a slow reader can
    block a query worker mid-result.  ``None`` disables a knob.
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

    def __init__(self, database: Database | None = None,
                 registry: UserRegistry | None = None, *,
                 default_user: str = "monetdb", default_password: str = "monetdb",
                 result_chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 limits: ServerLimits | None = None,
                 slow_query_ms: float | None = 500.0,
                 slow_query_log_size: int = 64) -> None:
        self.database = database or Database()
        self.registry = registry or UserRegistry()
        self.result_chunk_rows = max(1, int(result_chunk_rows))
        if default_user and not self.registry.has_user(default_user):
            self.registry.add_user(default_user, default_password,
                                   database=self.database.name)
        self.stats = ServerStats()
        #: Queries slower than this (milliseconds, wall clock from request
        #: to last response frame) land in :attr:`slow_query_log` with their
        #: trace id and span breakdown.  ``None`` disables slow-query
        #: tracking *and* per-query trace spans (the sampling policy: spans
        #: are only recorded while a slow-query verdict needs them).
        self.slow_query_ms = slow_query_ms
        #: Bounded ring of the most recent slow queries (oldest drop off).
        self.slow_query_log: "deque[dict[str, Any]]" = deque(
            maxlen=max(1, int(slow_query_log_size)))
        self.limits = limits or ServerLimits()
        self.admission = AdmissionController(self.limits)
        #: Chaos-test hook: called with a named fault point (``"query_start"``,
        #: ``"chunk"``) before the corresponding step; a hook that raises
        #: injects that failure into the normal error path.
        self.fault_hook: Callable[[str], None] | None = None
        # surface the wire-layer fault counters through SHOW STATS / the
        # stats message next to the engine's and the store's, merged with
        # the plan/result cache counters and the live connection gauge
        self.database.register_stats_source("server", self._server_counters)
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
            self.stats.inc("sessions_opened")
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
            self.stats.inc("sessions_closed")
        if context is not None:
            context.cancel("client disconnected")
        self._finish_query(session)

    @property
    def active_sessions(self) -> int:
        with self._lock:
            return len(self._sessions)

    def _server_counters(self) -> dict[str, int]:
        """The ``server.*`` section of SHOW STATS / the ``stats`` message."""
        counters = self.stats.counters()
        counters["open_connections"] = self.active_sessions
        counters.update(self.database.cache_counters())
        return counters

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
        self.stats.inc("errors")
        if not isinstance(exc, ReproError):
            self.stats.inc("internal_errors")
            traceback.print_exception(exc)  # to stderr
            exc = ExecutionError(f"internal error: {type(exc).__name__}")
        if isinstance(exc, QueryTimeoutError):
            self.stats.inc("queries_timed_out")
        if isinstance(exc, CorruptionError):
            self.stats.inc("corruption_errors")
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
            self.stats.inc("queries_cancelled")
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
        try:
            chunk_rows = int(options.get("chunk_rows") or self.result_chunk_rows)
        except (TypeError, ValueError):
            raise ProtocolError("chunk_rows must be an integer") from None

        encryption_key = None
        if encrypt:
            if session.transfer_key is None:
                raise ProtocolError("no transfer key available for encryption")
            encryption_key = session.transfer_key.hex()

        # observability: while slow-query tracking is enabled every query
        # carries a trace id and a span tree (the engine fills in its
        # parse/plan/execute spans); the spans are only *surfaced* for
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
            self.stats.inc("queries_rejected")
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
                    sql, max_rows=chunk_rows, context=context)
            session.queries_executed += 1
            self.stats.inc("queries_executed")
            self.stats.log_query(sql)
            if isinstance(outcome, QueryResult):
                # execution is done: free the slot before the (possibly
                # slow) encode-and-send phase.  A streamed plan keeps it
                # until its last chunk — it executes morsel by morsel
                # underneath the stream.
                self._finish_query(session)
            stream = result_messages(
                outcome, chunk_rows=chunk_rows, compression=compression,
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
            self.stats.observe_query(elapsed)
            threshold = self.slow_query_ms
            if threshold is not None and elapsed * 1000.0 >= threshold:
                self.stats.inc("slow_queries")
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
        session.bytes_received += len(frame_payload)
        self.stats.inc("bytes_received", len(frame_payload))
        try:
            request = message if message is not None \
                else decode_message(frame_payload)
        except WireFormatError as exc:
            # a well-framed but undecodable payload: framing is still in
            # sync, so answer with a structured error and keep the
            # connection usable
            self.stats.inc("wire_errors")
            encoded = encode_message(self._error_response(exc))
            session.bytes_sent += len(encoded)
            self.stats.inc("bytes_sent", len(encoded))
            yield encoded
            return
        for response in self.handle_message_stream(session, request):
            encoded = encode_message(response)
            session.bytes_sent += len(encoded)
            self.stats.inc("bytes_sent", len(encoded))
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
        self.bytes_sent = 0
        self.bytes_received = 0
        self._pending: Iterator[bytes] = iter(())

    def send(self, message: dict[str, Any]) -> None:
        """Submit one request; response frames become available to receive."""
        if self.closed:
            raise ProtocolError("transport is closed")
        request = encode_message(message)
        self.bytes_sent += len(request)
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
        self.bytes_received += len(frame)
        response_payload, _ = decode_frame(frame)
        return decode_message(response_payload)

    def exchange(self, message: dict[str, Any]) -> dict[str, Any]:
        self.send(message)
        return self.receive()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.server.close_session(self.session)


class _AsyncConnection:
    """Per-connection state tracked by :class:`AsyncSocketServer`'s loop."""

    __slots__ = ("sock", "session", "recv_buffer", "send_lock", "send_chunks",
                 "send_bytes", "drained", "want_write", "busy", "closing",
                 "dead", "pending", "last_activity")

    def __init__(self, sock: socket.socket, session: Session) -> None:
        self.sock = sock
        self.session = session
        self.recv_buffer = bytearray()
        #: Outgoing frames; appended by worker threads (under ``send_lock``),
        #: drained by the event loop when the socket is writable.
        self.send_lock = threading.Lock()
        self.send_chunks: "deque[memoryview]" = deque()
        self.send_bytes = 0
        #: Set while the buffer is below the low-water mark; a worker
        #: streaming chunks waits on this when the reader falls behind.
        self.drained = threading.Event()
        self.drained.set()
        self.want_write = False
        #: A query worker is processing a frame for this connection (frames
        #: are handled strictly in order; more queue in ``pending``).
        self.busy = False
        self.closing = False     # flush remaining output, then close
        self.dead = False        # torn down; reject all further work
        self.pending: "deque[tuple[bytes, dict[str, Any] | None]]" = deque()
        self.last_activity = time.monotonic()


class AsyncSocketServer:
    """The TCP front end: a single-threaded selector event loop multiplexing
    many connections.

    One event loop thread holds thousands of mostly-idle connections without
    a thread (and its stack) per client.  The loop only ever does
    non-blocking work: reading bytes into per-connection buffers, splitting
    frames (:func:`repro.netproto.wire.extract_frame`), answering cheap
    control messages inline, and handing query frames to a bounded worker
    pool.  Workers stream response frames back through
    per-connection send buffers; the loop flushes them as sockets become
    writable.

    Backpressure: when a connection's send buffer passes the high-water mark
    its worker blocks on the buffer draining — pausing only that query's
    morsel flow, never the loop.  A reader stalled longer than
    ``limits.send_timeout`` is disconnected and its query cancelled, so a
    client that stops reading mid-stream cannot pin an execution slot (the
    eager-release/backpressure fix).
    """

    #: Send-buffer watermarks: a worker pauses above ``HIGH_WATER`` bytes
    #: and resumes once the loop drains the buffer below ``LOW_WATER``.
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
        # wake pipe: workers nudge the loop to apply queued callbacks
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ,
                                ("wake", None))
        self._calls: "deque[Callable[[], None]]" = deque()
        slots = limits.max_concurrent_queries + limits.max_queue_depth
        self._max_inflight = slots
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(max_workers=slots + 4,
                                        thread_name_prefix="query-worker")
        self._connections: set[_AsyncConnection] = set()
        self._running = False
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        name = self._listener.getsockname()
        return name[0], name[1]

    def start_background(self) -> tuple[str, int]:
        """Start the event loop in a daemon thread; returns (host, port)."""
        self._running = True
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
        self._pool.shutdown(wait=True)
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
        timeout = self.database_server.limits.idle_timeout
        if timeout is None:
            return
        stats = self.database_server.stats
        for conn in list(self._connections):
            if conn.busy:
                continue
            # unflushed output does not keep a connection alive: a client
            # that neither reads nor writes for idle_timeout is gone
            if now - conn.last_activity > timeout:
                stats.inc("idle_disconnects")
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
        stats = self.database_server.stats
        try:
            data = conn.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            stats.inc("client_disconnects")
            self._drop(conn, None)
            return
        if not data:
            if not conn.closing:
                stats.inc("client_disconnects")
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
                server.stats.inc("wire_errors")
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
            if conn.busy:
                if len(conn.pending) >= self.MAX_PIPELINED_FRAMES:
                    server.stats.inc("wire_errors")
                    self._drop(conn, None)
                    return
                conn.pending.append((payload, message))
                continue
            self._dispatch_frame(conn, payload, message)

    def _dispatch_frame(self, conn: _AsyncConnection, payload: bytes,
                        message: dict[str, Any] | None) -> None:
        """Route one frame: queries go to the worker pool, everything else
        (hello/login/cancel/stats/close/garbage) is answered inline —
        cheap, non-blocking work."""
        server = self.database_server
        message_type = message.get("type") if message is not None else None
        if message_type in (MSG_QUERY, MSG_EXECUTE_PREPARED):
            with self._inflight_lock:
                saturated = self._inflight >= self._max_inflight
                if not saturated:
                    self._inflight += 1
            if saturated:
                # the worker pool (slots + queue) is full: reject here so
                # a flood of queries cannot queue unboundedly behind it
                server.stats.inc("queries_rejected")
                error = ServerBusyError(
                    "server is saturated; retry with backoff",
                    code=ERR_SATURATED)
                self._enqueue_frames(
                    conn, (encode_message(server._error_response(error)),))
                return
            conn.busy = True
            self._pool.submit(self._run_query, conn, payload, message)
            return
        frames = list(server.handle_frame_stream(conn.session, payload,
                                                 message=message))
        if message_type == MSG_CLOSE:
            conn.closing = True  # hang up once the closed frame flushes
        self._enqueue_frames(conn, frames)

    def _on_writable(self, conn: _AsyncConnection) -> None:
        stats = self.database_server.stats
        with conn.send_lock:
            while conn.send_chunks:
                chunk = conn.send_chunks[0]
                try:
                    sent = conn.sock.send(chunk)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError:
                    stats.inc("client_disconnects")
                    self._drop(conn, None)
                    return
                conn.send_bytes -= sent
                if sent < len(chunk):
                    conn.send_chunks[0] = chunk[sent:]
                    break
                conn.send_chunks.popleft()
            if conn.send_bytes <= self.LOW_WATER:
                conn.drained.set()
            pending = bool(conn.send_chunks)
        if not pending:
            self._set_write_interest(conn, False)
            if conn.closing and not conn.busy:
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

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def _run_query(self, conn: _AsyncConnection, payload: bytes,
                   message: dict[str, Any] | None) -> None:
        """Worker-thread body: execute one query frame, streaming response
        frames into the connection's send buffer with backpressure."""
        server = self.database_server
        stream = server.handle_frame_stream(conn.session, payload,
                                            message=message)
        try:
            for frame in stream:
                if not self._enqueue_with_backpressure(conn, frame):
                    break
        finally:
            # closing the generator runs the server's _relay_result
            # finally-block, freeing the admission slot even when the
            # stream was abandoned mid-flight
            stream.close()
            with self._inflight_lock:
                self._inflight -= 1
            self._call_soon(lambda: self._query_finished(conn))

    def _query_finished(self, conn: _AsyncConnection) -> None:
        """Loop-thread callback: the connection may take its next frame."""
        conn.busy = False
        conn.last_activity = time.monotonic()
        if conn.dead:
            return
        if conn.pending:
            payload, message = conn.pending.popleft()
            self._dispatch_frame(conn, payload, message)
            if not conn.busy:
                # the frame was handled inline; keep draining the backlog
                while conn.pending and not conn.busy and not conn.dead:
                    payload, message = conn.pending.popleft()
                    self._dispatch_frame(conn, payload, message)
        elif conn.closing:
            with conn.send_lock:
                pending = bool(conn.send_chunks)
            if not pending:
                self._drop(conn, None)

    def _enqueue_frames(self, conn: _AsyncConnection,
                        frames: Iterable[bytes]) -> None:
        """Loop-thread enqueue (no backpressure wait — control messages are
        small); schedules a flush."""
        if conn.dead:
            return
        with conn.send_lock:
            for frame in frames:
                conn.send_chunks.append(memoryview(frame))
                conn.send_bytes += len(frame)
        self._on_writable(conn)
        with conn.send_lock:
            pending = bool(conn.send_chunks)
        if pending:
            self._set_write_interest(conn, True)

    def _enqueue_with_backpressure(self, conn: _AsyncConnection,
                                   frame: bytes) -> bool:
        """Worker-thread enqueue.  Returns ``False`` when the connection is
        gone or the client stalled past ``send_timeout`` (the caller must
        abandon the stream; the stalled connection is dropped and its query
        cancelled)."""
        if conn.dead:
            return False
        with conn.send_lock:
            conn.send_chunks.append(memoryview(frame))
            conn.send_bytes += len(frame)
            above_high_water = conn.send_bytes > self.HIGH_WATER
        self._call_soon(lambda: self._flush_from_loop(conn))
        if not above_high_water:
            return not conn.dead
        timeout = self.database_server.limits.send_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        while not conn.dead:
            conn.drained.clear()
            with conn.send_lock:
                if conn.send_bytes <= self.HIGH_WATER:
                    conn.drained.set()
                    return True
            remaining = (None if deadline is None
                         else deadline - time.monotonic())
            if remaining is not None and remaining <= 0:
                self._stall_disconnect(conn)
                return False
            conn.drained.wait(remaining)
        return False

    def _flush_from_loop(self, conn: _AsyncConnection) -> None:
        if conn.dead:
            return
        self._on_writable(conn)
        with conn.send_lock:
            pending = bool(conn.send_chunks)
        if pending:
            self._set_write_interest(conn, True)

    def _stall_disconnect(self, conn: _AsyncConnection) -> None:
        """A client stopped reading mid-stream past ``send_timeout``: cancel
        its query and drop the connection so the slot frees immediately."""
        self.database_server.stats.inc("stalled_disconnects")
        self._call_soon(lambda: self._drop(conn, "stalled"))

    # ------------------------------------------------------------------ #
    # teardown
    # ------------------------------------------------------------------ #
    def _drop(self, conn: _AsyncConnection,
              reason: str | None) -> None:
        """Loop-thread teardown of one connection (idempotent).

        Releases everything the connection holds: the selector slot, the
        socket, the session (which cancels its active query), and any worker
        blocked on backpressure."""
        if conn.dead:
            return
        conn.dead = True
        conn.drained.set()  # release a worker blocked on backpressure
        self._connections.discard(conn)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        # cancels the active query (if any) and frees the session slot
        self.database_server.close_session(conn.session)


class SocketTransport:
    """Client-side transport over a TCP socket."""

    def __init__(self, host: str, port: int, *, timeout: float = 10.0) -> None:
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._stream = self._socket.makefile("rwb")
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, message: dict[str, Any]) -> None:
        if self.closed:
            raise ProtocolError("transport is closed")
        payload = encode_message(message)
        # encode_message returns a full frame already
        self._stream.write(payload)
        self._stream.flush()
        self.bytes_sent += len(payload)

    def receive(self) -> dict[str, Any]:
        if self.closed:
            raise ProtocolError("transport is closed")
        response_payload = read_frame(self._stream)
        self.bytes_received += len(response_payload) + 6
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
    there is no ``mallopt``.  Statements take turns on ``Database._lock``,
    so per-thread arenas buy no concurrency, while each keeps its own freed
    column buffers resident."""
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
                        help="query slots executing at once")
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
    parser.add_argument("--plan-cache", type=int, default=128,
                        dest="plan_cache", metavar="ENTRIES",
                        help="LRU capacity of the parsed-plan cache keyed by "
                             "normalized SQL (0 disables; default: 128)")
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
                            plan_cache=args.plan_cache,
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
