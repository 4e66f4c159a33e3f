"""Client connection: the JDBC stand-in the devUDF plugin connects through.

The connection implements the handshake (hello -> challenge -> login), query
execution with per-query transfer options (compression / encryption), and a
small DB-API-style cursor for code that prefers that interface.  Transfer
statistics are accumulated per connection so the workflow and transfer
benchmarks can report bytes moved.

The cursor is *incremental*: ``Cursor.execute`` opens a
:class:`ResultStream` that consumes ``result_chunk`` frames lazily, so
``fetchone``/``fetchmany`` yield rows as soon as their chunk arrives — before
the full result is assembled — while ``fetchall`` (and
``Connection.execute``) drain the stream.  Only one stream is live per
connection; starting a new query drains the previous stream first so the
transport never desyncs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..errors import (
    AuthenticationError,
    ConnectionClosedError,
    ConnectionLostError,
    ExecutionError,
    ProtocolError,
)
from ..sqldb.result import QueryResult
from ..sqldb.parser import Parser
from ..sqldb.types import SQLType
from . import compression as compression_mod
from .auth import client_digest, compute_response
from .messages import (
    MSG_CANCEL,
    MSG_CANCELLED,
    MSG_CHALLENGE,
    MSG_CLOSE,
    MSG_DEALLOCATE,
    MSG_DEALLOCATED,
    MSG_ERROR,
    MSG_EXECUTE_PREPARED,
    MSG_LOGIN,
    MSG_LOGIN_OK,
    MSG_HELLO,
    MSG_PREPARE,
    MSG_PREPARED,
    MSG_QUERY,
    MSG_RESULT,
    MSG_RESULT_CHUNK,
    MSG_STATS,
    MSG_STATS_RESULT,
    PROTOCOL_VERSION,
    ColumnarResultAssembler,
    TransferStats,
    exception_for_error,
)
from .server import DatabaseServer, InProcessTransport, SocketTransport


@dataclass
class ConnectionInfo:
    """The client connection parameters from the settings dialog (Figure 2)."""

    host: str = "localhost"
    port: int = 50000
    database: str = "demo"
    username: str = "monetdb"
    password: str = "monetdb"

    def describe(self) -> str:
        return f"{self.username}@{self.host}:{self.port}/{self.database}"


@dataclass
class TransferOptions:
    """Per-query transfer options (compression / encryption), paper §2.1."""

    compression: str = compression_mod.CODEC_NARROW
    encrypt: bool = False

    def as_dict(self) -> dict[str, Any]:
        return {"compression": self.compression, "encrypt": self.encrypt}


@dataclass
class RetryPolicy:
    """Exponential backoff with jitter for retryable failures.

    The client retries a statement only when both hold: the failure is
    *retryable* (a structured server error with ``retryable: true`` — e.g.
    admission-control saturation — or the connection dropped before the
    reply) and the statement is *idempotent* (a read-only ``SELECT`` /
    ``EXPLAIN``; a lost connection mid-``INSERT`` is ambiguous, so writes
    are never retried automatically).  Delays grow as ``base_delay *
    multiplier ** attempt`` capped at ``max_delay``, with up to
    ``jitter`` (a 0–1 fraction) of each delay randomly shaved off so a
    herd of rejected clients does not retry in lockstep.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5

    def should_retry(self, attempt: int) -> bool:
        """Whether a retry (``attempt`` failures so far) is still allowed."""
        return attempt + 1 < self.max_attempts

    def delay(self, attempt: int) -> float:
        base = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        return base * (1.0 - self.jitter * random.random())

    def sleep(self, attempt: int) -> None:
        time.sleep(self.delay(attempt))


#: Statements safe to resend after an ambiguous failure: they read, never
#: write, so executing them 0, 1, or 2 times is indistinguishable.
_IDEMPOTENT_KEYWORDS = frozenset({"select", "explain", "values", "show"})


def is_idempotent_statement(sql: str) -> bool:
    stripped = sql.lstrip().lstrip("(").lstrip()
    first = stripped.split(None, 1)[0].lower() if stripped else ""
    return first in _IDEMPOTENT_KEYWORDS


@dataclass
class ClientStats:
    """Aggregate per-connection transfer statistics."""

    queries: int = 0
    rows_received: int = 0
    wire_bytes_received: int = 0
    raw_bytes_received: int = 0
    retries: int = 0
    reconnects: int = 0
    last_transfer: TransferStats | None = None


class Connection:
    """A client connection to a (possibly remote) database server."""

    #: The cancellation credentials of ``login_ok``, set by :meth:`login`.
    session_id: int
    cancel_key: str

    def __init__(self, transport: InProcessTransport | SocketTransport,
                 info: ConnectionInfo, *,
                 retry_policy: RetryPolicy | None = None) -> None:
        self._transport = transport
        self.info = info
        self._closed = False
        self._authenticated = False
        self._transfer_key: str | None = None
        self.stats = ClientStats()
        self.default_options = TransferOptions()
        #: Backoff policy for retryable failures; ``None`` disables retries.
        self.retry_policy = (RetryPolicy() if retry_policy is None
                             else retry_policy)
        #: Rebuilds the transport for reconnects and out-of-band cancels;
        #: set by the ``connect_*`` constructors.
        self._transport_factory: Callable[
            [], InProcessTransport | SocketTransport] | None = None
        self._active_stream: "ResultStream | None" = None
        #: ``catalog_version`` of the last result header: the server bumps it
        #: on every effective CREATE / DROP FUNCTION (``None`` until a reply
        #: carries one — a peer that never does never lets a caller cache).
        self.catalog_version: int | None = None
        self._catalog_cache: tuple[int | None, Any] = (None, None)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def connect_in_process(cls, server: DatabaseServer,
                           info: ConnectionInfo | None = None, *,
                           retry_policy: RetryPolicy | None = None
                           ) -> "Connection":
        info = info or ConnectionInfo(database=server.database.name)
        connection = cls(InProcessTransport(server), info,
                         retry_policy=retry_policy)
        connection._transport_factory = lambda: InProcessTransport(server)
        connection.login()
        return connection

    @classmethod
    def connect_tcp(cls, info: ConnectionInfo, *,
                    timeout: float = 10.0,
                    retry_policy: RetryPolicy | None = None) -> "Connection":
        """Connect over TCP, retrying refused/dropped connects with backoff."""
        factory = lambda: SocketTransport(info.host, info.port,  # noqa: E731
                                          timeout=timeout)
        connection = cls(cls._connect_with_backoff(factory, retry_policy),
                         info, retry_policy=retry_policy)
        connection._transport_factory = factory
        connection.login()
        return connection

    @staticmethod
    def _connect_with_backoff(
            factory: Callable[[], "InProcessTransport | SocketTransport"],
            policy: RetryPolicy | None
            ) -> "InProcessTransport | SocketTransport":
        policy = RetryPolicy() if policy is None else policy
        attempt = 0
        while True:
            try:
                return factory()
            except OSError:
                if not policy.should_retry(attempt):
                    raise
                policy.sleep(attempt)
                attempt += 1

    # ------------------------------------------------------------------ #
    # handshake
    # ------------------------------------------------------------------ #
    def login(self) -> None:
        challenge_msg = self._exchange({
            "type": MSG_HELLO,
            "username": self.info.username,
            "database": self.info.database,
            "protocol_version": PROTOCOL_VERSION,
        })
        if challenge_msg.get("type") == MSG_ERROR:
            # e.g. a server at its session limit, or one speaking another
            # protocol version: keep the code and the retryable flag
            raise exception_for_error(challenge_msg)
        if challenge_msg.get("type") != MSG_CHALLENGE:
            raise ProtocolError(f"expected challenge, got {challenge_msg.get('type')!r}")
        if challenge_msg.get("protocol_version") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"server speaks protocol version "
                f"{challenge_msg.get('protocol_version')!r}, this client "
                f"speaks version {PROTOCOL_VERSION} only")
        salt = challenge_msg["salt"]
        challenge = challenge_msg["challenge"]
        response = compute_response(self.info.password, salt, challenge)
        login_reply = self._exchange({
            "type": MSG_LOGIN,
            "username": self.info.username,
            "response": response,
        })
        if login_reply.get("type") == MSG_ERROR:
            raise AuthenticationError(login_reply.get("message", "login failed"))
        if login_reply.get("type") != MSG_LOGIN_OK:
            raise ProtocolError(f"unexpected login reply {login_reply.get('type')!r}")
        try:  # the cancellation credentials every login_ok carries
            self.session_id = int(login_reply["session_id"])
            self.cancel_key = str(login_reply["cancel_key"])
        except (KeyError, TypeError, ValueError):
            raise ProtocolError("login reply carries no cancellation "
                                "credentials") from None
        self._authenticated = True
        # The transfer key both sides derive from the user's password (paper:
        # "using the password of the database user as a key").
        self._transfer_key = client_digest(self.info.password, salt).hex()
        # a new session may be a restarted server, whose count starts over
        self.catalog_version, self._catalog_cache = None, (None, None)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def execute(self, sql: str, parameters: tuple | None = None,
                *, options: TransferOptions | None = None,
                timeout: float | None = None) -> QueryResult:
        """Execute one SQL statement and fetch the full result."""
        return self.execute_stream(sql, parameters, options=options,
                                   timeout=timeout).result()

    def execute_stream(self, sql: str, parameters: tuple | None = None,
                       *, options: TransferOptions | None = None,
                       timeout: float | None = None) -> "ResultStream":
        """Execute one SQL statement and return an incremental result stream.

        The stream's ``fetchone`` / ``fetchmany`` consume ``result_chunk``
        frames lazily, yielding rows as soon as their chunk arrives.

        ``timeout`` is a per-statement deadline in seconds, enforced
        *server-side* at morsel boundaries (the server may clamp it to its
        own ``statement_timeout``); expiry raises
        :class:`~repro.errors.QueryTimeoutError`.

        Retryable failures — a ``retryable`` structured error such as
        admission-control saturation, or a dropped connection — are retried
        with exponential backoff per :attr:`retry_policy`, but only for
        idempotent read-only statements (see :func:`is_idempotent_statement`).
        """
        if parameters:
            from ..sqldb.database import _apply_parameters

            sql = _apply_parameters(sql, parameters)
        request = self._request(MSG_QUERY, query=True, options=options,
                                timeout=timeout, sql=sql)
        return self._submit_query(request, sql)

    def _request(self, kind: str, *, query: bool = False,
                 options: TransferOptions | None = None,
                 timeout: float | None = None,
                 **fields: Any) -> dict[str, Any]:
        """A ``kind`` request carrying ``fields``, once the connection is
        open and logged in and the in-flight chunk stream is drained; a
        ``query``-shaped one also carries the transfer options and the
        server-side deadline."""
        if self._closed:
            raise ConnectionClosedError("connection is closed")
        if not self._authenticated:
            raise AuthenticationError("connection is not authenticated")
        self._drain_active_stream()
        request = {"type": kind, **fields}
        if query:
            request_options = (options or self.default_options).as_dict()
            if timeout is not None:
                request_options["timeout"] = float(timeout)
            request["options"] = request_options
        return request

    def _submit_query(self, request: dict[str, Any],
                      sql: str) -> "ResultStream":
        """Send a query-shaped request and assemble its result stream
        (shared by :meth:`execute_stream` and :meth:`execute_prepared`)."""
        reply = self._exchange_with_retry(request, sql)
        if reply.get("type") == MSG_ERROR:
            raise exception_for_error(reply)
        if reply.get("type") != MSG_RESULT:
            raise ProtocolError(f"unexpected reply {reply.get('type')!r}")
        version = reply.get("catalog_version")
        self.catalog_version = version if isinstance(version, int) else None

        stream = ResultStream(self, reply)
        if stream.complete:  # no rows to ship: the header was the last frame
            stream._finalise()
        else:
            self._active_stream = stream
        return stream

    # ------------------------------------------------------------------ #
    # prepared statements
    # ------------------------------------------------------------------ #
    def prepare(self, name: str, sql: str) -> "PreparedHandle":
        """Register ``sql`` (with ``?`` placeholders) under ``name`` on the
        server and return a handle for repeated execution.

        The server parses the statement once into its shared prepared
        registry; every :meth:`PreparedHandle.execute` call afterwards skips
        the parser entirely and binds the supplied arguments.
        """
        reply = self._exchange(self._request(MSG_PREPARE, name=name, sql=sql))
        if reply.get("type") == MSG_ERROR:
            raise exception_for_error(reply)
        if reply.get("type") != MSG_PREPARED:
            raise ProtocolError(f"unexpected reply {reply.get('type')!r}")
        return PreparedHandle(self, str(reply.get("name", name)), sql,
                              int(reply.get("parameter_count", 0)))

    def execute_prepared(self, name: str, args: Sequence[Any] = (), *,
                         sql: str | None = None,
                         options: TransferOptions | None = None,
                         timeout: float | None = None) -> QueryResult:
        """Execute a server-side prepared statement with bound ``args``.

        ``sql`` is the template text when known (a handle supplies it) so
        idempotent SELECT templates stay eligible for automatic retry; for a
        statement prepared by another connection pass nothing and the call is
        treated as non-idempotent.
        """
        request = self._request(MSG_EXECUTE_PREPARED, query=True,
                                options=options, timeout=timeout,
                                name=name, args=list(args))
        retry_sql = sql if sql is not None else f"EXECUTE {name}"
        return self._submit_query(request, retry_sql).result()

    def deallocate(self, name: str) -> bool:
        """Drop a prepared statement; returns whether the name existed."""
        reply = self._exchange(self._request(MSG_DEALLOCATE, name=name))
        if reply.get("type") == MSG_ERROR:
            raise exception_for_error(reply)
        if reply.get("type") != MSG_DEALLOCATED:
            raise ProtocolError(f"unexpected reply {reply.get('type')!r}")
        return bool(reply.get("found"))

    def cache_catalog(self, snapshot: Any) -> None:
        """Keep ``snapshot``, which the caller made of the function catalog,
        as of the last reply's ``catalog_version``."""
        if self.catalog_version is not None:
            self._catalog_cache = (self.catalog_version, snapshot)

    def cached_catalog(self) -> Any:
        """That snapshot while the last-seen ``catalog_version`` is still the
        one it was kept at; ``None`` otherwise."""
        version, snapshot = self._catalog_cache
        return snapshot if version == self.catalog_version else None

    def _drain_active_stream(self) -> None:
        """Finish the in-flight chunk stream so the transport stays in sync."""
        stream = self._active_stream
        if stream is not None:
            self._active_stream = None
            stream._drain()

    def _record_transfer(self, row_count: int, transfer: TransferStats) -> None:
        self.stats.queries += 1
        self.stats.rows_received += row_count
        self.stats.wire_bytes_received += transfer.wire_bytes
        self.stats.raw_bytes_received += transfer.raw_bytes
        self.stats.last_transfer = transfer

    def execute_script(self, sql: str) -> list[QueryResult]:
        """Execute a semicolon-separated script, one round trip per statement.

        The engine's parser splits it (each statement's exact source text is
        sent), so — like :meth:`Database.execute_script` — a syntax error
        anywhere fails the script before its first statement is sent.
        """
        return [self.execute(text) for _, text in Parser(sql).parse_script()]

    def server_stats(self) -> dict[str, int]:
        """Fetch the server's flat counter snapshot (``stats`` message).

        Covers the engine (``db.*``), durability (``persist.*`` — WAL seals,
        verify runs, corruption detections, backups) and the wire layer
        (``server.*``).  Requires an authenticated session.
        """
        stats = self._stats_reply().get("stats")
        if not isinstance(stats, dict):
            raise ProtocolError("stats reply carries no stats mapping")
        return {str(name): int(value) for name, value in stats.items()}

    def server_slow_queries(self) -> list[dict[str, Any]]:
        """Fetch the server's bounded slow-query log (``stats`` message).

        Each entry carries ``trace_id``, ``sql``, ``duration_ms``, ``rows``,
        ``bytes`` and the per-phase ``spans`` breakdown recorded while the
        statement ran.  Empty when no statement has exceeded the server's
        ``slow_query_ms`` threshold (or tracking is disabled).
        """
        entries = self._stats_reply().get("slow_queries")
        return list(entries) if isinstance(entries, list) else []

    def _stats_reply(self) -> dict[str, Any]:
        reply = self._exchange({"type": MSG_STATS})
        if reply.get("type") == MSG_ERROR:
            raise exception_for_error(reply)
        if reply.get("type") != MSG_STATS_RESULT:
            raise ProtocolError(
                f"unexpected stats reply {reply.get('type')!r}")
        return reply

    def cursor(self) -> "Cursor":
        return Cursor(self)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._closed:
            return
        try:
            self._drain_active_stream()
        except (ProtocolError, ExecutionError, OSError):
            pass
        try:
            self._exchange({"type": MSG_CLOSE})
        except (ProtocolError, OSError):
            pass
        self._transport.close()
        self._closed = True

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------ #
    # resilience
    # ------------------------------------------------------------------ #
    def reconnect(self) -> None:
        """Drop the current transport, rebuild it, and log in again."""
        if self._transport_factory is None:
            raise ConnectionLostError(
                "connection lost and this connection cannot reconnect "
                "(constructed without a transport factory)")
        try:
            self._transport.close()
        except (ProtocolError, OSError):
            pass
        self._active_stream = None
        self._authenticated = False
        self._transport = self._connect_with_backoff(
            self._transport_factory, self.retry_policy)
        self.stats.reconnects += 1
        self.login()

    def cancel(self) -> bool:
        """Ask the server to abort this connection's in-flight query.

        Opens a *second* connection (the first is busy carrying the query)
        and presents the ``session_id``/``cancel_key`` capability pair from
        login.  Returns ``True`` when a running query was found and
        cancelled; the cancelled query itself fails with
        :class:`~repro.errors.QueryCancelledError` on this connection.
        """
        if self._transport_factory is None:
            raise ProtocolError("this connection cannot open a cancel channel")
        transport = self._transport_factory()
        try:
            reply = transport.exchange({
                "type": MSG_CANCEL,
                "session_id": self.session_id,
                "cancel_key": self.cancel_key,
            })
            if reply.get("type") != MSG_CANCELLED:
                raise ProtocolError(
                    f"unexpected cancel reply {reply.get('type')!r}")
            return bool(reply.get("found"))
        finally:
            try:
                transport.close()
            except (ProtocolError, OSError):
                pass

    def _exchange_with_retry(self, request: dict[str, Any],
                             sql: str) -> dict[str, Any]:
        """Send a query, retrying retryable failures of idempotent reads."""
        policy = self.retry_policy
        retriable_sql = policy is not None and is_idempotent_statement(sql)
        attempt = 0
        while True:
            try:
                reply = self._exchange(request)
            except (ConnectionLostError, OSError):
                # the reply never arrived: ambiguous for writes, safe to
                # resend for reads — but only once a fresh transport exists
                if not (retriable_sql and policy.should_retry(attempt)
                        and self._transport_factory is not None):
                    raise
                policy.sleep(attempt)
                attempt += 1
                self.stats.retries += 1
                self.reconnect()
                continue
            if reply.get("type") == MSG_ERROR and reply.get("retryable"):
                if not (retriable_sql and policy.should_retry(attempt)):
                    return reply
                policy.sleep(attempt)
                attempt += 1
                self.stats.retries += 1
                continue
            return reply

    def _exchange(self, message: dict[str, Any]) -> dict[str, Any]:
        return self._transport.exchange(message)


class PreparedHandle:
    """Client handle to a server-side prepared statement.

    Created by :meth:`Connection.prepare`; each :meth:`execute` is one
    ``execute_prepared`` round trip that skips SQL parsing on the server.
    """

    def __init__(self, connection: Connection, name: str, sql: str,
                 parameter_count: int) -> None:
        self.connection = connection
        self.name = name
        self.sql = sql
        self.parameter_count = parameter_count

    def execute(self, args: Sequence[Any] = (), *,
                options: TransferOptions | None = None,
                timeout: float | None = None) -> QueryResult:
        if len(args) != self.parameter_count:
            raise ExecutionError(
                f"prepared statement '{self.name}' expects "
                f"{self.parameter_count} argument(s), got {len(args)}")
        return self.connection.execute_prepared(
            self.name, args, sql=self.sql, options=options, timeout=timeout)

    def deallocate(self) -> bool:
        return self.connection.deallocate(self.name)

    def __repr__(self) -> str:
        return (f"PreparedHandle(name={self.name!r}, "
                f"parameters={self.parameter_count})")


class ResultStream:
    """Incremental, chunk-at-a-time view of one query's result.

    Rows become available as their ``result_chunk`` frame arrives:
    ``fetchone``/``fetchmany`` pull exactly as many chunks as needed, so the
    first rows of a large result are usable while later chunks are still on
    the wire.  ``result()`` (and therefore ``fetchall``) drains the stream
    and yields the same lazily-decoded :class:`QueryResult` that
    ``Connection.execute`` always returned.
    """

    def __init__(self, connection: Connection,
                 header: dict[str, Any]) -> None:
        self._connection = connection
        #: Server-assigned trace id for this query (``None`` when the server
        #: runs with tracing disabled).  Matches the ``trace_id`` of the
        #: server's span tree and slow-query-log entry for the statement.
        raw_trace = header.get("trace_id")
        self.trace_id: str | None = \
            str(raw_trace) if raw_trace is not None else None
        self._assembler = ColumnarResultAssembler(
            header, encryption_key=connection._transfer_key)
        self._result: QueryResult | None = None
        self._all_rows: list[tuple] | None = None
        self._rows: list[tuple] = []     # rows decoded so far, chunk by chunk
        self._position = 0
        self._chunks_received = 0
        self._finalised = False
        self.transfer: TransferStats | None = None
        self.columns_meta = [(str(meta["name"]), str(meta["type"]))
                             for meta in header.get("columns", [])]
        self.statement_type = str(header.get("statement_type", "SELECT"))
        self.affected_rows = int(header.get("affected_rows", 0))
        #: ``-1`` until a streamed result finishes: the server starts
        #: shipping chunks before it knows the total row count.
        self.row_count = self._assembler.total_rows
        self.streamed = self.row_count < 0

    # -- progress (used by tests and monitoring) ------------------------- #
    @property
    def complete(self) -> bool:
        """True once the frame flagged ``last`` has been received."""
        return self._assembler.complete

    @property
    def chunks_received(self) -> int:
        return self._chunks_received

    # -- chunk consumption ----------------------------------------------- #
    def _advance(self, *, decode_rows: bool) -> None:
        """Receive one more chunk frame; on failure flush the remainder so
        the transport never desyncs."""
        assembler = self._assembler
        receive = self._connection._transport.receive
        stream_ended = False
        try:
            chunk = receive()
            self._chunks_received += 1
            stream_ended = _ends_stream(chunk)
            if chunk.get("type") == MSG_ERROR:
                raise exception_for_error(chunk)
            columns = assembler.add_chunk(chunk)
        except Exception:
            if self._connection._active_stream is self:
                self._connection._active_stream = None
            # failed before the terminal frame: drain up to it so the
            # transport stays in sync for the next query.  When the failure
            # *was* the terminal frame, receiving again would block on an
            # idle socket.
            while not stream_ended:
                try:
                    stream_ended = _ends_stream(receive())
                except Exception:
                    break
            raise
        if decode_rows:
            self._rows.extend(
                zip(*[column.materialise() for column in columns]))
        if assembler.complete:
            self._finalise()

    def _finalise(self) -> None:
        if self._finalised:
            return
        result, transfer = self._assembler.finish()
        self._result = result
        self.transfer = transfer
        self.row_count = result.row_count  # resolves a streamed -1
        self._finalised = True
        if self._connection._active_stream is self:
            self._connection._active_stream = None
        self._connection._record_transfer(result.row_count, transfer)

    def _drain(self) -> None:
        """Receive every outstanding chunk.

        Skips the incremental row decode unless it already started (in which
        case the decoded-row view must stay complete for later fetches).
        """
        decode_rows = bool(self._rows)
        while not self.complete:
            self._advance(decode_rows=decode_rows)
        self._finalise()

    def result(self) -> QueryResult:
        """The complete (lazily decoded) result; drains remaining chunks."""
        if self._result is None:
            self._drain()
        assert self._result is not None
        return self._result

    # -- row access ------------------------------------------------------- #
    def _decoded(self, wanted: int | None) -> list[tuple]:
        """The rows decoded so far, at least ``wanted`` of them (all for
        ``None``) unless the stream ends first.  Chunks are pulled only while
        the assembler reports the stream incomplete."""
        if not self._rows and self._finalised:
            # completed without incremental decoding (DML, or a drained
            # stream): the assembled result, transposed once
            if self._all_rows is None:
                self._all_rows = self.result().fetchall()
            return self._all_rows
        # incremental path: once any chunk was decoded into _rows, keep using
        # it — on completion it already holds every row (no second decode)
        while not self.complete and (wanted is None or len(self._rows) < wanted):
            self._advance(decode_rows=True)
        return self._rows

    def fetchone(self) -> tuple | None:
        rows = self.fetchmany(1)
        return rows[0] if rows else None

    def fetchmany(self, size: int = 1) -> list[tuple]:
        """Up to ``size`` more rows; ``[]`` once the stream is exhausted.

        Exhaustion is a stable state: when the ``last`` chunk drained exactly
        at a fetch boundary, later calls keep returning ``[]`` instead of
        touching the transport again.
        """
        stop = self._position + size
        rows = self._decoded(stop)[self._position:stop]
        self._position += len(rows)
        return rows

    def fetchall(self) -> list[tuple]:
        rows = self._decoded(None)[self._position:]
        self._position += len(rows)
        return rows


class Cursor:
    """A DB-API-shaped cursor with incremental (chunk-at-a-time) fetching.

    ``execute`` opens a :class:`ResultStream`; ``fetchone``/``fetchmany``
    yield rows as soon as their chunk arrives, ``fetchall`` drains the
    stream.
    """

    def __init__(self, connection: Connection) -> None:
        self.connection = connection
        self._stream: ResultStream | None = None

    @property
    def description(self) -> list[tuple] | None:
        if self._stream is None or not self._stream.columns_meta:
            return None
        return [
            (name, type_name, None, None, None, None, None)
            for name, type_name in self._stream.columns_meta
        ]

    @property
    def rowcount(self) -> int:
        if self._stream is None:
            return -1
        if self._stream.columns_meta:
            return self._stream.row_count
        return self._stream.affected_rows

    def execute(self, sql: str, parameters: tuple | None = None) -> "Cursor":
        self._stream = self.connection.execute_stream(sql, parameters)
        return self

    def fetchone(self) -> tuple | None:
        if self._stream is None:
            return None
        return self._stream.fetchone()

    def fetchmany(self, size: int = 1) -> list[tuple]:
        if self._stream is None:
            return []
        return self._stream.fetchmany(size)

    def fetchall(self) -> list[tuple]:
        if self._stream is None:
            return []
        return self._stream.fetchall()

    def close(self) -> None:
        self._stream = None


def _ends_stream(message: dict[str, Any]) -> bool:
    """A result stream ends at the chunk flagged ``last`` — or at whatever
    arrives in its place (an error frame): nothing further is on the wire."""
    return bool(message.get("last")) \
        or message.get("type") != MSG_RESULT_CHUNK
