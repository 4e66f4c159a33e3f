"""Protocol messages and the result stream.

Control messages (``hello``, ``challenge``, ``login``, ``query``, ``prepare``,
``cancel``, ``stats``, ``error`` ...) are string-keyed dictionaries; their
type names and the structured error codes live here.

A query result travels as one ``result`` header message followed by zero or
more ``result_chunk`` messages, each carrying a columnar chunk blob
(:mod:`repro.netproto.columnar`) built in the stages of the paper's transfer
options (§2.1-2.2): typed buffers -> (optional) compress -> (optional)
encrypt, with every stage's size recorded in the chunk's ``stats`` so the
transfer benchmarks can report bytes-on-the-wire per configuration.  There is
one builder, :func:`result_messages`, and one completion rule: the result
ends at the message flagged ``last`` (or at an ``error`` message that
replaces it).  :class:`ColumnarResultAssembler` is the client-side inverse.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from ..errors import (
    AuthenticationError,
    CorruptionError,
    ProtocolError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    ServerBusyError,
    WireFormatError,
)
from ..sqldb.result import QueryResult, ResultColumn
from ..sqldb.types import SQLType
from . import columnar as columnar_mod
from . import compression as compression_mod
from . import encryption as encryption_mod

#: The one protocol version this build speaks.  It rides in ``hello`` and
#: ``challenge``; a peer that names any other version is refused with a
#: structured ``protocol`` error — there is no negotiation and no downgrade.
PROTOCOL_VERSION = 8

#: Default server-side chunk size (rows per ``result_chunk`` message).
DEFAULT_CHUNK_ROWS = 65_536

# message type names
MSG_HELLO = "hello"
MSG_CHALLENGE = "challenge"
MSG_LOGIN = "login"
MSG_LOGIN_OK = "login_ok"
MSG_QUERY = "query"
MSG_RESULT = "result"
MSG_RESULT_CHUNK = "result_chunk"
MSG_ERROR = "error"
MSG_CLOSE = "close"
MSG_CLOSED = "closed"
#: Out-of-band cancellation: ``{"type": "cancel", "session_id": n,
#: "cancel_key": "..."}`` sent on a *second* connection (the target's own
#: connection is busy carrying the query), answered with
#: ``{"type": "cancelled", "found": bool}``.  The key is the capability the
#: target session received in its ``login_ok``, so only the client that ran
#: the query (or something it told) can cancel it.
MSG_CANCEL = "cancel"
MSG_CANCELLED = "cancelled"
#: Observability: ``{"type": "stats"}`` (authenticated sessions only),
#: answered with ``{"type": "stats_result", "stats": {"db.tables": n, ...}}``
#: — the server's flat counter snapshot (engine, durability, server faults).
MSG_STATS = "stats"
MSG_STATS_RESULT = "stats_result"
#: Prepared statements: ``{"type": "prepare", "name": n, "sql": s}`` answered
#: with ``{"type": "prepared", "name": n, "parameter_count": k}``;
#: ``{"type": "execute_prepared", "name": n, "args": [...], "options": {...}}``
#: answered with a normal ``result`` (+ chunk) stream; ``{"type":
#: "deallocate", "name": n | None}`` answered with ``{"type": "deallocated",
#: "name": n}``.  Templates live in the shared database registry, so any
#: authenticated session may EXECUTE a name another session PREPAREd.
MSG_PREPARE = "prepare"
MSG_PREPARED = "prepared"
MSG_EXECUTE_PREPARED = "execute_prepared"
MSG_DEALLOCATE = "deallocate"
MSG_DEALLOCATED = "deallocated"

# --------------------------------------------------------------------------- #
# structured error frames
# --------------------------------------------------------------------------- #
#: Stable machine-readable error codes carried in ``error`` messages.  The
#: ``retryable`` flag travels alongside so old clients need no code table;
#: new clients map codes back to the exception taxonomy in
#: :mod:`repro.errors` via :func:`exception_for_error`.
ERR_PROTOCOL = "protocol"
ERR_AUTH = "auth"
ERR_WIRE_FORMAT = "wire_format"
ERR_EXECUTION = "execution"
ERR_TIMEOUT = "timeout"
ERR_CANCELLED = "cancelled"
ERR_SATURATED = "saturated"
ERR_SHUTTING_DOWN = "shutting_down"
ERR_SESSION_LIMIT = "session_limit"
ERR_CORRUPTION = "corruption"

#: Exception type -> wire code, most specific first (isinstance scan).
_ERROR_CODES: list[tuple[type, str]] = [
    (QueryTimeoutError, ERR_TIMEOUT),
    (QueryCancelledError, ERR_CANCELLED),
    (ServerBusyError, ERR_SATURATED),       # overridden by exc.code below
    (AuthenticationError, ERR_AUTH),
    (WireFormatError, ERR_WIRE_FORMAT),
    (ProtocolError, ERR_PROTOCOL),
    (CorruptionError, ERR_CORRUPTION),
]


def error_code_for(exc: BaseException) -> str:
    """The wire error code for an exception (``execution`` as the default)."""
    code = getattr(exc, "code", None)
    if isinstance(code, str) and code:
        return code
    for exc_type, mapped in _ERROR_CODES:
        if isinstance(exc, exc_type):
            return mapped
    return ERR_EXECUTION


def error_message_for(exc: BaseException) -> dict[str, Any]:
    """Build the structured ``error`` frame for an exception."""
    return {
        "type": MSG_ERROR,
        "error_class": type(exc).__name__,
        "message": str(exc),
        "code": error_code_for(exc),
        "retryable": bool(getattr(exc, "retryable", False)),
    }


def exception_for_error(message: dict[str, Any]) -> ReproError:
    """Map a structured ``error`` frame back to the exception taxonomy.

    Unknown or missing codes (a pre-resilience server) fall back to
    :class:`ExecutionError`, the exception the client always raised.
    """
    from ..errors import ExecutionError

    code = message.get("code")
    text = str(message.get("message", "query failed"))
    if code == ERR_TIMEOUT:
        return QueryTimeoutError(text)
    if code == ERR_CANCELLED:
        return QueryCancelledError(text)
    if code in (ERR_SATURATED, ERR_SHUTTING_DOWN, ERR_SESSION_LIMIT):
        return ServerBusyError(text, code=str(code))
    if code == ERR_AUTH:
        return AuthenticationError(text)
    if code == ERR_WIRE_FORMAT:
        return WireFormatError(text)
    if code == ERR_PROTOCOL:
        return ProtocolError(text)
    if code == ERR_CORRUPTION:
        return CorruptionError(text)
    return ExecutionError(text)


@dataclass
class TransferStats:
    """Byte counts for one result transfer (the C1/C2/C3 benchmark metrics)."""

    raw_bytes: int = 0
    compressed_bytes: int = 0
    encrypted_bytes: int = 0
    wire_bytes: int = 0
    compression_codec: str = compression_mod.CODEC_NONE
    encrypted: bool = False
    sampled_rows: int | None = None
    total_rows: int | None = None
    chunks: int = 0

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes <= 0:
            return 1.0
        return self.raw_bytes / self.compressed_bytes

    def add_chunk(self, chunk_stats: dict[str, Any]) -> None:
        """Accumulate one ``result_chunk`` message's byte counts."""
        self.raw_bytes += int(chunk_stats.get("raw_bytes", 0))
        self.compressed_bytes += int(chunk_stats.get("compressed_bytes", 0))
        self.encrypted_bytes += int(chunk_stats.get("encrypted_bytes", 0))
        self.wire_bytes += int(chunk_stats.get("wire_bytes", 0))
        self.chunks += 1

    def as_dict(self) -> dict[str, Any]:
        return {
            "raw_bytes": self.raw_bytes,
            "compressed_bytes": self.compressed_bytes,
            "encrypted_bytes": self.encrypted_bytes,
            "wire_bytes": self.wire_bytes,
            "compression_codec": self.compression_codec,
            "compression_ratio": self.compression_ratio,
            "encrypted": self.encrypted,
            "sampled_rows": self.sampled_rows,
            "total_rows": self.total_rows,
            "chunks": self.chunks,
        }


def result_messages(result: QueryResult | Iterable[QueryResult], *,
                    chunk_rows: int = DEFAULT_CHUNK_ROWS,
                    compression: str | None = None,
                    encryption_key: str | None = None,
                    trace_id: str | None = None,
                    catalog_version: int | None = None
                    ) -> Iterator[dict[str, Any]]:
    """Yield the ``result`` header, then the ``result_chunk`` messages.

    ``result`` is a complete :class:`QueryResult` (aggregates, UDF
    statements, prepared executions, cache hits, DML) or the engine's stream
    of per-morsel pieces (at least one, possibly empty; the first carries
    the column layout).  Either way every piece is cut into chunks of at most
    ``chunk_rows`` rows by one :class:`~.columnar.ChunkEncoder`, and the
    encoders of one result share the map of dictionaries already on the
    wire, so a string dictionary is re-inlined only when it changes.  Chunks
    are encoded lazily as the iterator advances: chunk *i* can be on the wire
    while chunk *i + 1* is still being computed.

    The result ends at the message flagged ``last``: the final chunk, or the
    header itself when a complete result has no rows to ship.  A complete
    result's header carries its ``row_count``; a stream's says ``-1``.
    ``trace_id``, when given, rides in the header so the client can correlate
    the result with the server's trace spans and slow-query log;
    ``catalog_version`` likewise, so the client knows whether what it last
    read from the function catalog is still current.
    """
    codec = compression or compression_mod.CODEC_NARROW
    chunk_rows = max(1, int(chunk_rows))
    if isinstance(result, QueryResult):
        total_rows, pieces = result.row_count, iter((result,))
    else:
        total_rows, pieces = -1, iter(result)
    # one encoder per piece, all sharing the dictionaries already shipped
    encoder_for = functools.partial(
        columnar_mod.ChunkEncoder, codec=codec, allow_dict=True,
        shipped_dictionaries={})
    piece = next(pieces)
    # buffer export (the fallible part of encoding) runs before the header
    # exists, so a failure is still a plain error reply, not a broken stream
    encoder = encoder_for(piece)
    header = {
        "type": MSG_RESULT,
        "statement_type": piece.statement_type,
        "affected_rows": piece.affected_rows,
        "row_count": total_rows,
        "columns": [{"name": column.name, "type": column.sql_type.value}
                    for column in piece.columns],
        "compression": codec,
        "encrypted": encryption_key is not None,
        "last": total_rows == 0,
    }
    if trace_id is not None:
        header["trace_id"] = trace_id
    if catalog_version is not None:
        header["catalog_version"] = catalog_version
    yield header
    if total_rows == 0:
        return
    seq = 0
    rows_sent = 0
    while True:
        # the next piece is computed before this one's final chunk leaves:
        # only then is it known whether that chunk is the last
        following = next(pieces, None)
        for row_start in range(0, max(piece.row_count, 1), chunk_rows):
            row_stop = min(row_start + chunk_rows, piece.row_count)
            blob, raw_bytes = encoder.encode(row_start, row_stop)
            compressed_bytes = len(blob)
            if encryption_key is not None:
                blob = encryption_mod.encrypt(blob, encryption_key)
            yield {
                "type": MSG_RESULT_CHUNK,
                "seq": seq,
                "row_start": rows_sent,
                "row_count": row_stop - row_start,
                "payload": blob,
                "encrypted": encryption_key is not None,
                "last": following is None and row_stop == piece.row_count,
                "stats": {
                    "raw_bytes": raw_bytes,
                    "compressed_bytes": compressed_bytes,
                    "encrypted_bytes": len(blob),
                    "wire_bytes": len(blob),
                    "rows": row_stop - row_start,
                },
            }
            seq += 1
            rows_sent += row_stop - row_start
        if following is None:
            return
        piece, encoder = following, encoder_for(following)


class ColumnarResultAssembler:
    """Client-side assembly of a columnar chunk stream into a lazy result.

    Feed the ``result`` header at construction and every ``result_chunk``
    message via :meth:`add_chunk`; the stream is :attr:`complete` once a
    message flagged ``last`` has been seen.  :meth:`finish` then builds a
    :class:`QueryResult` whose columns keep the received buffers zero-copy
    and only materialise Python lists when touched, plus the accumulated
    :class:`TransferStats`.
    """

    def __init__(self, header: dict[str, Any], *,
                 encryption_key: str | None = None) -> None:
        self.header = header
        #: The header's row count: ``-1`` for a streamed result, whose total
        #: is only known once the ``last`` chunk has arrived.
        self.total_rows = int(header.get("row_count", -1))
        self.complete = bool(header.get("last"))
        self._encryption_key = encryption_key
        self._chunks: list[list[columnar_mod.DecodedColumn]] = []
        #: Cross-chunk dictionary cache: a TAG_DICT dictionary is shipped
        #: inline once per column and referenced by the following chunks.
        self._dictionaries: dict[int, Any] = {}
        self._rows_seen = 0
        self.stats = TransferStats(
            compression_codec=str(header.get("compression",
                                             compression_mod.CODEC_NONE)),
            encrypted=bool(header.get("encrypted", False)),
        )

    def add_chunk(self, message: dict[str, Any]
                  ) -> list[columnar_mod.DecodedColumn]:
        """Decode one ``result_chunk`` message; returns its decoded columns
        (the incremental cursor consumes these chunk by chunk)."""
        if message.get("type") != MSG_RESULT_CHUNK:
            raise ProtocolError(
                f"expected result chunk, got {message.get('type')!r}")
        blob = message.get("payload")
        if not isinstance(blob, (bytes, bytearray)):
            raise ProtocolError("result chunk payload must be bytes")
        blob = bytes(blob)
        if message.get("encrypted"):
            if self._encryption_key is None:
                raise ProtocolError("result is encrypted but no key was provided")
            blob = encryption_mod.decrypt(blob, self._encryption_key)
        row_count, columns = columnar_mod.decode_chunk(
            blob, dictionaries=self._dictionaries)
        if len(columns) != len(self.header.get("columns", [])):
            raise ProtocolError("chunk column count does not match header")
        self._chunks.append(columns)
        self._rows_seen += row_count
        if message.get("last"):
            self.complete = True
        self.stats.add_chunk(message.get("stats") or {})
        return columns

    def finish(self) -> tuple[QueryResult, TransferStats]:
        if not self.complete:
            raise ProtocolError(
                "result stream truncated: final chunk not received")
        if self.total_rows not in (-1, self._rows_seen):
            raise ProtocolError("chunk row counts do not match header")
        # the chunks themselves define the total of a streamed result
        self.total_rows = self.stats.total_rows = self._rows_seen
        columns = []
        for index, meta in enumerate(self.header.get("columns", [])):
            sql_type = SQLType(meta["type"])
            if not self._chunks:  # empty result: schema only, no chunk data
                columns.append(ResultColumn(meta["name"], sql_type, []))
            else:
                columns.append(columnar_mod.columns_from_chunks(
                    index, meta["name"], sql_type, self._chunks, self.total_rows))
        result = QueryResult(
            columns,
            affected_rows=int(self.header.get("affected_rows", 0)),
            statement_type=str(self.header.get("statement_type", "SELECT")),
        )
        return result, self.stats
