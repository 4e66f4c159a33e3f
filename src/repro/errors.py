"""Shared exception hierarchy for the devUDF reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers (the CLI, the IDE model, the workflow simulators) can distinguish
"expected" failures (bad SQL, unknown UDF, wrong password) from genuine bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""

    #: Whether retrying the same operation may succeed (server saturation,
    #: dropped connections).  Clients consult this — together with statement
    #: idempotence — before automatically retrying.
    retryable = False


# --------------------------------------------------------------------------- #
# SQL engine errors
# --------------------------------------------------------------------------- #
class SQLError(ReproError):
    """Base class for errors raised by the embedded SQL engine."""


class ParseError(SQLError):
    """The SQL text could not be tokenised or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class CatalogError(SQLError):
    """A schema object (table, function, column) is missing or duplicated."""


class ExecutionError(SQLError):
    """A statement failed during execution."""


class TypeMismatchError(ExecutionError):
    """A value could not be coerced to the declared SQL type."""


class PersistenceError(SQLError):
    """The on-disk database file or write-ahead log is invalid or corrupt."""


class CorruptionError(PersistenceError):
    """A checksum mismatch pinned to a location inside a database file.

    Raised when a crc32 check fails (or a quarantined row range is touched):
    ``table``, ``row_range`` (a ``(start, stop)`` half-open interval) and the
    file ``offset`` locate the damage precisely so an operator — or the
    ``salvage=True`` quarantine machinery — can contain it to one segment
    instead of discarding the whole database.
    """

    def __init__(self, message: str, *, table: str | None = None,
                 row_range: tuple[int, int] | None = None,
                 offset: int | None = None) -> None:
        super().__init__(message)
        self.table = table
        self.row_range = row_range
        self.offset = offset


class QueryAbortedError(ExecutionError):
    """A statement was stopped before completing (timeout or cancellation)."""


class QueryCancelledError(QueryAbortedError):
    """The statement was cancelled through its :class:`QueryContext`."""


class QueryTimeoutError(QueryAbortedError):
    """The statement exceeded its deadline and was aborted."""


class UDFError(ExecutionError):
    """A Python UDF raised an exception or returned an invalid result."""

    def __init__(self, function_name: str, message: str,
                 original: BaseException | None = None) -> None:
        super().__init__(f"UDF {function_name!r}: {message}")
        self.function_name = function_name
        self.original = original


# --------------------------------------------------------------------------- #
# Client protocol errors
# --------------------------------------------------------------------------- #
class ProtocolError(ReproError):
    """Base class for wire-protocol errors."""


class AuthenticationError(ProtocolError):
    """Login was rejected (unknown user or wrong password)."""


class ConnectionClosedError(ProtocolError):
    """An operation was attempted on a closed connection."""


class WireFormatError(ProtocolError):
    """A message frame could not be decoded."""


class DecryptionError(ProtocolError):
    """An encrypted payload failed integrity verification (wrong key?)."""


class ConnectionLostError(ProtocolError):
    """The peer went away mid-conversation (reset, EOF, or send timeout).

    Distinct from :class:`ConnectionClosedError` (local misuse of an already
    closed connection): losing the peer is an environmental fault, so
    idempotent statements may be retried on a fresh connection.
    """

    retryable = True


class ServerBusyError(ProtocolError):
    """The server refused the query: saturated or shutting down.

    Carries the structured wire error ``code`` (``saturated`` /
    ``shutting_down`` / ``session_limit``) so clients can distinguish
    transient overload from a drain in progress.
    """

    retryable = True

    def __init__(self, message: str, *, code: str = "saturated") -> None:
        super().__init__(message)
        self.code = code


# --------------------------------------------------------------------------- #
# devUDF plugin errors
# --------------------------------------------------------------------------- #
class DevUDFError(ReproError):
    """Base class for errors raised by the devUDF core."""


class SettingsError(DevUDFError):
    """The plugin settings are incomplete or inconsistent."""


class TransformError(DevUDFError):
    """A UDF body could not be transformed to/from a runnable file."""


class ImportUDFError(DevUDFError):
    """Importing UDFs from the database failed."""


class ExportUDFError(DevUDFError):
    """Exporting UDFs back to the database failed."""


class ExtractionError(DevUDFError):
    """The debug query could not be rewritten or the input data extracted."""


class DebugSessionError(DevUDFError):
    """The local debug session could not be started or driven."""


class ProjectError(DevUDFError):
    """An IDE project operation failed."""
