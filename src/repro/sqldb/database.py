"""The embedded database facade.

A :class:`Database` owns the storage, the function catalog and the UDF
runtime, and executes SQL text end-to-end.  This is the stand-in for the
MonetDB server process devUDF connects to; :mod:`repro.netproto` wraps it in a
client/server protocol so the plugin-side code talks to it exactly like it
would talk to a remote server.
"""

from __future__ import annotations

import os
import re
import threading
from collections import deque
from time import perf_counter
from typing import TYPE_CHECKING, Any

from ..errors import ExecutionError
from ..obs import MetricsRegistry
from . import ast_nodes as ast
from .cache import (
    CachedPlan,
    PlanCache,
    PreparedStatement,
    ResultCache,
    StatementProfile,
    bind_parameters,
    normalize_sql,
    profile_statement,
)
from .catalog import FunctionCatalog
from .context import QueryContext
from .executor import Executor
from .lexer import LITERAL_OR_COMMENT
from .parser import Parser, parse_statement
from .plan import DEFAULT_MORSEL_ROWS
from .render import render_literal
from .result import QueryResult
from .schema import FunctionSignature
from .storage import Storage
from .udf import UDFRuntime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .persist import (
        BackupStats,
        CheckpointStats,
        PersistentStore,
        VerifyReport,
    )


#: Entries kept in :attr:`Database.query_log` (oldest dropped first).
QUERY_LOG_LIMIT = 10_000
#: Parsed SELECT statements kept in :attr:`Database.plan_cache`.
PLAN_CACHE_ENTRIES = 128


class Database:
    """An embedded, MonetDB-flavoured SQL database.

    A SELECT over more than ``morsel_rows`` rows executes as
    ``morsel_rows``-sized row ranges (morsels), run inline and in order,
    whatever the other settings are.  For a given ``morsel_rows`` the result
    is therefore byte-identical with or without a timeout, embedded or over
    the wire, literal or prepared.

    ``path`` makes the database durable: state lives in a single columnar
    file plus a write-ahead log (``<path>.wal``).  Opening recovers the last
    checkpoint and replays the log (discarding a torn tail from a crash);
    every SQL-level mutation is WAL-logged, ``CHECKPOINT`` (or
    :meth:`checkpoint`) rewrites the file and truncates the log, and
    :meth:`close` checkpoints automatically.  The default ``path=None``
    keeps the engine fully in-memory, exactly as before.  Mutations made by
    poking storage internals directly (tests, bulk loaders) bypass the WAL
    and become durable at the next checkpoint.
    """

    def __init__(self, name: str = "demo", *,
                 morsel_rows: int = DEFAULT_MORSEL_ROWS,
                 path: str | os.PathLike[str] | None = None,
                 segment_rows: int | None = None,
                 wal_fsync_batch: int | None = None,
                 salvage: bool = False,
                 result_cache_bytes: int = 0) -> None:
        self.name = name
        self.storage = Storage()
        #: Engine-wide metrics (counters, gauges, latency histograms),
        #: default-on, and the one source of :meth:`stats_snapshot`: the
        #: store and the wire server register theirs here too.  Metric names
        #: carry their full dotted prefix (``db.query_us``,
        #: ``persist.wal_fsync_us``, ``server.errors``).
        self.metrics = MetricsRegistry()
        self._h_query = self.metrics.histogram("db.query_us")
        self._h_parse = self.metrics.histogram("db.parse_us")
        self._h_execute = self.metrics.histogram("db.execute_us")
        #: LRU of parsed SELECT statements keyed by normalized SQL text —
        #: hot statements skip lexing/parsing.
        self.plan_cache = PlanCache(PLAN_CACHE_ENTRIES)
        #: Byte-bounded LRU of materialised read-only SELECT results, valid
        #: while :attr:`data_version` stands still.  Off by default: the
        #: embedded engine is frequently benchmarked by re-running identical
        #: SQL, and tests mutate storage directly (leaving the version
        #: alone).  The wire server turns it on.
        self.result_cache: ResultCache | None = ResultCache(
            result_cache_bytes, lambda: self.data_version) \
            if result_cache_bytes > 0 else None
        #: PREPARE name AS ... templates, shared by every connection.
        self._prepared: dict[str, PreparedStatement] = {}
        self.catalog = FunctionCatalog()
        self.udf_runtime = UDFRuntime(self)
        #: Rows per morsel (see :func:`~repro.sqldb.plan.split_morsels`).
        self.morsel_rows = max(1, int(morsel_rows))
        #: Morsels the plan loop actually ran (an early LIMIT stop or an
        #: abandoned stream counts only the ones it reached).
        self.morsels_executed = self.metrics.counter("db.morsels_executed")
        self._executor = Executor(self)
        self._lock = threading.RLock()
        #: Bumped by every effective CREATE / DROP FUNCTION.  The wire server
        #: ships it in each result header, so a client may keep what it read
        #: from ``sys.functions`` / ``sys.args`` until the number moves.
        self.catalog_version = 0
        #: Bumped after every statement that changes a table (DML, CREATE /
        #: DROP TABLE, COPY INTO) and with :attr:`catalog_version`, since
        #: ``sys.functions`` and ``sys.args`` are tables too: a result
        #: computed at one version holds until the number moves.
        self.data_version = 0
        #: Count of executed statements, used by the workflow simulators to
        #: report "server round trips".
        self.statements_executed = 0
        self.metrics.gauge("db.statements_executed",
                           lambda: self.statements_executed)
        self.metrics.gauge("db.tables",
                           lambda: len(self.storage.table_names()))
        #: Recent SQL texts (bounded: a long-lived server must not leak one
        #: string per query executed over its lifetime).
        self.query_log: deque[str] = deque(maxlen=QUERY_LOG_LIMIT)
        #: Durable-store handle; ``None`` for the in-memory default.  Import
        #: lazily: the persist package pulls in the wire codecs, whose
        #: package imports this module (cycle at module-import time only).
        #: ``salvage=True`` opens a damaged file in quarantine mode instead
        #: of refusing: corrupt segments load as sealed NULL placeholder
        #: ranges and touching the affected table raises a structured
        #: :class:`~repro.errors.CorruptionError`.
        self.persistence: "PersistentStore | None" = None
        if path is not None:
            from .persist import (
                DEFAULT_FSYNC_BATCH,
                DEFAULT_SEGMENT_ROWS,
                PersistentStore,
            )

            self.persistence = PersistentStore(
                path, self,
                segment_rows=segment_rows or DEFAULT_SEGMENT_ROWS,
                fsync_batch=wal_fsync_batch or DEFAULT_FSYNC_BATCH,
                salvage=salvage, metrics=self.metrics)
            self.persistence.open()

    @property
    def path(self) -> str | None:
        """The durable file path, or ``None`` for an in-memory database."""
        return str(self.persistence.path) if self.persistence else None

    # ------------------------------------------------------------------ #
    # SQL execution
    # ------------------------------------------------------------------ #
    def execute(self, sql: str, parameters: tuple | dict | None = None, *,
                timeout: float | None = None,
                context: QueryContext | None = None) -> QueryResult:
        """Parse and execute a single SQL statement.

        ``timeout`` (seconds) aborts the statement cooperatively at the next
        morsel boundary once the deadline passes, raising
        :class:`~repro.errors.QueryTimeoutError`; ``context`` passes an
        externally cancellable :class:`QueryContext` (a wire-level ``cancel``
        uses this).  Both may be given — the tighter deadline wins.
        """
        if parameters:
            sql = _apply_parameters(sql, parameters)
        return self._run(sql, context=QueryContext.resolve(context, timeout))

    def execute_script(self, sql: str) -> list[QueryResult]:
        """Execute a semicolon-separated script; returns one result per statement.

        The whole script is parsed before its first statement runs, and it
        runs as a unit: the (re-entrant) database lock is held throughout.
        """
        with self._lock:
            return [self._run(text, statement)
                    for statement, text in Parser(sql).parse_script()]

    def execute_select(self, select: ast.Select) -> QueryResult:
        """Execute an already-parsed SELECT (used for subqueries and loopback)."""
        return self._executor.execute_select(select)

    def execute_stream(self, sql: str, *, max_rows: int | None = None,
                       timeout: float | None = None,
                       context: QueryContext | None = None
                       ) -> "QueryResult | StreamedResult":
        """Execute one statement, streaming SELECT results morsel by morsel.

        Returns a :class:`StreamedResult` — an iterator of per-morsel
        :class:`QueryResult` pieces — when the statement is a streamable
        SELECT (projection pipeline: no aggregation/DISTINCT/ORDER BY, no
        UDFs or scalar subqueries).  The plan is prepared (sources bound,
        join build sides materialised) under the database lock; iterating
        the pieces then runs lock-free on scan snapshots, so the first piece
        is available before the query finishes.  Everything else returns a
        complete :class:`QueryResult`, exactly like :meth:`execute`.
        """
        return self._run(sql, context=QueryContext.resolve(context, timeout),
                         stream=True, max_rows=max_rows)

    def execute_prepared(self, name: str, arguments: list[Any], *,
                         timeout: float | None = None,
                         context: QueryContext | None = None) -> QueryResult:
        """Execute a prepared template with already-Python-typed arguments.

        This is the wire server's entry point for ``execute_prepared``
        messages: values arrive decoded from the wire, so they are wrapped
        as literals rather than re-parsed.
        """
        statement = ast.ExecutePrepared(
            name, [ast.Literal(value) for value in arguments])
        return self._run(f"EXECUTE {name}", statement,
                         context=QueryContext.resolve(context, timeout))

    def _run(self, sql: str, statement: ast.Statement | None = None, *,
             context: QueryContext | None = None, stream: bool = False,
             max_rows: int | None = None) -> Any:
        """The one statement path behind every ``execute*`` entry point.

        Counts and logs the statement, parses ``sql`` through the plan cache
        (unless the caller hands in a ``statement``), binds an ``EXECUTE``,
        consults the result cache, plans and runs — and observes all of it:
        ``db.parse_us`` / ``db.execute_us`` / ``db.query_us`` and the
        ``parse`` / ``plan`` / ``execute`` trace spans, once per statement
        whatever its kind.  A materialised statement runs under the database
        lock.  With ``stream`` a streamable SELECT is only prepared under it
        (span ``prepare``): its morsels run lock-free as the caller iterates,
        and ``db.query_us`` is observed when the stream ends.
        """
        trace = context.trace if context is not None else None
        query_started = perf_counter()
        result: "QueryResult | StreamedResult | None" = None
        try:
            with self._lock:
                self.statements_executed += 1
                self.query_log.append(sql)
                cacheable = None
                if statement is None:
                    parse_started = perf_counter()
                    statement, cacheable = self._parse_cached(sql)
                    parse_ended = perf_counter()
                    self._h_parse.observe(parse_ended - parse_started)
                    if trace is not None:
                        trace.add("parse", parse_started, parse_ended)
                run_started = perf_counter()
                if isinstance(statement, ast.ExecutePrepared):
                    # prepared executions are repeated point/small queries:
                    # they stay materialised, the result-cache friendly shape
                    statement, cacheable = \
                        self._executor.bind_execute(statement)
                    stream = False
                cache = self.result_cache
                if cache is None or cacheable is None \
                        or not cacheable[1].deterministic():
                    cache = None  # neither read nor fed by this statement
                else:
                    key = cacheable[0]
                    result = cache.get(key)
                if result is None and isinstance(statement, ast.Select):
                    plan = self._executor.plan_select(statement,
                                                      context=context)
                    if stream and plan.streamable:
                        plan.prepare()
                        result = StreamedResult(
                            plan, max_rows=max_rows,
                            on_complete=lambda: self._h_query.observe(
                                perf_counter() - query_started))
                    else:
                        result = plan.execute()
                        if cache is not None:
                            cache.put(key, result)
                elif result is None:
                    result = self._executor.execute(statement,
                                                    context=context)
                run_ended = perf_counter()
                self._h_execute.observe(run_ended - run_started)
                if context is not None:
                    # under the statement's lock: the catalog it saw or left
                    context.catalog_version = self.catalog_version
                if trace is not None:
                    trace.add("prepare" if isinstance(result, StreamedResult)
                              else "execute", run_started, run_ended)
            return result
        finally:
            if not isinstance(result, StreamedResult):
                self._h_query.observe(perf_counter() - query_started)

    # ------------------------------------------------------------------ #
    # plan / result caches and prepared statements
    # ------------------------------------------------------------------ #
    def _parse_cached(self, sql: str) -> tuple[
            ast.Statement, "tuple[str, StatementProfile] | None"]:
        """Parse one statement through the plan cache.

        Returns the statement plus, when it is a SELECT, its result-cache
        key and profile; other statement types are never cached.
        Raises when the statement still contains unbound ``?`` placeholders
        — those must go through PREPARE/EXECUTE.
        """
        key = normalize_sql(sql)
        entry = self.plan_cache.get(key)
        if entry is None:
            statement = parse_statement(sql)
            if not isinstance(statement, ast.Select):
                return statement, None
            entry = CachedPlan(statement, profile_statement(statement))
            if entry.profile.parameter_count:
                raise ExecutionError(
                    "statement contains unbound '?' placeholders; use "
                    "PREPARE name AS ... and EXECUTE name (args)")
            self.plan_cache.put(key, entry)
        return entry.statement, (key, entry.profile)

    # -- PREPARE / EXECUTE / DEALLOCATE -------------------------------- #
    def register_prepared(self, statement: ast.Prepare) -> PreparedStatement:
        """Register (or replace) a named statement template."""
        profile = profile_statement(statement.statement)
        prepared = PreparedStatement(
            name=statement.name,
            sql=statement.sql,
            key=normalize_sql(statement.sql),
            statement=statement.statement,
            profile=profile,
        )
        with self._lock:
            self._prepared[statement.name.lower()] = prepared
        return prepared

    def prepare(self, name: str, sql: str) -> PreparedStatement:
        """``PREPARE name AS sql`` as a Python API (used by the wire server)."""
        self.execute(f"PREPARE {name} AS {sql}")
        with self._lock:
            return self._prepared[name.lower()]

    def resolve_prepared(self, name: str) -> PreparedStatement:
        prepared = self._prepared.get(name.lower())
        if prepared is None:
            raise ExecutionError(f"no prepared statement named {name!r}")
        return prepared

    def deallocate(self, name: str | None) -> bool:
        """Drop one prepared statement (or all with ``name=None``)."""
        with self._lock:
            if name is None:
                self._prepared.clear()
                return True
            return self._prepared.pop(name.lower(), None) is not None

    def bind_prepared(self, prepared: PreparedStatement,
                      values: list[Any]) -> ast.Statement:
        """Bind argument values into a fresh copy of the template AST."""
        if len(values) != prepared.parameter_count:
            raise ExecutionError(
                f"prepared statement {prepared.name!r} expects "
                f"{prepared.parameter_count} argument(s), got {len(values)}")
        return bind_parameters(prepared.statement, values,
                               bearing=prepared.bearing_ids())

    def checkpoint(self) -> "CheckpointStats":
        """Write a fresh database image and truncate the write-ahead log.

        Raises :class:`ExecutionError` for in-memory databases — there is
        nothing durable to checkpoint, and silently succeeding would let an
        operator believe data survived a restart.
        """
        with self._lock:
            if self.persistence is None:
                raise ExecutionError(
                    "CHECKPOINT requires a persistent database "
                    "(open it with Database(path=...))")
            return self.persistence.checkpoint()

    def verify(self) -> "VerifyReport":
        """Re-check every checksum of the on-disk image and WAL (scrub).

        Deliberately lock-free: only on-disk bytes are read, so a scrub can
        run while readers execute.  Raises :class:`ExecutionError` for
        in-memory databases, mirroring :meth:`checkpoint`.
        """
        if self.persistence is None:
            raise ExecutionError(
                "VERIFY requires a persistent database "
                "(open it with Database(path=...))")
        return self.persistence.verify()

    def backup(self, target: str | os.PathLike[str]) -> "BackupStats":
        """Write a consistent standalone image at ``target`` (online backup).

        Runs under the database lock so the image is a clean statement
        boundary snapshot; restore is simply ``Database(path=target)``.
        """
        with self._lock:
            if self.persistence is None:
                raise ExecutionError(
                    "BACKUP requires a persistent database "
                    "(open it with Database(path=...))")
            return self.persistence.backup(target)

    def stats_snapshot(self) -> dict[str, int]:
        """Flat ``{qualified_counter: value}`` map for SHOW STATS / wire."""
        return self.metrics.snapshot()

    def close(self) -> None:
        """Checkpoint and seal a persistent database.

        An in-memory database stays usable afterwards.  A persistent
        database writes a final checkpoint, truncates its WAL and closes the
        log file — after that, further mutations raise rather than silently
        losing durability.
        """
        with self._lock:
            if self.persistence is not None and not self.persistence.closed:
                self.persistence.close(checkpoint=True)

    # ------------------------------------------------------------------ #
    # convenience helpers used throughout the reproduction
    # ------------------------------------------------------------------ #
    def create_function(self, signature: FunctionSignature, *, replace: bool = True) -> None:
        """Register a UDF directly from a signature object (bypassing SQL)."""
        if not replace and self.catalog.has(signature.name):
            # raises the canonical duplicate-function error; nothing to log
            self.catalog.register(signature, replace=False)
        # log before applying (registration can no longer fail), so a WAL
        # failure leaves memory and disk agreeing
        if self.persistence is not None:
            from .persist.records import signature_to_record

            self.wal_log({"op": "create_function",
                          "signature": signature_to_record(signature)})
        self.catalog.register(signature, replace=replace)
        self._function_changed()

    def drop_function(self, name: str, *, if_exists: bool = False) -> None:
        """Remove a UDF; a missing one raises unless ``if_exists``."""
        if self.catalog.has(name):
            self.wal_log({"op": "drop_function", "name": name})
        elif if_exists:
            return
        self.catalog.drop(name)
        self._function_changed()

    def _function_changed(self) -> None:
        self.catalog_version += 1
        self.data_version += 1

    def wal_log(self, record: dict[str, Any]) -> None:
        """Append one logical mutation record to the WAL (no-op in memory)."""
        if self.persistence is not None:
            self.persistence.log(record)

    def wal_log_group(self, records: Any) -> None:
        """Append one statement's records as an all-or-nothing WAL group."""
        if self.persistence is not None:
            self.persistence.log_group(records)

    def table_names(self) -> list[str]:
        return self.storage.table_names()

    def function_names(self) -> list[str]:
        return self.catalog.names()

    def has_function(self, name: str) -> bool:
        return self.catalog.has(name)

    def row_count(self, table_name: str) -> int:
        return self.storage.table(table_name).row_count


class StreamedResult:
    """An iterator of per-morsel :class:`QueryResult` pieces of one SELECT.

    The first piece always carries the result's column layout (a streamable
    plan yields at least one — possibly empty — piece), so consumers such as
    the wire server can emit a result header before execution finishes.
    """

    def __init__(self, plan: Any, *, max_rows: int | None = None,
                 on_complete: Any = None) -> None:
        self.plan = plan
        self.statement_type = "SELECT"
        self.affected_rows = 0
        #: The plan's cancellation control block (``None`` when the caller
        #: passed neither a timeout nor a context) — the wire server
        #: registers it so a ``cancel`` message can abort the stream.
        self.context = plan.context
        pieces = plan.stream_morsels(max_rows=max_rows)
        if on_complete is not None:
            pieces = self._finalized(pieces, on_complete)
        self._pieces = pieces

    @staticmethod
    def _finalized(pieces: Any, on_complete: Any) -> Any:
        """Run ``on_complete`` once the stream ends (drained or abandoned)."""
        try:
            yield from pieces
        finally:
            on_complete()

    def __iter__(self) -> Any:
        return self._pieces

    def pieces(self) -> Any:
        return self._pieces


#: A printf-style placeholder, positional (``%s`` / ``%d`` / ``%f`` / ``%i``)
#: or named (``%(name)s``), or the ``%%`` escape.
_PLACEHOLDER = re.compile(r"%%|%(?:\((\w+)\))?[sdfi]")


def _apply_parameters(sql: str, parameters: tuple | dict) -> str:
    """Very small client-side parameter substitution (printf-style).

    The paper's Listing 3 uses ``%d`` substitution inside the UDF's loopback
    query; the client protocol uses the same convention, so it lives here.
    Placeholders are bound only outside string literals and comments (``%``
    alone is SQL's modulo), each value spelled by :func:`render_literal`;
    ``%%`` means ``%`` everywhere, inside literals too (DB-API pyformat).
    """
    positional = iter(() if isinstance(parameters, dict) else parameters)

    def bind(match: re.Match[str]) -> str:
        name = match.group(1)
        if match.group() == "%%":
            return "%"
        text = render_literal(
            next(positional) if name is None else parameters[name])
        return f"({text})" if text.startswith("-") else text  # not ``--``

    # [outside, literal or comment, outside, ...]
    pieces = LITERAL_OR_COMMENT.split(sql)
    try:
        pieces[::2] = [_PLACEHOLDER.sub(bind, piece) for piece in pieces[::2]]
        pieces[1::2] = [piece.replace("%%", "%") for piece in pieces[1::2]]
        complete = next(positional, pieces) is pieces
    except (KeyError, TypeError, StopIteration):
        complete = False
    if not complete:
        raise ExecutionError(f"cannot bind parameters {parameters!r}: "
                             "placeholders and values do not match")
    return "".join(pieces)
