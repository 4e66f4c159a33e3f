"""Statement execution: dispatch, DML, and the SELECT plan driver.

The executor turns parsed statements into :class:`QueryResult` objects.  It
preserves the MonetDB-like *semantics* the devUDF workflows need (meta
tables, Python UDF invocation with whole columns, loopback queries,
table-producing UDFs with subquery arguments).

Since the physical-operator refactor, ``SELECT`` execution lives in
:mod:`repro.sqldb.plan` (the planner and morsel driver) and
:mod:`repro.sqldb.operators` (Scan/Filter/HashJoin/HashAggregate/Project/
Sort/Distinct/Limit): this module shrank to the statement dispatcher, the
DML/DDL paths (unchanged), and the ``EXPLAIN`` statement that renders a
plan without running it.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..errors import ExecutionError
from . import ast_nodes as ast
from .catalog import FunctionCatalog
from .csvio import load_csv_into_table
from .expressions import Batch, ExpressionEvaluator
from .plan import Planner, PlanMetrics, SelectPlan
from .result import QueryResult, ResultColumn
from .schema import ColumnDef, FunctionSignature, TableSchema
from .storage import Storage, Table, arrays_to_values
from .types import ColumnType, SQLType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cache import StatementProfile
    from .context import QueryContext
    from .database import Database


#: The statements that change what a table (``sys.tables`` included) holds.
_TABLE_CHANGING = (ast.InsertValues, ast.InsertSelect, ast.Delete, ast.Update,
                   ast.CopyInto, ast.CreateTable, ast.DropTable)


class Executor:
    """Executes parsed statements against a :class:`Database`."""

    def __init__(self, database: "Database") -> None:
        self.database = database
        self.planner = Planner(database)

    # ------------------------------------------------------------------ #
    # shortcuts
    # ------------------------------------------------------------------ #
    @property
    def storage(self) -> Storage:
        return self.database.storage

    @property
    def catalog(self) -> FunctionCatalog:
        return self.database.catalog

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def execute(self, statement: ast.Statement, *,
                context: "QueryContext | None" = None) -> QueryResult:
        """Run any statement but SELECT and EXECUTE — those the database's
        runner plans (:meth:`plan_select`) and binds (:meth:`bind_execute`)
        itself, because it decides between streaming and materialising."""
        if context is not None:
            # DML/DDL run whole-statement: one checkpoint up front so an
            # already-cancelled or expired statement never starts mutating
            context.check()
        try:
            return self._dispatch(statement, context=context)
        finally:
            if isinstance(statement, _TABLE_CHANGING):
                # even a failed one may have changed something on its way
                self.database.data_version += 1

    def _dispatch(self, statement: ast.Statement, *,
                  context: "QueryContext | None" = None) -> QueryResult:
        if isinstance(statement, ast.Explain):
            return self._execute_explain(statement, context=context)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.DropTable):
            # log before applying: the drop itself cannot fail once the
            # table is known to exist, so a WAL failure leaves memory and
            # disk agreeing (nothing happened)
            if self.storage.has_table(statement.name):
                self._log_wal({"op": "drop_table", "name": statement.name})
            self.storage.drop_table(statement.name, if_exists=statement.if_exists)
            return QueryResult.empty(statement_type="DROP TABLE")
        if isinstance(statement, ast.InsertValues):
            return self._execute_insert_values(statement)
        if isinstance(statement, ast.InsertSelect):
            return self._execute_insert_select(statement)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement)
        if isinstance(statement, ast.CreateFunction):
            return self._execute_create_function(statement)
        if isinstance(statement, ast.DropFunction):
            self.database.drop_function(statement.name,
                                        if_exists=statement.if_exists)
            return QueryResult.empty(statement_type="DROP FUNCTION")
        if isinstance(statement, ast.CopyInto):
            return self._execute_copy(statement)
        if isinstance(statement, ast.Checkpoint):
            return self._execute_checkpoint()
        if isinstance(statement, ast.Verify):
            return self._execute_verify()
        if isinstance(statement, ast.BackupTo):
            return self._execute_backup(statement)
        if isinstance(statement, ast.ShowStats):
            return self._execute_show_stats()
        if isinstance(statement, ast.Prepare):
            self.database.register_prepared(statement)
            return QueryResult.empty(statement_type="PREPARE")
        if isinstance(statement, ast.Deallocate):
            found = self.database.deallocate(statement.name)
            if not found:
                raise ExecutionError(
                    f"no prepared statement named {statement.name!r}")
            return QueryResult.empty(statement_type="DEALLOCATE")
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    def bind_execute(self, statement: ast.ExecutePrepared) -> tuple[
            ast.Statement, "tuple[str, StatementProfile] | None"]:
        """Bind EXECUTE arguments into a copy of the named template.

        Returns the bound statement for the database's runner to execute
        like any other, plus — for a SELECT template — its result-cache key
        (template text + bound values) and touch profile, so a hot EXECUTE
        can skip planning *and* execution.
        """
        prepared = self.database.resolve_prepared(statement.name)
        evaluator = ExpressionEvaluator(self.database, Batch.empty())
        values = [evaluator.constant(expr) for expr in statement.args]
        bound = self.database.bind_prepared(prepared, values)
        if not isinstance(bound, ast.Select):
            return bound, None
        return bound, (prepared.result_key(values), prepared.profile)

    # ------------------------------------------------------------------ #
    # write-ahead logging (persistent databases only)
    # ------------------------------------------------------------------ #
    @property
    def _wal_enabled(self) -> bool:
        return self.database.persistence is not None

    def _log_wal(self, record: dict[str, Any]) -> None:
        self.database.wal_log(record)

    def _log_wal_group(self, records: Any) -> None:
        """Append one statement's records as an all-or-nothing WAL group."""
        self.database.wal_log_group(records)

    #: Rows per ``insert``/``update`` WAL record.  Bulk statements are
    #: logged as a *group* of bounded records rather than one unbounded one:
    #: the reader treats an over-large length field as tail corruption (so a
    #: single giant record could be silently discarded on recovery), and the
    #: group would otherwise hold a full Python copy of the load in memory
    #: while encoding.  Every record but the group's last carries
    #: ``"more": True``; recovery only applies a group once its final record
    #: is intact, so a crash inside the group cannot replay half a statement.
    _WAL_INSERT_CHUNK_ROWS = 8192

    def _insert_chunk_records(self, table: Table, start_row: int,
                              leader: dict[str, Any] | None):
        """Yield the chunked ``insert`` records for rows past ``start_row``.

        Each carries its rows' stored buffers as one chunk blob, encoded
        like an image segment, so replay appends them as they are.  A
        generator so the group append holds at most one chunk in memory.
        """
        from .persist.format import encode_rows

        total = table.row_count
        if leader is not None:
            yield {**leader, "more": True} if total > start_row else leader
        for chunk_start in range(start_row, total,
                                 self._WAL_INSERT_CHUNK_ROWS):
            chunk_stop = min(chunk_start + self._WAL_INSERT_CHUNK_ROWS, total)
            record: dict[str, Any] = {
                "op": "insert", "table": table.name,
                "chunk": encode_rows(table, chunk_start, chunk_stop)}
            if chunk_stop < total:
                record["more"] = True
            yield record

    def _log_inserted(self, table: Table, start_row: int,
                      leader: dict[str, Any] | None = None) -> None:
        """Log the rows appended to ``table`` since ``start_row``.

        ``leader`` (a DDL record such as CTAS's ``create_table``) joins the
        same atomic group, so a crash can never recover the DDL effect
        without the rows that belong to the same statement.
        """
        if not self._wal_enabled:
            return
        if leader is None and table.row_count <= start_row:
            return
        self._log_wal_group(
            self._insert_chunk_records(table, start_row, leader))

    @staticmethod
    def _rollback_inserted(table: Table, start_row: int) -> None:
        """Undo rows appended since ``start_row`` (failed INSERT/COPY).

        Keeps the statement atomic: without this, a coercion error halfway
        through a multi-row insert — or a WAL append failure after the rows
        were applied — would leave rows that are visible in memory but
        absent from the WAL, so the live and recovered states of a
        persistent database would silently diverge.
        """
        for column in table.columns:
            column.truncate(start_row)

    # ------------------------------------------------------------------ #
    # SELECT: planner + morsel driver
    # ------------------------------------------------------------------ #
    def execute_select(self, select: ast.Select, *,
                       context: "QueryContext | None" = None) -> QueryResult:
        return self.plan_select(select, context=context).execute()

    def plan_select(self, select: ast.Select, *,
                    context: "QueryContext | None" = None) -> SelectPlan:
        """Lower a SELECT into an executable physical plan."""
        trace = context.trace if context is not None else None
        if trace is None:
            plan = self.planner.plan(select)
        else:
            started = perf_counter()
            plan = self.planner.plan(select)
            trace.add("plan", started, perf_counter())
        plan.context = context
        return plan

    def _execute_explain(self, statement: ast.Explain, *,
                         context: "QueryContext | None" = None) -> QueryResult:
        plan = self.plan_select(statement.query, context=context)
        if not statement.analyze:
            # plain EXPLAIN never executes the query
            lines = plan.explain_lines()
            column = ResultColumn("plan", SQLType.STRING, lines)
            return QueryResult([column], statement_type="EXPLAIN")
        plan.plan_metrics = PlanMetrics()
        try:
            started = perf_counter()
            plan.execute()
            elapsed = perf_counter() - started
            lines = plan.analyze_lines(elapsed=elapsed)
        finally:
            plan.plan_metrics = None
        column = ResultColumn("plan", SQLType.STRING, lines)
        return QueryResult([column], statement_type="EXPLAIN ANALYZE")

    # ------------------------------------------------------------------ #
    # DDL / DML
    # ------------------------------------------------------------------ #
    def _execute_create_table(self, statement: ast.CreateTable) -> QueryResult:
        if statement.as_select is not None:
            result = self.execute_select(statement.as_select)
            columns = [
                ColumnDef(col.name, ColumnType(col.sql_type)) for col in result.columns
            ]
            created = not self.storage.has_table(statement.name)
            table = self.storage.create_table(
                TableSchema(statement.name, columns), if_not_exists=statement.if_not_exists
            )
            before = table.row_count
            try:
                table.insert_rows(result.rows())
                # the create_table record leads the insert group: recovery
                # applies DDL and rows of one CTAS all-or-nothing
                self._log_inserted(
                    table, before,
                    leader=self._create_table_record(table) if created else None)
            except Exception:
                self._rollback_inserted(table, before)
                if created:
                    self.storage.drop_table(table.name, if_exists=True)
                raise
            return QueryResult.empty(affected_rows=result.row_count,
                                     statement_type="CREATE TABLE AS")
        # TableSchema construction already validated the column list, so
        # creating a known-missing table cannot fail: log before applying
        # and a WAL failure leaves memory and disk agreeing (nothing happened)
        schema = TableSchema(statement.name, list(statement.columns))
        if self._wal_enabled and not self.storage.has_table(statement.name):
            from .persist.records import schema_to_record

            self._log_wal({"op": "create_table",
                           "schema": schema_to_record(schema)})
        self.storage.create_table(schema, if_not_exists=statement.if_not_exists)
        return QueryResult.empty(statement_type="CREATE TABLE")

    def _create_table_record(self, table: Table) -> dict[str, Any]:
        from .persist.records import schema_to_record

        return {"op": "create_table", "schema": schema_to_record(table.schema)}

    def _insert_aligned_rows(self, table: Table, columns: Sequence[str],
                             rows: Any) -> int:
        """Apply + WAL-log one insert statement atomically.

        Any failure — a bad value (nothing is applied) or the WAL append
        itself (the rows are rolled back) — leaves the table as it was, so
        live state never diverges from what a crash would recover.
        """
        before = table.row_count
        try:
            inserted = table.insert_rows(
                self._align_insert_row(table, columns, row) for row in rows)
            self._log_inserted(table, before)
        except Exception:
            self._rollback_inserted(table, before)
            raise
        return inserted

    def _execute_insert_values(self, statement: ast.InsertValues) -> QueryResult:
        table = self.storage.table(statement.table)
        evaluator = ExpressionEvaluator(self.database, Batch.empty())
        rows = ([evaluator.constant(expr) for expr in row_exprs]
                for row_exprs in statement.rows)
        inserted = self._insert_aligned_rows(table, statement.columns, rows)
        return QueryResult.empty(affected_rows=inserted, statement_type="INSERT")

    def _execute_insert_select(self, statement: ast.InsertSelect) -> QueryResult:
        table = self.storage.table(statement.table)
        result = self.execute_select(statement.query)
        inserted = self._insert_aligned_rows(table, statement.columns,
                                             result.rows())
        return QueryResult.empty(affected_rows=inserted, statement_type="INSERT")

    @staticmethod
    def _align_insert_row(table: Table, columns: Sequence[str],
                          values: Sequence[Any]) -> list[Any]:
        if not columns:
            if len(values) != len(table.columns):
                raise ExecutionError(
                    f"INSERT into {table.name!r}: expected {len(table.columns)} values, "
                    f"got {len(values)}"
                )
            return list(values)
        if len(columns) != len(values):
            raise ExecutionError("INSERT column list and VALUES length mismatch")
        row: list[Any] = [None] * len(table.columns)
        for column_name, value in zip(columns, values):
            row[table.schema.column_index(column_name)] = value
        return row

    def _execute_delete(self, statement: ast.Delete) -> QueryResult:
        table = self.storage.table(statement.table)
        if statement.where is None:
            removed = table.row_count
            # log before applying: truncate cannot fail, so a WAL failure
            # leaves memory and disk agreeing (nothing happened)
            if removed:
                self._log_wal({"op": "truncate", "table": table.name})
            table.truncate()
            return QueryResult.empty(affected_rows=removed, statement_type="DELETE")
        batch = self._batch_from_table(table, alias=table.name)
        evaluator = ExpressionEvaluator(self.database, batch)
        mask = evaluator.evaluate_mask(statement.where)
        if isinstance(mask, np.ndarray):
            keep: Sequence[bool] = ~mask
        else:
            keep = [not selected for selected in mask]
        count_before = table.row_count
        removed_count = count_before - int(np.count_nonzero(
            np.asarray(keep, dtype=bool)))
        # log before applying — delete_rows on a length-validated mask
        # cannot fail
        if removed_count and self._wal_enabled:
            from .persist.records import pack_mask

            self._log_wal({"op": "delete", "table": table.name,
                           "keep_compressed": pack_mask(keep),
                           "count": count_before})
        removed = table.delete_rows(keep)
        return QueryResult.empty(affected_rows=removed, statement_type="DELETE")

    def _execute_update(self, statement: ast.Update) -> QueryResult:
        table = self.storage.table(statement.table)
        batch = self._batch_from_table(table, alias=table.name)
        evaluator = ExpressionEvaluator(self.database, batch)
        if statement.where is not None:
            mask = evaluator.evaluate_mask(statement.where)
        else:
            mask = np.ones(table.row_count, dtype=bool)
        assignments: dict[str, list[Any]] = {}
        for column_name, expression in statement.assignments:
            result = evaluator.evaluate(expression)
            assignments[column_name] = result.broadcast(table.row_count)
        # log before applying: the records carry the same coerced values
        # update_rows will store (coercion is deterministic, so pre-coercion
        # succeeding means the apply cannot fail), and a WAL failure
        # therefore leaves memory and disk agreeing (nothing happened)
        if self._wal_enabled:
            self._log_wal_group(self._update_records(table, mask, assignments))
        updated = table.update_rows(mask, assignments)
        return QueryResult.empty(affected_rows=updated, statement_type="UPDATE")

    def _update_records(self, table: Table, mask: Sequence[bool],
                        assignments: dict[str, list[Any]]):
        """Yield chunked ``update`` records: (selected indices, coerced values).

        Only the selected positions travel — an UPDATE of 1 row in a
        million-row table logs one value per assigned column, not a column
        image — and wide updates split into bounded ``more``-flagged chunks
        like bulk inserts (a generator, so the group append holds one
        chunk's coerced copy at a time).
        """
        selected = np.flatnonzero(np.asarray(mask, dtype=bool)).tolist()
        count = table.row_count
        for chunk_start in range(0, len(selected),
                                 self._WAL_INSERT_CHUNK_ROWS):
            chunk = selected[chunk_start:chunk_start
                             + self._WAL_INSERT_CHUNK_ROWS]
            # coerced by the column itself, so a value storage cannot hold
            # fails the statement here, before anything is logged
            columns = {
                name: arrays_to_values(*table.column(name).coerce_batch(
                    [values[index] for index in chunk]))
                for name, values in assignments.items()
            }
            record: dict[str, Any] = {"op": "update", "table": table.name,
                                      "count": count, "indices": chunk,
                                      "columns": columns}
            if chunk_start + self._WAL_INSERT_CHUNK_ROWS < len(selected):
                record["more"] = True
            yield record

    def _execute_create_function(self, statement: ast.CreateFunction) -> QueryResult:
        signature = FunctionSignature(
            name=statement.name,
            parameters=list(statement.parameters),
            returns_table=statement.returns_table,
            return_columns=list(statement.return_columns),
            return_type=statement.return_type,
            language=statement.language,
            body=statement.body,
        )
        # one implementation of the duplicate-check / log-before-apply /
        # register / invalidate sequence lives on the database facade
        self.database.create_function(signature, replace=statement.or_replace)
        return QueryResult.empty(statement_type="CREATE FUNCTION")

    def _execute_copy(self, statement: ast.CopyInto) -> QueryResult:
        table = self.storage.table(statement.table)
        before = table.row_count
        try:
            loaded = load_csv_into_table(table, statement.path,
                                         delimiter=statement.delimiter,
                                         header=statement.header)
            # the WAL carries the loaded rows themselves, not the CSV path:
            # the file may be gone (or different) when recovery replays
            self._log_inserted(table, before)
        except Exception:
            self._rollback_inserted(table, before)
            raise
        return QueryResult.empty(affected_rows=loaded, statement_type="COPY INTO")

    def _execute_checkpoint(self) -> QueryResult:
        stats = self.database.checkpoint()
        columns = [
            ResultColumn("generation", SQLType.BIGINT, [stats.generation]),
            ResultColumn("tables", SQLType.BIGINT, [stats.tables]),
            ResultColumn("segments", SQLType.BIGINT, [stats.segments]),
            ResultColumn("rows", SQLType.BIGINT, [stats.rows]),
            ResultColumn("file_bytes", SQLType.BIGINT, [stats.file_bytes]),
            ResultColumn("wal_records_truncated", SQLType.BIGINT,
                         [stats.wal_records_truncated]),
        ]
        return QueryResult(columns, statement_type="CHECKPOINT")

    def _execute_verify(self) -> QueryResult:
        report = self.database.verify()
        objects: list[Any] = []
        row_counts: list[Any] = []
        segments: list[Any] = []
        corrupt: list[Any] = []
        status: list[Any] = []
        detail: list[Any] = []

        def _row(name: str, rows: Any, segs: Any, bad: int,
                 errors: list[str]) -> None:
            objects.append(name)
            row_counts.append(rows)
            segments.append(segs)
            corrupt.append(bad)
            status.append("ok" if not bad and not errors else "corrupt")
            detail.append("; ".join(errors) if errors else None)

        image = report.image
        if image.error is not None:
            _row("(file)", None, None, 1, [image.error])
        for entry in image.tables:
            _row(entry.name, entry.rows, entry.segments,
                 entry.corrupt_segments, entry.errors)
        wal_errors = [report.wal_error] if report.wal_error else []
        if report.wal_torn:
            wal_errors.append("torn tail (will be discarded on recovery)")
        _row("(wal)", report.wal_records, None, len(wal_errors), wal_errors)
        columns = [
            ResultColumn("object", SQLType.STRING, objects),
            ResultColumn("rows", SQLType.BIGINT, row_counts),
            ResultColumn("segments", SQLType.BIGINT, segments),
            ResultColumn("corrupt", SQLType.BIGINT, corrupt),
            ResultColumn("status", SQLType.STRING, status),
            ResultColumn("detail", SQLType.STRING, detail),
        ]
        return QueryResult(columns, statement_type="VERIFY")

    def _execute_backup(self, statement: ast.BackupTo) -> QueryResult:
        stats = self.database.backup(statement.path)
        columns = [
            ResultColumn("path", SQLType.STRING, [stats.path]),
            ResultColumn("generation", SQLType.BIGINT, [stats.generation]),
            ResultColumn("tables", SQLType.BIGINT, [stats.tables]),
            ResultColumn("segments", SQLType.BIGINT, [stats.segments]),
            ResultColumn("rows", SQLType.BIGINT, [stats.rows]),
            ResultColumn("file_bytes", SQLType.BIGINT, [stats.file_bytes]),
            ResultColumn("seconds", SQLType.DOUBLE, [stats.seconds]),
        ]
        return QueryResult(columns, statement_type="BACKUP")

    def _execute_show_stats(self) -> QueryResult:
        snapshot = self.database.stats_snapshot()
        names = sorted(snapshot)
        columns = [
            ResultColumn("name", SQLType.STRING, names),
            ResultColumn("value", SQLType.BIGINT,
                         [snapshot[name] for name in names]),
        ]
        return QueryResult(columns, statement_type="SHOW STATS")

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _batch_from_table(table: Table, *, alias: str) -> Batch:
        # zero-copy scan: the batch holds the storage layer's published
        # (read-only) vectors, no column is copied per query
        table.check_readable()
        from .expressions import BatchColumn

        columns = [
            BatchColumn(alias, column.name, column.sql_type,
                        column.scan_values())
            for column in table.columns
        ]
        return Batch(columns, row_count=table.row_count)
