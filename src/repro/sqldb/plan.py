"""SELECT planning and the morsel-driven plan driver.

:class:`Planner` lowers a parsed ``SELECT`` into a tree of physical
operators (:mod:`repro.sqldb.operators`); :class:`SelectPlan` then drives
execution:

* **prepare** (under the database lock): bind scan sources — snapshot the
  referenced columns' scans, execute FROM-clause subqueries / table
  functions / virtual meta tables — and materialise every join's build side.
* **run**: split the pipeline source into row-range morsels — one rule,
  :func:`split_morsels`, whether or not the statement is cancellable — and
  drive them, inline and in order, through the one morsel loop
  (:meth:`SelectPlan._morsels`): scan a range, push it through the fused
  stage chain (join probes, filter), hand it to the sink.
  LEFT-join unmatched rows are deferred per stage and flushed, in arrival
  order, after the last morsel (matches first, then unmatched).  The loop
  has three consumers: the materialised projection, the streamed
  projection (:meth:`SelectPlan.stream_morsels`) and the aggregation.
* **finish**: concatenate projection pieces or merge aggregation partials,
  then apply the pipeline breakers (DISTINCT → ORDER BY → OFFSET/LIMIT) in
  clause order.

Statements that may not be split into morsels (UDF calls, scalar
subqueries) run as a single morsel.  The plan also renders itself
(:meth:`SelectPlan.explain_lines`) for ``EXPLAIN``.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence, TypeVar

from ..errors import CatalogError, ExecutionError
from . import ast_nodes as ast
from .aggregates import is_aggregate
from .cache import iter_nodes
from .expressions import (
    Batch,
    BatchColumn,
    ExpressionEvaluator,
    expression_contains_aggregate,
)
from .functions import is_builtin_scalar
from .operators import (
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    PhysicalOperator,
    Project,
    Scan,
    Sort,
    batch_from_result,
    concat_batches,
    concat_result_pieces,
    slice_result,
    statement_expressions,
)
from .result import QueryResult
from .schema import FunctionSignature
from .types import SQLType
from .udf import convert_table_result

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import QueryContext
    from .database import Database


T = TypeVar("T")

#: Default rows per morsel — matches the wire protocol's default chunk size,
#: so one pipeline morsel maps onto one ``result_chunk`` frame.
DEFAULT_MORSEL_ROWS = 65_536


def split_morsels(row_count: int, morsel_rows: int,
                  max_rows: int | None = None) -> list[tuple[int, int]]:
    """Row ranges covering ``[0, row_count)``; ``[(0, n)]`` if unsplit.

    The one splitting rule: ranges of ``min(max_rows, morsel_rows)`` rows
    whenever the input is longer than that.  An empty input is still one
    (empty) morsel, so every plan produces at least one piece.
    """
    row_count = max(0, int(row_count))
    step = morsel_rows
    if max_rows is not None:
        step = max(1, min(int(max_rows), step))
    if row_count <= step:
        return [(0, row_count)]
    return [(start, min(start + step, row_count))
            for start in range(0, row_count, step)]


#: Schemas of the virtual meta tables exposed by the catalog (Listing 1).
_SYS_FUNCTIONS_SCHEMA = [
    ("id", SQLType.INTEGER),
    ("name", SQLType.STRING),
    ("func", SQLType.STRING),
    ("mod", SQLType.STRING),
    ("language", SQLType.INTEGER),
    ("type", SQLType.INTEGER),
]

_SYS_ARGS_SCHEMA = [
    ("id", SQLType.INTEGER),
    ("func_id", SQLType.INTEGER),
    ("name", SQLType.STRING),
    ("type", SQLType.STRING),
    ("number", SQLType.INTEGER),
    ("inout", SQLType.INTEGER),
]

_SYS_TABLES_SCHEMA = [
    ("id", SQLType.INTEGER),
    ("name", SQLType.STRING),
    ("row_count", SQLType.BIGINT),
]


def virtual_table(database: "Database", name: str
                  ) -> tuple[list[tuple[str, SQLType]], list[tuple]] | None:
    lowered = name.lower()
    if lowered in ("sys.functions", "functions"):
        return _SYS_FUNCTIONS_SCHEMA, database.catalog.sys_functions_rows()
    if lowered in ("sys.args", "args"):
        return _SYS_ARGS_SCHEMA, database.catalog.sys_args_rows()
    if lowered in ("sys.tables", "tables"):
        rows = [
            (index, table_name, database.storage.table(table_name).row_count)
            for index, table_name in enumerate(database.storage.table_names())
        ]
        return _SYS_TABLES_SCHEMA, rows
    return None


def table_function_batch(database: "Database",
                         ref: ast.TableFunctionCall) -> Batch:
    """Materialise a table-producing UDF called in the FROM clause."""
    if not database.catalog.has(ref.name):
        raise CatalogError(f"unknown table function {ref.name!r}")
    signature: FunctionSignature = database.catalog.get(ref.name).signature
    alias = ref.alias or ref.name

    # Evaluate arguments: subqueries contribute one argument per result
    # column (MonetDB flattens them positionally); scalar expressions are
    # evaluated as constants.
    arg_values: list[Any] = []
    for arg in ref.args:
        if isinstance(arg, ast.Select):
            sub_result = database.execute_select(arg)
            for column in sub_result.columns:
                arg_values.append(column.to_numpy())
        else:
            evaluator = ExpressionEvaluator(database, Batch.empty())
            arg_values.append(evaluator.constant(arg))

    if len(arg_values) != len(signature.parameters):
        raise ExecutionError(
            f"table function {ref.name!r} expects {len(signature.parameters)} "
            f"arguments, got {len(arg_values)}"
        )
    raw = database.udf_runtime.invoke(signature, arg_values)

    if signature.returns_table:
        column_data = convert_table_result(signature, raw)
        columns = [
            BatchColumn(alias, column_name,
                        signature.return_columns[i].sql_type, values)
            for i, (column_name, values) in enumerate(column_data.items())
        ]
        row_count = len(columns[0].values) if columns else 0
        return Batch(columns, row_count=row_count)

    # Scalar function used in FROM: expose its result as a one-column table.
    from .udf import convert_scalar_result

    values, _ = convert_scalar_result(signature, raw, 0)
    column = BatchColumn(alias, signature.name,
                         signature.return_type or SQLType.DOUBLE, values)
    return Batch([column], row_count=len(values))


# --------------------------------------------------------------------------- #
# parallel-safety analysis
# --------------------------------------------------------------------------- #
def _expression_parallel_safe(expression: ast.Expression) -> bool:
    """May be split into morsels: evaluating it per morsel gives the same
    answer as evaluating it once over the whole input.

    Scalar subqueries (re-executed per evaluation) and Python UDFs (invoked
    once per whole column, an observable count) force whole-batch execution.
    """
    for node in iter_nodes(expression):
        if isinstance(node, (ast.ScalarSubquery, ast.ExistsSubquery,
                             ast.InSubquery)):
            return False
        if isinstance(node, ast.FunctionCall):
            if not is_aggregate(node.name) and not is_builtin_scalar(node.name):
                return False
    return True


def _from_clause_conditions(from_clause: ast.TableRef | None
                            ) -> Iterator[ast.Expression]:
    if isinstance(from_clause, ast.Join):
        if from_clause.condition is not None:
            yield from_clause.condition
        yield from _from_clause_conditions(from_clause.left)
        yield from _from_clause_conditions(from_clause.right)


def statement_parallel_safe(select: ast.Select) -> bool:
    expressions = statement_expressions(select)
    expressions.extend(_from_clause_conditions(select.from_clause))
    return all(_expression_parallel_safe(expr) for expr in expressions)


def referenced_columns(select: ast.Select) -> frozenset[str] | None:
    """The lower-cased name of every column reference anywhere in ``select``,
    subqueries included — a superset of what any of its scans must bind.
    None when a ``*`` or ``t.*`` select item names every column (the star
    of ``COUNT(*)`` is an argument, not an item)."""
    names: set[str] = set()
    for node in iter_nodes(select):
        if isinstance(node, ast.ColumnRef):
            names.add(node.name.lower())
        elif isinstance(node, ast.SelectItem) \
                and isinstance(node.expression, ast.Star):
            return None
    return frozenset(names)


# --------------------------------------------------------------------------- #
# planner
# --------------------------------------------------------------------------- #
class Planner:
    """Lowers a ``SELECT`` AST into a :class:`SelectPlan`."""

    def __init__(self, database: "Database") -> None:
        self.database = database

    def plan(self, select: ast.Select) -> "SelectPlan":
        source, stages = self._lower_from(select.from_clause,
                                          referenced_columns(select))
        if select.where is not None:
            stages.append(Filter(self.database, select.where))

        # an aggregate in the select list, HAVING or ORDER BY makes the
        # statement an aggregation
        aggregating = [item.expression for item in select.items
                       if not isinstance(item.expression, ast.Star)]
        if select.having is not None:
            aggregating.append(select.having)
        aggregating.extend(order.expression for order in select.order_by)
        has_aggregates = any(expression_contains_aggregate(expression)
                             for expression in aggregating)

        sink: Project | HashAggregate
        if select.group_by or has_aggregates:
            sink = HashAggregate(self.database, select)
        else:
            sink = Project(self.database, select.items)

        distinct = Distinct() if select.distinct else None
        sort = Sort(self.database, select) if select.order_by else None
        limit = None
        if select.limit is not None or select.offset is not None:
            limit = Limit(select.limit, select.offset)
        return SelectPlan(self.database, select, source, stages, sink,
                          distinct=distinct, sort=sort, limit=limit)

    def _lower_from(self, from_clause: ast.TableRef | None,
                    referenced: frozenset[str] | None
                    ) -> tuple[Scan, list[PhysicalOperator]]:
        """Lower a FROM tree into (pipeline source, probe/filter stages);
        a storage table's scan binds only the ``referenced`` columns."""
        if from_clause is None:
            return Scan("(no table)"), []
        if isinstance(from_clause, ast.NamedTable):
            alias = from_clause.alias or from_clause.name.split(".")[-1]
            return Scan(from_clause.name, alias, from_clause, referenced), []
        if isinstance(from_clause, ast.SubquerySource):
            return Scan("(subquery)", from_clause.alias, from_clause), []
        if isinstance(from_clause, ast.TableFunctionCall):
            return Scan(f"{from_clause.name}()", from_clause.alias,
                        from_clause), []
        if isinstance(from_clause, ast.Join):
            source, stages = self._lower_from(from_clause.left, referenced)
            build_source, build_stages = self._lower_from(from_clause.right,
                                                          referenced)
            join = HashJoin(self.database, from_clause.join_type,
                            from_clause.condition)
            join.build_source = build_source
            join.build_stages = build_stages
            stages.append(join)
            return source, stages
        raise ExecutionError(
            f"unsupported FROM item {type(from_clause).__name__}")


# --------------------------------------------------------------------------- #
# per-operator actuals (EXPLAIN ANALYZE)
# --------------------------------------------------------------------------- #
class PlanMetrics:
    """Actual rows / batches / wall time per plan node, one execution.

    Every sample — one ``(rows, batches, seconds)`` increment per operator
    per morsel — is summed into an entry keyed by operator identity.
    """

    __slots__ = ("_stats",)

    def __init__(self) -> None:
        #: ``id(operator) -> [rows, batches, seconds]``
        self._stats: dict[int, list[Any]] = {}

    def record(self, operator: PhysicalOperator, rows: int, seconds: float,
               batches: int = 1) -> None:
        key = id(operator)
        entry = self._stats.get(key)
        if entry is None:
            self._stats[key] = [rows, batches, seconds]
        else:
            entry[0] += rows
            entry[1] += batches
            entry[2] += seconds

    def stats_for(self, operator: PhysicalOperator
                  ) -> tuple[int, int, float] | None:
        entry = self._stats.get(id(operator))
        if entry is None:
            return None
        return entry[0], entry[1], entry[2]


# --------------------------------------------------------------------------- #
# the plan driver
# --------------------------------------------------------------------------- #
class SelectPlan:
    """An executable physical plan for one SELECT statement."""

    def __init__(self, database: "Database", select: ast.Select, source: Scan,
                 stages: list[PhysicalOperator],
                 sink: Project | HashAggregate, *,
                 distinct: Distinct | None, sort: Sort | None,
                 limit: Limit | None) -> None:
        self.database = database
        self.select = select
        self.source = source
        self.stages = stages
        self.sink = sink
        self.distinct = distinct
        self.sort = sort
        self.limit = limit
        self.parallel_safe = statement_parallel_safe(select)
        #: Cooperative cancellation/timeout control block; ``None`` runs
        #: unchecked (the pre-resilience behaviour).  Set by the executor
        #: before :meth:`prepare`.
        self.context: "QueryContext | None" = None
        #: Per-operator actuals collector (EXPLAIN ANALYZE).  ``None`` — the
        #: default — records nothing (see :meth:`_record`); the executor
        #: installs a fresh :class:`PlanMetrics` for one instrumented run.
        self.plan_metrics: PlanMetrics | None = None
        self._prepared = False
        self.root = self._link_tree()

    # -- plan-tree shape (EXPLAIN) ---------------------------------------- #
    def _link_tree(self) -> PhysicalOperator:
        def pipeline_root(source: Scan,
                          stages: Sequence[PhysicalOperator]) -> PhysicalOperator:
            node: PhysicalOperator = source
            for stage in stages:
                if isinstance(stage, HashJoin):
                    build_root = pipeline_root(stage.build_source,
                                               stage.build_stages)
                    stage.children = [node, build_root]
                else:
                    stage.children = [node]
                node = stage
            return node

        node = pipeline_root(self.source, self.stages)
        self.sink.children = [node]
        node = self.sink
        for breaker in (self.distinct, self.sort, self.limit):
            if breaker is not None:
                breaker.children = [node]
                node = breaker
        return node

    @property
    def streamable(self) -> bool:
        """Whether morsel results can leave before execution finishes.

        Projection pipelines only: aggregation, DISTINCT and ORDER BY are
        pipeline breakers, and statements that may not be split into
        morsels (UDF calls, scalar subqueries) must run whole-batch under the
        database lock.
        """
        return (isinstance(self.sink, Project) and self.distinct is None
                and self.sort is None and self.parallel_safe)

    # -- preparation ------------------------------------------------------- #
    def prepare(self) -> None:
        """Bind sources and join build sides (run under the database lock)."""
        if self._prepared:
            return
        if self.context is not None:
            self.context.check()
        self._template = self._prepare_pipeline(self.source, self.stages)
        self._prepared = True

    def _prepare_pipeline(self, source: Scan,
                          stages: Sequence[PhysicalOperator]) -> Batch:
        self._prepare_scan(source)
        template = source.batch_slice(0, 0)
        for stage in stages:
            if isinstance(stage, HashJoin):
                self._prepare_pipeline(stage.build_source, stage.build_stages)
                right_batch = self._run_pipeline_whole(stage.build_source,
                                                       stage.build_stages)
                started = perf_counter()
                template = stage.prepare(template, right_batch)
                # build time counts toward the join, but not as a batch:
                # ``batches`` stays the number of probed morsels
                self._record(stage, 0, started, 0)
            # Filter is schema-preserving: the template passes through
            # unevaluated (predicates only run over real morsels)
        return template

    def _prepare_scan(self, scan: Scan) -> None:
        source_ast = scan.source_ast
        if source_ast is None:
            scan.bind_batch(Batch.empty())
            return
        if isinstance(source_ast, ast.NamedTable):
            virtual = virtual_table(self.database, source_ast.name)
            if virtual is not None:
                schema, rows = virtual
                alias = scan.alias or source_ast.name
                columns = [
                    BatchColumn(alias, column_name, sql_type,
                                [row[i] for row in rows])
                    for i, (column_name, sql_type) in enumerate(schema)
                ]
                scan.bind_batch(Batch(columns, row_count=len(rows)))
                return
            table = self.database.storage.table(source_ast.name)
            # quarantined (salvaged) row ranges must fail the query with a
            # structured CorruptionError, never scan as placeholder NULLs
            table.check_readable()
            scan.bind_table(table)
            return
        if isinstance(source_ast, ast.SubquerySource):
            result = self.database.execute_select(source_ast.query)
            scan.bind_batch(batch_from_result(result, source_ast.alias))
            return
        if isinstance(source_ast, ast.TableFunctionCall):
            scan.bind_batch(table_function_batch(self.database, source_ast))
            return
        raise ExecutionError(
            f"unsupported FROM item {type(source_ast).__name__}")

    def _run_pipeline_whole(self, source: Scan,
                            stages: Sequence[PhysicalOperator]) -> Batch:
        """Materialise a build-side pipeline as one batch (single morsel)."""
        deferred: dict[int, list[Batch]] = {}
        outputs = [self._push(self._scan(source, 0, source.row_count),
                              stages, 0, deferred)]
        outputs.extend(self._flush_deferred(stages, deferred))
        return concat_batches(outputs)

    # -- stage-chain execution --------------------------------------------- #
    def _record(self, operator: PhysicalOperator, rows: int, started: float,
                batches: int = 1) -> None:
        """EXPLAIN ANALYZE timing: one sample for a step begun at ``started``
        (recorded only while a :class:`PlanMetrics` is installed)."""
        if self.plan_metrics is not None:
            self.plan_metrics.record(operator, rows,
                                     perf_counter() - started, batches)

    def _scan(self, source: Scan, start: int, stop: int) -> Batch:
        started = perf_counter()
        batch = source.batch_slice(start, stop)
        self._record(source, batch.row_count, started)
        return batch

    def _push(self, batch: Batch, stages: Sequence[PhysicalOperator],
              from_index: int, deferred: dict[int, list[Batch]]) -> Batch:
        """Push one batch through ``stages[from_index:]``.

        LEFT-join unmatched rows are recorded per stage index in
        ``deferred`` (processed later by :meth:`_flush_deferred`)."""
        for index in range(from_index, len(stages)):
            stage = stages[index]
            started = perf_counter()
            if isinstance(stage, HashJoin):
                batch, extra = stage.probe(batch)
                if extra is not None:
                    deferred.setdefault(index, []).append(extra)
            else:
                batch = stage.process(batch)
            self._record(stage, batch.row_count, started)
        return batch

    def _flush_deferred(self, stages: Sequence[PhysicalOperator],
                        deferred: dict[int, list[Batch]]) -> Iterator[Batch]:
        """Push deferred LEFT-join rows through the remaining stages.

        A flush can defer new rows at later stages; the ascending scan picks
        those up, so arrival order (matches first, then unmatched) holds."""
        for index in range(len(stages)):
            extras = deferred.pop(index, None)
            if extras:
                yield self._push(concat_batches(extras), stages, index + 1,
                                 deferred)

    def _morsels(self, ranges: list[tuple[int, int]],
                 sink: Callable[[Batch], T]) -> Iterator[T]:
        """The one morsel loop: yield ``sink(batch)`` for every range, in
        range order, then for every flushed LEFT-join deferral batch.

        A cancellation point precedes every morsel, so a cancel or timeout
        surfaces at the next morsel boundary even mid-stream.  A consumer
        that has enough simply stops iterating: the remaining morsels never
        run and the flush never runs.
        """
        context = self.context
        executed = self.database.morsels_executed
        deferred: dict[int, list[Batch]] = {}
        for start, stop in ranges:
            if context is not None:
                context.check()
            executed.inc()
            yield sink(self._push(self._scan(self.source, start, stop),
                                  self.stages, 0, deferred))
        if context is not None:
            context.check()
        for batch in self._flush_deferred(self.stages, deferred):
            yield sink(batch)

    def _project(self, batch: Batch) -> tuple[QueryResult, Batch | None]:
        """Projection sink: ``(piece, input batch)`` — the batch only when
        ORDER BY will need it (a queued morsel result should not pin its
        input)."""
        started = perf_counter()
        piece = self.sink.project(batch)
        self._record(self.sink, piece.row_count, started)
        return piece, batch if self.sort is not None else None

    # -- execution ---------------------------------------------------------- #
    def _split_ranges(self, max_rows: int | None = None
                      ) -> list[tuple[int, int]]:
        row_count = self.source.row_count
        if not self.parallel_safe:
            return [(0, row_count)]
        return split_morsels(row_count, self.database.morsel_rows, max_rows)

    def execute(self) -> QueryResult:
        """Run the plan to a complete :class:`QueryResult`."""
        self.prepare()
        ranges = self._split_ranges()
        #: pre-projection batches, kept only when ORDER BY needs them
        out_batches: list[Batch] | None = [] if self.sort is not None else None

        if isinstance(self.sink, HashAggregate):
            result = self._run_aggregate(ranges, out_batches)
        else:
            result = self._run_projection(ranges, out_batches)

        if self.context is not None:
            # last checkpoint before the pipeline breakers (sort etc.) run
            self.context.check()
        if self.distinct is not None:
            started = perf_counter()
            result = self.distinct.apply(result)
            self._record(self.distinct, result.row_count, started)
        if self.sort is not None:
            started = perf_counter()
            result = self.sort.apply(result, out_batches)
            self._record(self.sort, result.row_count, started)
        if self.limit is not None:
            started = perf_counter()
            result = self.limit.apply(result)
            self._record(self.limit, result.row_count, started)
        return result

    def _run_projection(self, ranges: list[tuple[int, int]],
                        out_batches: list[Batch] | None) -> QueryResult:
        stop_after = None
        if (self.limit is not None and self.distinct is None
                and self.sort is None):
            stop_after = self.limit.stop_after
        pieces: list[QueryResult] = []
        produced = 0
        for piece, batch in self._morsels(ranges, self._project):
            if out_batches is not None:
                out_batches.append(batch)
            pieces.append(piece)
            produced += piece.row_count
            if stop_after is not None and produced >= stop_after:
                break
        return concat_result_pieces(pieces)

    def _run_aggregate(self, ranges: list[tuple[int, int]],
                       out_batches: list[Batch] | None) -> QueryResult:
        sink = self.sink
        assert isinstance(sink, HashAggregate)
        use_partial = sink.mode == "partial" and len(ranges) > 1

        def morsel_state(batch: Batch) -> Any:
            started = perf_counter()
            state = sink.morsel_state(batch)
            # one partial state per morsel; output rows come from the merge
            # below, so only batches/time accrue here
            self._record(sink, 0, started)
            # the morsel's rows stay only for an ORDER BY that may need them
            return state, batch if out_batches is not None else None

        payloads = list(self._morsels(
            ranges, morsel_state if use_partial else lambda b: (None, b)))
        states = [state for state, _ in payloads]
        batches = [batch for _, batch in payloads]
        started = perf_counter()
        if use_partial:
            result = sink.finish_partial(states)
        else:
            result = sink.finish_sequential(concat_batches(batches))
        # a partial merge's batches were counted one per state above
        self._record(sink, result.row_count, started, 0 if use_partial else 1)
        if out_batches is not None:
            out_batches.extend(batches)
        return result

    # -- streaming ---------------------------------------------------------- #
    def stream_morsels(self, *, max_rows: int | None = None
                       ) -> Iterator[QueryResult]:
        """Yield the projection result morsel by morsel (streamable plans).

        OFFSET/LIMIT are applied across the stream; at least one (possibly
        empty) piece is always produced so consumers can read the result
        schema from the first piece.  :meth:`prepare` must have been called
        (under the database lock) before iterating.
        """
        assert self.streamable and self._prepared
        skip = self.limit.offset or 0 if self.limit is not None else 0
        remaining = self.limit.limit if self.limit is not None else None
        yielded = False
        for piece, _ in self._morsels(
                self._split_ranges(max_rows), self._project):
            rows = piece.row_count
            if skip >= rows:
                skip -= rows
            else:
                if skip or (remaining is not None and remaining < rows - skip):
                    piece = slice_result(piece, skip, remaining)
                    skip = 0
                if remaining is not None:
                    remaining -= piece.row_count
                yield piece
                yielded = True
            if remaining is not None and remaining <= 0:
                break
        if not yielded:
            # schema-only piece so consumers always see the column layout
            yield slice_result(self.sink.project(self._template), 0, 0)

    # -- EXPLAIN ------------------------------------------------------------ #
    def explain_lines(self) -> list[str]:
        """Render the operator tree with estimated morsel counts."""
        self._estimate_scans()
        lines: list[str] = []

        def render(node: PhysicalOperator, depth: int) -> None:
            lines.append("  " * depth + node.describe())
            for child in node.children:
                render(child, depth + 1)

        render(self.root, 0)
        safety = "yes" if self.parallel_safe else "no"
        lines.append(f"-- morsel_rows={self.database.morsel_rows} "
                     f"parallel_safe={safety}")
        return lines

    def analyze_lines(self, *, elapsed: float) -> list[str]:
        """Render the executed tree annotated with per-operator actuals.

        Requires :attr:`plan_metrics` to have been installed before the
        plan ran.  Operators that never saw a batch (e.g. pruned by an
        early LIMIT stop) carry no annotation.
        """
        self._estimate_scans()
        metrics = self.plan_metrics
        lines: list[str] = []

        def render(node: PhysicalOperator, depth: int) -> None:
            text = node.describe()
            stats = metrics.stats_for(node) if metrics is not None else None
            if stats is not None:
                rows, batches, seconds = stats
                text += (f" (actual rows={rows} batches={batches} "
                         f"time={seconds * 1000.0:.3f}ms)")
            lines.append("  " * depth + text)
            for child in node.children:
                render(child, depth + 1)

        render(self.root, 0)
        safety = "yes" if self.parallel_safe else "no"
        lines.append(f"-- morsel_rows={self.database.morsel_rows} "
                     f"parallel_safe={safety} "
                     f"total_time={elapsed * 1000.0:.3f}ms")
        return lines

    def _estimate_scans(self) -> None:
        """Annotate scans with row/morsel estimates without executing
        subqueries or UDFs (storage tables only)."""
        def visit(source: Scan, stages: Sequence[PhysicalOperator],
                  pipeline: bool) -> None:
            source_ast = source.source_ast
            if isinstance(source_ast, ast.NamedTable) \
                    and virtual_table(self.database, source_ast.name) is None:
                # unknown tables raise here, exactly as execution would
                rows = self.database.storage.table(source_ast.name).row_count
                source.estimated_rows = rows
                # the same rule execution splits by (:meth:`_split_ranges`)
                source.morsel_hint = len(split_morsels(
                    rows, self.database.morsel_rows)) \
                    if pipeline and self.parallel_safe else 1
            for stage in stages:
                if isinstance(stage, HashJoin):
                    visit(stage.build_source, stage.build_stages, False)

        visit(self.source, self.stages, True)

