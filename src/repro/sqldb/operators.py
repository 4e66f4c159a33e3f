"""Physical query operators: the executable nodes of a SELECT plan.

The planner (:mod:`repro.sqldb.plan`) lowers a parsed ``SELECT`` into a tree
of the operators defined here; the plan driver then pushes morsel-sized
:class:`~repro.sqldb.expressions.Batch`es through them:

* :class:`Scan` produces row-range morsels from a storage table (zero-copy
  slices of the referenced columns' scans), a virtual meta table, a
  subquery result or a table-producing UDF.
* :class:`Filter` applies the WHERE predicate per morsel.
* :class:`HashJoin` materialises its build (right) side once, then probes it
  with each left morsel.  Equi-joins probe a direct-address table or sorted
  keys over shared-dictionary codes or a common numeric dtype — for several
  pairs, a composite of each value's position among its pair's build values;
  list keys probe row-tuple codes.  Other conditions evaluate vectorised over
  the morsel-by-build cross product.  LEFT-join unmatched rows are deferred
  and flushed after the last probe morsel: matches first, then unmatched, at
  every morsel size.
* :class:`HashAggregate` either aggregates the concatenated input in one
  pass (the single-morsel / exotic-aggregate path) or builds per-morsel
  partial states — local group layouts plus SUM/AVG/MIN/MAX/COUNT partials
  — and merges them in morsel order, which keeps first-appearance group
  order.  Which of the two runs depends on the input's length and
  ``morsel_rows`` only, never on the entry point.  Every grouping and
  DISTINCT factorises its keys with :func:`layout_from_keys`.
* :class:`Project` evaluates the select list per morsel; :class:`Sort`,
  :class:`Distinct` and :class:`Limit` are pipeline breakers applied to the
  materialised result.
"""

from __future__ import annotations

import collections
import functools
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..errors import ExecutionError
from . import ast_nodes as ast
from .aggregates import (
    VECTOR_AGGREGATES,
    GroupLayout,
    PartialAggregate,
    aggregate_is_star,
    grouped_aggregate,
    is_aggregate,
    merge_partial_aggregates,
    partial_aggregate,
)
from .expressions import (
    Batch,
    BatchColumn,
    EvalResult,
    ExpressionEvaluator,
    child_expressions,
    default_output_name,
    expression_contains_aggregate,
    iter_function_calls,
    slice_values,
    take_values,
    true_rows,
)
from .functions import is_builtin_scalar
from .result import QueryResult, ResultColumn
from .types import SQLType, infer_sql_type, python_value
from .vector import (NULL_CODE, Vector, as_value_list, concat_values,
                     int_magnitude, typed_vector)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import Database


# --------------------------------------------------------------------------- #
# generic helpers (moved from executor.py)
# --------------------------------------------------------------------------- #
def infer_column_type(values: Sequence[Any]) -> SQLType:
    sample = next((value for value in values if value is not None), None)
    return infer_sql_type(sample) if sample is not None else SQLType.STRING


def batch_from_result(result: QueryResult, alias: str | None) -> Batch:
    columns = [
        BatchColumn(alias, column.name, column.sql_type, column.batch_values())
        for column in result.columns
    ]
    return Batch(columns, row_count=result.row_count)


def concat_batches(batches: Sequence[Batch]) -> Batch:
    """Concatenate same-structure batches (morsels) back into one batch."""
    batches = [batch for batch in batches if batch is not None]
    if len(batches) == 1:
        return batches[0]
    if not batches:
        return Batch([], row_count=0)
    first = batches[0]
    columns = []
    for index, column in enumerate(first.columns):
        pieces = [batch.columns[index].values for batch in batches]
        columns.append(BatchColumn(column.table, column.name, column.sql_type,
                                   concat_values(pieces)))
    return Batch(columns, row_count=sum(batch.row_count for batch in batches))


def conjuncts(expression: ast.Expression) -> Iterator[ast.Expression]:
    """Flatten an AND tree into its conjuncts."""
    if isinstance(expression, ast.BinaryOp) and expression.op.upper() == "AND":
        yield from conjuncts(expression.left)
        yield from conjuncts(expression.right)
    else:
        yield expression


def column_side(ref: ast.ColumnRef, left: Batch, right: Batch) -> str | None:
    """Which join input a column reference belongs to ('left'/'right'/None).

    Anything other than exactly one matching column across both inputs —
    unknown names, names ambiguous within one side or across sides — returns
    None so the fallback path raises the same error resolution always did.
    """
    matches_left = len(left.matching_columns(ref.name, ref.table))
    matches_right = len(right.matching_columns(ref.name, ref.table))
    if matches_left == 1 and matches_right == 0:
        return "left"
    if matches_right == 1 and matches_left == 0:
        return "right"
    return None


def collect_aggregates(expression: ast.Expression,
                       out: list[ast.FunctionCall]) -> None:
    """Collect every aggregate call in the tree (not descending into them)."""
    if isinstance(expression, ast.FunctionCall) and is_aggregate(expression.name):
        out.append(expression)
        return
    for child in child_expressions(expression):
        collect_aggregates(child, out)


def calls_udf(expressions: Iterable[ast.Expression]) -> bool:
    """Whether any expression calls a Python UDF (a function that is neither
    an aggregate nor a built-in scalar)."""
    return any(not is_aggregate(call.name) and not is_builtin_scalar(call.name)
               for expression in expressions
               for call in iter_function_calls(expression))


def statement_expressions(select: ast.Select) -> list[ast.Expression]:
    """Every expression appearing anywhere in a SELECT (own level only)."""
    expressions = [item.expression for item in select.items
                   if not isinstance(item.expression, ast.Star)]
    if select.where is not None:
        expressions.append(select.where)
    expressions.extend(select.group_by)
    if select.having is not None:
        expressions.append(select.having)
    expressions.extend(order.expression for order in select.order_by)
    return expressions


# --------------------------------------------------------------------------- #
# result transforms: DISTINCT / ORDER BY / OFFSET-LIMIT
# --------------------------------------------------------------------------- #
def distinct_result(result: QueryResult) -> QueryResult:
    """The first row of each distinct row: the result columns factorised as
    one key by :func:`layout_from_keys`."""
    keys = [column.batch_values() for column in result.columns]
    _, first_rows, _ = layout_from_keys(keys, result.row_count)
    if len(first_rows) == result.row_count:
        return result
    return QueryResult([
        ResultColumn(column.name, column.sql_type, take_values(values, first_rows))
        for column, values in zip(result.columns, keys)
    ])


def slice_result(result: QueryResult, offset: int, limit: int | None) -> QueryResult:
    end = None if limit is None else offset + limit
    columns = [
        ResultColumn(col.name, col.sql_type, col.values[offset:end])
        for col in result.columns
    ]
    return QueryResult(columns)


def sorted_indices(keys: list[list[Any]], descending: list[bool],
                   row_count: int) -> Sequence[int]:
    """Row ordering for ORDER BY: ``np.lexsort`` for NULL-free numeric keys,
    stable Python sorts otherwise.  NULLs sort last for both ASC and DESC."""
    arrays: list[np.ndarray] | None = []
    for values in keys:
        try:
            array = np.asarray(values)
        except (TypeError, ValueError, OverflowError):
            arrays = None
            break
        if array.dtype.kind not in "biuf" or array.shape != (row_count,):
            arrays = None
            break
        arrays.append(array)

    if arrays:
        sort_keys = []
        for array, desc in zip(arrays, descending):
            if array.dtype.kind in "bu":
                array = array.astype(np.int64)
            sort_keys.append(-array if desc else array)
        # np.lexsort treats its *last* key as primary
        return np.lexsort(tuple(reversed(sort_keys)))

    indices = list(range(row_count))
    for position in range(len(keys) - 1, -1, -1):
        key_values = keys[position]
        if descending[position]:
            indices.sort(
                key=lambda i: (key_values[i] is not None,
                               key_values[i] if key_values[i] is not None else 0),
                reverse=True,
            )
        else:
            indices.sort(
                key=lambda i: (key_values[i] is None,
                               key_values[i] if key_values[i] is not None else 0),
            )
    return indices


def order_key_values(database: "Database", expression: ast.Expression,
                     result: QueryResult, input_batch: Callable[[], Batch],
                     row_count: int) -> list[Any]:
    if isinstance(expression, ast.ColumnRef) and expression.table is None:
        lowered = expression.name.lower()
        for column in result.columns:
            if column.name.lower() == lowered:
                return list(column.values)
    if isinstance(expression, ast.Literal) and isinstance(expression.value, int):
        position = expression.value - 1
        if 0 <= position < result.column_count:
            return list(result.columns[position].values)
    batch = input_batch()
    evaluator = ExpressionEvaluator(database, batch, allow_aggregates=False)
    values = evaluator.evaluate(expression).broadcast(batch.row_count)
    if len(values) != row_count:
        raise ExecutionError("ORDER BY expression length mismatch")
    return as_value_list(values)


def hidden_order_keys(select: ast.Select) -> list[ast.Expression]:
    """ORDER BY keys holding an aggregate that no select item repeats.

    The grouped result carries each as a hidden column behind the select
    items; :func:`sort_result` sorts by it and drops it."""
    items = [item.expression for item in select.items]
    hidden: list[ast.Expression] = []
    for order_item in select.order_by:
        expression = order_item.expression
        if (expression_contains_aggregate(expression)
                and expression not in items and expression not in hidden):
            hidden.append(expression)
    return hidden


def sort_result(database: "Database", select: ast.Select,
                result: QueryResult, batches: list[Batch]) -> QueryResult:
    row_count = result.row_count
    hidden = hidden_order_keys(select)
    # an aggregate key is a column of the grouped result: the select item
    # it repeats, else its hidden column
    grouped = [item.expression for item in select.items] + hidden
    shown = QueryResult(result.columns[:result.column_count - len(hidden)])
    # the sink's input rows: put together once, and only for a key that is
    # no output column and has to be evaluated over them
    input_batch = functools.cache(lambda: concat_batches(batches))
    keys: list[list[Any]] = []
    for order_item in select.order_by:
        expression = order_item.expression
        if expression_contains_aggregate(expression):
            keys.append(list(result.columns[grouped.index(expression)].values))
        else:
            keys.append(order_key_values(database, expression, shown,
                                         input_batch, row_count))
    descending = [order_item.descending for order_item in select.order_by]

    indices = sorted_indices(keys, descending, row_count)
    columns = [
        ResultColumn(col.name, col.sql_type, [col.values[i] for i in indices])
        for col in shown.columns
    ]
    return QueryResult(columns)


# --------------------------------------------------------------------------- #
# grouping helpers (moved from executor.py)
# --------------------------------------------------------------------------- #
#: Widest ``max - min`` a key may span and still be sorted by counting:
#: NumPy's stable sort is a radix sort for integers of 16 bits or fewer.
_RADIX_SPAN = 0xFFFF


def _radix_key(keys: np.ndarray) -> np.ndarray:
    """``keys - min`` as ``uint8`` / ``uint16`` when the range fits in 16
    bits, else ``keys`` unchanged.  The map keeps order and ties, so any
    stable sort of either array is the same permutation."""
    if keys.dtype.kind not in "iu" or keys.dtype.itemsize <= 2 or not keys.size:
        return keys
    # Python ints: max - min of int64 / uint64 extremes cannot overflow
    low = int(keys.min())
    span = int(keys.max()) - low
    if span > _RADIX_SPAN:
        return keys
    return (keys - low).astype(np.uint8 if span <= 0xFF else np.uint16)


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, bit for bit — by NumPy's radix
    sort whenever the keys are integers spanning at most 65,536 values
    (dictionary codes, group ids, small-domain columns), by comparison
    otherwise.  Every stable sort of a grouping key or a group id goes
    through here, so a grouped result never depends on which sort ran."""
    return np.argsort(_radix_key(keys), kind="stable")


def _dense_code(code: np.ndarray) -> tuple[np.ndarray, int]:
    """One key's codes as int64 in ``[0, span)``, and the span: ``code - min``
    for a key spanning at most 65,536 values, else its rank among the
    distinct values (each NaN one of its own)."""
    narrowed = _radix_key(code)
    if narrowed is not code:
        return narrowed.astype(np.int64), int(narrowed.max()) + 1
    distinct, inverse = np.unique(code, return_inverse=True, equal_nan=False)
    return inverse, len(distinct)


def grouping_key_array(values: Any) -> np.ndarray | None:
    """A sortable key array factorising a GROUP BY column; None = fall back.

    NULLs form their own group (SQL semantics: all NULL keys group together),
    represented by ``NULL_CODE`` — below every valid code/value.  Dictionary
    vectors group on their codes directly; masked vectors code their valid
    values with :func:`_dense_code` so NULLs get a code of their own.  Every
    path follows Python equality: ``-0.0`` groups with ``0.0``, and each NaN
    is a group of its own, masked key or not.
    """
    if not isinstance(values, Vector):
        return None
    if values.dictionary is not None:
        if values.mask is None:
            return values.data
        return np.where(values.mask, NULL_CODE, values.data)
    if values.mask is None:
        return values.data
    valid = ~values.mask
    codes = np.full(len(values), NULL_CODE, dtype=np.int64)
    if valid.any():
        codes[valid] = _dense_code(values.data[valid])[0]
    return codes


def layout_from_sort_key(array: np.ndarray, row_count: int
                         ) -> tuple[GroupLayout, Sequence[int], str]:
    """Factorise one key array into (layout, first-row-per-group) geometry,
    plus which sort ran: ``radix`` or ``sort`` (by comparison)."""
    # narrowed once: the sort then takes it as it is, and the cluster
    # boundaries compare one or two bytes per row instead of eight
    array = _radix_key(array)
    order = stable_order(array)
    sorted_keys = array[order]
    new_cluster = np.empty(row_count, dtype=np.bool_)
    new_cluster[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_cluster[1:])
    starts = np.flatnonzero(new_cluster)
    n_groups = int(starts.size)
    # stable sort => the first row of each cluster is its earliest row
    first_rows = order[starts]
    out_perm = np.empty(n_groups, dtype=np.int64)
    out_perm[stable_order(first_rows)] = np.arange(n_groups, dtype=np.int64)
    layout = GroupLayout(None, n_groups, order=order, starts=starts,
                         out_perm=out_perm)
    sort = "radix" if array.dtype.itemsize <= 2 else "sort"
    return layout, np.sort(first_rows), sort


def group_layout(group_by: Sequence[ast.Expression], batch: Batch,
                 evaluator: ExpressionEvaluator
                 ) -> tuple[GroupLayout, Sequence[int], list[Any], str | None]:
    """Factorise the GROUP BY keys into (layout, first-row-per-group, keys,
    factoriser).

    Groups are numbered in first-appearance order.  The returned key
    columns are broadcast to the batch row count (the partial-merge path
    keeps their representative rows and factorises those across morsels).
    The factoriser is that of :func:`layout_from_keys`, None without GROUP
    BY (one group of every row, even of none).
    """
    row_count = batch.row_count
    if not group_by:
        # implicit aggregation: one group spanning the whole batch (even
        # when it is empty, so aggregates still produce a row)
        return GroupLayout.one_group(row_count), ([0] if row_count else []), \
            [], None

    key_columns = [
        evaluator.evaluate(expr).broadcast(row_count)
        for expr in group_by
    ]
    layout, rep_indices, factoriser = layout_from_keys(key_columns, row_count)
    return layout, rep_indices, key_columns, factoriser


def layout_from_keys(key_columns: Sequence[Any], row_count: int
                     ) -> tuple[GroupLayout, Sequence[int], str]:
    """Factorise row-aligned key columns into (layout, first-row-per-group,
    factoriser), groups numbered in first-appearance order: typed keys as one
    sort key (:func:`grouping_key_array`, for several :func:`composite_code`)
    sorted through :func:`stable_order` (``radix`` or ``sort``), a list key
    (BLOB, mixed types) or no row by :func:`row_codes` (``hash``)."""
    codes = [grouping_key_array(column) for column in key_columns]
    if row_count and all(code is not None for code in codes):
        # one stable key sort yields the factorisation AND the contiguous
        # cluster geometry the reduceat kernels need
        sort_key = codes[0] if len(codes) == 1 else composite_code(codes)
        return layout_from_sort_key(sort_key, row_count)
    gids = row_codes([as_value_list(column) for column in key_columns], {},
                     grow=True)
    first_rows = np.unique(gids, return_index=True)[1]
    return GroupLayout(gids, len(first_rows)), first_rows, "hash"


#: Widest span a running composite code may reach (int64 cannot wrap).
_COMPOSITE_LIMIT = 2 ** 62


def composite_code(codes: Sequence[np.ndarray]) -> np.ndarray:
    """Several row-aligned key codes as one int64 code, equal exactly where
    every key's is: ``code₁ × span₂ + code₂ …`` over the dense codes.  When
    the product would pass 2^62, the running code is re-factorised first."""
    composite, span = _dense_code(codes[0])
    for code in codes[1:]:
        dense, width = _dense_code(code)
        if span * width > _COMPOSITE_LIMIT:
            distinct, composite = np.unique(composite, return_inverse=True)
            span = len(distinct)
        composite = composite * width + dense
        span *= width
    return composite


def row_codes(columns: Sequence[Sequence[Any]], mapping: dict[tuple, int],
              grow: bool) -> np.ndarray:
    """Each row's tuple of Python values coded through ``mapping``: the one
    row-tuple dict, for keys no typed code covers.  Python equality decides
    (``1 == 1.0``; a NaN object equals only itself).  An unseen tuple gets the
    next code when ``grow``, else -1."""
    keys = zip(*columns)
    codes = ((mapping.setdefault(key, len(mapping)) for key in keys) if grow
             else (mapping.get(key, -1) for key in keys))
    return np.fromiter(codes, dtype=np.int64, count=len(columns[0]))


class GroupedExpressionEvaluator(ExpressionEvaluator):
    """Evaluates select items over one representative row per group.

    Aggregate calls resolve to precomputed per-group columns, so an
    expression like ``SUM(x) / COUNT(*)`` is evaluated once for all groups
    instead of once per group.
    """

    def __init__(self, database: "Database", rep_batch: Batch,
                 aggregate_columns: dict[int, Any]) -> None:
        super().__init__(database, rep_batch, allow_aggregates=True)
        self._aggregate_columns = aggregate_columns

    def _eval_FunctionCall(self, node: ast.FunctionCall) -> EvalResult:
        precomputed = self._aggregate_columns.get(id(node))
        if precomputed is not None:
            return EvalResult(precomputed, constant=False)
        return super()._eval_FunctionCall(node)


def group_column(result: EvalResult, n_groups: int) -> Any:
    """Align an evaluation over the representative batch to one value per
    group (a vector stays one)."""
    if len(result.values) == 0:
        # non-aggregate expression over the empty implicit group
        return [None] * n_groups
    return result.broadcast(n_groups)


def grouped_result_column(name: str, values: Any) -> ResultColumn:
    """One grouped output column.  A vector of numbers or booleans with a
    value stays one, typed as a value list is (by its first non-NULL value);
    strings and all-NULL columns become lists, whose wire form (and the
    dictionary it ships) is built from the values as before."""
    if isinstance(values, Vector) and values.dictionary is None \
            and values.null_count() < len(values):
        first = 0 if values.mask is None else int(np.argmin(values.mask))
        sql_type = infer_sql_type(values[first])
        return ResultColumn(name, sql_type, typed_vector(
            values.data, values.mask, sql_type=sql_type))
    values = as_value_list(values)
    return ResultColumn(name, infer_column_type(values), values)


def aggregate_argument(node: ast.FunctionCall, evaluator: ExpressionEvaluator,
                       batch: Batch) -> Sequence[Any]:
    """The row-aligned argument column of one aggregate call."""
    if aggregate_is_star(node) or not node.args:
        return [1] * batch.row_count if node.distinct else []
    return evaluator.evaluate(node.args[0]).broadcast(batch.row_count)


# --------------------------------------------------------------------------- #
# join key normalisation and build/probe structures
# --------------------------------------------------------------------------- #
class _VectorEquiBuild:
    """The one equi-join build, over a key array (see :class:`HashJoin`).

    NULL keys (masked rows) are excluded from both build and probe, so they
    never match.  Output pair order is a nested-loop join's: left rows
    ascending, right matches in original row order within each key.  Integer
    keys spanning at most 65,536 values, or two per build row (int32 slots:
    never more bytes than the keys), are probed through ``slots[key - low]``
    = the key's position among the sorted distinct keys, -1 if absent — what
    ``np.searchsorted``, the probe for every other key, finds.  When no key
    repeats (``unique``), a found row's one match needs no pair expansion.
    """

    def __init__(self, right_data: np.ndarray,
                 right_mask: np.ndarray | None) -> None:
        right_rows = (np.flatnonzero(~right_mask) if right_mask is not None
                      else np.arange(len(right_data), dtype=np.intp))
        right_keys = right_data[right_rows]
        unique_keys, right_inverse = np.unique(right_keys, return_inverse=True)
        by_key = stable_order(right_inverse)
        self.grouped_rows = right_rows[by_key]
        self.counts = np.bincount(right_inverse, minlength=len(unique_keys))
        self.group_starts = np.concatenate(([0], np.cumsum(self.counts[:-1]))) \
            if len(unique_keys) else np.zeros(0, dtype=np.int64)
        self.unique_keys = unique_keys
        self.unique = len(unique_keys) == len(right_rows)
        self.slots: np.ndarray | None = None
        if unique_keys.dtype.kind in "iu" and len(unique_keys):
            # Python ints: the span of int64 extremes cannot overflow
            self.low, self.high = int(unique_keys[0]), int(unique_keys[-1])
            span = self.high - self.low + 1
            if span <= max(_RADIX_SPAN + 1, 2 * len(right_data)):
                self.slots = np.full(span, -1, dtype=np.int32)
                self.slots[unique_keys - self.low] = np.arange(
                    len(unique_keys), dtype=np.int32)
        #: which probe runs (EXPLAIN ANALYZE)
        self.kind = "sorted" if self.slots is None else "direct"

    def positions(self, left_data: np.ndarray, left_mask: np.ndarray | None
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Each left key's position among the distinct build keys, and
        whether it is one of them (a NULL never is)."""
        left_count = len(left_data)
        unique_keys = self.unique_keys
        if self.slots is not None:
            # range test before subtracting: int64 extremes cannot wrap
            inside = (left_data >= self.low) & (left_data <= self.high)
            positions = np.full(left_count, -1, dtype=np.intp)
            positions[inside] = self.slots[left_data[inside] - self.low]
            found = positions >= 0
        elif len(unique_keys):
            positions = np.searchsorted(unique_keys, left_data)
            clipped = np.minimum(positions, len(unique_keys) - 1)
            found = (positions < len(unique_keys)) \
                & (unique_keys[clipped] == left_data)
        else:
            positions = np.zeros(left_count, dtype=np.intp)
            found = np.zeros(left_count, dtype=np.bool_)
        if left_mask is not None:
            found &= ~left_mask
        return positions, found

    def probe(self, left_data: np.ndarray, left_mask: np.ndarray | None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Probe one left morsel; returns (left rows, right rows, found mask)."""
        positions, found = self.positions(left_data, left_mask)
        probe_rows = np.flatnonzero(found)
        probe_keys = positions[probe_rows]
        if self.unique:
            return probe_rows, self.grouped_rows[probe_keys], found
        match_counts = self.counts[probe_keys]
        total = int(match_counts.sum())
        prefix = np.cumsum(match_counts) - match_counts
        within = np.arange(total, dtype=np.intp) - np.repeat(prefix, match_counts)
        right_out = self.grouped_rows[
            np.repeat(self.group_starts[probe_keys], match_counts) + within] \
            if total else np.zeros(0, dtype=np.intp)
        left_out = np.repeat(probe_rows, match_counts).astype(np.intp, copy=False)
        return left_out, np.asarray(right_out, dtype=np.intp), found


def _shared_codes(key: Vector, dict_map: np.ndarray) -> np.ndarray:
    """A dictionary vector's codes in the order of a dictionary it shares
    with the other join side (any code at a NULL row)."""
    if not len(dict_map):  # an empty dictionary: every row is NULL
        return np.zeros(len(key.data), dtype=np.int64)
    return dict_map[key.data if key.mask is None
                    else np.where(key.mask, 0, key.data)]


# --------------------------------------------------------------------------- #
# operator nodes
# --------------------------------------------------------------------------- #
class PhysicalOperator:
    """Base class: a node of the physical plan tree."""

    name = "Operator"

    def __init__(self) -> None:
        self.children: list["PhysicalOperator"] = []

    def describe(self) -> str:
        """One-line operator description for EXPLAIN (without children)."""
        return self.name


class Scan(PhysicalOperator):
    """Leaf source: storage table, virtual meta table, subquery result,
    table-producing UDF output, or the FROM-less single-row batch.

    ``prepare`` binds the source (executing subqueries / table functions /
    virtual-table snapshots); ``batch_slice`` then serves zero-copy row-range
    morsels — stored-buffer slices for storage tables, list slices otherwise.
    """

    name = "Scan"

    def __init__(self, label: str, alias: str | None = None,
                 source_ast: ast.TableRef | None = None,
                 referenced: frozenset[str] | None = None) -> None:
        super().__init__()
        self.label = label
        self.alias = alias
        self.source_ast = source_ast
        #: lower-cased column names the statement references; None = all
        self.referenced = referenced
        self.estimated_rows: int | None = None
        self.morsel_hint: int | None = None
        #: ``(bound, stored)`` column counts of a bound storage table
        self.bound_columns: tuple[int, int] | None = None
        self._batch: Batch | None = None

    def bind_table(self, table: Any) -> None:
        """Snapshot the scans of a storage table's referenced columns
        (zero-copy, consistent: later mutations publish new views and never
        touch the rows of these); with none, the batch still has the rows."""
        row_count = table.row_count
        columns = [
            BatchColumn(self.alias, column.name, column.sql_type,
                        column.scan_vector(0, row_count))
            for column in table.columns
            if self.referenced is None or column.name.lower() in self.referenced
        ]
        self.bound_columns = (len(columns), len(table.columns))
        self.bind_batch(Batch(columns, row_count=row_count))

    def bind_batch(self, batch: Batch) -> None:
        self._batch = batch
        self.estimated_rows = batch.row_count

    @property
    def row_count(self) -> int:
        assert self._batch is not None, "scan not prepared"
        return self._batch.row_count

    def batch_slice(self, start: int, stop: int) -> Batch:
        assert self._batch is not None
        return self._batch.slice(start, stop)

    def describe(self) -> str:
        rows = "?" if self.estimated_rows is None else str(self.estimated_rows)
        morsels = "?" if self.morsel_hint is None else str(self.morsel_hint)
        # bound columns are known once the scan is (EXPLAIN ANALYZE only)
        columns = "" if self.bound_columns is None \
            else " columns={}/{}".format(*self.bound_columns)
        return f"Scan {self.label} [rows={rows} morsels={morsels}{columns}]"


class Filter(PhysicalOperator):
    """WHERE: boolean-mask selection applied to each morsel.  ``selections``
    collects how each morsel's rows were kept (``all`` / ``slice`` /
    ``gather``, see :meth:`Batch.filter`) for EXPLAIN ANALYZE."""

    name = "Filter"

    def __init__(self, database: "Database", predicate: ast.Expression) -> None:
        super().__init__()
        self.database = database
        self.predicate = predicate
        self.selections: list[str] = []

    def process(self, batch: Batch) -> Batch:
        evaluator = ExpressionEvaluator(self.database, batch)
        kept, selection = batch.filter(evaluator.evaluate_mask(self.predicate))
        self.selections.append(selection)
        return kept

    def describe(self) -> str:
        text = f"Filter [{_plan_text(self.predicate)}"
        return text + _counted("selection", self.selections,
                               ("all", "slice", "gather")) + "]"


class HashJoin(PhysicalOperator):
    """Join: build once on the right input, probe with each left morsel.

    ``prepare`` receives the fully materialised right batch plus an (empty)
    template of the left pipeline's schema, picks the strategy the
    sequential engine would have picked, and precomputes the build
    structures.  ``probe`` maps one left morsel to ``(matches, deferred)``
    where ``deferred`` carries LEFT-join unmatched rows the driver appends
    after all matches — the sequential output order.

    An equi-join on typed keys (``vector``) builds over one pair's own values,
    or over several pairs' composite: each value's position among its pair's
    distinct build values, ``p₁ × n₂ + p₂ …``.  List keys (``hash``) — and a
    morsel the typed build cannot take exactly — probe the right rows' key
    tuples coded by :func:`row_codes`.
    """

    name = "HashJoin"

    def __init__(self, database: "Database", join_type: str,
                 condition: ast.Expression | None) -> None:
        super().__init__()
        self.database = database
        self.join_type = join_type.upper()
        self.condition = condition
        self._right: Batch | None = None
        self._pairs: list[tuple[ast.ColumnRef, ast.ColumnRef]] | None = None
        self._strategy = "cross"
        #: per pair: (left column, dictionary map, common dtype), and the
        #: build over its values when there are several (``_composite``)
        self._left_keys: list[tuple[Any, ...]] = []
        self._pair_builds: list[_VectorEquiBuild] = []
        self._recode: dict[int, _VectorEquiBuild] = {}
        self._vector_build: _VectorEquiBuild | None = None
        self._row_build: tuple[dict, _VectorEquiBuild] | None = None

    # -- build ----------------------------------------------------------- #
    def prepare(self, left_template: Batch, right_batch: Batch) -> Batch:
        """Bind the build side, pick a strategy, return the output template."""
        self._right = right_batch
        if self.join_type == "CROSS" or self.condition is None:
            self._strategy = "cross"
        else:
            self._pairs = self._equi_join_keys(left_template, right_batch)
            if self._pairs is None:
                self._strategy = "mask"
            elif self._prepare_vector_strategy(left_template, right_batch):
                self._strategy = "vector"
            else:
                self._strategy = "hash"
        # the output template is structural (no probe): left columns plus
        # empty slices of the build columns, preserving their backing kinds
        columns = list(left_template.columns) + [
            BatchColumn(c.table, c.name, c.sql_type,
                        slice_values(c.values, 0, 0))
            for c in right_batch.columns
        ]
        return Batch(columns, row_count=0)

    def _equi_join_keys(self, left: Batch, right: Batch
                        ) -> list[tuple[ast.ColumnRef, ast.ColumnRef]] | None:
        """Extract ``left_col = right_col`` pairs from an AND-of-equalities.

        Returns None when any conjunct is not such an equality (including
        ambiguous or unresolvable column references, which the fallback path
        reports with the same errors as before).
        """
        assert self.condition is not None
        pairs: list[tuple[ast.ColumnRef, ast.ColumnRef]] = []
        for conjunct in conjuncts(self.condition):
            if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="
                    and isinstance(conjunct.left, ast.ColumnRef)
                    and isinstance(conjunct.right, ast.ColumnRef)):
                return None
            first_side = column_side(conjunct.left, left, right)
            second_side = column_side(conjunct.right, left, right)
            if first_side == "left" and second_side == "right":
                pairs.append((conjunct.left, conjunct.right))
            elif first_side == "right" and second_side == "left":
                pairs.append((conjunct.right, conjunct.left))
            else:
                return None
        return pairs or None

    def _prepare_vector_strategy(self, left_template: Batch,
                                 right: Batch) -> bool:
        """Set up the typed build; False when a pair is not two vectors whose
        dictionaries agree in kind.  Mixed int/float keys only qualify while
        values stay exactly representable in float64 (checked here for the
        right side, per morsel for the left, which otherwise probes the row
        build for exact Python equality)."""
        left_keys, right_keys = [], []
        for left_ref, right_ref in self._pairs:
            left_key = left_template.resolve(left_ref.name, left_ref.table).values
            right_key = right.resolve(right_ref.name, right_ref.table).values
            if not (isinstance(left_key, Vector) and isinstance(right_key, Vector)):
                return False
            l_data, l_dict = left_key.data, left_key.dictionary
            r_data, r_dict = right_key.data, right_key.dictionary
            if (l_dict is None) != (r_dict is None):
                return False  # string-vs-number join: Python equality applies
            if l_dict is not None:
                _, inverse = np.unique(np.concatenate([l_dict, r_dict]),
                                       return_inverse=True)
                left_keys.append((left_ref, inverse[:len(l_dict)], None))
                right_keys.append((_shared_codes(right_key, inverse[len(l_dict):]),
                                   right_key.mask))
                continue
            if l_data.dtype.kind not in "biuf" or r_data.dtype.kind not in "biuf":
                return False
            common: type = np.int64
            if l_data.dtype.kind == "f" or r_data.dtype.kind == "f":
                # mixed int/float keys compare through float64; integers
                # beyond 2^53 would collide after the cast where exact Python
                # equality would not match, so those stay on the row build
                if _exceeds_float_exact(r_data):
                    return False
                common = np.float64
            left_keys.append((left_ref, None, common))
            right_keys.append((r_data.astype(common, copy=False), right_key.mask))
        self._left_keys = left_keys
        self._vector_build = _VectorEquiBuild(
            *self._composite(right_keys, build=True))
        return True

    def _composite(self, keys: list[tuple[np.ndarray, np.ndarray | None]],
                   build: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
        """The key array and NULL mask the typed build holds or probes: one
        pair's own values, or several pairs' composite.  Past 2^62 the
        running code becomes its position among the build's running codes
        first (``build``: the right side, which makes these builds)."""
        if len(keys) == 1:
            return keys[0]
        if build:
            self._pair_builds = [_VectorEquiBuild(*key) for key in keys]
        code, span, found = 0, 1, True
        for index, (pair, key) in enumerate(zip(self._pair_builds, keys)):
            width = len(pair.unique_keys)
            if span * width > _COMPOSITE_LIMIT:
                if build:
                    self._recode[index] = _VectorEquiBuild(code, ~found)
                code, found = self._recode[index].positions(code, ~found)
                span = len(self._recode[index].unique_keys)
            positions, pair_found = pair.positions(*key)
            code, span = code * width + positions, span * width
            found = found & pair_found
        return code, ~found

    def _row_codes_build(self) -> tuple[dict, _VectorEquiBuild]:
        """The build over the right rows' :func:`row_codes` (lazy); a tuple
        holding a NULL is coded but never built, so it never matches."""
        if self._row_build is None:
            assert self._right is not None and self._pairs is not None
            columns = [self._right.resolve(ref.name, ref.table).value_list()
                       for _, ref in self._pairs]
            mapping: dict = {}
            codes = row_codes(columns, mapping, grow=True)
            nulls = [code for key, code in mapping.items() if None in key]
            self._row_build = mapping, _VectorEquiBuild(codes, np.isin(codes, nulls))
        return self._row_build

    # -- probe ----------------------------------------------------------- #
    def probe(self, morsel: Batch) -> tuple[Batch, Batch | None]:
        """Probe one left morsel; returns (match batch, deferred unmatched)."""
        left_indices, right_indices, unmatched, build = \
            self._probe_indices(morsel)
        matches = self._gather_matches(morsel, left_indices, right_indices,
                                       build)
        if unmatched is None or len(unmatched) == 0:
            return matches, None
        return matches, self._gather_unmatched(morsel, unmatched)

    def _probe_indices(self, morsel: Batch
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None,
                                  _VectorEquiBuild | None]:
        """(left rows, right rows, LEFT-join unmatched rows, build probed)."""
        assert self._right is not None
        right_count = self._right.row_count
        if self._strategy == "cross":
            left_indices = np.repeat(
                np.arange(morsel.row_count, dtype=np.intp), right_count)
            right_indices = np.tile(
                np.arange(right_count, dtype=np.intp), morsel.row_count)
            return left_indices, right_indices, None, None
        if self._strategy == "mask":
            return (*self._mask_join_indices(morsel), None)
        keys = [self._vector_probe_key(entry, morsel)
                for entry in self._left_keys]
        if self._strategy == "vector" and all(key is not None for key in keys):
            build = self._vector_build
            data, mask = self._composite(keys)
        else:
            mapping, build = self._row_codes_build()
            data, mask = row_codes(
                [morsel.resolve(ref.name, ref.table).value_list()
                 for ref, _ in self._pairs], mapping, grow=False), None
        left_out, right_out, found = build.probe(data, mask)
        unmatched = np.flatnonzero(~found) if self.join_type == "LEFT" else None
        return left_out, right_out, unmatched, build

    @staticmethod
    def _vector_probe_key(entry: tuple[Any, ...], morsel: Batch
                          ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """One pair's normalised probe key in this morsel, or None to probe
        the row build (a list, a dictionary kind mismatch, >2^53 integers)."""
        left_ref, dict_map, common = entry
        key = morsel.resolve(left_ref.name, left_ref.table).values
        if not isinstance(key, Vector) or (key.dictionary is None) != (dict_map is None):
            return None
        if dict_map is not None:
            return _shared_codes(key, dict_map), key.mask
        if key.data.dtype.kind not in "biuf" or (
                common is np.float64 and _exceeds_float_exact(key.data)):
            return None
        return key.data.astype(common, copy=False), key.mask

    def _mask_join_indices(self, morsel: Batch
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Evaluate an arbitrary join condition once over the cross product."""
        right = self._right
        assert right is not None
        all_left = np.repeat(np.arange(morsel.row_count, dtype=np.intp),
                             right.row_count)
        all_right = np.tile(np.arange(right.row_count, dtype=np.intp),
                            morsel.row_count)
        combined = Batch(
            [BatchColumn(c.table, c.name, c.sql_type, take_values(c.values, all_left))
             for c in morsel.columns]
            + [BatchColumn(c.table, c.name, c.sql_type, take_values(c.values, all_right))
               for c in right.columns],
            row_count=morsel.row_count * right.row_count,
        )
        evaluator = ExpressionEvaluator(self.database, combined)
        mask = evaluator.evaluate_mask(self.condition)
        if isinstance(mask, np.ndarray):
            selected = np.flatnonzero(mask)
        else:
            selected = np.asarray(
                [i for i, keep in enumerate(mask) if keep], dtype=np.intp)
        left_indices = all_left[selected]
        right_indices = all_right[selected]
        if self.join_type != "LEFT":
            return left_indices, right_indices, None
        matched = np.zeros(morsel.row_count, dtype=np.bool_)
        matched[left_indices] = True
        return left_indices, right_indices, np.flatnonzero(~matched)

    # -- gather ----------------------------------------------------------- #
    def _gather_matches(self, morsel: Batch, left_indices: np.ndarray,
                        right_indices: np.ndarray,
                        build: _VectorEquiBuild | None) -> Batch:
        right = self._right
        assert right is not None
        # a unique build matches each left row at most once, rows ascending:
        # a pair per row means every row, in place
        unique = build is not None and build.unique
        left = morsel if unique and len(left_indices) == morsel.row_count \
            else morsel.take(left_indices)
        columns = left.columns + [
            BatchColumn(c.table, c.name, c.sql_type,
                        take_values(c.values, right_indices))
            for c in right.columns
        ]
        return Batch(columns, row_count=len(left_indices))

    def _gather_unmatched(self, morsel: Batch, unmatched: np.ndarray) -> Batch:
        right = self._right
        assert right is not None
        count = len(unmatched)
        columns = morsel.take(unmatched).columns + [
            BatchColumn(c.table, c.name, c.sql_type,
                        _all_null_like(c.values, count))
            for c in right.columns
        ]
        return Batch(columns, row_count=count)

    def describe(self) -> str:
        if self.join_type == "CROSS" or self.condition is None:
            return "HashJoin [CROSS]"
        # the probe is known once the build is (EXPLAIN ANALYZE only)
        build = self._vector_build
        probe = (build.kind + (" build=unique" if build.unique else "")
                 if self._strategy == "vector"
                 else "hash" if self._strategy == "hash" else None)
        return (f"HashJoin [{self.join_type} "
                f"ON {_plan_text(self.condition)}"
                + (f" probe={probe}]" if probe else "]"))


def _all_null_like(values: Any, count: int) -> Any:
    """``count`` NULL rows of the build column ``values``' shape: a vector
    of its type sharing its dictionary object, so the flushed LEFT-join rows
    concatenate with the matches (and probe a later join) typed; a BLOB /
    list column stays a list.  So does a string column that never held a
    value: its dictionary is empty, and every dictionary kernel (and the
    wire) takes an empty dictionary to mean a zero-row vector."""
    if not isinstance(values, Vector) or (
            values.dictionary is not None and len(values.dictionary) == 0):
        return [None] * count
    return Vector(np.zeros(count, dtype=values.data.dtype),
                  np.ones(count, dtype=np.bool_), values.dictionary,
                  values.sql_type)


def _exceeds_float_exact(data: np.ndarray) -> bool:
    """Whether integer key values exceed float64's exact range (2^53)."""
    return data.dtype.kind in "iu" and int_magnitude(data) > 2 ** 53


class Project(PhysicalOperator):
    """SELECT-list evaluation over one morsel, producing result columns."""

    name = "Project"

    def __init__(self, database: "Database",
                 items: Sequence[ast.SelectItem]) -> None:
        super().__init__()
        self.database = database
        self.items = list(items)
        self.calls_udf = calls_udf(item.expression for item in self.items)

    def project(self, batch: Batch) -> QueryResult:
        """Evaluate the select list over one morsel.  Items that read no row
        broadcast to the batch's rows (``SELECT 1 FROM t``: one per row of
        ``t``) unless the list calls a UDF: a MonetDB/Python UDF returning one
        value for its column is one row (such a statement is one morsel)."""
        evaluator = ExpressionEvaluator(self.database, batch)
        names: list[str] = []
        results: list[EvalResult] = []
        for index, item in enumerate(self.items):
            if isinstance(item.expression, ast.Star):
                for column in batch.columns_for(item.expression.table):
                    names.append(column.name)
                    results.append(EvalResult(column.values, constant=False,
                                              sql_type=column.sql_type))
                continue
            result = evaluator.evaluate(item.expression)
            names.append(item.alias or default_output_name(item.expression, index))
            results.append(result)

        if not results:
            return QueryResult([])

        non_constant_lengths = [len(r) for r in results if not r.constant]
        if non_constant_lengths:
            output_length = max(non_constant_lengths)
        elif self.calls_udf:
            output_length = max(len(r) for r in results)
        else:
            output_length = batch.row_count
        columns = []
        for name, result in zip(names, results):
            values = result.broadcast(output_length)
            if isinstance(values, Vector):
                # keep the vector backing: no Python-object materialisation,
                # and the dictionary flows through to the wire encoder
                sql_type = result.sql_type or values.sql_type
                columns.append(ResultColumn(name, sql_type, values))
                continue
            values = as_value_list(values)
            sql_type = result.sql_type or infer_column_type(values)
            columns.append(ResultColumn(name, sql_type, values))
        return QueryResult(columns)

    def describe(self) -> str:
        labels = []
        for index, item in enumerate(self.items):
            if isinstance(item.expression, ast.Star):
                labels.append(f"{item.expression.table}.*"
                              if item.expression.table else "*")
            else:
                labels.append(item.alias
                              or default_output_name(item.expression, index))
        return f"Project [{', '.join(labels)}]"


def concat_result_pieces(pieces: Sequence[QueryResult]) -> QueryResult:
    """Concatenate per-morsel projection results into one QueryResult."""
    pieces = list(pieces)
    if len(pieces) == 1:
        return pieces[0]
    if not pieces:
        return QueryResult([])
    first = pieces[0]
    columns: list[ResultColumn] = []
    for index, column in enumerate(first.columns):
        merged = concat_values(
            [piece.columns[index].batch_values() for piece in pieces])
        if isinstance(merged, Vector):
            columns.append(ResultColumn(column.name, column.sql_type, merged))
        else:
            values = as_value_list(merged)
            # re-infer like the sequential whole-column projection did: the
            # first morsel may have been all-NULL while a later one was not
            sql_type = column.sql_type
            if any(p.columns[index].sql_type != sql_type for p in pieces):
                sql_type = infer_column_type(values)
            columns.append(ResultColumn(column.name, sql_type, values))
    return QueryResult(columns)


class _AggregateState:
    """One morsel's aggregation state (the partial-merge path); ``keys``
    holds each GROUP BY key's column at the representative rows."""

    __slots__ = ("keys", "rep_batch", "rep_count", "partials")

    def __init__(self, keys: list[Any], rep_batch: Batch, rep_count: int,
                 partials: dict[int, PartialAggregate]) -> None:
        self.keys = keys
        self.rep_batch = rep_batch
        self.rep_count = rep_count
        self.partials = partials


class HashAggregate(PhysicalOperator):
    """GROUP BY / implicit aggregation.

    Three execution modes, chosen to keep results identical to the
    clause-at-a-time engine:

    * ``per_group`` — expressions call Python UDFs: one evaluator per group
      (the UDF is invoked once per group, an observable behaviour).
    * ``sequential`` — exotic aggregates (MEDIAN, variance family,
      GROUP_CONCAT, DISTINCT arguments): single-pass hash aggregation over
      the concatenated input, exactly the pre-pipeline code.
    * ``partial`` — decomposable aggregates: per-morsel local layouts and
      SUM/AVG/MIN/MAX/COUNT partials merged in morsel order (first-appearance
      group numbering is preserved across morsels).

    An ORDER BY key holding an aggregate that is no select item is evaluated
    per group like one and carried behind the select items as a hidden
    column (:func:`hidden_order_keys`).  ``groupings`` collects the
    factoriser each grouping ran (``radix`` / ``sort`` / ``hash``, see
    :func:`group_layout`) for EXPLAIN ANALYZE.
    """

    name = "HashAggregate"

    def __init__(self, database: "Database", select: ast.Select) -> None:
        super().__init__()
        self.database = database
        self.select = select
        self.hidden_keys = hidden_order_keys(select)
        if self.hidden_keys and select.distinct:
            raise ExecutionError("for SELECT DISTINCT, an ORDER BY aggregate "
                                 "must appear in the select list")
        self.aggregate_nodes: list[ast.FunctionCall] = []
        for item in select.items:
            collect_aggregates(item.expression, self.aggregate_nodes)
        if select.having is not None:
            collect_aggregates(select.having, self.aggregate_nodes)
        for expression in self.hidden_keys:
            collect_aggregates(expression, self.aggregate_nodes)
        #: one entry per factorisation
        self.groupings: list[str] = []
        if self._needs_per_group():
            self.mode = "per_group"
        elif self._partial_capable():
            self.mode = "partial"
        else:
            self.mode = "sequential"

    # -- mode selection --------------------------------------------------- #
    def _needs_per_group(self) -> bool:
        """True when grouped execution must run per group (UDF calls)."""
        expressions = [item.expression for item in self.select.items
                       if not isinstance(item.expression, ast.Star)]
        if self.select.having is not None:
            expressions.append(self.select.having)
        expressions.extend(self.select.group_by)
        expressions.extend(self.hidden_keys)
        return calls_udf(expressions)

    def _partial_capable(self) -> bool:
        for node in self.aggregate_nodes:
            if node.distinct or node.name.upper() not in VECTOR_AGGREGATES:
                return False
            if not node.args and not aggregate_is_star(node):
                return False
        return True

    # -- partial path ------------------------------------------------------ #
    def morsel_state(self, batch: Batch) -> _AggregateState:
        """Compute one morsel's local groups and partial aggregate states."""
        evaluator = ExpressionEvaluator(self.database, batch)
        layout, rep_indices, key_columns = self._group_layout(batch, evaluator)
        partials: dict[int, PartialAggregate] = {}
        for node in self.aggregate_nodes:
            if id(node) in partials:
                continue
            values = aggregate_argument(node, evaluator, batch)
            partials[id(node)] = partial_aggregate(
                node.name, values, layout, is_star=aggregate_is_star(node))
        return _AggregateState(
            [take_values(column, rep_indices) for column in key_columns],
            batch.take(rep_indices), len(rep_indices), partials)

    def finish_partial(self, states: Sequence[_AggregateState]) -> QueryResult:
        """Merge per-morsel states into the final grouped result.  The
        representatives' keys, in morsel order, are factorised once: each
        morsel's slice of the group ids maps its local groups.  Keys group
        the same whatever their representation (each NaN alone), so this is
        the sequential answer."""
        states = list(states)
        bounds = np.cumsum([0] + [state.rep_count for state in states]).tolist()
        if self.select.group_by:
            keys = [concat_values([state.keys[i] for state in states])
                    for i in range(len(self.select.group_by))]
            layout, rep_indices, _ = layout_from_keys(keys, bounds[-1])
            maps = [layout.gids[start:stop]
                    for start, stop in zip(bounds, bounds[1:])]
            n_groups = layout.n_groups
        else:
            # the implicit group has a representative row only in morsels
            # with at least one row; pick the first (sequential chose row 0)
            maps, n_groups = [np.zeros(1, dtype=np.intp)] * len(states), 1
            rep_indices = [0] if bounds[-1] else []

        aggregate_columns: dict[int, Any] = {}
        for node in self.aggregate_nodes:
            if id(node) in aggregate_columns:
                continue
            aggregate_columns[id(node)] = merge_partial_aggregates(
                node.name,
                [(state.partials[id(node)], maps[i])
                 for i, state in enumerate(states)],
                n_groups)

        rep_batch = concat_batches(
            [state.rep_batch for state in states]).take(rep_indices)
        return self._grouped_tail(rep_batch, aggregate_columns, n_groups)

    # -- sequential path --------------------------------------------------- #
    def finish_sequential(self, batch: Batch) -> QueryResult:
        if self.mode == "per_group":
            return self._execute_per_group(batch)
        evaluator = ExpressionEvaluator(self.database, batch)
        layout, rep_indices, _ = self._group_layout(batch, evaluator)
        aggregate_columns: dict[int, Any] = {}
        for node in self.aggregate_nodes:
            if id(node) not in aggregate_columns:
                values = aggregate_argument(node, evaluator, batch)
                aggregate_columns[id(node)] = grouped_aggregate(
                    node.name, values, layout,
                    is_star=aggregate_is_star(node), distinct=node.distinct)
        rep_batch = batch.take(list(rep_indices))
        return self._grouped_tail(rep_batch, aggregate_columns, layout.n_groups)

    def _grouped_tail(self, rep_batch: Batch,
                      aggregate_columns: dict[int, Any],
                      n_groups: int) -> QueryResult:
        """Evaluate select items over the representative rows (shared by the
        sequential and partial-merge paths)."""
        if n_groups > 0 and any(isinstance(item.expression, ast.Star)
                                for item in self.select.items):
            raise ExecutionError("'*' cannot be combined with GROUP BY")
        grouped_evaluator = GroupedExpressionEvaluator(
            self.database, rep_batch, aggregate_columns)

        keep: np.ndarray | None = None
        if self.select.having is not None:
            keep = np.flatnonzero(true_rows(group_column(
                grouped_evaluator.evaluate(self.select.having), n_groups)))

        columns: list[ResultColumn] = []
        for name, expression in self._outputs():
            values = group_column(grouped_evaluator.evaluate(expression),
                                  n_groups)
            if keep is not None:
                values = take_values(values, keep)
            columns.append(grouped_result_column(name, values))
        return QueryResult(columns)

    def _outputs(self) -> list[tuple[str, ast.Expression]]:
        """``(name, expression)`` per result column: the select items, then
        the hidden ORDER BY keys (unnamed; the sort drops them)."""
        outputs = [(item.alias or default_output_name(item.expression, index),
                    item.expression)
                   for index, item in enumerate(self.select.items)]
        return outputs + [("", expression) for expression in self.hidden_keys]

    def _group_layout(self, batch: Batch, evaluator: ExpressionEvaluator
                      ) -> tuple[GroupLayout, Sequence[int], list[Any]]:
        layout, rep_indices, key_columns, factoriser = group_layout(
            self.select.group_by, batch, evaluator)
        if factoriser is not None:
            self.groupings.append(factoriser)
        return layout, rep_indices, key_columns

    def _execute_per_group(self, batch: Batch) -> QueryResult:
        """Per-group execution: one evaluator per group (UDFs run per group,
        over the group's rows in row order)."""
        select = self.select
        layout, _, _ = self._group_layout(
            batch, ExpressionEvaluator(self.database, batch))
        outputs = self._outputs()
        rows: list[list[Any]] = []
        for indices in layout.group_rows:
            group_batch = batch.take(indices)
            group_evaluator = ExpressionEvaluator(self.database, group_batch,
                                                  allow_aggregates=True)
            if select.having is not None:
                having = group_evaluator.evaluate(select.having)
                keep = having.values[0] if len(having.values) else False
                if not (keep is True or keep == 1):
                    continue
            row: list[Any] = []
            for _, expression in outputs:
                if isinstance(expression, ast.Star):
                    raise ExecutionError("'*' cannot be combined with GROUP BY")
                value_result = group_evaluator.evaluate(expression)
                if len(value_result.values):
                    value = python_value(value_result.values[0])
                else:
                    value = None
                row.append(value)
            rows.append(row)

        columns = []
        for column_index, (name, _) in enumerate(outputs):
            values = [row[column_index] for row in rows]
            columns.append(ResultColumn(name, infer_column_type(values), values))
        return QueryResult(columns)

    def describe(self) -> str:
        n_keys = len(self.select.group_by)
        n_aggs = len({id(node) for node in self.aggregate_nodes})
        text = f"HashAggregate [keys={n_keys} aggregates={n_aggs} mode={self.mode}"
        return text + _counted("grouping", self.groupings,
                               ("radix", "sort", "hash")) + "]"


def _plan_text(node: ast.Expression) -> str:
    """``node`` as SQL for a plan line, or as its repr when EXECUTE bound a
    value that has no SQL literal (NaN, bytes)."""
    from .render import render_expression
    try:
        return render_expression(node)
    except ExecutionError:
        return repr(node)


def _counted(label: str, seen: Sequence[str], kinds: Sequence[str]) -> str:
    """`` label=kind`` when every morsel took one kind, `` label=kind:n,…``
    counted per kind when they differ, nothing before execution."""
    counts = collections.Counter(seen)
    if len(counts) == 1:
        return f" {label}={seen[0]}"
    if counts:
        return f" {label}=" + ",".join(
            f"{kind}:{counts[kind]}" for kind in kinds if counts[kind])
    return ""


class Sort(PhysicalOperator):
    """ORDER BY: a pipeline breaker over the materialised result."""

    name = "Sort"

    def __init__(self, database: "Database", select: ast.Select) -> None:
        super().__init__()
        self.database = database
        self.select = select

    def apply(self, result: QueryResult, batches: list[Batch]) -> QueryResult:
        return sort_result(self.database, self.select, result, batches)

    def describe(self) -> str:
        from .render import render_expression
        keys = ", ".join(
            render_expression(order.expression)
            + (" DESC" if order.descending else "")
            for order in self.select.order_by)
        return f"Sort [{keys}]"


class Distinct(PhysicalOperator):
    """DISTINCT: first rows of the materialised result's distinct rows."""

    name = "Distinct"

    def apply(self, result: QueryResult) -> QueryResult:
        return distinct_result(result)

    def describe(self) -> str:
        return "Distinct"


class Limit(PhysicalOperator):
    """OFFSET / LIMIT row slicing (the pipeline's early-exit point)."""

    name = "Limit"

    def __init__(self, limit: int | None, offset: int | None) -> None:
        super().__init__()
        self.limit = limit
        self.offset = offset

    def apply(self, result: QueryResult) -> QueryResult:
        if self.offset is not None:
            result = slice_result(result, self.offset, None)
        if self.limit is not None:
            result = slice_result(result, 0, self.limit)
        return result

    @property
    def stop_after(self) -> int | None:
        """Projected rows after which execution may stop early."""
        if self.limit is None:
            return None
        return self.limit + (self.offset or 0)

    def describe(self) -> str:
        parts = []
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        if self.offset is not None:
            parts.append(f"offset={self.offset}")
        return f"Limit [{' '.join(parts)}]"
