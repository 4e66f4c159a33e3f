"""Aggregate functions for GROUP BY / implicit aggregation queries.

Two execution tiers live here: the original per-value Python implementations
(exact SQL NULL semantics, used for object columns and exotic aggregates) and
one numpy kernel used when the input is a
:class:`repro.sqldb.vector.Vector` — a ``reduceat``-based grouped reduction
(a whole column is one group) answering a vector.  NULL-bearing vectors stay
on the numpy tier: SUM/AVG zero-fill masked positions and divide by
per-group valid counts, MIN/MAX fill with the dtype's identity element,
COUNT reduces the validity mask itself, and groups with no valid value come
out NULL — the same results the per-value implementations produce, computed
per byte instead of per Python object.  Dictionary-encoded string vectors
run MIN/MAX on the codes (the dictionary is sorted, so code order is string
order).  Per-morsel partials merge by scattering arrays
(:func:`merge_partial_aggregates`).
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from ..errors import ExecutionError
from . import ast_nodes as ast
from .types import python_value
from .vector import Vector, int_magnitude, typed_vector

AggregateFunction = Callable[[Sequence[Any]], Any]


def _non_null(values: Sequence[Any]) -> list[Any]:
    return [value for value in values if value is not None]


def _agg_sum(values: Sequence[Any]) -> Any:
    present = _non_null(values)
    return sum(present) if present else None


def _agg_avg(values: Sequence[Any]) -> Any:
    present = _non_null(values)
    return sum(present) / len(present) if present else None


def _agg_min(values: Sequence[Any]) -> Any:
    present = _non_null(values)
    return min(present) if present else None


def _agg_max(values: Sequence[Any]) -> Any:
    present = _non_null(values)
    return max(present) if present else None


def _agg_count(values: Sequence[Any]) -> int:
    return len(_non_null(values))


def _agg_count_star(values: Sequence[Any]) -> int:
    return len(values)


def _agg_median(values: Sequence[Any]) -> Any:
    present = sorted(_non_null(values))
    if not present:
        return None
    mid = len(present) // 2
    if len(present) % 2 == 1:
        return present[mid]
    return (present[mid - 1] + present[mid]) / 2


def _agg_stddev(values: Sequence[Any]) -> Any:
    present = _non_null(values)
    if len(present) < 2:
        return None
    mean = sum(present) / len(present)
    variance = sum((v - mean) ** 2 for v in present) / (len(present) - 1)
    return math.sqrt(variance)


def _agg_var(values: Sequence[Any]) -> Any:
    present = _non_null(values)
    if len(present) < 2:
        return None
    mean = sum(present) / len(present)
    return sum((v - mean) ** 2 for v in present) / (len(present) - 1)


def _agg_group_concat(values: Sequence[Any]) -> Any:
    present = _non_null(values)
    return ",".join(str(v) for v in present) if present else None


#: Aggregate name -> implementation over the list of per-row argument values.
AGGREGATE_FUNCTIONS: dict[str, AggregateFunction] = {
    "SUM": _agg_sum,
    "AVG": _agg_avg,
    "MIN": _agg_min,
    "MAX": _agg_max,
    "COUNT": _agg_count,
    "MEDIAN": _agg_median,
    "STDDEV": _agg_stddev,
    "STDDEV_SAMP": _agg_stddev,
    "VAR_SAMP": _agg_var,
    "VARIANCE": _agg_var,
    "GROUP_CONCAT": _agg_group_concat,
}


def is_aggregate(name: str) -> bool:
    return name.upper() in AGGREGATE_FUNCTIONS


def aggregate_is_star(node: ast.FunctionCall) -> bool:
    return len(node.args) == 1 and isinstance(node.args[0], ast.Star)


#: Aggregates with a numpy kernel, whose state decomposes into per-morsel
#: partials that merge exactly: SUM/COUNT add, MIN/MAX combine, AVG carries
#: (sum, count) pairs.  MEDIAN and the variance family stay on the Python
#: tier (their SQL definitions — sample variance, integer-preserving
#: odd-count median — differ from numpy defaults); they, GROUP_CONCAT and
#: DISTINCT aggregates need the whole group in one place and stay sequential.
VECTOR_AGGREGATES = frozenset({"SUM", "AVG", "MIN", "MAX", "COUNT"})


def _int_sum_may_overflow(values: np.ndarray) -> bool:
    """Whether an integer sum could exceed int64 (numpy would silently wrap).

    Conservative magnitude-times-count bound in exact Python arithmetic; when
    it trips, the caller sums Python ints, which are unbounded.
    """
    return values.dtype.kind in "iu" \
        and int_magnitude(values) * values.size >= 2 ** 63


def _means(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """AVG from exact per-group sums, rounded once as Python's ``int / int``
    rounds: float sums and integer sums below 2^53 (exact as doubles) divide
    as arrays, larger integer sums one by one."""
    if sums.dtype.kind == "f" or (
            sums.dtype.kind in "iu" and int_magnitude(sums) < 2 ** 53):
        return sums / np.maximum(counts, 1)
    return np.array([total / count if count else 0.0
                     for total, count in zip(sums.tolist(), counts.tolist())],
                    dtype=np.float64)


def call_aggregate(name: str, values: Sequence[Any], *, is_star: bool = False,
                   distinct: bool = False) -> Any:
    """Evaluate an aggregate over the per-row values of its argument.

    ``values`` may be a :class:`Vector`, a list or a BLOB object array;
    vectors are reduced by the grouped kernel over one group (masks excluded
    per SQL NULL semantics), everything else by the per-value
    implementations.
    """
    upper = name.upper()
    if upper not in AGGREGATE_FUNCTIONS:
        raise ExecutionError(f"unknown aggregate {name!r}")
    if isinstance(values, Vector):
        if not distinct and len(values) > 0 and upper in VECTOR_AGGREGATES:
            result = _grouped_vector(upper, values,
                                     GroupLayout.one_group(len(values)))
            if result is not None:
                return result[0]
        values = values.to_list()
    if distinct:
        seen: list[Any] = []
        for value in values:
            if value not in seen:
                seen.append(value)
        values = seen
    if upper == "COUNT" and is_star:
        return _agg_count_star(values)
    return python_value(AGGREGATE_FUNCTIONS[upper](values))


# --------------------------------------------------------------------------- #
# grouped (hash aggregation) kernels
# --------------------------------------------------------------------------- #
class GroupLayout:
    """Row-to-group assignment plus sort-based group geometry.

    ``gids`` assigns every batch row a group id in [0, n_groups), numbered in
    first-appearance order.  ``order``/``starts`` describe the rows permuted
    so that each group (cluster) is contiguous — in *any* cluster order — so
    ``ufunc.reduceat`` can reduce every group in one pass; ``out_perm`` maps
    cluster position to output group id (None means they already coincide).
    A key sort passes its geometry alone (no reduction reads ``gids``; they
    are derived on demand), ``operators.row_codes`` the ``gids`` alone;
    :meth:`one_group`'s ``order`` is the identity slice.
    """

    def __init__(self, gids: np.ndarray | None, n_groups: int, *,
                 order: np.ndarray | slice | None = None,
                 starts: np.ndarray | None = None,
                 out_perm: np.ndarray | None = None,
                 size: int | None = None) -> None:
        self._gids = None if gids is None else np.asarray(gids, dtype=np.int64)
        self.n_groups = n_groups
        self.size = size if size is not None else \
            int((order if gids is None else self._gids).size)
        self._order = order
        self._starts = starts
        self.out_perm = out_perm
        self._cluster_counts: np.ndarray | None = None
        self._group_rows: list[np.ndarray] | None = None

    @classmethod
    def one_group(cls, size: int) -> "GroupLayout":
        """Every row in one group (an aggregate without GROUP BY, even over
        no row): the rows are already contiguous, so no group id, order or
        search is built."""
        return cls(None, 1, order=slice(None), starts=np.zeros(1, np.intp),
                   out_perm=np.zeros(1, np.intp), size=size)

    @property
    def gids(self) -> np.ndarray:
        if self._gids is None:  # a key sort's layout, whose out_perm is set
            self._gids = np.empty(self.size, dtype=np.int64)
            self._gids[self.order] = np.repeat(self.out_perm, self.cluster_counts)
        return self._gids

    @property
    def order(self) -> np.ndarray | slice:
        if self._order is None:
            from .operators import stable_order  # operators imports this module
            self._order = stable_order(self.gids)
        return self._order

    @property
    def starts(self) -> np.ndarray:
        if self._starts is None:
            self._starts = np.searchsorted(self.gids[self.order],
                                           np.arange(self.n_groups))
        return self._starts

    @property
    def cluster_counts(self) -> np.ndarray:
        if self._cluster_counts is None:
            self._cluster_counts = np.diff(self.starts, append=self.size)
        return self._cluster_counts

    def to_group_order(self, per_cluster: np.ndarray) -> np.ndarray:
        """Rearrange a per-cluster result into output group-id order."""
        if self.out_perm is None:
            return per_cluster
        out = np.empty_like(per_cluster)
        out[self.out_perm] = per_cluster
        return out

    @property
    def counts(self) -> np.ndarray:
        """Group sizes in output group order."""
        return self.to_group_order(self.cluster_counts)

    @property
    def group_rows(self) -> list[np.ndarray]:
        """Per-group row indices, in output group order."""
        if self._group_rows is None:
            clusters = np.split(np.arange(self.size)[self.order],
                                self.starts[1:]) if self.n_groups else []
            if self.out_perm is None:
                self._group_rows = clusters
            else:
                rows: list[np.ndarray] = [None] * self.n_groups  # type: ignore[list-item]
                for position, rows_in_cluster in zip(self.out_perm, clusters):
                    rows[position] = rows_in_cluster
                self._group_rows = rows
        return self._group_rows


#: Identity fill per reduction: masked positions must not affect the result.
_I64 = np.iinfo(np.int64)
_REDUCE_FILL = {"MIN": {"f": np.inf, "i": _I64.max, "u": _I64.max, "b": True},
                "MAX": {"f": -np.inf, "i": _I64.min, "u": _I64.min, "b": False}}


def _grouped_vector(upper: str, vector: Vector,
                    layout: GroupLayout) -> Vector | None:
    """Grouped reduction over a vector; ``None`` = use the Python tier.

    One ``reduceat`` pass per aggregate: a validity mask is reduced to
    per-group valid counts, masked positions are filled with the reduction's
    identity element, and groups with no valid value come out NULL.
    Dictionary vectors run MIN / MAX on their codes.
    """
    valid = None if vector.mask is None else ~vector.mask
    counts = layout.counts if valid is None else layout.to_group_order(
        np.add.reduceat(valid[layout.order].astype(np.int64), layout.starts))
    if upper == "COUNT":
        return typed_vector(counts)
    if vector.dictionary is not None and upper not in ("MIN", "MAX"):
        return None  # SUM/AVG over strings: Python-tier errors apply
    data = vector.data
    if upper in ("SUM", "AVG"):
        if data.dtype == np.bool_:
            data = data.astype(np.int64)
        if _int_sum_may_overflow(data if valid is None else data[valid]):
            if upper == "SUM":
                return None  # the Python tier answers Python ints
            data = data.astype(object)  # AVG: exact Python-int sums
        if valid is not None:
            data = np.where(valid, data, 0)
        sums = layout.to_group_order(
            np.add.reduceat(data[layout.order], layout.starts))
        return typed_vector(
            sums if upper == "SUM" else _means(sums, counts), counts == 0)
    if valid is not None:
        fill = _REDUCE_FILL[upper].get(data.dtype.kind)
        if fill is None:
            return None
        data = np.where(valid, data, fill)
    reducer = np.minimum if upper == "MIN" else np.maximum
    extremes = layout.to_group_order(
        reducer.reduceat(data[layout.order], layout.starts))
    return typed_vector(extremes, counts == 0, vector.dictionary)


# --------------------------------------------------------------------------- #
# partial aggregation (per-morsel hash aggregation)
# --------------------------------------------------------------------------- #


class PartialAggregate(NamedTuple):
    """One aggregate's state for a single morsel, aligned to the morsel's
    *local* group ids: ``column`` is the per-group COUNT, SUM, MIN or MAX as
    :func:`grouped_aggregate` answers it (a vector, or a list from the
    per-value tier; for AVG its SUM), ``counts`` AVG's per-group valid
    counts.  A NULL entry means "no valid value in this group"."""

    column: Any
    counts: Any = None


def partial_aggregate(name: str, values: Sequence[Any], layout: GroupLayout,
                      *, is_star: bool = False) -> PartialAggregate:
    """One morsel's decomposable aggregate state, per local group.

    Reuses the grouped kernels, so every per-morsel partial inherits their
    exact semantics (mask-aware reductions, int-overflow fallback to
    unbounded Python integers, string MIN/MAX on dictionary codes).
    """
    upper = name.upper()
    if upper not in VECTOR_AGGREGATES:
        raise ExecutionError(f"aggregate {name!r} has no partial kernel")
    if upper == "AVG":
        return PartialAggregate(grouped_aggregate("SUM", values, layout),
                                grouped_aggregate("COUNT", values, layout))
    return PartialAggregate(
        grouped_aggregate(upper, values, layout, is_star=is_star))


def _merge_counts(columns: Sequence[tuple[Any, np.ndarray]],
                  n_groups: int) -> np.ndarray:
    totals = np.zeros(n_groups, dtype=np.int64)
    for counts, groups in columns:
        totals[groups] += np.asarray(
            counts.data if isinstance(counts, Vector) else counts, np.int64)
    return totals


def _partial_arrays(column: Any) -> tuple[np.ndarray, np.ndarray | None]:
    """A partial column as (values, where one is present — None: everywhere):
    a vector's typed array (strings decoded), else the values as objects."""
    if isinstance(column, Vector):
        return column.decoded(), None if column.mask is None else ~column.mask
    values = np.empty(len(column), dtype=object)
    values[:] = column
    return values, np.array([value is not None for value in column], np.bool_)


def _merge_values(upper: str, columns: Sequence[tuple[Any, np.ndarray]],
                  n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Scatter SUM / MIN / MAX partials into global groups in morsel order:
    (merged values, which groups have one).

    A group's first present partial is taken as it is and each later one is
    added to it or compared with it: float sums fold in morsel order, and a
    tie keeps the earlier value, as Python's ``min`` / ``max`` do.  A NaN replaces any value, as one reduction over
    all the rows propagates it.  Typed partials of one dtype stay typed
    (integer sums while the sum of the partials' magnitudes fits int64);
    the rest merge as Python objects."""
    parts = [_partial_arrays(column) for column, _ in columns]
    kinds = {values.dtype.kind for values, _ in parts}
    if len(kinds) != 1 or (upper == "SUM" and kinds <= {"i", "u"} and sum(
            int_magnitude(values) for values, _ in parts) >= 2 ** 63):
        parts = [(values.astype(object), present) for values, present in parts]
    out = np.empty(n_groups, dtype=parts[0][0].dtype if parts else object)
    seen = np.zeros(n_groups, dtype=np.bool_)
    for (values, present), (_, groups) in zip(parts, columns):
        if present is not None:
            values, groups = values[present], groups[present]
        first = ~seen[groups]
        out[groups[first]] = values[first]
        seen[groups] = True
        if first.all():
            continue
        targets, incoming = groups[~first], values[~first]
        current = out[targets]
        if upper == "SUM":
            out[targets] = current + incoming
            continue
        better = np.asarray(incoming < current if upper == "MIN"
                            else incoming > current, dtype=np.bool_)
        if incoming.dtype.kind == "f":
            better |= np.isnan(incoming)
        out[targets] = np.where(better, incoming, current)
    if out.dtype != object:
        out[~seen] = 0
    return out, seen


def merge_partial_aggregates(
        name: str,
        partials: Sequence[tuple[PartialAggregate, np.ndarray]],
        n_groups: int) -> Vector | list[Any]:
    """Merge per-morsel partial states into one value per global group.

    ``partials`` pairs each morsel's state with the global group id of each
    of its local groups (distinct within a morsel, so one scatter per morsel
    touches each group once).  Groups no morsel contributed a valid value to
    come out NULL (``0`` for COUNT) — the results one whole-batch reduction
    produces; a typed merge answers a vector, an object merge a list.
    """
    upper = name.upper()
    columns = [(state.column, groups) for state, groups in partials]
    if upper == "COUNT":
        return typed_vector(_merge_counts(columns, n_groups))
    sums, seen = _merge_values("SUM" if upper == "AVG" else upper, columns,
                               n_groups)
    if upper != "AVG":
        return sums.tolist() if sums.dtype == object \
            else typed_vector(sums, ~seen)
    counts = _merge_counts([(state.counts, groups)
                            for state, groups in partials], n_groups)
    return typed_vector(_means(sums, counts), counts == 0)


def grouped_aggregate(name: str, values: Sequence[Any], layout: GroupLayout, *,
                      is_star: bool = False, distinct: bool = False
                      ) -> Vector | list[Any]:
    """Per-group aggregate results, in group order (one entry per group).

    ``values`` is the row-aligned argument column.  Vectors with a
    vectorisable aggregate are reduced in one ``reduceat`` pass
    (mask-aware for NULL-bearing vectors) into a vector; all other cases
    delegate to :func:`call_aggregate` per group, which keeps the results
    bit-identical to the per-group execution path, and answer a list.
    """
    upper = name.upper()
    if upper not in AGGREGATE_FUNCTIONS:
        raise ExecutionError(f"unknown aggregate {name!r}")
    if upper == "COUNT" and is_star and not distinct:
        return typed_vector(layout.counts)
    if (not distinct and layout.size > 0 and upper in VECTOR_AGGREGATES
            and isinstance(values, Vector)):
        result = _grouped_vector(upper, values, layout)
        if result is not None:
            return result
    value_list = values.to_list() if isinstance(values, Vector) \
        else list(values)
    return [
        call_aggregate(name, [value_list[i] for i in rows],
                       is_star=is_star, distinct=distinct)
        for rows in layout.group_rows
    ]
