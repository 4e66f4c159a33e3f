"""Aggregate functions for GROUP BY / implicit aggregation queries.

Two execution tiers live here: the original per-value Python implementations
(exact SQL NULL semantics, used for object columns and exotic aggregates) and
numpy kernels used when the input is a
:class:`repro.sqldb.vector.Vector` — whole-column reductions for implicit
aggregation and ``reduceat``-based grouped reductions for single-pass hash
aggregation.  NULL-bearing vectors stay on the numpy tier: SUM/AVG zero-fill
masked positions and divide by per-group valid counts, MIN/MAX fill with the
dtype's identity element, COUNT reduces the validity mask itself, and groups
with no valid value yield ``None`` — the same results the per-value
implementations produce, computed per byte instead of per Python object.
Dictionary-encoded string vectors run MIN/MAX on the codes (the dictionary
is sorted, so code order is string order).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

from ..errors import ExecutionError
from . import ast_nodes as ast
from .types import python_value
from .vector import Vector

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


#: Aggregates with a numpy whole-column / grouped kernel.  MEDIAN and the
#: variance family stay on the Python tier: their SQL definitions (sample
#: variance, integer-preserving odd-count median) differ from numpy defaults.
VECTOR_AGGREGATES = frozenset({"SUM", "AVG", "MIN", "MAX", "COUNT"})


def _int_sum_may_overflow(upper: str, values: np.ndarray) -> bool:
    """Whether an integer SUM could exceed int64 (numpy would silently wrap).

    Conservative magnitude-times-count bound in exact Python arithmetic; when
    it trips, the caller uses the Python tier, whose ints are unbounded.
    """
    if upper != "SUM" or values.dtype.kind not in "iu" or values.size == 0:
        return False
    largest = max(abs(int(np.max(values))), abs(int(np.min(values))))
    return largest * int(values.size) >= 2 ** 63


def _whole_column_vector(upper: str, values: np.ndarray) -> Any:
    if upper == "COUNT":
        return int(values.size)
    if values.dtype == np.bool_ and upper in ("SUM", "AVG"):
        values = values.astype(np.int64)
    if upper == "SUM":
        return np.sum(values).item()
    if upper == "AVG":
        return float(np.mean(values))
    if upper == "MIN":
        return np.min(values).item()
    return np.max(values).item()


#: Sentinel: a vector kernel declined and the Python tier must run instead.
_FALLBACK = object()


def _whole_column_masked(upper: str, vector: Vector) -> Any:
    """Whole-column reduction over a vector (mask-aware); may decline."""
    size = len(vector)
    null_count = vector.null_count()
    if upper == "COUNT":
        return size - null_count
    if null_count == size:
        return None
    if vector.dictionary is not None:
        if upper not in ("MIN", "MAX"):
            return _FALLBACK  # SUM/AVG over strings: Python-tier errors apply
        codes = vector.data if vector.mask is None else vector.data[~vector.mask]
        code = int(np.min(codes) if upper == "MIN" else np.max(codes))
        return vector.dictionary[code]
    data = vector.data if vector.mask is None else vector.data[~vector.mask]
    if _int_sum_may_overflow(upper, data):
        return _FALLBACK
    return _whole_column_vector(upper, data)


def call_aggregate(name: str, values: Sequence[Any], *, is_star: bool = False,
                   distinct: bool = False) -> Any:
    """Evaluate an aggregate over the per-row values of its argument.

    ``values`` may be a :class:`Vector`, a list or a BLOB object array;
    vectors are reduced with numpy (masks excluded per SQL NULL semantics),
    everything else by the per-value implementations.
    """
    upper = name.upper()
    if upper not in AGGREGATE_FUNCTIONS:
        raise ExecutionError(f"unknown aggregate {name!r}")
    if isinstance(values, Vector):
        if not distinct and len(values) > 0 and upper in VECTOR_AGGREGATES:
            result = _whole_column_masked(upper, values)
            if result is not _FALLBACK:
                return python_value(result)
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
    are derived on demand), ``operators.row_codes`` the ``gids`` alone.
    """

    def __init__(self, gids: np.ndarray | None, n_groups: int, *,
                 order: np.ndarray | None = None,
                 starts: np.ndarray | None = None,
                 out_perm: np.ndarray | None = None) -> None:
        self._gids = None if gids is None else np.asarray(gids, dtype=np.int64)
        self.n_groups = n_groups
        self.size = int((order if gids is None else self._gids).size)
        self._order = order
        self._starts = starts
        self.out_perm = out_perm
        self._cluster_counts: np.ndarray | None = None
        self._group_rows: list[np.ndarray] | None = None

    @property
    def gids(self) -> np.ndarray:
        if self._gids is None:  # a key sort's layout, whose out_perm is set
            self._gids = np.empty(self.size, dtype=np.int64)
            self._gids[self.order] = np.repeat(self.out_perm, self.cluster_counts)
        return self._gids

    @property
    def order(self) -> np.ndarray:
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
            clusters = np.split(self.order, self.starts[1:]) \
                if self.n_groups else []
            if self.out_perm is None:
                self._group_rows = clusters
            else:
                rows: list[np.ndarray] = [None] * self.n_groups  # type: ignore[list-item]
                for position, rows_in_cluster in zip(self.out_perm, clusters):
                    rows[position] = rows_in_cluster
                self._group_rows = rows
        return self._group_rows


def _grouped_vector(upper: str, values: np.ndarray, layout: GroupLayout) -> list[Any]:
    if upper == "COUNT":
        return layout.counts.tolist()
    sorted_values = values[layout.order]
    if sorted_values.dtype == np.bool_ and upper in ("SUM", "AVG"):
        sorted_values = sorted_values.astype(np.int64)
    if upper == "SUM":
        per_cluster = np.add.reduceat(sorted_values, layout.starts)
    elif upper == "AVG":
        sums = np.add.reduceat(sorted_values.astype(np.float64), layout.starts)
        per_cluster = sums / layout.cluster_counts
    elif upper == "MIN":
        per_cluster = np.minimum.reduceat(sorted_values, layout.starts)
    else:
        per_cluster = np.maximum.reduceat(sorted_values, layout.starts)
    return layout.to_group_order(per_cluster).tolist()


#: Identity fill per reduction: masked positions must not affect the result.
_REDUCE_FILL = {
    "MIN": {"f": np.inf, "i": np.iinfo(np.int64).max, "u": np.iinfo(np.int64).max},
    "MAX": {"f": -np.inf, "i": np.iinfo(np.int64).min, "u": np.iinfo(np.int64).min},
}


def _grouped_vector_masked(upper: str, vector: Vector,
                           layout: GroupLayout) -> list[Any] | None:
    """Grouped masked reduction over a vector; ``None`` = use the Python tier.

    One ``reduceat`` pass per aggregate: the validity mask is reduced to
    per-group valid counts, masked positions are filled with the reduction's
    identity element, and groups with no valid value come out as ``None``.
    """
    if vector.mask is None and vector.dictionary is None:
        if _int_sum_may_overflow(upper, vector.data):
            return None
        return _grouped_vector(upper, vector.data, layout)
    order = layout.order
    starts = layout.starts
    valid = vector.valid()
    valid_counts = layout.to_group_order(
        np.add.reduceat(valid[order].astype(np.int64), starts))
    if upper == "COUNT":
        return valid_counts.tolist()
    if vector.dictionary is not None:
        if upper not in ("MIN", "MAX"):
            return None  # SUM/AVG over strings: Python-tier errors apply
        fill = (np.iinfo(np.int64).max if upper == "MIN"
                else np.iinfo(np.int64).min)
        filled = np.where(valid, vector.data, fill)[order]
        reducer = np.minimum if upper == "MIN" else np.maximum
        per_group = layout.to_group_order(reducer.reduceat(filled, starts))
        return [None if count == 0 else vector.dictionary[code]
                for code, count in zip(per_group.tolist(), valid_counts.tolist())]
    data = vector.data
    was_bool = data.dtype == np.bool_
    if was_bool:
        data = data.astype(np.int64)
    if upper == "SUM" and data.dtype.kind in "iu" \
            and _int_sum_may_overflow(upper, data[valid]):
        return None
    if upper == "SUM":
        sums = layout.to_group_order(
            np.add.reduceat(np.where(valid, data, 0)[order], starts))
        return [None if count == 0 else value
                for value, count in zip(sums.tolist(), valid_counts.tolist())]
    if upper == "AVG":
        sums = layout.to_group_order(np.add.reduceat(
            np.where(valid, data, 0).astype(np.float64)[order], starts))
        averages = sums / np.maximum(valid_counts, 1)
        return [None if count == 0 else value
                for value, count in zip(averages.tolist(), valid_counts.tolist())]
    # MIN / MAX
    fill = _REDUCE_FILL[upper].get(data.dtype.kind)
    if fill is None:
        return None
    filled = np.where(valid, data, fill)[order]
    reducer = np.minimum if upper == "MIN" else np.maximum
    per_group = layout.to_group_order(reducer.reduceat(filled, starts))
    return [None if count == 0 else (bool(value) if was_bool else value)
            for value, count in zip(per_group.tolist(), valid_counts.tolist())]


# --------------------------------------------------------------------------- #
# partial aggregation (per-morsel hash aggregation)
# --------------------------------------------------------------------------- #
#: Aggregates whose state decomposes into per-morsel partials that merge
#: exactly: SUM/COUNT add, MIN/MAX combine, AVG carries (sum, count) pairs.
#: Everything else (MEDIAN, the variance family, GROUP_CONCAT, DISTINCT
#: aggregates) needs the whole group in one place and stays sequential.
PARTIAL_AGGREGATES = frozenset({"SUM", "AVG", "MIN", "MAX", "COUNT"})


class PartialAggregate:
    """One aggregate's per-local-group state for a single morsel.

    ``sums``/``counts``/``extremes`` are aligned to the morsel's *local*
    group ids; the merge step routes them to global groups through the
    morsel's local-to-global mapping.  ``None`` entries mean "no valid value
    in this group" (the SQL all-NULL result), so merging stays NULL-correct
    without consulting validity masks again.
    """

    __slots__ = ("name", "sums", "counts", "extremes")

    def __init__(self, name: str, *, sums: list[Any] | None = None,
                 counts: list[int] | None = None,
                 extremes: list[Any] | None = None) -> None:
        self.name = name
        self.sums = sums
        self.counts = counts
        self.extremes = extremes


def partial_aggregate(name: str, values: Sequence[Any], layout: GroupLayout,
                      *, is_star: bool = False) -> PartialAggregate:
    """One morsel's decomposable aggregate state, per local group.

    Reuses the grouped kernels, so every per-morsel partial inherits their
    exact semantics (mask-aware reductions, int-overflow fallback to
    unbounded Python integers, string MIN/MAX on dictionary codes).
    """
    upper = name.upper()
    if upper not in PARTIAL_AGGREGATES:
        raise ExecutionError(f"aggregate {name!r} has no partial kernel")
    if upper == "COUNT":
        if is_star:
            return PartialAggregate(upper, counts=layout.counts.tolist())
        return PartialAggregate(
            upper, counts=grouped_aggregate("COUNT", values, layout))
    if upper == "SUM":
        return PartialAggregate(
            upper, sums=grouped_aggregate("SUM", values, layout))
    if upper == "AVG":
        return PartialAggregate(
            upper,
            sums=grouped_aggregate("SUM", values, layout),
            counts=grouped_aggregate("COUNT", values, layout))
    return PartialAggregate(
        upper, extremes=grouped_aggregate(upper, values, layout))


def merge_partial_aggregates(
        name: str,
        partials: Sequence[tuple[PartialAggregate, Sequence[int]]],
        n_groups: int) -> list[Any]:
    """Merge per-morsel partial states into one value per global group.

    ``partials`` pairs each morsel's state with its local-to-global group id
    mapping.  Groups no morsel contributed a valid value to come out as
    ``None`` (``0`` for COUNT) — the same results one whole-batch reduction
    produces.
    """
    upper = name.upper()
    if upper == "COUNT":
        totals = [0] * n_groups
        for state, local_to_global in partials:
            for local, gid in enumerate(local_to_global):
                totals[gid] += state.counts[local]
        return totals
    if upper == "SUM":
        sums: list[Any] = [None] * n_groups
        for state, local_to_global in partials:
            for local, gid in enumerate(local_to_global):
                value = state.sums[local]
                if value is None:
                    continue
                sums[gid] = value if sums[gid] is None else sums[gid] + value
        return sums
    if upper == "AVG":
        sums = [None] * n_groups
        counts = [0] * n_groups
        for state, local_to_global in partials:
            for local, gid in enumerate(local_to_global):
                value = state.sums[local]
                if value is not None:
                    sums[gid] = value if sums[gid] is None else sums[gid] + value
                counts[gid] += state.counts[local]
        return [None if counts[g] == 0 else sums[g] / counts[g]
                for g in range(n_groups)]
    if upper in ("MIN", "MAX"):
        pick = min if upper == "MIN" else max
        extremes: list[Any] = [None] * n_groups
        for state, local_to_global in partials:
            for local, gid in enumerate(local_to_global):
                value = state.extremes[local]
                if value is None:
                    continue
                current = extremes[gid]
                extremes[gid] = value if current is None else pick(current, value)
        return extremes
    raise ExecutionError(f"aggregate {name!r} has no partial kernel")


def grouped_aggregate(name: str, values: Sequence[Any], layout: GroupLayout, *,
                      is_star: bool = False, distinct: bool = False) -> list[Any]:
    """Per-group aggregate results, in group order (one entry per group).

    ``values`` is the row-aligned argument column.  Vectors with a
    vectorisable aggregate are reduced in one ``reduceat`` pass
    (mask-aware for NULL-bearing vectors); all other cases delegate to
    :func:`call_aggregate` per group, which keeps the results bit-identical
    to the per-group execution path.
    """
    upper = name.upper()
    if upper not in AGGREGATE_FUNCTIONS:
        raise ExecutionError(f"unknown aggregate {name!r}")
    if upper == "COUNT" and is_star and not distinct:
        return layout.counts.tolist()
    if (not distinct and layout.size > 0 and upper in VECTOR_AGGREGATES
            and isinstance(values, Vector)):
        result = _grouped_vector_masked(upper, values, layout)
        if result is not None:
            return result
    value_list = values.to_list() if isinstance(values, Vector) \
        else list(values)
    return [
        call_aggregate(name, [value_list[i] for i in rows],
                       is_star=is_star, distinct=distinct)
        for rows in layout.group_rows
    ]
