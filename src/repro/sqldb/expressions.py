"""Vectorised (column-at-a-time) expression evaluation.

The evaluator works on a :class:`Batch` — the columnar intermediate produced
by the FROM clause — and returns one value column per expression.  Column
data has one typed shape, the :class:`repro.sqldb.vector.Vector` (typed
values + optional validity mask + optional string dictionary; a stored
column's scan is one, zero-copy), and the Python tier's two: a plain list
and the object array a BLOB column stores.  Comparison, arithmetic and
logical operators run as whole-array numpy kernels over vectors and return
vectors: NULLs propagate by mask union (Kleene three-valued logic for
AND/OR) and two string columns compare by dictionary code.  Everything else
— BLOBs, mixed-type columns, operands a typed kernel cannot hold, built-ins,
CASE — is the per-row tier, one driver (``ExpressionEvaluator._per_row``): a
scalar function once per distinct value for a dictionary column beside
constants, once per row otherwise.  Scalar Python UDFs are invoked **once per
operator call** with whole columns, the MonetDB operator-at-a-time behaviour
the paper's §2.4 contrasts with tuple-at-a-time engines.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Any, Iterator, Sequence

import numpy as np

from ..errors import ExecutionError
from . import ast_nodes as ast
from .aggregates import aggregate_is_star, call_aggregate, is_aggregate
from .functions import call_builtin_scalar, is_builtin_scalar
from .types import SQLType, coerce_value, infer_sql_type
from .udf import columns_to_udf_args, convert_scalar_result
from .vector import (
    Vector,
    as_value_list,
    combine_masks,
    int_magnitude,
    remap_to_shared_dictionary,
    slice_column_values,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import Database


# --------------------------------------------------------------------------- #
# value-sequence helpers (column data is a Vector, a list or a BLOB object
# array; ``as_value_list`` / ``concat_values`` live next to ``Vector``)
# --------------------------------------------------------------------------- #
def _python_elements(values: Any) -> Any:
    """Detach a vector into Python values for per-row evaluation; lists
    and object arrays already hold Python objects and pass through."""
    if isinstance(values, Vector):
        return values.to_list()
    return values


def take_values(values: Any, indices: Any) -> Any:
    """Gather ``values`` at ``indices`` (fancy indexing for vectors and a
    BLOB column's object array)."""
    if isinstance(values, Vector):
        return values.take(indices)
    if isinstance(values, np.ndarray):
        return values[np.asarray(indices, dtype=np.intp)]
    return [values[index] for index in indices]


def true_rows(values: Any) -> Sequence[bool]:
    """Which of a predicate's values are TRUE (or 1): a numpy bool array for
    a vector, else a list; NULL and a string are not true."""
    if isinstance(values, Vector) and values.dictionary is None:
        data = values.data if values.data.dtype == np.bool_ else values.data == 1
        if values.mask is not None:
            data = data & ~values.mask  # NULL is not true
        return data
    return [value is True or value == 1 for value in as_value_list(values)]


#: Row-range slice of column data (the one slicing rule, shared with the
#: storage layer's ``Column.scan_vector``).
slice_values = slice_column_values


# --------------------------------------------------------------------------- #
# Batch: the columnar intermediate
# --------------------------------------------------------------------------- #
@dataclass
class BatchColumn:
    """One column inside a batch, qualified by its source table alias.

    ``values`` is a :class:`Vector` (every typed column; a stored column's
    is a shared, read-only view of its buffers), a Python list, or the
    object array of a BLOB column — never a bare typed array.
    """

    table: str | None
    name: str
    sql_type: SQLType
    values: Any = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.values)

    def value_list(self) -> list[Any]:
        return as_value_list(self.values)


class Batch:
    """A set of equally-long columns flowing between operators."""

    def __init__(self, columns: Sequence[BatchColumn] | None = None,
                 row_count: int | None = None) -> None:
        self.columns: list[BatchColumn] = list(columns or [])
        if row_count is not None:
            self.row_count = row_count
        else:
            self.row_count = len(self.columns[0]) if self.columns else 0
        for column in self.columns:
            if len(column) != self.row_count:
                raise ExecutionError(
                    f"batch column {column.name!r} has {len(column)} rows, "
                    f"expected {self.row_count}"
                )

    # -- construction ---------------------------------------------------- #
    @classmethod
    def empty(cls) -> "Batch":
        """A batch with no columns and a single row (for FROM-less SELECTs)."""
        return cls([], row_count=1)

    # -- name resolution -------------------------------------------------- #
    def matching_columns(self, name: str, table: str | None = None) -> list[BatchColumn]:
        """All columns matching a (possibly qualified) name, case-insensitively."""
        lowered = name.lower()
        table_lowered = table.lower() if table else None
        return [
            column for column in self.columns
            if column.name.lower() == lowered
            and (table_lowered is None or (column.table or "").lower() == table_lowered)
        ]

    def resolve(self, name: str, table: str | None = None) -> BatchColumn:
        matches = self.matching_columns(name, table)
        if not matches:
            qualifier = f"{table}." if table else ""
            raise ExecutionError(f"unknown column {qualifier}{name!r}")
        if len(matches) > 1 and table is None:
            tables = sorted({column.table or "?" for column in matches})
            raise ExecutionError(f"ambiguous column {name!r} (found in {tables})")
        return matches[0]

    def columns_for(self, table: str | None = None) -> list[BatchColumn]:
        if table is None:
            return list(self.columns)
        lowered = table.lower()
        selected = [c for c in self.columns if (c.table or "").lower() == lowered]
        if not selected:
            raise ExecutionError(f"unknown table alias {table!r}")
        return selected

    # -- row operations --------------------------------------------------- #
    def slice(self, start: int, stop: int) -> "Batch":
        """A row-range view of this batch (zero-copy for array columns)."""
        stop = min(stop, self.row_count)
        columns = [
            BatchColumn(c.table, c.name, c.sql_type,
                        slice_values(c.values, start, stop))
            for c in self.columns
        ]
        return Batch(columns, row_count=max(stop - start, 0))

    def take(self, indices: Sequence[int]) -> "Batch":
        columns = [
            BatchColumn(c.table, c.name, c.sql_type, take_values(c.values, indices))
            for c in self.columns
        ]
        return Batch(columns, row_count=len(indices))

    def filter(self, mask: Sequence[Any]) -> tuple["Batch", str]:
        """The rows ``mask`` keeps, and how they were selected: ``all`` (this
        batch itself), ``slice`` (one contiguous run: a row-range view) or
        ``gather`` (a copy).  No operator writes into an input's columns, so
        the first two can share them."""
        if isinstance(mask, np.ndarray):
            indices: Sequence[int] = np.flatnonzero(mask)
            if len(indices) == len(mask) == self.row_count:
                return self, "all"
            if len(indices) and indices[-1] - indices[0] == len(indices) - 1:
                return self.slice(int(indices[0]), int(indices[-1]) + 1), "slice"
        else:
            indices = [index for index, keep in enumerate(mask)
                       if keep is True or keep == 1]
        return self.take(indices), "gather"


# --------------------------------------------------------------------------- #
# Evaluation results
# --------------------------------------------------------------------------- #
@dataclass
class EvalResult:
    """The outcome of evaluating one expression over a batch.

    ``values`` is a :class:`Vector` (every kernel's result) or, from the
    per-row tier, a Python list / BLOB object array.
    """

    values: Any
    constant: bool = False
    sql_type: SQLType | None = None

    def __len__(self) -> int:
        return len(self.values)

    def broadcast(self, length: int) -> Any:
        if len(self.values) == length:
            return self.values
        if len(self.values) == 1:
            if isinstance(self.values, Vector):
                return self.values.repeat(length)
            if isinstance(self.values, np.ndarray):  # one-row BLOB column
                return np.repeat(self.values, length)
            return self.values * length
        raise ExecutionError(
            f"cannot broadcast column of length {len(self.values)} to {length}"
        )


@lru_cache(maxsize=256)
def _like_to_regex(pattern: str) -> re.Pattern[str]:
    # re.escape leaves '%' and '_' alone on modern Pythons but escaped them on
    # older ones; handle both spellings before substituting the wildcards.
    escaped = re.escape(pattern)
    escaped = escaped.replace(r"\%", "%").replace(r"\_", "_")
    escaped = escaped.replace("%", ".*").replace("_", ".")
    return re.compile(f"^{escaped}$", re.DOTALL)


def _int_magnitude(operand: Any) -> int | None:
    """Largest absolute value of an integer operand; None if not integral."""
    if isinstance(operand, np.ndarray):
        return int_magnitude(operand) if operand.dtype.kind in "iu" else None
    if isinstance(operand, int):
        return abs(operand)
    return None


def _int_arith_may_overflow(op: str, left: Any, right: Any) -> bool:
    """Whether +, - or * on integer operands could exceed int64 and wrap."""
    if op not in ("+", "-", "*"):
        return False
    left_mag = _int_magnitude(left)
    right_mag = _int_magnitude(right)
    if left_mag is None or right_mag is None:
        return False  # a float operand promotes to float64, which saturates
    if op == "*":
        return left_mag * right_mag >= 2 ** 63
    return left_mag + right_mag >= 2 ** 63


#: What a scalar function may raise for one row's values besides an ExecutionError.
_VALUE_ERRORS = (TypeError, ValueError, ArithmeticError)

#: The Python type a typed column of each SQL type holds (BLOBs stay lists).
_VALUE_TYPES = {SQLType.INTEGER: int, SQLType.BIGINT: int, SQLType.DOUBLE: float,
                SQLType.REAL: float, SQLType.STRING: str, SQLType.BOOLEAN: bool}


def _typed_column(values: list[Any], sql_type: SQLType | None) -> Vector | None:
    """``values`` as a vector; None when a typed column cannot hold them
    (mixed Python types, BLOBs; integers beyond int64 raise ``OverflowError``).
    An un-typed result takes the list tier's type, the first non-NULL row's
    (``infer_column_type``): one inferred type across ``values`` makes it the
    same whichever row is first.
    """
    if sql_type is None:
        kinds = {infer_sql_type(value) for value in values
                 if value is not None} or {SQLType.STRING}
        sql_type = kinds.pop() if len(kinds) == 1 else None
    holds = _VALUE_TYPES.get(sql_type)
    if holds is None or not {type(value) for value in values} <= {holds, type(None)}:
        return None
    return Vector.from_values(values, sql_type)


def _numeric_result_type(left: SQLType | None, right: SQLType | None, op: str) -> SQLType:
    if op == "/":
        return SQLType.DOUBLE
    if left is not None and right is not None and left.is_numeric and right.is_numeric:
        if left.is_floating or right.is_floating:
            return SQLType.DOUBLE
        return SQLType.BIGINT
    return SQLType.DOUBLE


class ExpressionEvaluator:
    """Evaluates expressions over a batch, with optional aggregate support."""

    def __init__(self, database: "Database", batch: Batch, *,
                 allow_aggregates: bool = False) -> None:
        self.database = database
        self.batch = batch
        self.allow_aggregates = allow_aggregates

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def evaluate(self, expression: ast.Expression) -> EvalResult:
        method = getattr(self, f"_eval_{type(expression).__name__}", None)
        if method is None:
            raise ExecutionError(
                f"unsupported expression node {type(expression).__name__}"
            )
        return method(expression)

    def constant(self, expression: ast.Expression) -> Any:
        """The value of an expression that reads no row (a VALUES entry, an
        EXECUTE argument): for a literal, what ``_eval_Literal`` would wrap."""
        if type(expression) is ast.Literal:
            return expression.value
        return self.evaluate(expression).values[0]

    def evaluate_mask(self, expression: ast.Expression) -> Sequence[bool]:
        """Evaluate a predicate and return a boolean mask over the batch rows.

        Vector predicates yield a numpy bool array, list-backed ones a
        Python list; both with SQL's NULL-is-not-true semantics applied.
        """
        return true_rows(
            self.evaluate(expression).broadcast(self.batch.row_count))

    def _element_length(self, results: Sequence[EvalResult]) -> int:
        """Output length for the per-row tier: the longest operand, at
        least 1 — except over an empty batch with a row-aligned (non-
        constant) empty operand, where the result is empty too instead of
        broadcasting a zero-length column up to a constant's length (a
        morsel whose filter kept no rows must evaluate to no rows)."""
        if self.batch.row_count == 0 and any(
                not result.constant and len(result) == 0
                for result in results):
            return 0
        return max([1] + [len(result) for result in results])

    def _per_row(self, operands: Sequence[EvalResult], function: Any,
                 sql_type: SQLType | None = None, *,
                 row_aligned: bool = False) -> EvalResult:
        """The per-row tier, and the evaluator's one Python loop over rows:
        ``function(*values)`` for every row.

        Owns the length rule (``row_aligned``: a non-constant result covers
        the whole batch even if every operand is one value long), broadcasts
        each operand once, hands ``function`` Python values — Python ints are
        unbounded where int64 elements would silently wrap — and turns a
        value error into an ``ExecutionError``.
        """
        constant = all(operand.constant for operand in operands)
        length = self._element_length(operands)
        if row_aligned and not constant:
            length = max(length, self.batch.row_count)
        distinct = self._per_distinct(operands, function, sql_type, length)
        if distinct is not None:
            return EvalResult(distinct, constant, distinct.sql_type)
        columns = [_python_elements(operand.broadcast(length))
                   for operand in operands]
        rows = zip(*columns) if columns else [()] * length
        try:
            values = [function(*row) for row in rows]
        except _VALUE_ERRORS as exc:
            raise ExecutionError(
                f"invalid operands for expression: {exc}") from exc
        return EvalResult(values, constant, sql_type)

    @staticmethod
    def _per_distinct(operands: Sequence[EvalResult], function: Any,
                      sql_type: SQLType | None, length: int) -> Vector | None:
        """One dictionary vector beside one-value constants: ``function`` once
        per dictionary entry (NULL is one more entry), gathered by code — the
        cost is distinct values.  A morsel slice or a filtered batch keeps its
        column's full dictionary: one longer than the batch is first cut down
        to the entries the rows use (at most one call more than the rows).

        ``None`` = run the row loop: other operand shapes, a result that may
        be strings over more entries than half the rows (little to save, and
        a string column costs a sort of its values), results a typed column
        cannot hold, or a failing entry — only the row loop knows whether that
        entry is among the rows (and which failing row comes first).
        """
        chosen = [operand for operand in operands if
                  isinstance(operand.values, Vector) and operand.values.is_dict]
        if len(chosen) != 1 or not all(
                operand.constant and len(operand) == 1
                for operand in operands if operand is not chosen[0]):
            return None
        vector = chosen[0].broadcast(length)
        codes, entries = vector.data, vector.dictionary
        if len(entries) > length:
            used, codes = np.unique(codes, return_inverse=True)
            entries = entries[used]
        if sql_type in (None, SQLType.STRING) and 2 * len(entries) > length:
            return None
        entries = entries.tolist()
        if vector.mask is not None:
            codes = np.where(vector.mask, len(entries), codes)
            entries.append(None)
        columns = [entries if operand is chosen[0]
                   else [_python_elements(operand.values)[0]] * len(entries)
                   for operand in operands]
        try:
            typed = _typed_column(
                [function(*row) for row in zip(*columns)], sql_type)
        except (ExecutionError, *_VALUE_ERRORS):
            return None
        return typed.take(codes) if typed is not None else None

    # ------------------------------------------------------------------ #
    # leaf nodes
    # ------------------------------------------------------------------ #
    def _eval_Literal(self, node: ast.Literal) -> EvalResult:
        sql_type = infer_sql_type(node.value) if node.value is not None else None
        return EvalResult([node.value], constant=True, sql_type=sql_type)

    def _eval_ColumnRef(self, node: ast.ColumnRef) -> EvalResult:
        column = self.batch.resolve(node.name, node.table)
        # Share the column data (array or list) instead of copying; downstream
        # consumers never mutate evaluation results in place.
        return EvalResult(column.values, constant=False, sql_type=column.sql_type)

    def _eval_Star(self, node: ast.Star) -> EvalResult:
        raise ExecutionError("'*' is only valid inside COUNT(*) or a select list")

    def _eval_Parameter(self, node: ast.Parameter) -> EvalResult:
        raise ExecutionError(
            "unbound '?' placeholder; use PREPARE name AS ... and "
            "EXECUTE name (args)")

    # ------------------------------------------------------------------ #
    # operators
    # ------------------------------------------------------------------ #
    def _eval_UnaryOp(self, node: ast.UnaryOp) -> EvalResult:
        operand = self.evaluate(node.operand)
        if node.op == "-":
            if isinstance(operand.values, Vector) \
                    and operand.values.dictionary is None \
                    and operand.values.data.dtype != np.bool_ \
                    and not _int_arith_may_overflow("-", 0, operand.values.data):
                negated = Vector(-operand.values.data, operand.values.mask,
                                 None, operand.values.sql_type)
                return EvalResult(negated, operand.constant, operand.sql_type)
            return self._per_row(
                [operand], lambda v: None if v is None else -v, operand.sql_type)
        if node.op == "NOT":
            if isinstance(operand.values, Vector) \
                    and operand.values.dictionary is None:
                inverted = Vector(
                    ~self._as_bool_array(operand.values.data),
                    operand.values.mask, None, SQLType.BOOLEAN)
                return EvalResult(inverted, operand.constant, SQLType.BOOLEAN)
            return self._per_row(
                [operand], lambda v: None if v is None else not bool(v),
                SQLType.BOOLEAN)
        raise ExecutionError(f"unsupported unary operator {node.op!r}")

    def _eval_BinaryOp(self, node: ast.BinaryOp) -> EvalResult:
        op = node.op.upper()
        left = self.evaluate(node.left)
        right = self.evaluate(node.right)
        constant = left.constant and right.constant

        fast = self._vector_binary(op, left, right, constant)
        if fast is not None:
            return fast

        if op in ("AND", "OR"):
            function, sql_type = partial(self._logical, op), SQLType.BOOLEAN
        elif op in self._COMPARE_UFUNCS:
            function, sql_type = partial(self._compare, op), SQLType.BOOLEAN
        elif op == "||":
            function, sql_type = self._concat, SQLType.STRING
        elif op in self._ARITH_UFUNCS:
            function = partial(self._arith, op)
            sql_type = _numeric_result_type(left.sql_type, right.sql_type, op)
        else:
            raise ExecutionError(f"unsupported binary operator {node.op!r}")
        return self._per_row([left, right], function, sql_type)

    _COMPARE_UFUNCS = {
        "=": np.equal, "<>": np.not_equal, "<": np.less,
        "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
    }
    _ARITH_UFUNCS = {
        "+": np.add, "-": np.subtract, "*": np.multiply,
        "/": np.true_divide, "%": np.mod,
    }
    # the same operators over one row's Python values (the per-row tier)
    _COMPARE = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}
    _ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "%": operator.mod}

    def _vector_binary(self, op: str, left: EvalResult, right: EvalResult,
                       constant: bool) -> EvalResult | None:
        """Whole-array kernel over (masked, dictionary) vectors and scalar
        constants; ``None`` = fall back to the per-row tier.

        NULLs propagate by mask union (Kleene logic for AND/OR); string
        equality/ordering between two dictionary vectors runs on the
        dictionary codes (against a constant it is the per-row tier's
        once-per-distinct-value path).
        """
        lk = self._kernel_operand(left)
        rk = self._kernel_operand(right)
        if lk is None or rk is None:
            return None
        l_data, l_mask, l_dict = lk
        r_data, r_mask, r_dict = rk
        l_is_array = isinstance(l_data, np.ndarray)
        r_is_array = isinstance(r_data, np.ndarray)
        if not (l_is_array or r_is_array):
            return None  # two scalar constants: the generic path is cheap
        length = len(l_data) if l_is_array else len(r_data)

        if op in self._COMPARE_UFUNCS:
            return self._vector_compare(op, lk, rk, length, constant)
        if op in ("AND", "OR"):
            return self._vector_logical(op, lk, rk, length, constant)
        if op in self._ARITH_UFUNCS:
            if l_dict is not None or r_dict is not None:
                return None  # string arithmetic: per-row errors apply
            return self._vector_arith(op, left, right, lk, rk, length, constant)
        return None  # e.g. '||' — concatenation stays on the Python tier

    def _vector_compare(self, op: str, lk: tuple, rk: tuple, length: int,
                        constant: bool) -> EvalResult | None:
        l_data, l_mask, l_dict = lk
        r_data, r_mask, r_dict = rk
        if l_data is None or r_data is None:  # NULL literal operand
            return self._all_null_result(length, SQLType.BOOLEAN, constant)
        if l_dict is not None and r_dict is not None:
            # two dictionary vectors: remap into one shared *sorted* space —
            # code order is string order, so every comparison works on codes
            l_codes, r_codes = remap_to_shared_dictionary(
                Vector(l_data, l_mask, l_dict), Vector(r_data, r_mask, r_dict))
            data = self._COMPARE_UFUNCS[op](l_codes, r_codes)
        elif l_dict is not None or r_dict is not None:
            return None  # strings beside a constant or a number: per-row tier
        else:
            data = self._COMPARE_UFUNCS[op](l_data, r_data)
        mask_out = combine_masks(l_mask, r_mask)
        return self._masked_result(np.asarray(data), mask_out,
                                   SQLType.BOOLEAN, constant)

    def _vector_logical(self, op: str, lk: tuple, rk: tuple, length: int,
                        constant: bool) -> EvalResult | None:
        l_data, l_mask, l_dict = lk
        r_data, r_mask, r_dict = rk
        if l_dict is not None or r_dict is not None:
            return None
        # a NULL literal behaves as an all-NULL operand in Kleene logic
        if l_data is None:
            l_data, l_mask = False, np.ones(length, dtype=np.bool_)
        if r_data is None:
            r_data, r_mask = False, np.ones(length, dtype=np.bool_)
        lb = self._as_bool_array(l_data)
        rb = self._as_bool_array(r_data)
        if l_mask is None and r_mask is None:
            combine = np.logical_and if op == "AND" else np.logical_or
            return self._masked_result(np.asarray(combine(lb, rb)), None,
                                       SQLType.BOOLEAN, constant)
        # Python bools must become numpy bools: ``~False`` is the *integer*
        # -1, which would poison the known_true/known_false masks below
        if not isinstance(lb, np.ndarray):
            lb = np.bool_(lb)
        if not isinstance(rb, np.ndarray):
            rb = np.bool_(rb)
        l_true = lb if l_mask is None else lb & ~l_mask
        l_false = ~lb if l_mask is None else ~lb & ~l_mask
        r_true = rb if r_mask is None else rb & ~r_mask
        r_false = ~rb if r_mask is None else ~rb & ~r_mask
        if op == "AND":
            known_true = np.asarray(l_true & r_true)
            known_false = np.asarray(l_false | r_false)
        else:
            known_true = np.asarray(l_true | r_true)
            known_false = np.asarray(l_false & r_false)
        mask_out = ~(known_true | known_false)
        return self._masked_result(known_true, mask_out, SQLType.BOOLEAN, constant)

    def _vector_arith(self, op: str, left: EvalResult, right: EvalResult,
                      lk: tuple, rk: tuple, length: int,
                      constant: bool) -> EvalResult | None:
        l_data, l_mask, _ = lk
        r_data, r_mask, _ = rk
        sql_type = _numeric_result_type(left.sql_type, right.sql_type, op)
        if l_data is None or r_data is None:  # NULL literal operand
            return self._all_null_result(length, sql_type, constant)
        left_num = self._as_numeric_array(l_data)
        right_num = self._as_numeric_array(r_data)
        mask_out = combine_masks(l_mask, r_mask)
        if op in ("/", "%"):
            divisor = right_num
            if mask_out is not None and isinstance(divisor, np.ndarray):
                # a zero divisor on a NULL row produces NULL, not an error
                divisor = np.where(mask_out, 1, divisor)
            elif mask_out is not None and divisor == 0:
                if bool(mask_out.all()):
                    divisor = 1  # every row is NULL: nothing is divided
            if np.any(np.asarray(divisor) == 0):
                raise ExecutionError(
                    "division by zero" if op == "/" else "modulo by zero")
            right_num = divisor
        if _int_arith_may_overflow(op, left_num, right_num):
            return None  # Python ints are unbounded; int64 would wrap
        values = self._ARITH_UFUNCS[op](left_num, right_num)
        return self._masked_result(np.asarray(values), mask_out, sql_type, constant)

    @staticmethod
    def _masked_result(data: np.ndarray, mask: np.ndarray | None,
                       sql_type: SQLType, constant: bool) -> EvalResult:
        return EvalResult(Vector(data, mask, None, sql_type), constant, sql_type)

    @staticmethod
    def _all_null_result(length: int, sql_type: SQLType,
                         constant: bool) -> EvalResult:
        dtype = np.bool_ if sql_type is SQLType.BOOLEAN else np.float64
        return ExpressionEvaluator._masked_result(
            np.zeros(length, dtype), np.ones(length, np.bool_), sql_type, constant)

    @staticmethod
    def _kernel_operand(result: EvalResult
                        ) -> tuple[Any, np.ndarray | None, np.ndarray | None] | None:
        """Normalise an operand to ``(data, mask, dictionary)`` for a kernel.

        ``data`` is an ndarray (typed values or dictionary codes), a Python
        scalar, or ``None`` for a NULL literal.  Returns ``None`` (no tuple)
        when the operand cannot participate in a vector kernel.
        """
        values = result.values
        if isinstance(values, Vector):
            return values.data, values.mask, values.dictionary
        if result.constant and len(values) == 1:
            value = values[0]
            if value is None:
                return None, None, None
            if isinstance(value, (bool, int, float)):
                return value, None, None
        return None

    @staticmethod
    def _as_bool_array(operand: Any) -> Any:
        if isinstance(operand, np.ndarray):
            return operand if operand.dtype == np.bool_ else operand.astype(np.bool_)
        return bool(operand)

    @staticmethod
    def _as_numeric_array(operand: Any) -> Any:
        # bool + bool must be 0/1 arithmetic (Python semantics), not logical OR
        if isinstance(operand, np.ndarray) and operand.dtype == np.bool_:
            return operand.astype(np.int64)
        if isinstance(operand, bool):
            return int(operand)
        return operand

    @staticmethod
    def _logical(op: str, left: Any, right: Any) -> Any:
        lb = None if left is None else bool(left)
        rb = None if right is None else bool(right)
        if op == "AND":
            if lb is False or rb is False:
                return False
            if lb is None or rb is None:
                return None
            return True
        if lb is True or rb is True:
            return True
        if lb is None or rb is None:
            return None
        return False

    @classmethod
    def _compare(cls, op: str, left: Any, right: Any) -> Any:
        if left is None or right is None:
            return None
        return cls._COMPARE[op](left, right)

    @staticmethod
    def _concat(left: Any, right: Any) -> Any:
        return None if left is None or right is None else str(left) + str(right)

    @classmethod
    def _arith(cls, op: str, left: Any, right: Any) -> Any:
        if left is None or right is None:
            return None
        if op in ("/", "%") and right == 0:
            raise ExecutionError(
                "division by zero" if op == "/" else "modulo by zero")
        return cls._ARITH[op](left, right)

    # ------------------------------------------------------------------ #
    # predicates and conditionals
    # ------------------------------------------------------------------ #
    def _eval_IsNull(self, node: ast.IsNull) -> EvalResult:
        operand = self.evaluate(node.operand)
        if isinstance(operand.values, Vector):
            # the validity mask *is* the IS [NOT] NULL answer
            mask = operand.values.mask
            nulls = np.zeros(len(operand.values), np.bool_) if mask is None \
                else mask
            return self._masked_result(nulls != node.negated, None,
                                       SQLType.BOOLEAN, operand.constant)
        return self._per_row(
            [operand], lambda v: (v is None) != node.negated, SQLType.BOOLEAN)

    def _eval_InList(self, node: ast.InList) -> EvalResult:
        operand = self.evaluate(node.operand)
        item_results = [self.evaluate(item) for item in node.items]
        vector = operand.values
        if isinstance(vector, Vector) and vector.dictionary is None and all(
            result.constant and len(result.values) == 1
            and result.values[0] is not None
            and isinstance(result.values[0], (bool, int, float))
            for result in item_results
        ):
            members = [result.values[0] for result in item_results]
            found = np.isin(vector.data, members)
            # a NULL operand is neither IN nor NOT IN the list: NULL
            return self._masked_result(found != node.negated, vector.mask,
                                       SQLType.BOOLEAN, constant=False)

        def in_list(value: Any, *members: Any) -> Any:
            if value is None:
                return None
            found = any(member is not None and member == value
                        for member in members)
            return found != node.negated

        return self._per_row([operand] + item_results, in_list, SQLType.BOOLEAN)

    def _eval_Between(self, node: ast.Between) -> EvalResult:
        operand = self.evaluate(node.operand)
        lower = self.evaluate(node.lower)
        upper = self.evaluate(node.upper)
        kernel_args = [self._kernel_operand(r) for r in (operand, lower, upper)]
        if all(arg is not None for arg in kernel_args) and any(
                isinstance(arg[0], np.ndarray) for arg in kernel_args) and all(
                arg[0] is not None and arg[2] is None for arg in kernel_args):
            (value_arr, value_mask, _), (low_arr, low_mask, _), \
                (high_arr, high_mask, _) = kernel_args
            inside = np.logical_and(low_arr <= value_arr, value_arr <= high_arr)
            mask_out = combine_masks(value_mask, low_mask, high_mask)
            return self._masked_result(np.asarray(inside != node.negated),
                                       mask_out, SQLType.BOOLEAN, constant=False)

        def between(value: Any, low: Any, high: Any) -> Any:
            if value is None or low is None or high is None:
                return None
            return (low <= value <= high) != node.negated

        return self._per_row([operand, lower, upper], between, SQLType.BOOLEAN)

    def _eval_Like(self, node: ast.Like) -> EvalResult:
        operand = self.evaluate(node.operand)
        pattern = self.evaluate(node.pattern)

        def like(value: Any, pat: Any) -> Any:
            if value is None or pat is None:
                return None
            return bool(_like_to_regex(str(pat)).match(str(value))) != node.negated

        return self._per_row([operand, pattern], like, SQLType.BOOLEAN)

    def _eval_CaseExpression(self, node: ast.CaseExpression) -> EvalResult:
        # operands: condition, result, condition, result, ..., default
        parts = [self.evaluate(part) for pair in node.whens for part in pair]
        parts.append(self.evaluate(node.default) if node.default is not None
                     else EvalResult([None], constant=True))

        def case(*values: Any) -> Any:
            for index in range(0, len(values) - 1, 2):
                if values[index] is True or values[index] == 1:
                    return values[index + 1]
            return values[-1]

        return self._per_row(parts, case, row_aligned=True)

    def _eval_Cast(self, node: ast.Cast) -> EvalResult:
        operand = self.evaluate(node.operand)
        if isinstance(operand.values, Vector) \
                and operand.values.dictionary is None \
                and node.target_type.is_floating \
                and operand.values.data.dtype.kind in "bif":
            vector = operand.values
            cast = Vector(vector.data.astype(np.float64), vector.mask,
                          None, node.target_type)
            return EvalResult(cast, operand.constant, node.target_type)
        return self._per_row(
            [operand], lambda value: coerce_value(value, node.target_type),
            node.target_type)

    # ------------------------------------------------------------------ #
    # subqueries
    # ------------------------------------------------------------------ #
    def _eval_ScalarSubquery(self, node: ast.ScalarSubquery) -> EvalResult:
        result = self.database.execute_select(node.query)
        if result.column_count != 1:
            raise ExecutionError("scalar subquery must return exactly one column")
        if result.row_count > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        value = result.columns[0].values[0] if result.row_count == 1 else None
        return EvalResult([value], constant=True,
                          sql_type=result.columns[0].sql_type if result.columns else None)

    def _eval_ExistsSubquery(self, node: ast.ExistsSubquery) -> EvalResult:
        result = self.database.execute_select(node.query)
        exists = result.row_count > 0
        return EvalResult([exists != node.negated], constant=True, sql_type=SQLType.BOOLEAN)

    def _eval_InSubquery(self, node: ast.InSubquery) -> EvalResult:
        result = self.database.execute_select(node.query)
        if result.column_count != 1:
            raise ExecutionError("IN subquery must return exactly one column")
        members = set(result.columns[0].values) - {None}
        operand = self.evaluate(node.operand)
        return self._per_row(
            [operand],
            lambda v: None if v is None else (v in members) != node.negated,
            SQLType.BOOLEAN)

    # ------------------------------------------------------------------ #
    # function calls (built-ins, aggregates, Python UDFs)
    # ------------------------------------------------------------------ #
    def _eval_FunctionCall(self, node: ast.FunctionCall) -> EvalResult:
        name = node.name
        if is_aggregate(name):
            return self._eval_aggregate(node)
        if is_builtin_scalar(name):
            return self._eval_builtin(node)
        catalog = self.database.catalog
        if catalog.has(name):
            return self._eval_python_udf(node)
        raise ExecutionError(f"unknown function {name!r}")

    def _eval_builtin(self, node: ast.FunctionCall) -> EvalResult:
        return self._per_row(
            [self.evaluate(arg) for arg in node.args],
            lambda *args: call_builtin_scalar(node.name, list(args)),
            row_aligned=True)

    def _eval_aggregate(self, node: ast.FunctionCall) -> EvalResult:
        if not self.allow_aggregates:
            raise ExecutionError(
                f"aggregate {node.name!r} is not allowed in this context"
            )
        is_star = aggregate_is_star(node)
        if is_star or not node.args:
            values: Sequence[Any] = [1] * self.batch.row_count
        else:
            arg = self.evaluate(node.args[0])
            values = arg.broadcast(self.batch.row_count)
        result = call_aggregate(node.name, values, is_star=is_star,
                                distinct=node.distinct)
        return EvalResult([result], constant=True)

    def _eval_python_udf(self, node: ast.FunctionCall) -> EvalResult:
        """Invoke a scalar Python UDF operator-at-a-time over the batch."""
        entry = self.database.catalog.get(node.name)
        signature = entry.signature
        if signature.returns_table:
            raise ExecutionError(
                f"table-returning function {node.name!r} must be used in the FROM clause"
            )
        if len(node.args) != len(signature.parameters):
            raise ExecutionError(
                f"function {node.name!r} expects {len(signature.parameters)} arguments, "
                f"got {len(node.args)}"
            )
        arg_results = [self.evaluate(arg) for arg in node.args]
        arg_values: list[Any] = []
        arg_is_column: list[bool] = []
        sql_types: list[SQLType] = []
        for result, parameter in zip(arg_results, signature.parameters):
            if result.constant and len(result) == 1:
                arg_values.append(result.values[0])
                arg_is_column.append(False)
            else:
                arg_values.append(result.broadcast(self.batch.row_count))
                arg_is_column.append(True)
            sql_types.append(result.sql_type or parameter.sql_type)
        udf_args = columns_to_udf_args(arg_values, arg_is_column, sql_types)
        raw = self.database.udf_runtime.invoke(signature, udf_args)
        input_length = self.batch.row_count if any(arg_is_column) else 1
        values, row_aligned = convert_scalar_result(signature, raw, input_length)
        return EvalResult(values, constant=not row_aligned,
                          sql_type=signature.return_type)


# --------------------------------------------------------------------------- #
# helpers used by the executor
# --------------------------------------------------------------------------- #
def child_expressions(expression: ast.Expression) -> "Iterator[ast.Expression]":
    """The direct sub-expressions of a node (the one canonical AST walk;
    subqueries are deliberately opaque, matching historical behaviour)."""
    if isinstance(expression, ast.FunctionCall):
        yield from expression.args
    elif isinstance(expression, ast.BinaryOp):
        yield expression.left
        yield expression.right
    elif isinstance(expression, ast.UnaryOp):
        yield expression.operand
    elif isinstance(expression, ast.CaseExpression):
        for condition, value in expression.whens:
            yield condition
            yield value
        if expression.default is not None:
            yield expression.default
    elif isinstance(expression, ast.InList):
        yield expression.operand
        yield from expression.items
    elif isinstance(expression, ast.Between):
        yield expression.operand
        yield expression.lower
        yield expression.upper
    elif isinstance(expression, (ast.IsNull, ast.Like, ast.Cast)):
        yield expression.operand


def iter_function_calls(expression: ast.Expression) -> "Iterator[ast.FunctionCall]":
    """Every function call in the tree, including aggregate arguments."""
    if isinstance(expression, ast.FunctionCall):
        yield expression
    for child in child_expressions(expression):
        yield from iter_function_calls(child)


def expression_contains_aggregate(expression: ast.Expression) -> bool:
    """True when the expression tree contains an aggregate function call."""
    return any(is_aggregate(call.name) for call in iter_function_calls(expression))


def default_output_name(expression: ast.Expression, index: int) -> str:
    """Derive the output column name MonetDB-style (column name / function name)."""
    if isinstance(expression, ast.ColumnRef):
        return expression.name
    if isinstance(expression, ast.FunctionCall):
        return expression.name.lower()
    if isinstance(expression, ast.Cast):
        return default_output_name(expression.operand, index)
    if isinstance(expression, ast.Literal):
        return f"single_value" if index == 0 else f"col{index}"
    return f"col{index}"
