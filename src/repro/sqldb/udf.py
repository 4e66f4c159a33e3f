"""Python UDF compilation and execution (the MonetDB/Python "pyapi" stand-in).

MonetDB stores only the *body* of a Python UDF (paper Listing 1).  At call
time the engine synthesises a real Python function from the catalog signature
and the body, executes it **once per operator invocation** with entire columns
as numpy arrays (operator-at-a-time), and converts the return value back to
columns.  Loopback queries are available through the ``_conn`` object passed
to every UDF (paper §2.3).
"""

from __future__ import annotations

import textwrap
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from ..errors import UDFError
from .schema import FunctionSignature
from .storage import column_to_numpy
from .types import NUMPY_DTYPES, SQLType, coerce_value
from .vector import Vector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import Database


class LoopbackConnection:
    """The ``_conn`` object handed to every MonetDB/Python UDF.

    ``execute`` runs a SQL query against the owning database and returns the
    result as a dict of column name -> numpy array, which is how
    MonetDB/Python surfaces loopback results to the UDF author.
    """

    def __init__(self, database: "Database") -> None:
        self._database = database
        self.queries_executed: list[str] = []

    def execute(self, query: str) -> dict[str, np.ndarray]:
        self.queries_executed.append(query)
        result = self._database.execute(query)
        return result.to_numpy_dict()


def build_udf_source(signature: FunctionSignature, *, function_name: str | None = None) -> str:
    """Build the Python source of a ``def`` wrapping the stored body.

    The generated header is exactly the transformation devUDF performs on
    import (paper Listing 1 -> Listing 2): parameters in catalog order plus
    the implicit ``_conn`` parameter.
    """
    name = function_name or signature.name
    params = list(signature.parameter_names) + ["_conn=None"]
    header = f"def {name}({', '.join(params)}):"
    body = signature.body
    if not body.strip():
        body = "pass"
    dedented = textwrap.dedent(body).strip("\n")
    indented = textwrap.indent(dedented, "    ")
    return f"{header}\n{indented}\n"


def compile_udf(signature: FunctionSignature) -> Callable[..., Any]:
    """Compile the stored body into a callable Python function.

    The execution namespace pre-imports ``numpy`` (as both ``numpy`` and
    ``np``) and ``pickle``, matching the MonetDB/Python embedded interpreter
    environment that the paper's example UDFs rely on.
    """
    import pickle  # local import: the UDF namespace needs the module object

    source = build_udf_source(signature, function_name="_devudf_function")
    namespace: dict[str, Any] = {
        "numpy": np,
        "np": np,
        "pickle": pickle,
    }
    try:
        code = compile(source, f"<udf {signature.name}>", "exec")
        exec(code, namespace)  # noqa: S102 - executing user UDF code is the feature
    except SyntaxError as exc:
        raise UDFError(signature.name, f"body does not compile: {exc}", exc) from exc
    return namespace["_devudf_function"]


def columns_to_udf_args(
    arg_values: Sequence[Any],
    arg_is_column: Sequence[bool],
    sql_types: Sequence[SQLType],
) -> list[Any]:
    """Convert evaluated argument columns/scalars to the UDF input format.

    A vector hands over its :meth:`Vector.to_numpy` array — for a NULL-free
    numeric column the stored buffer itself, zero-copy.  All column arguments
    are read-only, regardless of which execution path produced them: the
    zero-copy handoff means a write could reach shared engine state, so
    mutation fails loudly and *consistently* instead of depending on the
    query shape.
    """
    converted: list[Any] = []
    for value, is_column, sql_type in zip(arg_values, arg_is_column, sql_types):
        if is_column:
            if isinstance(value, Vector):
                # same observable shapes as column_to_numpy: object array
                # with Nones for NULL-bearing/string columns, typed otherwise
                array = value.to_numpy().view()
            elif isinstance(value, np.ndarray):  # a BLOB column's object array
                array = value.view()
            else:
                array = column_to_numpy(value, sql_type)
            array.setflags(write=False)
            converted.append(array)
        else:
            converted.append(value)
    return converted


def _to_value_list(value: Any) -> list[Any]:
    """Normalise a UDF output object to a list of Python values."""
    if isinstance(value, np.ndarray):
        return [item.item() if isinstance(item, np.generic) else item for item in value.tolist()] \
            if value.dtype == object else value.tolist()
    if isinstance(value, np.generic):
        return [value.item()]
    if isinstance(value, (list, tuple)):
        return [item.item() if isinstance(item, np.generic) else item for item in value]
    return [value]


def _coerce_column(values: Any, sql_type: SQLType) -> Any:
    """Coerce one UDF output column to ``sql_type``.

    A 1-D array whose dtype kind already is the declared type passes through
    as a NULL-free :class:`Vector` over the contiguous typed array, never
    touched per value; anything else takes the checked per-value path.  The
    vector holds a view: ``Vector.to_numpy`` freezes its ``data``, and the
    array itself stays the UDF's to write to.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1 and (
            values.dtype.kind in "ib" and sql_type.is_integer
            or values.dtype.kind in "if" and sql_type.is_floating
            or values.dtype.kind == "b" and sql_type is SQLType.BOOLEAN):
        typed = np.ascontiguousarray(values, dtype=NUMPY_DTYPES[sql_type])
        return Vector(typed.view(), None, None, sql_type)
    return [coerce_value(value, sql_type) for value in _to_value_list(values)]


def convert_scalar_result(
    signature: FunctionSignature, result: Any, input_length: int
) -> tuple[Any, bool]:
    """Convert a scalar UDF's return value to a column.

    Returns ``(values, is_row_aligned)``.  ``is_row_aligned`` is True when the
    UDF returned one value per input row; False when it aggregated the column
    to fewer values (e.g. the paper's ``mean_deviation`` returns one DOUBLE for
    the whole input column).
    """
    coerced = _coerce_column(result, signature.return_type or SQLType.DOUBLE)
    row_aligned = input_length > 0 and len(coerced) == input_length
    if isinstance(coerced, Vector) and not (row_aligned and input_length > 1):
        # the evaluator's kernels read every vector as a column: a result of
        # fewer values than rows is a constant and stays Python values
        coerced = coerced.to_list()
    return coerced, row_aligned


def convert_table_result(
    signature: FunctionSignature, result: Any
) -> dict[str, Any]:
    """Convert a table-returning UDF's output to named columns.

    Accepted shapes (matching MonetDB/Python):

    * ``dict`` mapping column name -> array/list/scalar,
    * a single array/list (only valid for single-column return tables),
    * a scalar (single column, single row).

    Scalar entries are broadcast to the length of the longest column.
    """
    columns = signature.return_columns
    if isinstance(result, Mapping):
        raw = {str(key): value for key, value in result.items()}
    elif len(columns) == 1:
        raw = {columns[0].name: result}
    else:
        raise UDFError(
            signature.name,
            f"table UDF must return a dict with {len(columns)} columns, "
            f"got {type(result).__name__}",
        )

    # Align dict keys with declared return columns (case-insensitive).
    lowered = {key.lower(): values for key, values in raw.items()}
    missing = [col.name for col in columns if col.name.lower() not in lowered]
    if missing:
        raise UDFError(
            signature.name,
            f"table UDF result is missing declared column(s) {missing}; "
            f"returned keys: {sorted(raw)}",
        )

    out = {col.name: _coerce_column(lowered[col.name.lower()], col.sql_type)
           for col in columns}
    length = max((len(values) for values in out.values()), default=0)
    for name, values in out.items():
        if len(values) == 1 and length > 1:
            values = out[name] = (values.repeat(length)
                                  if isinstance(values, Vector) else values * length)
        if len(values) != length:
            raise UDFError(
                signature.name,
                f"column {name!r} has {len(values)} values, expected {length}",
            )
    return out


class UDFRuntime:
    """Caches compiled UDFs and invokes them operator-at-a-time."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._compiled: dict[str, tuple[str, Callable[..., Any]]] = {}
        #: number of times each UDF was invoked (one invocation per operator
        #: call — the quantity the tuple-at-a-time comparison in §2.4 varies).
        self.invocation_counts: dict[str, int] = {}

    def loopback(self) -> LoopbackConnection:
        return LoopbackConnection(self._database)

    def _get_callable(self, signature: FunctionSignature) -> Callable[..., Any]:
        key = signature.name.lower()
        cached = self._compiled.get(key)
        if cached is not None and cached[0] == signature.body:
            return cached[1]
        function = compile_udf(signature)
        self._compiled[key] = (signature.body, function)
        return function

    def invalidate(self, name: str) -> None:
        self._compiled.pop(name.lower(), None)

    def invoke(self, signature: FunctionSignature, args: Sequence[Any]) -> Any:
        """Call the UDF once with the given (column/scalar) arguments."""
        function = self._get_callable(signature)
        self.invocation_counts[signature.name.lower()] = (
            self.invocation_counts.get(signature.name.lower(), 0) + 1
        )
        conn = self.loopback()
        try:
            return function(*args, _conn=conn)
        except Exception as exc:  # noqa: BLE001 - UDF code is arbitrary user code
            raise UDFError(signature.name, f"raised {type(exc).__name__}: {exc}", exc) from exc
