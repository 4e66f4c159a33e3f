"""Typed UDF results: arrays of the declared type are never coerced per value
(they pass through as the ``data`` of a NULL-free ``Vector``).

``_per_value`` below is the checked path every result took before
``_coerce_column``; it stays here as the reference the typed path must equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import TypeMismatchError, UDFError
from repro.sqldb.catalog import make_signature
from repro.sqldb.database import Database
from repro.sqldb.expressions import as_value_list
from repro.sqldb.types import SQLType, coerce_value
from repro.sqldb.vector import Vector
from repro.sqldb.udf import (
    _coerce_column,
    _to_value_list,
    convert_scalar_result,
    convert_table_result,
)


def _per_value(values, sql_type):
    return [coerce_value(value, sql_type) for value in _to_value_list(values)]


def _typed(value):
    """Value and exact Python type, NaN-safe."""
    return (type(value), repr(value))


#: (array dtype, declared types it may pass straight through to)
NATIVE = [
    (np.int64, [SQLType.INTEGER, SQLType.BIGINT, SQLType.DOUBLE, SQLType.REAL]),
    (np.int32, [SQLType.INTEGER, SQLType.BIGINT, SQLType.DOUBLE]),
    (np.int8, [SQLType.BIGINT, SQLType.REAL]),
    (np.float64, [SQLType.DOUBLE, SQLType.REAL]),
    (np.float32, [SQLType.DOUBLE]),
    (np.bool_, [SQLType.BOOLEAN, SQLType.INTEGER, SQLType.BIGINT]),
]
NATIVE_PAIRS = [(dtype, sql_type) for dtype, types in NATIVE for sql_type in types]


class TestTypedPathEqualsPerValuePath:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), pair=st.sampled_from(NATIVE_PAIRS),
           length=st.sampled_from([0, 1, 2, 7, 100]))
    def test_native_arrays(self, data, pair, length):
        dtype, sql_type = pair
        array = data.draw(hnp.arrays(dtype, length))
        typed = _coerce_column(array, sql_type)
        assert isinstance(typed, Vector) and typed.mask is None
        assert typed.sql_type is sql_type and typed.data.flags.c_contiguous
        assert typed.data.dtype == {"i": np.int64, "f": np.float64, "b": np.bool_}[
            "i" if sql_type.is_integer else "f" if sql_type.is_floating else "b"]
        assert [_typed(v) for v in as_value_list(typed)] == \
            [_typed(v) for v in _per_value(array, sql_type)]

    def test_strided_view_becomes_contiguous(self):
        typed = _coerce_column(np.arange(10)[::2], SQLType.BIGINT)
        assert typed.data.flags.c_contiguous
        assert typed.to_list() == [0, 2, 4, 6, 8]

    def test_matching_array_is_not_copied(self):
        array = np.arange(5, dtype=np.int64)
        assert _coerce_column(array, SQLType.INTEGER).data.base is array


class TestCheckedPathStillChecks:
    def test_object_array_with_none(self):
        values = np.array([1, None, 3], dtype=object)
        assert _coerce_column(values, SQLType.INTEGER) == [1, None, 3]

    def test_non_integral_float_to_integer_raises(self):
        with pytest.raises(TypeMismatchError):
            _coerce_column(np.array([1.0, 2.5]), SQLType.INTEGER)

    def test_integral_float_to_integer_is_converted_per_value(self):
        assert _coerce_column(np.array([1.0, 2.0]), SQLType.INTEGER) == [1, 2]

    def test_uint64_beyond_int64_keeps_its_value(self):
        big = 2 ** 63 + 5
        assert _coerce_column(np.array([big], dtype=np.uint64), SQLType.BIGINT) == [big]

    @pytest.mark.parametrize("values, sql_type", [
        (np.array([1, 0]), SQLType.BOOLEAN),           # int array -> BOOLEAN
        (np.array(["a", "b"]), SQLType.STRING),
        (np.arange(4).reshape(2, 2), SQLType.INTEGER),  # not a column
        ([1, 2, 3], SQLType.INTEGER),
        ((np.int64(4),), SQLType.DOUBLE),
        (7, SQLType.INTEGER),
        (np.float64(2.0), SQLType.DOUBLE),
    ])
    def test_everything_else_is_a_checked_list(self, values, sql_type):
        if isinstance(values, np.ndarray) and values.ndim == 2:
            with pytest.raises(TypeMismatchError):
                _coerce_column(values, sql_type)
            return
        coerced = _coerce_column(values, sql_type)
        assert isinstance(coerced, list)
        assert coerced == _per_value(values, sql_type)


class TestConverters:
    TABLE = make_signature(
        "t", [], returns_table=True,
        return_columns=[("a", SQLType.INTEGER), ("b", SQLType.DOUBLE)])

    def test_table_result_keeps_typed_columns(self):
        a = np.arange(4, dtype=np.int64)
        out = convert_table_result(self.TABLE, {"a": a, "b": [0.5] * 4})
        assert out["a"].data.base is a
        assert out["b"] == [0.5] * 4

    @pytest.mark.parametrize("scalar", [2.5, np.float64(2.5), np.array([2.5])])
    def test_table_result_broadcasts_scalars(self, scalar):
        out = convert_table_result(self.TABLE, {"a": np.arange(3), "b": scalar})
        assert as_value_list(out["b"]) == [2.5, 2.5, 2.5]
        assert len(out["a"]) == 3

    def test_table_result_length_mismatch_names_the_column(self):
        with pytest.raises(UDFError, match="'b' has 2 values, expected 3"):
            convert_table_result(self.TABLE, {"a": np.arange(3), "b": np.zeros(2)})

    def test_scalar_result_row_aligned_stays_typed(self):
        signature = make_signature("f", [("x", SQLType.INTEGER)],
                                   return_type=SQLType.BIGINT)
        values, aligned = convert_scalar_result(signature, np.arange(5), 5)
        assert aligned and isinstance(values, Vector)

    @pytest.mark.parametrize("result, input_length", [
        (np.array([4.0]), 5), (np.array([4.0]), 1), (np.array([1.0, 2.0]), 5),
        (np.array([], dtype=np.float64), 0),
    ])
    def test_scalar_result_constants_stay_python_values(self, result, input_length):
        signature = make_signature("f", [("x", SQLType.INTEGER)],
                                   return_type=SQLType.DOUBLE)
        values, aligned = convert_scalar_result(signature, result, input_length)
        assert isinstance(values, list) and values == result.tolist()
        assert aligned == (len(values) == input_length and input_length > 0)


class TestThroughSQL:
    @pytest.fixture()
    def db(self) -> Database:
        database = Database()
        database.execute("CREATE TABLE numbers (i INTEGER)")
        database.execute("INSERT INTO numbers VALUES (1), (2), (3), (4), (10)")
        return database

    def test_extract_style_table_function_returns_input_unchanged(self, db):
        db.execute("CREATE FUNCTION echo(c INTEGER) RETURNS TABLE(c INTEGER) "
                   "LANGUAGE PYTHON { return {'c': c} }")
        result = db.execute("SELECT * FROM echo((SELECT i FROM numbers))")
        assert result.column("c").values == [1, 2, 3, 4, 10]
        assert all(type(v) is int for v in result.column("c").values)
        filtered = db.execute("SELECT c * 2 FROM echo((SELECT i FROM numbers)) "
                              "WHERE c > 2 ORDER BY c DESC")
        assert [row[0] for row in filtered.rows()] == [20, 8, 6]

    def test_vectorised_scalar_udf_composes_with_kernels(self, db):
        db.execute("CREATE FUNCTION half(x INTEGER) RETURNS DOUBLE "
                   "LANGUAGE PYTHON { return x / 2 }")
        result = db.execute("SELECT half(i) + i FROM numbers WHERE half(i) > 1")
        assert [row[0] for row in result.rows()] == [4.5, 6.0, 15.0]
        assert db.execute("SELECT SUM(half(i)) FROM numbers").scalar() == 10.0

    def test_returned_array_stays_the_udfs_to_write(self, db):
        # the engine freezes its own view of a typed result (to_numpy), never
        # the array the UDF returned: a UDF may keep and refill its buffer
        db.execute("""CREATE FUNCTION twice(x INTEGER) RETURNS BIGINT
                      LANGUAGE PYTHON {
                          global out
                          if 'out' not in globals():
                              out = numpy.zeros(len(x), dtype=numpy.int64)
                          out[:] = x * 2
                          return out
                      }""")
        for _ in range(2):
            result = db.execute("SELECT twice(i) FROM numbers")
            assert not result.columns[0].to_numpy().flags.writeable
            assert result.columns[0].to_numpy().tolist() == [2, 4, 6, 8, 20]
        # nested: the inner result is handed to the outer call read-only
        nested = db.execute("SELECT twice(twice(i)) FROM numbers")
        assert nested.columns[0].values == [4, 8, 12, 16, 40]

    def test_coerced_vector_freezes_a_view_not_the_array(self):
        array = np.arange(5, dtype=np.int64)
        typed = _coerce_column(array, SQLType.BIGINT)
        assert not typed.to_numpy().flags.writeable
        assert array.flags.writeable

    def test_one_element_array_is_a_constant(self, db):
        db.execute("CREATE FUNCTION top(x INTEGER) RETURNS BIGINT "
                   "LANGUAGE PYTHON { return numpy.array([x.max()]) }")
        result = db.execute("SELECT i - top(i) FROM numbers")
        assert [row[0] for row in result.rows()] == [-9, -8, -7, -6, 0]

    def test_float_array_for_integer_column_still_raises(self, db):
        db.execute("CREATE FUNCTION bad(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return x / 4 }")
        with pytest.raises(TypeMismatchError):
            db.execute("SELECT bad(i) FROM numbers")
