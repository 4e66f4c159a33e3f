"""Unit tests for the SQL type system."""

import pytest

from repro.errors import TypeMismatchError
from repro.sqldb.types import (
    ColumnType,
    SQLType,
    coerce_value,
    infer_sql_type,
    parse_type_name,
)


class TestParseTypeName:
    def test_canonical_names(self):
        assert parse_type_name("INTEGER") is SQLType.INTEGER
        assert parse_type_name("DOUBLE") is SQLType.DOUBLE
        assert parse_type_name("STRING") is SQLType.STRING
        assert parse_type_name("BOOLEAN") is SQLType.BOOLEAN
        assert parse_type_name("BLOB") is SQLType.BLOB

    def test_aliases(self):
        assert parse_type_name("INT") is SQLType.INTEGER
        assert parse_type_name("varchar") is SQLType.STRING
        assert parse_type_name("TEXT") is SQLType.STRING
        assert parse_type_name("FLOAT") is SQLType.DOUBLE
        assert parse_type_name("bool") is SQLType.BOOLEAN
        assert parse_type_name("BIGINT") is SQLType.BIGINT

    def test_case_insensitive(self):
        assert parse_type_name("integer") is SQLType.INTEGER
        assert parse_type_name("Clob") is SQLType.STRING

    def test_unknown_type_raises(self):
        with pytest.raises(TypeMismatchError):
            parse_type_name("GEOMETRY")


class TestTypePredicates:
    def test_numeric_flags(self):
        assert SQLType.INTEGER.is_numeric
        assert SQLType.DOUBLE.is_numeric
        assert not SQLType.STRING.is_numeric

    def test_integer_vs_floating(self):
        assert SQLType.BIGINT.is_integer
        assert not SQLType.BIGINT.is_floating
        assert SQLType.REAL.is_floating
        assert not SQLType.REAL.is_integer


class TestCoerceValue:
    def test_none_passes_through(self):
        for sql_type in SQLType:
            assert coerce_value(None, sql_type) is None

    def test_integer_coercions(self):
        assert coerce_value(5, SQLType.INTEGER) == 5
        assert coerce_value(5.0, SQLType.INTEGER) == 5
        assert coerce_value("7", SQLType.INTEGER) == 7
        assert coerce_value(True, SQLType.INTEGER) == 1

    def test_non_integral_float_to_integer_fails(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(5.5, SQLType.INTEGER)

    def test_double_coercions(self):
        assert coerce_value(5, SQLType.DOUBLE) == 5.0
        assert isinstance(coerce_value(5, SQLType.DOUBLE), float)
        assert coerce_value("2.5", SQLType.DOUBLE) == 2.5

    def test_string_coercions(self):
        assert coerce_value(42, SQLType.STRING) == "42"
        assert coerce_value(b"abc", SQLType.STRING) == "abc"

    def test_boolean_coercions(self):
        assert coerce_value("true", SQLType.BOOLEAN) is True
        assert coerce_value("F", SQLType.BOOLEAN) is False
        assert coerce_value(1, SQLType.BOOLEAN) is True
        with pytest.raises(TypeMismatchError):
            coerce_value("maybe", SQLType.BOOLEAN)

    def test_blob_coercions(self):
        assert coerce_value("abc", SQLType.BLOB) == b"abc"
        assert coerce_value(bytearray(b"xy"), SQLType.BLOB) == b"xy"
        with pytest.raises(TypeMismatchError):
            coerce_value(12, SQLType.BLOB)

    def test_garbage_string_to_number_fails(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("not-a-number", SQLType.DOUBLE)


class TestInferSQLType:
    def test_inference(self):
        assert infer_sql_type(True) is SQLType.BOOLEAN
        assert infer_sql_type(3) is SQLType.INTEGER
        assert infer_sql_type(2**40) is SQLType.BIGINT
        assert infer_sql_type(1.5) is SQLType.DOUBLE
        assert infer_sql_type("x") is SQLType.STRING
        assert infer_sql_type(b"x") is SQLType.BLOB


class TestColumnType:
    def test_str_rendering(self):
        assert str(ColumnType(SQLType.INTEGER)) == "INTEGER"
        assert str(ColumnType(SQLType.DOUBLE, nullable=False)) == "DOUBLE NOT NULL"
