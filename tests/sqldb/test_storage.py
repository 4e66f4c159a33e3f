"""Unit tests for the columnar storage engine."""

import numpy as np
import pytest

from repro.errors import CatalogError, ExecutionError
from repro.sqldb.schema import ColumnDef, TableSchema
from repro.sqldb.storage import Storage, Table, column_to_numpy
from repro.sqldb.types import ColumnType, SQLType


def make_schema(name: str = "t") -> TableSchema:
    return TableSchema(name, [
        ColumnDef("i", ColumnType(SQLType.INTEGER)),
        ColumnDef("s", ColumnType(SQLType.STRING)),
    ])


class TestTableSchema:
    def test_column_lookup_case_insensitive(self):
        schema = make_schema()
        assert schema.column_index("I") == 0
        assert schema.column("S").name == "s"

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TableSchema("t", [
                ColumnDef("x", ColumnType(SQLType.INTEGER)),
                ColumnDef("X", ColumnType(SQLType.DOUBLE)),
            ])


class TestTable:
    def test_insert_and_rows(self):
        table = Table(make_schema())
        table.insert_row([1, "a"])
        table.insert_row([2, None])
        assert table.row_count == 2
        assert list(table.rows()) == [(1, "a"), (2, None)]

    def test_insert_coerces_types(self):
        table = Table(make_schema())
        table.insert_row(["3", 42])
        assert list(table.rows()) == [(3, "42")]

    def test_insert_wrong_arity(self):
        table = Table(make_schema())
        with pytest.raises(ExecutionError):
            table.insert_row([1])

    def test_insert_rows_counts(self):
        table = Table(make_schema())
        assert table.insert_rows([(1, "a"), (2, "b"), (3, "c")]) == 3

    def test_delete_rows_with_mask(self):
        table = Table(make_schema())
        table.insert_rows([(1, "a"), (2, "b"), (3, "c")])
        removed = table.delete_rows([True, False, True])
        assert removed == 1
        assert list(table.rows()) == [(1, "a"), (3, "c")]

    def test_delete_mask_length_mismatch(self):
        table = Table(make_schema())
        table.insert_row([1, "a"])
        with pytest.raises(ExecutionError):
            table.delete_rows([True, False])

    def test_update_rows(self):
        table = Table(make_schema())
        table.insert_rows([(1, "a"), (2, "b")])
        updated = table.update_rows([False, True], {"s": ["x", "y"]})
        assert updated == 1
        assert list(table.rows()) == [(1, "a"), (2, "y")]

    def test_truncate(self):
        table = Table(make_schema())
        table.insert_row([1, "a"])
        table.truncate()
        assert table.row_count == 0

    def test_to_dict_and_numpy_dict(self):
        table = Table(make_schema())
        table.insert_rows([(1, "a"), (2, "b")])
        assert table.to_dict() == {"i": [1, 2], "s": ["a", "b"]}
        arrays = table.to_numpy_dict()
        assert arrays["i"].dtype == np.int64
        assert arrays["s"].dtype == object


class TestColumnToNumpy:
    def test_integer_column(self):
        array = column_to_numpy([1, 2, 3], SQLType.INTEGER)
        assert array.dtype == np.int64
        assert array.tolist() == [1, 2, 3]

    def test_double_column(self):
        array = column_to_numpy([1.5, 2.5], SQLType.DOUBLE)
        assert array.dtype == np.float64

    def test_string_column_is_object(self):
        array = column_to_numpy(["a", "bb"], SQLType.STRING)
        assert array.dtype == object

    def test_nulls_force_object_dtype(self):
        array = column_to_numpy([1, None, 3], SQLType.INTEGER)
        assert array.dtype == object
        assert array[1] is None

    def test_empty_column(self):
        assert len(column_to_numpy([], SQLType.INTEGER)) == 0


class TestStorage:
    def test_create_and_lookup(self):
        storage = Storage()
        storage.create_table(make_schema("alpha"))
        assert storage.has_table("ALPHA")
        assert storage.table("alpha").name == "alpha"
        assert storage.table_names() == ["alpha"]

    def test_duplicate_create_raises(self):
        storage = Storage()
        storage.create_table(make_schema("t"))
        with pytest.raises(CatalogError):
            storage.create_table(make_schema("t"))

    def test_create_if_not_exists(self):
        storage = Storage()
        first = storage.create_table(make_schema("t"))
        second = storage.create_table(make_schema("t"), if_not_exists=True)
        assert first is second

    def test_drop(self):
        storage = Storage()
        storage.create_table(make_schema("t"))
        storage.drop_table("t")
        assert not storage.has_table("t")
        with pytest.raises(CatalogError):
            storage.drop_table("t")
        storage.drop_table("t", if_exists=True)  # no error

    def test_missing_table_raises(self):
        with pytest.raises(CatalogError):
            Storage().table("nope")
