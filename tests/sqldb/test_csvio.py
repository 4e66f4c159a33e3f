"""Tests for CSV ingestion and export helpers."""

import pytest

from repro.errors import ExecutionError
from repro.sqldb.csvio import load_csv_into_table
from repro.sqldb.schema import ColumnDef, TableSchema
from repro.sqldb.storage import Table
from repro.sqldb.types import ColumnType, SQLType


def int_table(name="numbers") -> Table:
    return Table(TableSchema(name, [ColumnDef("i", ColumnType(SQLType.INTEGER))]))


def typed_table() -> Table:
    return Table(TableSchema("t", [
        ColumnDef("i", ColumnType(SQLType.INTEGER)),
        ColumnDef("x", ColumnType(SQLType.DOUBLE)),
        ColumnDef("s", ColumnType(SQLType.STRING)),
        ColumnDef("b", ColumnType(SQLType.BOOLEAN)),
    ]))


class TestLoadCSV:
    def test_single_column(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1\n2\n3\n")
        table = int_table()
        assert load_csv_into_table(table, path) == 3
        assert table.column("i").values == [1, 2, 3]

    def test_typed_columns_and_nulls(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2.5,hello,true\n2,,NULL,false\n")
        table = typed_table()
        assert load_csv_into_table(table, path) == 2
        assert table.column("x").values == [2.5, None]
        assert table.column("s").values == ["hello", None]
        assert table.column("b").values == [True, False]

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("i\n5\n6\n")
        table = int_table()
        assert load_csv_into_table(table, path, header=True) == 2

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1;1.0;a;true\n")
        assert load_csv_into_table(typed_table(), path, delimiter=";") == 1

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("1\n\n2\n\n")
        assert load_csv_into_table(int_table(), path) == 2

    def test_missing_file_raises(self):
        with pytest.raises(ExecutionError):
            load_csv_into_table(int_table(), "/no/such/file.csv")

    def test_field_count_mismatch_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n")
        with pytest.raises(ExecutionError):
            load_csv_into_table(int_table(), path)
