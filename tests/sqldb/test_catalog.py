"""Tests for the function catalog and the sys.* meta tables (Listing 1)."""

import pytest

from repro.errors import CatalogError
from repro.sqldb.catalog import (
    FUNCTION_TYPE_SCALAR,
    FUNCTION_TYPE_TABLE,
    FunctionCatalog,
    LANGUAGE_CODES,
    make_signature,
)
from repro.sqldb.types import SQLType


@pytest.fixture()
def catalog() -> FunctionCatalog:
    return FunctionCatalog()


def scalar_signature(name="f", body="return x"):
    return make_signature(name, [("x", SQLType.INTEGER)],
                          return_type=SQLType.DOUBLE, body=body)


def table_signature(name="t"):
    return make_signature(name, [("path", SQLType.STRING)], returns_table=True,
                          return_columns=[("i", SQLType.INTEGER)], body="return [1]")


class TestRegistration:
    def test_register_and_lookup(self, catalog):
        catalog.register(scalar_signature())
        assert catalog.has("F")
        assert catalog.get("f").signature.return_type is SQLType.DOUBLE
        assert catalog.names() == ["f"]

    def test_duplicate_requires_replace(self, catalog):
        catalog.register(scalar_signature())
        with pytest.raises(CatalogError):
            catalog.register(scalar_signature())
        catalog.register(scalar_signature(body="return x * 2"), replace=True)
        assert "x * 2" in catalog.get("f").signature.body

    def test_replace_keeps_oid(self, catalog):
        first = catalog.register(scalar_signature())
        second = catalog.register(scalar_signature(body="pass"), replace=True)
        assert first.oid == second.oid

    def test_drop(self, catalog):
        catalog.register(scalar_signature())
        catalog.drop("f")
        assert not catalog.has("f")
        with pytest.raises(CatalogError):
            catalog.drop("f")
        catalog.drop("f", if_exists=True)

    def test_len(self, catalog):
        assert len(catalog) == 0
        catalog.register(scalar_signature())
        assert len(catalog) == 1


class TestMetaTables:
    def test_sys_functions_rows_shape(self, catalog):
        catalog.register(scalar_signature("mean_deviation",
                                          body="return sum(x) / len(x)"))
        rows = catalog.sys_functions_rows()
        assert len(rows) == 1
        oid, name, func, mod, language, func_type = rows[0]
        assert name == "mean_deviation"
        assert func.startswith("{")
        assert func.rstrip().endswith("};")
        assert "return sum(x) / len(x)" in func
        assert mod == "pyapi"
        assert language == LANGUAGE_CODES["PYTHON"]
        assert func_type == FUNCTION_TYPE_SCALAR

    def test_sys_functions_table_function_type(self, catalog):
        catalog.register(table_signature("loader"))
        rows = catalog.sys_functions_rows()
        assert rows[0][5] == FUNCTION_TYPE_TABLE

    def test_sys_args_input_and_output(self, catalog):
        catalog.register(table_signature("loader"))
        rows = catalog.sys_args_rows()
        inputs = [r for r in rows if r[5] == 1]
        outputs = [r for r in rows if r[5] == 0]
        assert [r[2] for r in inputs] == ["path"]
        assert [r[2] for r in outputs] == ["i"]

    def test_sys_args_scalar_return_row(self, catalog):
        catalog.register(scalar_signature())
        rows = catalog.sys_args_rows()
        outputs = [r for r in rows if r[5] == 0]
        assert outputs[0][2] == "result"
        assert outputs[0][3] == "DOUBLE"

    def test_sys_args_func_id_matches_function(self, catalog):
        entry = catalog.register(scalar_signature())
        rows = catalog.sys_args_rows()
        assert all(r[1] == entry.oid for r in rows)


class TestSignatureRendering:
    def test_to_create_sql_scalar(self):
        signature = scalar_signature("mean_deviation", body="return 1.0")
        sql = signature.to_create_sql()
        assert sql.startswith("CREATE FUNCTION mean_deviation(x INTEGER)")
        assert "RETURNS DOUBLE LANGUAGE PYTHON {" in sql
        assert sql.rstrip().endswith("};")

    def test_to_create_sql_or_replace(self):
        assert scalar_signature().to_create_sql(or_replace=True).startswith(
            "CREATE OR REPLACE FUNCTION")

    def test_to_create_sql_table(self):
        sql = table_signature("loadNumbers").to_create_sql()
        assert "RETURNS TABLE(i INTEGER)" in sql

    def test_create_sql_round_trips_through_parser(self):
        from repro.sqldb.parser import parse_statement

        signature = scalar_signature("roundtrip", body="return x * 3")
        statement = parse_statement(signature.to_create_sql())
        assert statement.name == "roundtrip"
        assert "return x * 3" in statement.body
