"""Tests for DDL/DML execution: CREATE/DROP/INSERT/UPDATE/DELETE/COPY."""

import numpy as np
import pytest

from repro.errors import CatalogError, ExecutionError
from repro.sqldb.database import Database


@pytest.fixture()
def db() -> Database:
    return Database()


class TestCreateDropTable:
    def test_create_and_drop(self, db):
        db.execute("CREATE TABLE t (i INTEGER)")
        assert "t" in db.table_names()
        db.execute("DROP TABLE t")
        assert "t" not in db.table_names()

    def test_create_duplicate_raises(self, db):
        db.execute("CREATE TABLE t (i INTEGER)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (i INTEGER)")

    def test_create_if_not_exists(self, db):
        db.execute("CREATE TABLE t (i INTEGER)")
        db.execute("CREATE TABLE IF NOT EXISTS t (i INTEGER)")  # no error

    def test_drop_missing_raises_unless_if_exists(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE t")
        db.execute("DROP TABLE IF EXISTS t")

    def test_create_table_as_select(self, db):
        db.execute("CREATE TABLE src (i INTEGER)")
        db.execute("INSERT INTO src VALUES (1), (2), (3)")
        result = db.execute("CREATE TABLE dst AS SELECT i * 10 AS v FROM src WHERE i > 1")
        assert result.affected_rows == 2
        assert db.execute("SELECT * FROM dst ORDER BY v").fetchall() == [(20,), (30,)]


class TestInsert:
    def test_insert_values(self, db):
        db.execute("CREATE TABLE t (i INTEGER, s STRING)")
        result = db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert result.affected_rows == 2
        assert db.row_count("t") == 2

    def test_insert_with_column_list(self, db):
        db.execute("CREATE TABLE t (i INTEGER, s STRING)")
        db.execute("INSERT INTO t (s) VALUES ('only-s')")
        assert db.execute("SELECT i, s FROM t").fetchall() == [(None, "only-s")]

    def test_insert_expressions(self, db):
        db.execute("CREATE TABLE t (i INTEGER)")
        db.execute("INSERT INTO t VALUES (2 + 3), (ABS(0 - 7))")
        assert db.execute("SELECT i FROM t ORDER BY i").fetchall() == [(5,), (7,)]

    def test_insert_select(self, db):
        db.execute("CREATE TABLE a (i INTEGER)")
        db.execute("CREATE TABLE b (i INTEGER)")
        db.execute("INSERT INTO a VALUES (1), (2), (3)")
        result = db.execute("INSERT INTO b SELECT i FROM a WHERE i > 1")
        assert result.affected_rows == 2

    def test_insert_arity_mismatch(self, db):
        db.execute("CREATE TABLE t (i INTEGER, s STRING)")
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO t VALUES (1)")


class TestUpdateDelete:
    @pytest.fixture()
    def populated(self, db):
        db.execute("CREATE TABLE t (i INTEGER, s STRING)")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        return db

    def test_update_with_where(self, populated):
        result = populated.execute("UPDATE t SET s = 'updated' WHERE i >= 2")
        assert result.affected_rows == 2
        assert populated.execute("SELECT s FROM t WHERE i = 3").scalar() == "updated"

    def test_update_expression_referencing_column(self, populated):
        populated.execute("UPDATE t SET i = i * 10")
        assert populated.execute("SELECT SUM(i) FROM t").scalar() == 60

    def test_delete_with_where(self, populated):
        result = populated.execute("DELETE FROM t WHERE i = 2")
        assert result.affected_rows == 1
        assert populated.row_count("t") == 2

    def test_delete_all(self, populated):
        result = populated.execute("DELETE FROM t")
        assert result.affected_rows == 3
        assert populated.row_count("t") == 0


class TestCopyInto:
    def test_copy_csv(self, db, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1\n2\n3\n")
        db.execute("CREATE TABLE numbers (i INTEGER)")
        result = db.execute(f"COPY INTO numbers FROM '{path}'")
        assert result.affected_rows == 3
        assert db.execute("SELECT SUM(i) FROM numbers").scalar() == 6

    def test_copy_with_delimiter_and_header(self, db, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("i;s\n1;a\n2;b\n")
        db.execute("CREATE TABLE t (i INTEGER, s STRING)")
        result = db.execute(f"COPY INTO t FROM '{path}' DELIMITERS ';' HEADER")
        assert result.affected_rows == 2

    def test_copy_missing_file_raises(self, db):
        db.execute("CREATE TABLE t (i INTEGER)")
        with pytest.raises(ExecutionError):
            db.execute("COPY INTO t FROM '/nonexistent/file.csv'")


class TestFunctionsDDL:
    CREATE = ("CREATE FUNCTION plus_one(x INTEGER) RETURNS INTEGER "
              "LANGUAGE PYTHON { return x + 1 }")

    def test_create_and_call(self, db):
        db.execute("CREATE TABLE t (i INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.execute(self.CREATE)
        assert db.has_function("plus_one")
        assert db.execute("SELECT plus_one(i) FROM t").fetchall() == [(2,), (3,)]

    def test_duplicate_create_requires_or_replace(self, db):
        db.execute(self.CREATE)
        with pytest.raises(CatalogError):
            db.execute(self.CREATE)
        db.execute(self.CREATE.replace("CREATE FUNCTION", "CREATE OR REPLACE FUNCTION"))

    def test_drop_function(self, db):
        db.execute(self.CREATE)
        db.execute("DROP FUNCTION plus_one")
        assert not db.has_function("plus_one")
        with pytest.raises(CatalogError):
            db.execute("DROP FUNCTION plus_one")
        db.execute("DROP FUNCTION IF EXISTS plus_one")

    def test_replace_changes_behaviour(self, db):
        db.execute("CREATE TABLE t (i INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute(self.CREATE)
        assert db.execute("SELECT plus_one(i) FROM t").scalar() == 2
        db.execute("CREATE OR REPLACE FUNCTION plus_one(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return x + 100 }")
        assert db.execute("SELECT plus_one(i) FROM t").scalar() == 101


class TestExecuteScriptAndParameters:
    def test_execute_script(self, db):
        results = db.execute_script(
            "CREATE TABLE t (i INTEGER); INSERT INTO t VALUES (1), (2); SELECT SUM(i) FROM t;")
        assert len(results) == 3
        assert results[-1].scalar() == 3

    def test_parameter_substitution(self, db):
        db.execute("CREATE TABLE t (i INTEGER, s STRING)")
        db.execute("INSERT INTO t VALUES (%d, %s)", (7, "it's"))
        assert db.execute("SELECT i, s FROM t").fetchall() == [(7, "it's")]
        # ``%`` in SQL text, a string literal or a comment is not a
        # placeholder; a non-finite double binds as a number
        db.execute("CREATE TABLE u (id INTEGER, s STRING, f DOUBLE)")
        db.execute("INSERT INTO u VALUES (12, 'ab', 1.5), (13, 'b', 2.5)")
        assert db.execute("SELECT id % 10 FROM u WHERE id = %d",
                          (12,)).fetchall() == [(2,)]
        assert db.execute("SELECT id FROM u WHERE s LIKE 'a%' AND id = %d",
                          (12,)).fetchall() == [(12,)]
        assert db.execute("SELECT id FROM u WHERE id = %d -- 100% sure",
                          (13,)).fetchall() == [(13,)]
        # ``%%`` is still the escape for ``%``, inside a literal too
        db.execute("INSERT INTO u VALUES (14, '50%', 0.5)")
        assert db.execute("SELECT id FROM u WHERE s = '50%%' AND id = %d",
                          (14,)).fetchall() == [(14,)]
        assert db.execute("SELECT id FROM u WHERE s LIKE '5%%' AND id %% 2 "
                          "= %d", (0,)).fetchall() == [(14,)]
        db.execute("DELETE FROM u WHERE id = 14")
        assert db.execute("SELECT id FROM u WHERE f < %s ORDER BY id",
                          (float("inf"),)).fetchall() == [(12,), (13,)]
        # a negative value after ``-`` does not start a comment
        assert db.execute("SELECT 10 -%d", (-5,)).scalar() == 15
        db.execute("INSERT INTO u VALUES (%d, %s, %s)", (-1, "n", -0.5))
        assert db.execute("SELECT f FROM u WHERE id = -1").scalar() == -0.5
        # a NumPy scalar binds as its value, not as the text of it
        assert db.execute("SELECT id FROM u WHERE id = %d",
                          (np.int64(12),)).fetchall() == [(12,)]
        assert db.execute("SELECT id FROM u WHERE f = %s",
                          (np.float32(1.5),)).fetchall() == [(12,)]
        assert db.execute("SELECT id FROM u WHERE (f > 2) = %s",
                          (np.bool_(True),)).fetchall() == [(13,)]
        # NaN and bytes have no literal spelling: PREPARE / ``?`` binds them
        for value in (float("nan"), b"\x00"):
            with pytest.raises(ExecutionError, match="PREPARE"):
                db.execute("SELECT f FROM u WHERE f < %s", (value,))

    def test_statement_counter_and_log(self, db):
        db.execute("CREATE TABLE t (i INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.statements_executed == 2
        assert len(db.query_log) == 2
