"""Integration-level tests of SELECT execution against the embedded engine."""

import pytest

from repro.errors import ExecutionError
from repro.sqldb.database import Database


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.execute("CREATE TABLE t (i INTEGER, s STRING, x DOUBLE)")
    database.execute(
        "INSERT INTO t VALUES (1, 'a', 1.5), (2, 'b', 2.5), (3, 'a', 3.5), "
        "(4, 'c', NULL), (NULL, 'a', 0.5)")
    return database


class TestProjection:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM t")
        assert result.column_names == ["i", "s", "x"]
        assert result.row_count == 5

    def test_select_columns_and_aliases(self, db):
        result = db.execute("SELECT i AS number, s FROM t")
        assert result.column_names == ["number", "s"]

    def test_expression_projection(self, db):
        result = db.execute("SELECT i * 2 + 1 FROM t WHERE i = 3")
        assert result.fetchall() == [(7,)]

    def test_null_propagation_in_arithmetic(self, db):
        result = db.execute("SELECT i + 1 FROM t")
        assert result.columns[0].values[-1] is None

    def test_string_concatenation(self, db):
        result = db.execute("SELECT s || '!' FROM t WHERE i = 1")
        assert result.scalar() == "a!"

    def test_select_without_from(self, db):
        assert db.execute("SELECT 40 + 2").scalar() == 42

    def test_builtin_functions(self, db):
        result = db.execute("SELECT ABS(0 - i), UPPER(s) FROM t WHERE i = 2")
        assert result.fetchall() == [(2, "B")]

    def test_case_expression(self, db):
        result = db.execute(
            "SELECT CASE WHEN i > 2 THEN 'big' ELSE 'small' END FROM t WHERE i IS NOT NULL")
        assert [row[0] for row in result.rows()] == ["small", "small", "big", "big"]

    def test_cast(self, db):
        assert db.execute("SELECT CAST(i AS DOUBLE) FROM t WHERE i = 1").scalar() == 1.0

    def test_division_is_true_division(self, db):
        assert db.execute("SELECT 7 / 2").scalar() == 3.5

    def test_division_by_zero_raises(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT 1 / 0")


class TestFiltering:
    def test_where_comparison(self, db):
        assert db.execute("SELECT i FROM t WHERE i > 2").fetchall() == [(3,), (4,)]

    def test_where_and_or(self, db):
        result = db.execute("SELECT i FROM t WHERE i > 1 AND s = 'a' OR i = 4")
        assert result.fetchall() == [(3,), (4,)]

    def test_where_in_list(self, db):
        assert db.execute("SELECT i FROM t WHERE i IN (1, 4)").fetchall() == [(1,), (4,)]

    def test_where_between(self, db):
        assert db.execute("SELECT i FROM t WHERE i BETWEEN 2 AND 3").fetchall() == [(2,), (3,)]

    def test_where_like(self, db):
        db.execute("INSERT INTO t VALUES (9, 'abc', 1.0)")
        assert db.execute("SELECT i FROM t WHERE s LIKE 'ab%'").fetchall() == [(9,)]

    def test_where_is_null(self, db):
        assert db.execute("SELECT s FROM t WHERE i IS NULL").fetchall() == [("a",)]
        assert db.execute("SELECT COUNT(*) FROM t WHERE x IS NOT NULL").scalar() == 4

    def test_null_comparisons_filtered_out(self, db):
        # NULL > 0 is unknown, so the NULL row must not appear
        assert (None,) not in db.execute("SELECT i FROM t WHERE i > 0").fetchall()


class TestAggregation:
    def test_simple_aggregates(self, db):
        result = db.execute("SELECT COUNT(*), COUNT(i), SUM(i), AVG(i), MIN(i), MAX(i) FROM t")
        assert result.fetchall() == [(5, 4, 10, 2.5, 1, 4)]

    def test_group_by(self, db):
        result = db.execute("SELECT s, COUNT(*) AS c FROM t GROUP BY s ORDER BY s")
        assert result.fetchall() == [("a", 3), ("b", 1), ("c", 1)]

    def test_group_by_with_having(self, db):
        result = db.execute(
            "SELECT s, COUNT(*) AS c FROM t GROUP BY s HAVING COUNT(*) > 1")
        assert result.fetchall() == [("a", 3)]

    def test_group_by_expression_output(self, db):
        result = db.execute("SELECT s, SUM(i) * 2 FROM t GROUP BY s ORDER BY s")
        assert result.fetchall()[0] == ("a", 8)

    def test_aggregate_over_empty_filter(self, db):
        result = db.execute("SELECT COUNT(*), SUM(i) FROM t WHERE i > 100")
        assert result.fetchall() == [(0, None)]

    def test_median_and_stddev(self, db):
        result = db.execute("SELECT MEDIAN(i), STDDEV(i) FROM t")
        median, stddev = result.fetchone()
        assert median == 2.5
        assert stddev == pytest.approx(1.2909944, rel=1e-6)

    def test_count_distinct(self, db):
        assert db.execute("SELECT COUNT(DISTINCT s) FROM t").scalar() == 3


class TestOrderingAndLimits:
    def test_order_by_asc_desc(self, db):
        asc = db.execute("SELECT i FROM t WHERE i IS NOT NULL ORDER BY i")
        desc = db.execute("SELECT i FROM t WHERE i IS NOT NULL ORDER BY i DESC")
        assert [r[0] for r in asc.rows()] == [1, 2, 3, 4]
        assert [r[0] for r in desc.rows()] == [4, 3, 2, 1]

    def test_order_by_alias(self, db):
        result = db.execute("SELECT i * -1 AS neg FROM t WHERE i IS NOT NULL ORDER BY neg")
        assert [r[0] for r in result.rows()] == [-4, -3, -2, -1]

    def test_order_by_positional(self, db):
        result = db.execute("SELECT s, i FROM t WHERE i IS NOT NULL ORDER BY 2 DESC")
        assert [r[1] for r in result.rows()] == [4, 3, 2, 1]

    def test_nulls_sort_last(self, db):
        result = db.execute("SELECT i FROM t ORDER BY i")
        assert result.columns[0].values[-1] is None

    def test_limit_offset(self, db):
        result = db.execute("SELECT i FROM t WHERE i IS NOT NULL ORDER BY i LIMIT 2 OFFSET 1")
        assert result.fetchall() == [(2,), (3,)]

    def test_distinct(self, db):
        result = db.execute("SELECT DISTINCT s FROM t ORDER BY s")
        assert result.fetchall() == [("a",), ("b",), ("c",)]


class TestGroupByOrderBy:
    """ORDER BY over an aggregate: the rows the engine gave before the sort
    stopped concatenating the aggregate's input up front, and the proof that
    it now builds that batch only for a key it has to evaluate."""

    #: statement -> rows (40-row ``g``: k = i % 5, v = i / 2; 10-row ``u``:
    #: k unique, so a key over the input rows lines up with the groups)
    CASES = {
        "SELECT k, SUM(v) AS s FROM g GROUP BY k ORDER BY s DESC":
            [(4, 86.0), (3, 82.0), (2, 78.0), (1, 74.0), (0, 70.0)],
        "SELECT k, SUM(v) AS s FROM g GROUP BY k ORDER BY 2":
            [(0, 70.0), (1, 74.0), (2, 78.0), (3, 82.0), (4, 86.0)],
        "SELECT w, COUNT(*) AS n, SUM(v) AS s FROM g GROUP BY w ORDER BY n DESC, w":
            [("w0", 14, 136.5), ("w1", 13, 123.5), ("w2", 13, 130.0)],
        "SELECT k, SUM(v) AS s FROM u GROUP BY k ORDER BY v DESC":
            [(7, 9.0), (4, 8.0), (1, 7.0), (8, 6.0), (5, 5.0),
             (2, 4.0), (9, 3.0), (6, 2.0), (3, 1.0), (0, 0.0)],
        "SELECT k, SUM(v) AS s FROM u GROUP BY k ORDER BY 0 - k, v * 2":
            [(9, 3.0), (8, 6.0), (7, 9.0), (6, 2.0), (5, 5.0),
             (4, 8.0), (3, 1.0), (2, 4.0), (1, 7.0), (0, 0.0)],
    }

    @pytest.fixture(params=[7, 65_536])
    def grouped(self, request) -> Database:
        database = Database(morsel_rows=request.param)
        database.execute("CREATE TABLE g (k INTEGER, w STRING, v DOUBLE)")
        database.execute("INSERT INTO g VALUES " + ", ".join(
            f"({i % 5}, 'w{i % 3}', {i * 0.5})" for i in range(40)))
        database.execute("CREATE TABLE u (k INTEGER, v DOUBLE)")
        database.execute("INSERT INTO u VALUES " + ", ".join(
            f"({i}, {(i * 7) % 10})" for i in range(10)))
        return database

    @pytest.mark.parametrize("sql", CASES)
    def test_rows_unchanged(self, grouped, sql):
        assert grouped.execute(sql).fetchall() == self.CASES[sql]

    @pytest.mark.parametrize("key", ["k + 1", "g.k"])
    def test_key_over_input_rows_that_does_not_fit_the_groups(self, grouped, key):
        with pytest.raises(ExecutionError, match="length mismatch"):
            grouped.execute(f"SELECT k, SUM(v) AS s FROM g GROUP BY k ORDER BY {key}")

    @pytest.mark.parametrize("select", ["w", "twice(MIN(v))"])
    def test_an_aggregate_key_is_resolved_against_the_groups(self, grouped, select):
        # a hidden column on the reduceat path and on the per-group (UDF) path
        grouped.execute("CREATE FUNCTION twice(x DOUBLE) RETURNS DOUBLE "
                        "LANGUAGE PYTHON { return x * 2 }")
        rows = grouped.execute(f"SELECT {select} FROM g GROUP BY w "
                               "ORDER BY COUNT(*) DESC, MAX(v) DESC").fetchall()
        assert rows == ([("w0",), ("w2",), ("w1",)] if select == "w"
                        else [(0.0,), (2.0,), (1.0,)])

    def test_distinct_needs_the_aggregate_key_in_the_select_list(self, grouped):
        assert grouped.execute("SELECT DISTINCT w, COUNT(*) FROM g GROUP BY w "
                               "ORDER BY COUNT(*), w").fetchall() \
            == [("w1", 13), ("w2", 13), ("w0", 14)]
        with pytest.raises(ExecutionError, match="DISTINCT"):
            grouped.execute("SELECT DISTINCT w FROM g GROUP BY w ORDER BY SUM(v)")

    def test_input_batch_built_only_for_an_evaluated_key(self, grouped, monkeypatch):
        from repro.sqldb import operators

        calls = []
        concat = operators.concat_batches
        monkeypatch.setattr(operators, "concat_batches",
                            lambda batches: calls.append(1) or concat(batches))

        def concatenations(sql: str) -> int:
            calls.clear()
            grouped.execute(sql)
            return len(calls)

        # counted inside ``operators`` only: the aggregate's own, plus the sort's
        aggregate = "SELECT k, SUM(v) AS s FROM u GROUP BY k"
        unsorted = concatenations(aggregate)
        # every key an output column or an ordinal: the sort adds none
        assert concatenations(aggregate + " ORDER BY s DESC, 1") == unsorted
        # two evaluated keys share one
        assert concatenations(aggregate + " ORDER BY 0 - k, v * 2") == unsorted + 1


class TestJoins:
    @pytest.fixture()
    def join_db(self) -> Database:
        database = Database()
        database.execute("CREATE TABLE left_t (id INTEGER, name STRING)")
        database.execute("CREATE TABLE right_t (id INTEGER, score DOUBLE)")
        database.execute("INSERT INTO left_t VALUES (1, 'one'), (2, 'two'), (3, 'three')")
        database.execute("INSERT INTO right_t VALUES (1, 10.0), (2, 20.0), (4, 40.0)")
        return database

    def test_inner_join(self, join_db):
        result = join_db.execute(
            "SELECT l.name, r.score FROM left_t l JOIN right_t r ON l.id = r.id ORDER BY l.id")
        assert result.fetchall() == [("one", 10.0), ("two", 20.0)]

    def test_left_join(self, join_db):
        result = join_db.execute(
            "SELECT l.name, r.score FROM left_t l LEFT JOIN right_t r ON l.id = r.id "
            "ORDER BY l.id")
        assert result.fetchall() == [("one", 10.0), ("two", 20.0), ("three", None)]

    def test_cross_join_row_count(self, join_db):
        result = join_db.execute("SELECT COUNT(*) FROM left_t, right_t")
        assert result.scalar() == 9

    def test_join_with_where(self, join_db):
        result = join_db.execute(
            "SELECT l.id FROM left_t l JOIN right_t r ON l.id = r.id WHERE r.score > 15")
        assert result.fetchall() == [(2,)]

    def test_ambiguous_column_raises(self, join_db):
        with pytest.raises(ExecutionError):
            join_db.execute("SELECT id FROM left_t l JOIN right_t r ON l.id = r.id")


class TestSubqueries:
    def test_subquery_in_from(self, db):
        result = db.execute(
            "SELECT doubled FROM (SELECT i * 2 AS doubled FROM t WHERE i IS NOT NULL) sub "
            "ORDER BY doubled")
        assert [r[0] for r in result.rows()] == [2, 4, 6, 8]

    def test_scalar_subquery(self, db):
        result = db.execute("SELECT i FROM t WHERE i = (SELECT MAX(i) FROM t)")
        assert result.fetchall() == [(4,)]

    def test_in_subquery(self, db):
        result = db.execute(
            "SELECT i FROM t WHERE i IN (SELECT i FROM t WHERE i > 2)")
        assert result.fetchall() == [(3,), (4,)]

    def test_exists_subquery(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM t WHERE i = 4)")
        assert result.scalar() == 5


class TestMetaTables:
    def test_sys_tables(self, db):
        result = db.execute("SELECT name FROM sys.tables")
        assert ("t",) in result.fetchall()

    def test_sys_functions_empty_initially(self, db):
        assert db.execute("SELECT COUNT(*) FROM sys.functions").scalar() == 0

    def test_sys_functions_lists_created_udf(self, db):
        db.execute("CREATE FUNCTION f(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return x }")
        rows = db.execute(
            "SELECT name, func, language FROM sys.functions WHERE language = 6").fetchall()
        assert rows[0][0] == "f"
        assert rows[0][1].startswith("{")

    def test_sys_args_lists_parameters(self, db):
        db.execute("CREATEFUNCTION" if False else
                   "CREATE FUNCTION g(a INTEGER, b DOUBLE) RETURNS DOUBLE "
                   "LANGUAGE PYTHON { return b }")
        rows = db.execute(
            "SELECT name, type, inout FROM sys.args ORDER BY number").fetchall()
        names = [r[0] for r in rows if r[2] == 1]
        assert names == ["a", "b"]

    def test_unknown_table_raises(self, db):
        with pytest.raises(Exception):
            db.execute("SELECT * FROM missing_table")
