"""PREPARE / EXECUTE / DEALLOCATE, the plan cache, and the result cache.

The cache-correctness guard lives here: after every mutation class (DML,
DDL — ``sys.tables`` included — full-table DELETE, UDF redefinition,
post-recovery open) a cached answer equals a fresh one, and a cached plan
must never read a dropped or re-created table's old data.
"""

import pytest

from repro.errors import CatalogError, ExecutionError, ParseError
from repro.sqldb import ast_nodes as ast
from repro.sqldb.cache import (
    PlanCache,
    ResultCache,
    bind_parameters,
    estimate_result_bytes,
    normalize_sql,
    profile_statement,
)
from repro.sqldb.database import Database
from repro.sqldb.parser import parse_statement


@pytest.fixture()
def db():
    database = Database(result_cache_bytes=1 << 20)
    database.execute("CREATE TABLE t (a INTEGER, b DOUBLE, s STRING)")
    database.execute(
        "INSERT INTO t VALUES (1, 1.5, 'x'), (2, 2.5, 'y'), (3, 3.5, 'x')")
    return database


# --------------------------------------------------------------------------- #
# parsing
# --------------------------------------------------------------------------- #
class TestParsing:
    def test_prepare_parses_inner_statement(self):
        statement = parse_statement("PREPARE p AS SELECT a FROM t WHERE a > ?")
        assert isinstance(statement, ast.Prepare)
        assert statement.name == "p"
        assert isinstance(statement.statement, ast.Select)
        assert "SELECT" in statement.sql

    def test_parameters_are_numbered_in_order(self):
        statement = parse_statement(
            "PREPARE p AS SELECT ? + a, ? * b FROM t WHERE a BETWEEN ? AND ?")
        profile = profile_statement(statement.statement)
        assert profile.parameter_count == 4

    def test_parameter_numbering_resets_per_statement(self):
        first = parse_statement("SELECT ? + 1")
        second = parse_statement("SELECT ? + 2")
        assert profile_statement(first).parameter_count == 1
        assert profile_statement(second).parameter_count == 1

    def test_execute_with_and_without_args(self):
        bare = parse_statement("EXECUTE p")
        assert isinstance(bare, ast.ExecutePrepared)
        assert bare.args == []
        with_args = parse_statement("EXECUTE p (1, 'x', 2.5)")
        assert len(with_args.args) == 3

    def test_deallocate_forms(self):
        assert parse_statement("DEALLOCATE p").name == "p"
        assert parse_statement("DEALLOCATE ALL").name is None

    def test_prepare_of_prepare_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("PREPARE p AS PREPARE q AS SELECT 1")

    def test_normalize_sql_collapses_whitespace(self):
        assert normalize_sql("SELECT  a\n FROM   t ;") == \
            normalize_sql("SELECT a FROM t")

    def test_normalize_sql_never_alters_a_literal(self):
        keys = {normalize_sql(f"SELECT {literal}  FROM t ; ") for literal in (
            "'a  b'", "'a b'", "'a;b'", "'a\nb'", "\"a  b\"", "'a''  b'",
            "'a' 'b'", "'a''b'", "'--  ' , 1", "'-- ', 1", "'/*'||'  */'")}
        assert len(keys) == 11
        assert normalize_sql("SELECT 'a  b'  ,  f( 'x;' )\n;;") == \
            normalize_sql("SELECT 'a  b', f('x;')")

    def test_normalize_sql_keeps_statements_apart(self):
        # an inner ``;`` is a different (invalid) statement, and where a line
        # comment ends decides what the statement says
        assert normalize_sql("SELECT a; b FROM t") != \
            normalize_sql("SELECT a b FROM t")
        assert normalize_sql("SELECT 1 -- one\n+ 1") != \
            normalize_sql("SELECT 1 -- one + 1")
        assert normalize_sql("SELECT 1 -- it's\n, 'a  b'") != \
            normalize_sql("SELECT 1 -- it's\n, 'a b'")


# --------------------------------------------------------------------------- #
# execution semantics
# --------------------------------------------------------------------------- #
class TestPreparedExecution:
    LITERALS = ["a  b", "a b", "a;b", "a\tb"]

    def test_statements_that_differ_inside_a_literal_have_their_own_plan(self):
        database = Database()  # plan cache on, as shipped
        for _ in range(2):  # the second round is served from the plan cache
            for text in self.LITERALS:
                assert database.execute(f"SELECT '{text}'").fetchall() == \
                    [(text,)]
        assert database.plan_cache.hits == len(self.LITERALS)

    def test_prepared_statements_that_differ_inside_a_literal(self, db):
        for index, text in enumerate(self.LITERALS):
            db.execute(f"PREPARE p{index} AS "
                       f"SELECT a, '{text}' FROM t WHERE a > ?")
        for _ in range(2):  # the second round is served from the result cache
            for index, text in enumerate(self.LITERALS):
                assert db.execute(f"EXECUTE p{index} (2)").fetchall() == \
                    [(3, text)]
        assert db.result_cache.hits == len(self.LITERALS)

    def test_prepare_execute_roundtrip(self, db):
        db.execute("PREPARE above AS SELECT a, b FROM t WHERE a > ?")
        result = db.execute("EXECUTE above (1)")
        assert list(result.rows()) == [(2, 2.5), (3, 3.5)]
        result = db.execute("EXECUTE above (2)")
        assert list(result.rows()) == [(3, 3.5)]

    def test_execute_prepared_api(self, db):
        db.prepare("above", "SELECT a FROM t WHERE a > ?")
        result = db.execute_prepared("above", [1])
        assert [row[0] for row in result.rows()] == [2, 3]

    def test_prepared_explain_of_a_value_without_a_literal(self, db):
        """NaN and bytes bind through EXECUTE; the plan line shows them."""
        db.prepare("plan", "EXPLAIN SELECT a FROM t WHERE b < ?")
        for value, shown in ((float("nan"), "nan"), (b"\x00", "b'\\x00'"),
                             (2.0, "(b < 2.0)")):
            plan = [row[0] for row in db.execute_prepared("plan", [value]).rows()]
            assert any("Filter [" in line and shown in line for line in plan)

    def test_prepared_dml(self, db):
        db.execute("PREPARE add_row AS INSERT INTO t VALUES (?, ?, ?)")
        db.execute("EXECUTE add_row (9, 9.5, 'z')")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 4
        assert db.execute(
            "SELECT s FROM t WHERE a = 9").scalar() == "z"

    def test_arity_mismatch_is_an_error(self, db):
        db.execute("PREPARE p AS SELECT a FROM t WHERE a = ?")
        with pytest.raises(ExecutionError, match="argument"):
            db.execute("EXECUTE p")
        with pytest.raises(ExecutionError, match="argument"):
            db.execute("EXECUTE p (1, 2)")

    def test_unbound_placeholder_outside_prepare_is_an_error(self, db):
        with pytest.raises(ExecutionError, match="PREPARE"):
            db.execute("SELECT a FROM t WHERE a = ?")

    def test_execute_unknown_name_is_an_error(self, db):
        with pytest.raises(ExecutionError, match="no prepared statement"):
            db.execute("EXECUTE nope (1)")

    def test_deallocate_then_execute_errors(self, db):
        db.execute("PREPARE p AS SELECT 1")
        db.execute("DEALLOCATE p")
        with pytest.raises(ExecutionError):
            db.execute("EXECUTE p")
        with pytest.raises(ExecutionError):
            db.execute("DEALLOCATE p")

    def test_deallocate_all(self, db):
        db.execute("PREPARE p1 AS SELECT 1")
        db.execute("PREPARE p2 AS SELECT 2")
        db.execute("DEALLOCATE ALL")
        for name in ("p1", "p2"):
            with pytest.raises(ExecutionError):
                db.execute(f"EXECUTE {name}")

    def test_reprepare_replaces(self, db):
        db.execute("PREPARE p AS SELECT 1")
        db.execute("PREPARE p AS SELECT 2")
        assert db.execute("EXECUTE p").scalar() == 2

    def test_prepared_survives_table_recreation(self, db):
        # templates re-bind tables at execution, so DDL on a referenced
        # table gives the *new* semantics rather than stale results
        db.execute("PREPARE cnt AS SELECT COUNT(*) FROM t WHERE a >= ?")
        assert db.execute("EXECUTE cnt (0)").scalar() == 3
        db.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            db.execute("EXECUTE cnt (0)")
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (7)")
        assert db.execute("EXECUTE cnt (0)").scalar() == 1

    def test_bind_parameters_handles_case_expressions(self):
        statement = parse_statement(
            "SELECT CASE WHEN a > ? THEN ? ELSE ? END FROM t")
        bound = bind_parameters(statement, [1, 10, 20])
        literals = [expr for expr in _walk_literals(bound)]
        assert 10 in literals and 20 in literals


def _walk_literals(root):
    from repro.sqldb.cache import iter_nodes

    for node in iter_nodes(root):
        if isinstance(node, ast.Literal):
            yield node.value


# --------------------------------------------------------------------------- #
# plan cache
# --------------------------------------------------------------------------- #
class TestPlanCache:
    def test_repeated_select_hits(self, db):
        db.execute("SELECT SUM(b) FROM t")
        before = db.plan_cache.hits
        db.execute("SELECT  SUM(b)  FROM t")  # same after normalization
        assert db.plan_cache.hits == before + 1

    def test_only_selects_are_cached(self, db):
        db.execute("INSERT INTO t VALUES (4, 4.5, 'w')")
        assert db.plan_cache.get(normalize_sql(
            "INSERT INTO t VALUES (4, 4.5, 'w')")) is None

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        statement = parse_statement("SELECT 1")
        entry = lambda: __import__("repro.sqldb.cache", fromlist=["x"]) \
            .CachedPlan(statement, profile_statement(statement))
        cache.put("a", entry())
        cache.put("b", entry())
        cache.get("a")          # refresh a; b is now LRU
        cache.put("c", entry())
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.evictions == 1

    def test_drop_table_invalidates_cached_plan(self, db):
        db.execute("SELECT a FROM t")
        db.execute("SELECT a FROM t")
        assert db.plan_cache.hits >= 1
        db.execute("DROP TABLE t")
        # a cached plan must never read the dropped table
        with pytest.raises(CatalogError):
            db.execute("SELECT a FROM t")

    def test_recreated_table_gets_fresh_plan_and_data(self, db):
        db.execute("SELECT COUNT(*) FROM t")
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (42)")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1
        assert db.execute("SELECT a FROM t").scalar() == 42


# --------------------------------------------------------------------------- #
# result cache + invalidation guard
# --------------------------------------------------------------------------- #
class TestResultCache:
    def test_identical_select_hits(self, db):
        db.execute("SELECT SUM(b) FROM t")
        before = db.result_cache.hits
        assert db.execute("SELECT SUM(b) FROM t").scalar() == 7.5
        assert db.result_cache.hits == before + 1

    def test_insert_invalidates(self, db):
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 3
        db.execute("INSERT INTO t VALUES (4, 4.5, 'w')")
        assert db.result_cache.invalidations >= 1
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 4

    def test_update_and_delete_invalidate(self, db):
        assert db.execute("SELECT SUM(a) FROM t").scalar() == 6
        db.execute("UPDATE t SET a = a + 10 WHERE a = 1")
        assert db.execute("SELECT SUM(a) FROM t").scalar() == 16
        db.execute("DELETE FROM t WHERE a = 11")
        assert db.execute("SELECT SUM(a) FROM t").scalar() == 5

    def test_full_table_delete_invalidates(self, db):
        # the dialect's TRUNCATE equivalent
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 3
        db.execute("DELETE FROM t")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_udf_redefinition_invalidates(self, db):
        db.execute("CREATE FUNCTION boost(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return x + 1 }")
        assert db.execute("SELECT SUM(boost(a)) FROM t").scalar() == 9
        db.execute("DROP FUNCTION boost")
        db.execute("CREATE FUNCTION boost(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return x + 100 }")
        assert db.execute("SELECT SUM(boost(a)) FROM t").scalar() == 306

    @pytest.mark.parametrize("over_wire", [False, True])
    def test_count_over_sys_tables_follows_create_and_drop(self, db,
                                                           over_wire):
        # sys.tables is a table too: CREATE / DROP TABLE change its COUNT
        if over_wire:
            from repro.netproto.client import Connection
            from repro.netproto.server import DatabaseServer

            connection = Connection.connect_in_process(DatabaseServer(db))
            count = lambda: connection.execute(  # noqa: E731
                "SELECT COUNT(*) FROM sys.tables").fetchall()[0][0]
        else:
            count = lambda: db.execute(  # noqa: E731
                "SELECT COUNT(*) FROM sys.tables").scalar()
        assert count() == 1
        db.execute("CREATE TABLE b (a INTEGER)")
        assert count() == 2
        db.execute("CREATE TABLE c (a INTEGER)")
        db.execute("DROP TABLE t")
        assert count() == 2
        db.execute("DROP TABLE b")
        assert count() == 1

    def test_swapped_parameters_with_the_same_body_recompile(self, db):
        db.execute("CREATE FUNCTION f(a INTEGER, b INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return a - b }")
        assert db.execute("SELECT f(10, 3)").scalar() == 7
        db.execute("CREATE OR REPLACE FUNCTION f(b INTEGER, a INTEGER) "
                   "RETURNS INTEGER LANGUAGE PYTHON { return a - b }")
        assert db.execute("SELECT f(10, 3)").scalar() == -7

    def test_udf_results_not_cached_across_create_function_api(self, db):
        # the direct (non-SQL) registration path must also invalidate
        from repro.sqldb.schema import (
            FunctionParameter,
            FunctionSignature,
        )
        from repro.sqldb.types import SQLType

        def signature(body):
            return FunctionSignature(
                name="twice",
                parameters=[FunctionParameter("x", SQLType.INTEGER, 0)],
                return_type=SQLType.INTEGER, body=body)

        db.create_function(signature("return x * 2"))
        assert db.execute("SELECT SUM(twice(a)) FROM t").scalar() == 12
        db.create_function(signature("return x * 3"))
        assert db.execute("SELECT SUM(twice(a)) FROM t").scalar() == 18

    def test_table_functions_never_cached(self, db):
        db.execute("CREATE FUNCTION expand(n INTEGER) RETURNS TABLE(v INTEGER) "
                   "LANGUAGE PYTHON {\n"
                   "    if hasattr(n, '__len__'):\n"
                   "        n = int(numpy.asarray(n).ravel()[0])\n"
                   "    return {'v': numpy.arange(int(n))}\n}")
        before = db.result_cache.misses
        db.execute("SELECT * FROM expand(3)")
        db.execute("SELECT * FROM expand(3)")
        # table-function queries bypass the result cache entirely
        assert db.result_cache.misses == before
        assert db.result_cache.hits == 0

    def test_prepared_execution_uses_result_cache(self, db):
        db.prepare("sum_above", "SELECT SUM(b) FROM t WHERE a > ?")
        db.execute_prepared("sum_above", [1])
        before = db.result_cache.hits
        assert db.execute_prepared("sum_above", [1]).scalar() == 6.0
        assert db.result_cache.hits == before + 1
        # a different binding is a different cache entry
        assert db.execute_prepared("sum_above", [2]).scalar() == 3.5
        db.execute("INSERT INTO t VALUES (10, 10.0, 'q')")
        assert db.execute_prepared("sum_above", [1]).scalar() == 16.0

    def test_byte_budget_eviction(self):
        cache = ResultCache(max_bytes=1024)
        from repro.sqldb.result import QueryResult, ResultColumn
        from repro.sqldb.types import SQLType

        def result(rows):
            return QueryResult(
                columns=[ResultColumn("a", SQLType.INTEGER, list(range(rows)))],
                statement_type="SELECT")

        small = result(2)
        assert estimate_result_bytes(small) > 0
        cache.put("k1", small)
        assert cache.get("k1") is not None
        # an entry above a quarter of the budget is refused outright
        cache.put("huge", result(1000))
        assert cache.get("huge") is None

    def test_recovery_reopen_clears_caches(self, tmp_path):
        path = str(tmp_path / "db.repro")
        database = Database(path=path, result_cache_bytes=1 << 20)
        database.execute("CREATE TABLE t (a INTEGER)")
        database.execute("INSERT INTO t VALUES (1), (2)")
        assert database.execute("SELECT SUM(a) FROM t").scalar() == 3
        assert database.result_cache.used_bytes > 0 or \
            database.plan_cache.hits >= 0
        database.close()
        reopened = Database(path=path, result_cache_bytes=1 << 20)
        # recovery invalidates everything: counters start clean and the
        # recovered data is consulted, not a stale cache
        assert reopened.result_cache.used_bytes == 0
        assert reopened.execute("SELECT SUM(a) FROM t").scalar() == 3
        reopened.close()

    def test_served_stats_read_the_cache_counters(self, db):
        from repro.netproto.server import DatabaseServer

        DatabaseServer(db)
        db.execute("SELECT a FROM t")
        db.execute("SELECT a FROM t")
        stats = db.stats_snapshot()
        plan, result = db.plan_cache, db.result_cache
        assert stats["server.plan_cache_hits"] == plan.hits > 0
        assert stats["server.plan_cache_misses"] == plan.misses
        assert stats["server.plan_cache_evictions"] == plan.evictions
        assert stats["server.result_cache_hits"] == result.hits > 0
        assert stats["server.result_cache_misses"] == result.misses
        assert stats["server.result_cache_invalidations"] == \
            result.invalidations
