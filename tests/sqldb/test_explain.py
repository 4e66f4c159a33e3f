"""EXPLAIN: the physical operator tree rendered without executing."""

import pytest

from repro.errors import ExecutionError
from repro.sqldb.database import Database


@pytest.fixture()
def db():
    database = Database()
    database.execute("CREATE TABLE t (k INTEGER, v DOUBLE, name STRING)")
    table = database.storage.table("t")
    for i in range(100):
        table.insert_row([i % 3, i * 0.5, f"n_{i % 4}"])
    database.execute("CREATE TABLE r (k INTEGER, w DOUBLE)")
    database.execute("INSERT INTO r VALUES (1, 10.0)")
    return database


def plan_text(db, sql):
    result = db.execute(sql)
    assert result.statement_type == "EXPLAIN"
    assert result.column_names == ["plan"]
    return result["plan"]


def test_explain_scan_filter_project(db):
    lines = plan_text(db, "EXPLAIN SELECT v FROM t WHERE v > 1")
    assert lines[0].startswith("Project [v]")
    assert lines[1].strip().startswith("Filter [(v > 1)]")
    assert "Scan t [rows=100 morsels=1]" in lines[2]
    assert lines[-1].startswith("-- morsel_rows=65536 parallel_safe=yes")


def test_explain_full_pipeline(db):
    lines = plan_text(
        db,
        "EXPLAIN SELECT t.k, SUM(v) FROM t JOIN r ON t.k = r.k "
        "WHERE v > 1 GROUP BY t.k ORDER BY t.k LIMIT 2")
    tree = "\n".join(lines)
    for operator in ("Limit [limit=2]", "Sort [t.k]", "HashAggregate",
                     "Filter", "HashJoin [INNER", "Scan t", "Scan r"):
        assert operator in tree, operator
    # the join's build side is indented under the join node
    join_depth = next(line for line in lines if "HashJoin" in line)
    scan_r = next(line for line in lines if "Scan r" in line)
    assert len(scan_r) - len(scan_r.lstrip()) \
        > len(join_depth) - len(join_depth.lstrip())


def test_explain_distinct(db):
    lines = plan_text(db, "EXPLAIN SELECT DISTINCT k FROM t")
    assert lines[0] == "Distinct"


def test_explain_marks_udf_queries_not_parallel_safe(db):
    db.execute("CREATE FUNCTION f(x DOUBLE) RETURNS DOUBLE "
               "LANGUAGE PYTHON { return x }")
    lines = plan_text(db, "EXPLAIN SELECT f(v) FROM t")
    assert lines[-1].endswith("parallel_safe=no")
    # a UDF anywhere in an expression counts, a LIKE pattern included
    db.execute("CREATE FUNCTION g(x STRING) RETURNS STRING "
               "LANGUAGE PYTHON { return x }")
    lines = plan_text(db, "EXPLAIN SELECT v FROM t WHERE name LIKE g(name)")
    assert lines[-1].endswith("parallel_safe=no")
    lines = plan_text(db, "EXPLAIN SELECT v FROM t")
    assert lines[-1].endswith("parallel_safe=yes")


def test_explain_does_not_execute_the_query(db):
    """EXPLAIN of a UDF-calling query must not invoke the UDF."""
    db.execute("CREATE FUNCTION boom() RETURNS TABLE (x INTEGER) "
               "LANGUAGE PYTHON { raise RuntimeError('must not run') }")
    lines = plan_text(db, "EXPLAIN SELECT * FROM boom()")
    assert any("Scan boom()" in line for line in lines)


def test_explain_unknown_table_errors(db):
    with pytest.raises(Exception):
        db.execute("EXPLAIN SELECT * FROM nosuch")


def test_explain_requires_select(db):
    with pytest.raises(Exception):
        db.execute("EXPLAIN INSERT INTO t VALUES (1, 1.0, 'x')")


def test_explain_keyword_still_usable_as_identifier(db):
    db.execute("CREATE TABLE meta (explain INTEGER)")
    db.execute("INSERT INTO meta VALUES (7)")
    assert db.execute("SELECT explain FROM meta").scalar() == 7
