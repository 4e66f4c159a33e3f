"""A storage-table scan binds only the columns its statement references.

The invariant: a scan binds every column any reference in the statement
could name — every ``ColumnRef``'s name, in any clause and any subquery,
whatever its qualifier — and every column under a ``*`` / ``t.*`` select
item.  Only columns no reference could name drop, so every name resolves,
and every unknown or ambiguous name fails, exactly as over all columns.
The differential below runs each statement both ways, with pruning switched
off by patching :func:`repro.sqldb.plan.referenced_columns`.
"""

import re

import pytest

from repro.errors import ReproError
from repro.sqldb import Database
from repro.sqldb import plan as plan_module


@pytest.fixture(scope="module", params=[2, 65_536], ids=["morsel2", "morsel65536"])
def db(request):
    db = Database(morsel_rows=request.param)
    db.execute("CREATE TABLE a (x INTEGER, y STRING, z DOUBLE)")
    db.execute("CREATE TABLE b (x INTEGER, w STRING)")
    db.execute("CREATE TABLE e (x INTEGER, v DOUBLE)")
    db.execute("INSERT INTO a VALUES (1, 'p', 0.5), (2, 'q', 1.5), (3, NULL, 2.5)")
    db.execute("INSERT INTO b VALUES (1, 'one'), (3, 'three')")
    yield db
    db.close()


def _outcome(db, sql):
    try:
        return "rows", db.execute(sql).fetchall()
    except ReproError as exc:
        return type(exc).__name__, str(exc)


def _scan_columns(db, sql):
    """``{table: "bound/stored"}`` from the EXPLAIN ANALYZE scan lines."""
    lines = [line for (line,) in db.execute(f"EXPLAIN ANALYZE {sql}").fetchall()]
    return dict(re.findall(r"Scan (\w+) \[.* columns=(\d+/\d+)\]", "\n".join(lines)))


STATEMENTS = [
    "SELECT nope FROM a",
    "SELECT a.nope FROM a",
    "SELECT q.x FROM a",
    "SELECT x FROM a JOIN b ON a.x = b.x",
    "SELECT a.y FROM a JOIN b ON a.x = b.x WHERE x > 1",
    "SELECT y FROM a ORDER BY nope",
    "SELECT y, COUNT(*) FROM a GROUP BY nope",
    "SELECT a.y FROM a JOIN b ON a.x = b.nope",
    "SELECT a.y FROM a JOIN b ON a.nope = b.x",
    "SELECT q.* FROM a",
    "SELECT y FROM a WHERE EXISTS (SELECT nope FROM b)",
    "SELECT w FROM a JOIN b ON a.x = b.x",
    "SELECT a.y, b.w FROM a LEFT JOIN b ON a.x = b.x",
    "SELECT y AS x FROM a ORDER BY x",
    "SELECT COUNT(*) FROM a WHERE y IS NULL",
    "SELECT SUM(z) FROM a WHERE x IN (SELECT x FROM b)",
    "SELECT s.y FROM (SELECT * FROM a) s WHERE s.x > 1",
    "SELECT a.y FROM a LEFT JOIN b ON a.x = b.x AND b.w = 'one'",
]


@pytest.mark.parametrize("sql", STATEMENTS)
def test_answers_and_errors_are_those_of_an_unpruned_scan(db, sql, monkeypatch):
    pruned = _outcome(db, sql)
    monkeypatch.setattr(plan_module, "referenced_columns", lambda select: None)
    assert _outcome(db, sql) == pruned


def test_the_differential_sees_both_answers_and_errors(db):
    # guards the premise: a list of statements that all failed (or all
    # succeeded) would compare nothing about the other half
    kinds = {_outcome(db, sql)[0] for sql in STATEMENTS}
    assert kinds == {"rows", "ExecutionError"}


@pytest.mark.parametrize("sql, expected, columns", [
    ("SELECT COUNT(*) FROM a CROSS JOIN b", [(6,)], {"a": "0/3", "b": "0/2"}),
    # the right side is never referenced: three unmatched rows
    ("SELECT a.x FROM a LEFT JOIN b ON a.x > 100", [(1,), (2,), (3,)],
     {"a": "1/3", "b": "1/2"}),
    ("SELECT a.z FROM a LEFT JOIN e ON a.z > 100", [(0.5,), (1.5,), (2.5,)],
     {"a": "1/3", "e": "0/2"}),
    ("SELECT COUNT(*) FROM a WHERE 1 = 1", [(3,)], {"a": "0/3"}),
    ("SELECT 1 FROM a", [(1,), (1,), (1,)], {"a": "0/3"}),
])
def test_a_scan_binding_no_column_keeps_its_rows(db, sql, expected, columns):
    assert db.execute(sql).fetchall() == expected
    assert _scan_columns(db, sql) == columns


@pytest.mark.parametrize("sql, columns", [
    ("SELECT * FROM a", {"a": "3/3"}),
    ("SELECT a.* FROM a JOIN b ON a.x = b.x", {"a": "3/3", "b": "2/2"}),
    ("SELECT b.w FROM a JOIN b ON a.x = b.x", {"a": "1/3", "b": "2/2"}),
    # a star anywhere, a subquery's included, names every column
    ("SELECT x FROM a WHERE EXISTS (SELECT * FROM b)", {"a": "3/3"}),
    # COUNT(*)'s star is an argument: it names no column
    ("SELECT COUNT(*), SUM(z) FROM a", {"a": "1/3"}),
])
def test_star_items_bind_every_column(db, sql, columns):
    assert _scan_columns(db, sql) == columns


def test_plain_explain_is_unchanged(db):
    lines = [line for (line,) in db.execute(
        "EXPLAIN SELECT a.y, b.w FROM a JOIN b ON a.x = b.x").fetchall()]
    morsels = "2" if db.morsel_rows == 2 else "1"
    assert lines == [
        "Project [y, w]",
        "  HashJoin [INNER ON (a.x = b.x)]",
        f"    Scan a [rows=3 morsels={morsels}]",
        "    Scan b [rows=2 morsels=1]",
        f"-- morsel_rows={db.morsel_rows} parallel_safe=yes",
    ]


# --------------------------------------------------------------------------- #
# sql_serve's statement shapes
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def serving():
    db = Database()
    db.execute("CREATE TABLE facts (id INTEGER, k INTEGER, v DOUBLE, "
               "name STRING, nv DOUBLE)")
    db.execute("CREATE TABLE dim (k INTEGER, w DOUBLE, label STRING)")
    db.execute("CREATE FUNCTION vec_dev(x DOUBLE) RETURNS DOUBLE "
               "LANGUAGE PYTHON { return float(abs(x - x.mean()).mean()) }")
    db.storage.table("facts").insert_rows(
        (i, i % 5, i * 0.5, f"n{i % 3}", None) for i in range(20))
    db.storage.table("dim").insert_rows((k, 1.0, f"d{k}") for k in range(5))
    yield db
    db.close()


@pytest.mark.parametrize("sql, columns", [
    ("SELECT d.label, COUNT(*), SUM(f.v * d.w) FROM facts f JOIN dim d "
     "ON f.k = d.k WHERE f.id >= 3 GROUP BY d.label",
     {"facts": "3/5", "dim": "3/3"}),
    ("SELECT vec_dev(v) FROM facts WHERE id >= 3", {"facts": "2/5"}),
    ("SELECT k, COUNT(*), SUM(v) FROM facts GROUP BY k", {"facts": "2/5"}),
    ("SELECT id, k, v, name, nv FROM facts WHERE id = 7", {"facts": "5/5"}),
])
def test_serving_statements_bind_what_they_name(serving, sql, columns):
    assert _scan_columns(serving, sql) == columns
