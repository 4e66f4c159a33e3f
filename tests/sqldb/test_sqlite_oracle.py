"""Differential oracle: this engine against stdlib ``sqlite3``.

One seeded dataset is loaded into both engines and the statements below —
the surface the devUDF client and the benchmark drivers actually use — must
return the same rows at every ``morsel_rows`` setting, through every door:
``execute``, the streaming path under a timeout (a cancellation point before
every morsel, streamable statements cut into 5-row morsels) and the wire.
Results are compared as multisets unless the statement's ORDER BY is total.

Measures are integers or multiples of 0.25, so sums are exact in any order
and floats are compared with ``==``.  The one intentional divergence is
written down as a normalisation (:func:`for_sqlite`), not a skip: this engine
sorts NULLs last in both directions, SQLite sorts them first when ascending.
"""

import random
import re
import sqlite3

import pytest

from repro.netproto.client import Connection
from repro.netproto.server import DatabaseServer
from repro.sqldb import Database
from repro.sqldb.result import QueryResult

FACT_ROWS = 60


def _dataset():
    rng = random.Random(18)
    fact = []
    for i in range(FACT_ROWS):
        k = rng.choice([None, 1, 2, 3, 4, 5, 6, 7])          # 7: not in dim
        m = None if k == 5 or rng.random() < 0.15 else rng.randrange(-20, 80)
        x = None if rng.random() < 0.1 else rng.randrange(0, 400) * 0.25
        s = rng.choice([None, "ant", "bee", "cat", "Dog", "eel", ""])
        fact.append((i, k, m, x, s))
    # a NULL key, and key 8 that no fact row has
    dim = [(1, "one"), (2, "two"), (3, "three"), (4, None), (5, "five"),
           (6, "six"), (8, "eight"), (None, "nokey")]
    return fact, dim


FACT, DIM = _dataset()

#: a build with two- and three-column keys taken from every third fact row
#: (NULLs included), one key in four twice, and a NULL in one key or in all
PAIRS = ([(k, s, x, i, float(i)) for i, k, _, x, s in FACT if i % 3 == 0]
         + [(k, s, x, 100 + i, float(i)) for i, k, _, x, s in FACT
            if i % 12 == 0]
         + [(None, "ant", 10.0, -1, 0.0), (2, None, 5.0, -2, 3.0),
            (None, None, None, -3, None)])

#: (statement, True when its ORDER BY is total — compare as lists)
STATEMENTS = [
    # filter + projection
    ("SELECT i, k, m, x, s FROM f", False),
    ("SELECT i, m * 2 + 1, x * 0.5 FROM f WHERE m > 10 AND x < 60", False),
    ("SELECT i FROM f WHERE k IS NULL OR s IS NULL", False),
    ("SELECT i, s FROM f WHERE s IN ('ant', 'bee') AND k <> 2", False),
    ("SELECT i FROM f WHERE m BETWEEN 0 AND 30 AND NOT (k = 1)", False),
    ("SELECT i, COALESCE(m, -1), COALESCE(s, 'none') FROM f WHERE i < 25",
     False),
    # ORDER BY ... LIMIT / OFFSET
    ("SELECT i, m FROM f ORDER BY m, i", True),
    ("SELECT i, m FROM f ORDER BY m DESC, i", True),
    ("SELECT i, s, x FROM f ORDER BY s, x DESC, i LIMIT 15 OFFSET 5", True),
    ("SELECT i FROM f WHERE x > 20 ORDER BY i DESC LIMIT 7", True),
    ("SELECT i, k FROM f ORDER BY k DESC, i LIMIT 10 OFFSET 50", True),
    # joins, NULL keys and keys missing on either side
    ("SELECT f.i, d.name FROM f JOIN d ON f.k = d.k", False),
    ("SELECT f.i, f.k, d.name FROM f LEFT JOIN d ON f.k = d.k", False),
    ("SELECT d.k, d.name, f.i FROM d LEFT JOIN f ON d.k = f.k", False),
    ("SELECT f.i, d.name FROM f JOIN d ON f.k = d.k "
     "WHERE f.m > 20 AND d.name <> 'two'", False),
    ("SELECT f.i FROM f LEFT JOIN d ON f.k = d.k WHERE d.k IS NULL", False),
    # GROUP BY with a NULL group, an all-NULL group (k = 5), HAVING
    ("SELECT k, COUNT(*), COUNT(m), SUM(m), MIN(m), MAX(m) FROM f GROUP BY k",
     False),
    ("SELECT k, AVG(x), SUM(x) FROM f GROUP BY k", False),
    ("SELECT s, COUNT(*), SUM(m) FROM f GROUP BY s", False),
    ("SELECT k, s, COUNT(*) FROM f GROUP BY k, s", False),
    ("SELECT k, SUM(m) FROM f GROUP BY k HAVING COUNT(m) > 5", False),
    ("SELECT k, COUNT(*) FROM f WHERE x > 30 GROUP BY k "
     "HAVING SUM(x) > 100 ORDER BY k", True),
    ("SELECT d.name, COUNT(*), SUM(f.m) FROM f JOIN d ON f.k = d.k "
     "GROUP BY d.name", False),
    ("SELECT d.name, COUNT(f.i), MAX(f.x) FROM d LEFT JOIN f ON d.k = f.k "
     "GROUP BY d.name", False),
    # ungrouped aggregates, MIN/MAX over strings, COUNT(*) vs COUNT(col)
    ("SELECT COUNT(*), COUNT(k), COUNT(m), COUNT(s) FROM f", False),
    ("SELECT MIN(s), MAX(s), MIN(x), MAX(x), SUM(m), AVG(x) FROM f", False),
    ("SELECT COUNT(DISTINCT k), COUNT(DISTINCT s) FROM f", False),
    # empty input, all-NULL input
    ("SELECT COUNT(*), COUNT(m), SUM(m), MIN(s), MAX(x), AVG(x) FROM f "
     "WHERE i < 0", False),
    ("SELECT COUNT(*), COUNT(m), SUM(m), MIN(m), AVG(m) FROM f WHERE k = 5",
     False),
    ("SELECT k, SUM(m) FROM f WHERE i < 0 GROUP BY k", False),
    ("SELECT i, s FROM f WHERE i < 0", False),
    # DISTINCT
    ("SELECT DISTINCT k FROM f", False),
    ("SELECT DISTINCT k, s FROM f WHERE m IS NOT NULL", False),
    ("SELECT DISTINCT s FROM f ORDER BY s", True),
    # the per-row tier's shapes: CASE, built-ins, string BETWEEN, CAST (no
    # LIKE: SQLite's is case-insensitive)
    ("SELECT SUM(CASE WHEN m > 10 THEN 1 ELSE 0 END), "
     "SUM(CASE WHEN s = 'bee' THEN m END) FROM f", False),
    ("SELECT k, SUM(CASE WHEN m > 10 THEN 1 ELSE 0 END), "
     "SUM(CASE WHEN s = 'bee' THEN m WHEN s = 'ant' THEN 0 - m END) "
     "FROM f GROUP BY k", False),
    ("SELECT i, CASE WHEN s = 'bee' THEN 'b' WHEN m > 30 THEN s END FROM f",
     False),
    ("SELECT COUNT(*) FROM f WHERE UPPER(s) = 'DOG'", False),
    ("SELECT UPPER(s), COUNT(*), SUM(LENGTH(s)) FROM f GROUP BY UPPER(s)",
     False),
    ("SELECT i, LENGTH(s), ABS(m), ABS(x), LOWER(s) FROM f", False),
    ("SELECT i, COALESCE(s, 'none'), NULLIF(k, 3), NULLIF(s, 'bee') FROM f",
     False),
    ("SELECT i, SUBSTR(s, 2), SUBSTR(s, 1, 2), s || '!' FROM f", False),
    ("SELECT i, s FROM f WHERE s BETWEEN 'ant' AND 'cat'", False),
    ("SELECT i FROM f WHERE s NOT BETWEEN 'bee' AND 'eel' OR s >= 'cat'",
     False),
    ("SELECT i, CAST(x * 4 AS INTEGER), CAST(k AS INTEGER), "
     "CAST(m AS DOUBLE) FROM f", False),
    # ORDER BY an aggregate: the column of the select item it repeats, or a
    # hidden column the sort drops
    ("SELECT s, COUNT(*) FROM f GROUP BY s ORDER BY COUNT(*) DESC, s", True),
    ("SELECT s, COUNT(*) FROM f GROUP BY s ORDER BY SUM(x), s", True),
    ("SELECT s FROM f GROUP BY s ORDER BY MAX(x), s", True),
    ("SELECT COUNT(*) FROM f ORDER BY COUNT(*)", True),
    # a select list that reads no column is one row per input row (``e`` is
    # empty), so EXISTS over a WHERE no row passes is false
    ("SELECT COUNT(*) FROM f WHERE EXISTS (SELECT 1 FROM f WHERE i = 99)",
     False),
    ("SELECT COUNT(*) FROM f WHERE EXISTS (SELECT 1 FROM f WHERE i = 9)",
     False),
    ("SELECT COUNT(*) FROM (SELECT 1 FROM f) s", False),
    ("SELECT 1 FROM f LIMIT 2", False),
    ("SELECT 1, 'a' FROM f WHERE i < 3", False),
    ("SELECT 1 FROM e", False),
    ("SELECT (SELECT MAX(x) FROM f) FROM f", False),
    # scans that bind no column still carry their row counts
    ("SELECT COUNT(*) FROM f CROSS JOIN d", False),
    ("SELECT f.i FROM f LEFT JOIN d ON f.k > 100", False),
    ("SELECT COUNT(*) FROM f LEFT JOIN d ON f.k = 1", False),
    ("SELECT COUNT(*) FROM f WHERE 1 = 1", False),
    # several keys: GROUP BY over three columns and over two with NULLs in
    # one, DISTINCT over two and three columns, joins on two and three
    # column pairs against duplicated build keys holding NULLs, one of them
    # pairing DOUBLE keys beside INTEGER ones
    ("SELECT k, s, m, COUNT(*), SUM(x) FROM f GROUP BY k, s, m", False),
    ("SELECT i % 4, k, COUNT(*), SUM(m), MAX(x) FROM f GROUP BY i % 4, k",
     False),
    ("SELECT DISTINCT k, s FROM f", False),
    ("SELECT DISTINCT s, k, x FROM f", False),
    ("SELECT f.i, p.w FROM f JOIN p ON f.k = p.k AND f.s = p.s", False),
    ("SELECT f.i, p.w FROM f LEFT JOIN p ON f.k = p.k AND f.s = p.s", False),
    ("SELECT f.i, p.w FROM f JOIN p ON f.x = p.x AND f.k = p.k", False),
    ("SELECT f.i, p.w FROM f LEFT JOIN p ON f.i = p.y AND f.s = p.s", False),
    ("SELECT f.i, p.w FROM f LEFT JOIN p "
     "ON f.k = p.k AND f.s = p.s AND f.x = p.x", False),
    ("SELECT p.w, COUNT(*), SUM(f.m) FROM f JOIN p "
     "ON f.k = p.k AND f.s = p.s GROUP BY p.w", False),
]


def for_sqlite(sql):
    """Spell out this engine's NULL ordering for SQLite.

    Here NULLs sort last ascending *and* descending; SQLite treats NULL as
    the smallest value (first ascending, last descending)."""
    match = re.search(r"ORDER BY (.*?)(?= LIMIT| OFFSET|$)", sql)
    if match is None:
        return sql
    keys = ", ".join(f"{key.strip()} NULLS LAST"
                     for key in match.group(1).split(","))
    return sql[:match.start(1)] + keys + sql[match.end(1):]


def _multiset(rows):
    return sorted(rows, key=lambda row: [(v is None, v) for v in row])


@pytest.fixture(scope="module")
def oracle():
    connection = sqlite3.connect(":memory:")
    connection.execute(
        "CREATE TABLE f (i INTEGER, k INTEGER, m INTEGER, x REAL, s TEXT)")
    connection.execute("CREATE TABLE d (k INTEGER, name TEXT)")
    connection.execute("CREATE TABLE e (k INTEGER)")
    connection.execute("CREATE TABLE p (k INTEGER, s TEXT, x REAL, w INTEGER, y REAL)")
    connection.executemany("INSERT INTO f VALUES (?, ?, ?, ?, ?)", FACT)
    connection.executemany("INSERT INTO d VALUES (?, ?)", DIM)
    connection.executemany("INSERT INTO p VALUES (?, ?, ?, ?, ?)", PAIRS)
    answers = {sql: connection.execute(for_sqlite(sql)).fetchall()
               for sql, _ in STATEMENTS}
    connection.close()
    return answers


def _drain(outcome):
    if isinstance(outcome, QueryResult):
        return outcome.fetchall()
    return [row for piece in outcome for row in piece.fetchall()]


@pytest.fixture(scope="module", params=[1, 7, 65_536],
                ids=lambda morsel_rows: f"morsel{morsel_rows}")
def engine(request):
    """``{door: run statement}`` over one loaded database."""
    db = Database(morsel_rows=request.param)
    db.execute(
        "CREATE TABLE f (i INTEGER, k INTEGER, m INTEGER, x DOUBLE, s STRING)")
    db.execute("CREATE TABLE d (k INTEGER, name STRING)")
    db.execute("CREATE TABLE e (k INTEGER)")
    db.execute("CREATE TABLE p (k INTEGER, s STRING, x DOUBLE, w INTEGER, "
               "y DOUBLE)")
    db.storage.table("f").insert_rows(FACT)
    db.storage.table("d").insert_rows(DIM)
    db.storage.table("p").insert_rows(PAIRS)
    connection = Connection.connect_in_process(DatabaseServer(db))
    yield {
        "execute": lambda sql: db.execute(sql).fetchall(),
        "stream": lambda sql: _drain(
            db.execute_stream(sql, max_rows=5, timeout=60)),
        "wire": lambda sql: connection.execute(sql).fetchall(),
    }
    connection.close()
    db.close()


@pytest.mark.parametrize("door", ["execute", "stream", "wire"])
@pytest.mark.parametrize("sql, ordered", STATEMENTS,
                         ids=[f"q{n:02d}" for n in range(len(STATEMENTS))])
def test_matches_sqlite(engine, oracle, sql, ordered, door):
    expected = [tuple(row) for row in oracle[sql]]
    actual = engine[door](sql)
    if not ordered:
        expected, actual = _multiset(expected), _multiset(actual)
    assert actual == expected


def test_the_dataset_has_the_shapes_the_statements_rely_on():
    keys = {k for _, k, _, _, _ in FACT}
    assert None in keys and 7 in keys and 8 not in keys
    assert all(m is None for _, k, m, _, _ in FACT if k == 5)
    assert any(k == 5 for _, k, _, _, _ in FACT)
    assert any(s is None for *_, s in FACT) and any(s == "" for *_, s in FACT)
    # the EXISTS pair: one WHERE no row passes, one that a row does
    ids = {i for i, *_ in FACT}
    assert 99 not in ids and 9 in ids and 1 in keys


def test_the_pair_build_has_the_shapes_the_statements_rely_on():
    keys = [(k, s) for k, s, *_ in PAIRS]
    assert len(set(keys)) < len(keys)  # duplicated build keys
    assert any(k is None and s is not None for k, s in keys)
    assert any(s is None and k is not None for k, s in keys)
    # some fact rows find a two-column match and some do not
    found = {(k, s) for _, k, _, _, s in FACT} & set(keys)
    assert any(None not in key for key in found)
    assert {(k, s) for _, k, _, _, s in FACT} - set(keys)
