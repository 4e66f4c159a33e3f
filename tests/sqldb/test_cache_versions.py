"""Caches on / off: a cached answer equals a fresh one in every reachable
state.

One generated history of CREATE / DROP TABLE, INSERT / UPDATE / DELETE,
CREATE OR REPLACE FUNCTION and PREPARE + EXECUTE runs against a database
with the result cache on and one with it off, and after each statement the
same SELECTs (aggregates over user tables, ``sys.tables`` and
``sys.functions``, joins) read both; every statement must answer alike,
errors included.  A SELECT repeated without a write between is what the
cache answers, so every write is checked against every cached read.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.sqldb import Database

TABLES = st.sampled_from(["t0", "t1", "t2"])
SMALL = st.integers(0, 4)

#: Read after every statement of the history, so each one is answered from
#: the cache whenever the cache still holds it.
READS = [
    "SELECT COUNT(*), SUM(a), MAX(b) FROM t0",
    "SELECT COUNT(*), MIN(b) FROM t1 WHERE a > 1",
    "SELECT a, COUNT(*), SUM(b) FROM t2 GROUP BY a ORDER BY a",
    "SELECT COUNT(*) FROM sys.tables",
    "SELECT name, row_count FROM sys.tables ORDER BY name",
    "SELECT COUNT(*) FROM sys.functions",
    "SELECT name, func FROM sys.functions ORDER BY name",
    "SELECT COUNT(*), SUM(x.b + y.b) FROM t0 x JOIN t1 y ON x.a = y.a",
    "SELECT x.a, y.b FROM t1 x JOIN t2 y ON x.a = y.a ORDER BY x.a, y.b",
    "SELECT SUM(f(a, b)) FROM t0",
]

SETUP = [
    *(f"CREATE TABLE {name} (a INTEGER, b INTEGER)"
      for name in ("t0", "t1", "t2")),
    *(f"INSERT INTO {name} VALUES (1, 2), (2, 3), (3, 4)"
      for name in ("t0", "t1", "t2")),
    "CREATE FUNCTION f(a INTEGER, b INTEGER) RETURNS INTEGER "
    "LANGUAGE PYTHON { return a - b }",
    "PREPARE p AS SELECT COUNT(*), SUM(b) FROM t0 WHERE a > ?",
]

STATEMENTS = st.one_of(
    st.builds("CREATE TABLE {} (a INTEGER, b INTEGER)".format, TABLES),
    st.builds("DROP TABLE {}".format, TABLES),
    st.builds("INSERT INTO {} VALUES ({}, {}), ({}, 1)".format,
              TABLES, SMALL, SMALL, SMALL),
    st.builds("UPDATE {} SET b = b + {} WHERE a < {}".format,
              TABLES, SMALL, SMALL),
    st.builds("DELETE FROM {} WHERE a = {}".format, TABLES, SMALL),
    st.builds("CREATE OR REPLACE FUNCTION f({}) RETURNS INTEGER "
              "LANGUAGE PYTHON {{ return a - b + {} }}".format,
              st.sampled_from(["a INTEGER, b INTEGER", "b INTEGER, a INTEGER"]),
              SMALL),
    st.builds("PREPARE p AS SELECT COUNT(*), SUM(b) FROM {} WHERE a > ?"
              .format, TABLES),
    st.builds("EXECUTE p ({})".format, SMALL),
)


def _answer(database, sql):
    try:
        return database.execute(sql).fetchall()
    except ReproError as exc:
        return type(exc).__name__, str(exc)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(history=st.lists(STATEMENTS, min_size=1, max_size=12))
def test_the_result_cache_answers_like_no_cache(history):
    cached, fresh = Database(result_cache_bytes=1 << 20), Database()
    for sql in SETUP:
        cached.execute(sql)
        fresh.execute(sql)
    for sql in history:
        assert _answer(cached, sql) == _answer(fresh, sql), sql
        for read in READS:
            assert _answer(cached, read) == _answer(fresh, read), \
                f"{read} after {sql}"
