"""The partial merge answers what one morsel answers, at every morsel size.

A GROUP BY over more than ``morsel_rows`` rows aggregates each morsel into
typed partials and scatters them into the global groups in morsel order.
For COUNT, MIN, MAX, integer SUM and integer AVG nothing about that may
show: the answer equals the single-morsel one exactly — NaN included (a group holding a NaN
answers NaN for MIN and MAX wherever the NaN falls), ``-0.0`` beside
``0.0``, groups whose every value is NULL, and integer totals beyond int64.
Float SUM and AVG may fold in another order and are compared with
``close_to``.
"""

import math
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqldb import Database

MORSEL_ROWS = (1, 3, 1_024)
SINGLE = 65_536
SQL = ("SELECT k, COUNT(*), COUNT(f), SUM(i), MIN(i), MAX(i), MIN(f), "
       "MAX(f), MIN(s), MAX(s), SUM(f), AVG(f), AVG(i) FROM t GROUP BY k")
#: the float SUM and AVG positions
FOLDED = (10, 11)

keys = st.none() | st.integers(0, 3)
integers = st.none() | st.integers(-5, 5) | st.integers(-2 ** 62, 2 ** 62)
floats = (st.none() | st.sampled_from([0.0, -0.0, math.nan])
          | st.floats(-1e6, 1e6, allow_nan=False))
strings = st.none() | st.sampled_from(["", "a", "ab", "b"])
rows = st.lists(st.tuples(keys, integers, floats, strings), max_size=24)


def _answer(morsel_rows, table):
    db = Database(morsel_rows=morsel_rows)
    db.execute("CREATE TABLE t (k INTEGER, i BIGINT, f DOUBLE, s STRING)")
    db.storage.table("t").insert_rows(table)
    answer = db.execute(SQL).fetchall()
    db.close()
    return answer


def _same(got, want):
    """Equal as SQL values of the same Python type; NaN equals NaN."""
    if isinstance(got, float) and isinstance(want, float) \
            and math.isnan(got) and math.isnan(want):
        return True
    return type(got) is type(want) and got == want


def close_to(got, want):
    if got is None or want is None:
        return got is want
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-6)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(table=rows)
def test_every_morsel_size_answers_as_one_morsel(table):
    expected = _answer(SINGLE, table)
    for morsel_rows in MORSEL_ROWS:
        answer = _answer(morsel_rows, table)
        assert len(answer) == len(expected), morsel_rows
        for got, want in zip(answer, expected):
            for position, (value, reference) in enumerate(zip(got, want)):
                check = close_to if position in FOLDED else _same
                assert check(value, reference), (morsel_rows, got, want)


def test_a_nan_in_a_later_morsel_still_wins():
    # the group's first morsel holds 1.0, its second the NaN: Python's
    # min(1.0, nan) kept 1.0 here, one morsel's reduction answers NaN
    table = [(1, 1, 1.0, "a"), (1, 2, math.nan, "b"), (1, 3, 0.5, "c")]
    for morsel_rows in (1, 2, SINGLE):
        (row,) = _answer(morsel_rows, table)
        assert all(math.isnan(value) for value in row[6:8]), morsel_rows
        assert row[3:6] == (6, 1, 3) and row[8:10] == ("a", "c")


@pytest.mark.parametrize("morsel_rows", (1, 7, SINGLE))
def test_integer_avg_is_exact_at_every_morsel_size(morsel_rows):
    # the sum 2^62 - 2^62 - 3 is exact in int64; converted to doubles
    # first, 2^62 - 3 rounds to 2^62 and the mean reads 0.0
    table = [(1, 2 ** 62, 0.0, "a"), (1, -2 ** 62, 0.0, "b"),
             (1, -3, 0.0, "c")]
    reference = sqlite3.connect(":memory:")
    reference.execute("CREATE TABLE t (k INTEGER, i INTEGER)")
    reference.executemany("INSERT INTO t VALUES (?, ?)",
                          [(k, i) for k, i, _, _ in table])
    want = reference.execute("SELECT AVG(i) FROM t").fetchone()[0]
    assert want == -1.0
    (row,) = _answer(morsel_rows, table)
    assert row[-1] == want
    db = Database(morsel_rows=morsel_rows)
    db.execute("CREATE TABLE t (i BIGINT)")
    db.storage.table("t").insert_rows([(i,) for _, i, _, _ in table])
    assert db.execute("SELECT AVG(i) FROM t").fetchall() == [(want,)]
    db.close()
