"""Multi-column keys against a plain-Python reference.

Every GROUP BY, DISTINCT and equi-join key goes through one factoriser: typed
key columns become one composite integer code (each column's grouping code,
made dense, times the spans of the columns after it), list keys go through
one row-tuple dict.  The reference below is the dict-of-tuples algorithm the
engine ran before, written out in Python: groups and distinct rows in
first-appearance order with the first row as representative, join pairs with
left rows ascending and each one's matches in build-row order, LEFT-join rows
without a match after every match.  NULL groups with NULL, never matches a
join key, and every NaN is its own group and matches nothing (Python
equality: ``-0.0 == 0.0``, ``nan != nan``).
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqldb import Database, operators

NAN = float("nan")
MORSEL_ROWS = (1, 4, 65_536)

COLUMNS = {
    "ki": "INTEGER",
    "s": "STRING",
    "d": "DOUBLE",
    "b": "BOOLEAN",
    "blob": "BLOB",
}
VALUES = {
    # a small domain beside two wide values (a key spanning more than 16 bits)
    "ki": st.none() | st.integers(-3, 3) | st.sampled_from([2 ** 40, -2 ** 50]),
    "s": st.none() | st.sampled_from(["", "a", "b", "zz"]),
    "d": st.none() | st.sampled_from([0.0, -0.0, 1.0, 1.5, NAN]),
    "b": st.none() | st.booleans(),
    "blob": st.none() | st.sampled_from([b"", b"x", b"yz"]),
}
ROW = st.fixed_dictionaries(VALUES)
KEYS = st.lists(st.sampled_from(sorted(COLUMNS)), min_size=2, max_size=3,
                unique=True)


def _exact(value):
    """A value as an exact, type-tagged token: 1, 1.0 and True differ, and
    so do -0.0 and 0.0."""
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


def _equality_class(value, row):
    """What Python equality groups a key value with: NaN only with itself."""
    if isinstance(value, float) and math.isnan(value):
        return ("nan", row)
    return value


def _database(morsel_rows, tables):
    db = Database(morsel_rows=morsel_rows)
    for name, rows in tables.items():
        names = ", ".join(f"{column} {kind}" for column, kind in COLUMNS.items())
        db.execute(f"CREATE TABLE {name} (i INTEGER, {names})")
        db.storage.table(name).insert_rows(
            (index, *(row[column] for column in COLUMNS))
            for index, row in enumerate(rows))
    return db


def _reference_groups(rows, keys):
    """``(key values, COUNT(*), SUM(i), MIN(i))`` per group."""
    groups = {}
    for index, row in enumerate(rows):
        key = tuple(_equality_class(row[column], index) for column in keys)
        groups.setdefault(key, []).append(index)
    return [tuple(_exact(rows[ids[0]][column]) for column in keys)
            + (len(ids), sum(ids), ids[0]) for ids in groups.values()]


def _reference_distinct(rows, keys):
    seen = {}
    for index, row in enumerate(rows):
        key = tuple(_equality_class(row[column], index) for column in keys)
        seen.setdefault(key, tuple(_exact(row[column]) for column in keys))
    return list(seen.values())


def _matches(left, right, pairs):
    return all(left[a] is not None and right[b] is not None and left[a] == right[b]
               for a, b in pairs)


def _reference_join(left, right, pairs, left_join):
    matched, unmatched = [], []
    for i, row in enumerate(left):
        found = [j for j, other in enumerate(right) if _matches(row, other, pairs)]
        matched.extend((i, j) for j in found)
        if left_join and not found:
            unmatched.append((i, None))
    return matched + unmatched


def _grouped(db, keys):
    columns = ", ".join(keys)
    rows = db.execute(f"SELECT {columns}, COUNT(*), SUM(i), MIN(i) FROM t "
                      f"GROUP BY {columns}").fetchall()
    return [tuple(_exact(value) for value in row[:len(keys)]) + row[len(keys):]
            for row in rows]


def _distinct(db, keys):
    rows = db.execute(f"SELECT DISTINCT {', '.join(keys)} FROM t").fetchall()
    return [tuple(_exact(value) for value in row) for row in rows]


def _join_sql(pairs, join):
    condition = " AND ".join(f"l.{a} = r.{b}" for a, b in pairs)
    return f"SELECT l.i, r.i FROM l {join} r ON {condition}"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=st.lists(ROW, max_size=30), keys=KEYS)
def test_group_by_and_distinct_match_the_reference(rows, keys):
    groups = _reference_groups(rows, keys)
    distinct = _reference_distinct(rows, keys)
    for morsel_rows in MORSEL_ROWS:
        db = _database(morsel_rows, {"t": rows})
        assert _grouped(db, keys) == groups, morsel_rows
        assert _distinct(db, keys) == distinct, morsel_rows
        db.close()


PAIRS = st.lists(st.sampled_from(sorted(COLUMNS)), min_size=2, max_size=3,
                 unique=True).map(lambda columns: [(c, c) for c in columns])
#: an INTEGER key against a DOUBLE one compares through Python equality too
CROSS = st.sampled_from([[], [("ki", "d")], [("d", "ki")]])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(left=st.lists(ROW, max_size=25), right=st.lists(ROW, max_size=15),
       pairs=PAIRS, cross=CROSS)
def test_joins_match_the_reference(left, right, pairs, cross):
    pairs = pairs + cross
    expected = {join: _reference_join(left, right, pairs, join == "LEFT JOIN")
                for join in ("JOIN", "LEFT JOIN")}
    for morsel_rows in MORSEL_ROWS:
        db = _database(morsel_rows, {"l": left, "r": right})
        for join, pairs_expected in expected.items():
            got = db.execute(_join_sql(pairs, join)).fetchall()
            assert got == pairs_expected, (morsel_rows, join)
        db.close()


@settings(derandomize=True, max_examples=25, deadline=None)
@given(rows=st.lists(ROW, max_size=20), keys=KEYS)
def test_a_udf_runs_once_per_group_over_its_rows_in_order(rows, keys):
    """A UDF in a grouped select list sees each group's rows, ascending."""
    groups = _reference_groups(rows, keys)
    columns = ", ".join(keys)
    db = _database(65_536, {"t": rows})
    db.execute("CREATE FUNCTION ids(i INTEGER) RETURNS STRING LANGUAGE PYTHON "
               "{ return ','.join(str(int(x)) for x in i) }")
    got = db.execute(f"SELECT ids(i) FROM t GROUP BY {columns}").fetchall()
    by_group = {}
    for index, row in enumerate(rows):
        key = tuple(_equality_class(row[column], index) for column in keys)
        by_group.setdefault(key, []).append(str(index))
    assert got == [(",".join(ids),) for ids in by_group.values()]
    assert len(got) == len(groups)
    assert db.udf_runtime.invocation_counts.get("ids", 0) == len(groups)
    db.close()


# --------------------------------------------------------------------------- #
# past 2^62: the running composite is re-factorised before it can overflow
# --------------------------------------------------------------------------- #
@pytest.fixture()
def refactorisations(monkeypatch):
    """Row counts of the ``np.unique`` calls that re-factorise a running
    composite code."""
    calls = []
    unique = np.unique

    def counting(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "composite_code":
            calls.append(len(args[0]))
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    return calls


@pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
def test_five_keys_spanning_16_bits_each_refactorise(refactorisations,
                                                     morsel_rows):
    # five keys of 65,536 values each: 2^80 composite codes
    rows = [tuple((i * 7 + column) % 3 * 32_767 + (i + column) % 2
                  for column in range(5)) for i in range(40)]
    db = Database(morsel_rows=morsel_rows)
    db.execute("CREATE TABLE w (i INTEGER, a INTEGER, b INTEGER, c INTEGER, "
               "d INTEGER, e INTEGER)")
    db.storage.table("w").insert_rows((i, *row) for i, row in enumerate(rows))
    for low, high in ((0, 1), (1, 65_535)):  # every column spans 16 bits
        db.execute(f"INSERT INTO w VALUES (40, {low}, {low}, {low}, {low}, {low})")
        db.execute(f"INSERT INTO w VALUES (41, {high}, {high}, {high}, {high}, "
                   f"{high})")
    groups = {}
    for i, *row in db.execute("SELECT * FROM w").fetchall():
        groups.setdefault(tuple(row), []).append(i)
    got = db.execute("SELECT a, b, c, d, e, COUNT(*), SUM(i) FROM w "
                     "GROUP BY a, b, c, d, e").fetchall()
    assert got == [key + (len(ids), sum(ids)) for key, ids in groups.items()]
    assert refactorisations  # the branch ran
    db.close()


@pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
def test_a_low_composite_limit_gives_the_same_answers(monkeypatch, morsel_rows):
    """With the limit at 4, every third key — and every join pair after the
    first — re-factorises first; nothing else may change."""
    rows = [dict(zip(COLUMNS, values)) for values in (
        (1, "a", 0.0, True, b"x"), (2, "b", -0.0, False, b""),
        (1, "a", NAN, None, b"x"), (None, "zz", 1.5, True, None),
        (2, "b", 0.0, False, b""), (3, "", NAN, True, b"yz"),
        (1, "a", -0.0, True, b"x"), (None, None, None, None, None))]
    keys = ["ki", "s", "d", "b"]
    pairs = [("ki", "ki"), ("s", "s"), ("d", "d"), ("b", "b")]
    db = _database(morsel_rows, {"t": rows, "l": rows, "r": rows[::-1]})
    before = (_grouped(db, keys), _distinct(db, keys),
              db.execute(_join_sql(pairs, "LEFT JOIN")).fetchall())
    monkeypatch.setattr(operators, "_COMPOSITE_LIMIT", 4)
    after = (_grouped(db, keys), _distinct(db, keys),
             db.execute(_join_sql(pairs, "LEFT JOIN")).fetchall())
    assert before == after
    assert before[0] == _reference_groups(rows, keys)
    assert before[2] == _reference_join(rows, rows[::-1], pairs, True)
    db.close()


# --------------------------------------------------------------------------- #
# one NaN rule: each NaN is its own group, masked key or not
# --------------------------------------------------------------------------- #
def _nan_table(morsel_rows, nulls_first):
    """``x`` is never NULL; ``y`` equals it except where it is NULL (``x``
    holds 1e9 there): scattered NULLs, or NULLs only in the first morsels."""
    db = Database(morsel_rows=morsel_rows)
    db.execute("CREATE TABLE n (i INTEGER, x DOUBLE, y DOUBLE, s STRING)")
    rows = []
    for i in range(60):
        value = NAN if i % 4 == 0 else (-0.0, 0.0, 1.5)[i % 3]
        null = i < 7 if nulls_first else i % 5 == 1
        rows.append((i, 1e9 if null else value, None if null else value,
                     "ab"[i % 2]))
    db.storage.table("n").insert_rows(rows)
    nans = sum(1 for _, _, y, _ in rows if y is not None and y != y)
    return db, nans


@pytest.mark.parametrize("nulls_first", [False, True],
                         ids=["scattered_nulls", "nulls_first"])
@pytest.mark.parametrize("morsel_rows", [1, 7, 65_536])
def test_masked_and_unmasked_double_keys_group_alike(morsel_rows, nulls_first):
    db, nans = _nan_table(morsel_rows, nulls_first)

    def answer(sql, key):
        return [tuple(_exact(value) for value in row)
                for row in db.execute(sql.format(key=key)).fetchall()]

    for sql in ("SELECT COUNT(*), SUM(i), MIN(i) FROM n GROUP BY {key}",
                "SELECT COUNT(*), SUM(i), MIN(i) FROM n GROUP BY {key}, s",
                "SELECT COUNT(*) FROM (SELECT DISTINCT {key} FROM n) q",
                "SELECT COUNT(*) FROM (SELECT DISTINCT {key}, s FROM n) q"):
        assert answer(sql, "x") == answer(sql, "y"), sql
    # each NaN alone, -0.0 with 0.0, 1.5, and the NULL (or 1e9) group
    one_key = answer("SELECT COUNT(*) FROM n GROUP BY {key}", "y")
    assert len(one_key) == nans + 3
    assert answer("SELECT DISTINCT {key} FROM n", "y") == answer(
        "SELECT {key} FROM n GROUP BY {key}", "y")
    db.close()
