"""Equi-joins on small-range keys probe by direct address, and it shows in
nothing but the time.

``_VectorEquiBuild`` maps an integer key whose distinct values span at most
``max(65,536, 2 × build rows)`` values to a table ``slots[key - low]`` holding
the key's position among the sorted distinct keys — the position
``np.searchsorted`` finds — so both probes hand the unchanged gather the same
positions.  The property below pins that equality on the probe's whole
output; the work-counting guards record what ``np.searchsorted``, the pair
expansion's ``np.repeat`` and the join's gather were handed, never how long
they took.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sqldb import Database
from repro.sqldb.operators import HashJoin, _VectorEquiBuild

INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1


def _bound(build_rows):
    """The widest span (in values) the direct-address probe takes."""
    return max(65_536, 2 * build_rows)


def _int64(values):
    return np.array([min(max(v, INT64_MIN), INT64_MAX) for v in values],
                    dtype=np.int64)


def _mask(rng, length, share):
    return None if share is None else rng.random(length) < share


def _probes(build, left, left_mask):
    """``(direct, sorted)`` outputs of one build probed both ways."""
    direct = build.probe(left, left_mask)
    slots, build.slots = build.slots, None
    try:
        by_search = build.probe(left, left_mask)
    finally:
        build.slots = slots
    return direct, by_search


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rows=st.one_of(st.sampled_from([1, 2, 500]), st.integers(0, 120)),
       low=st.one_of(st.sampled_from([INT64_MIN, -70_000, -1, 0, 3]),
                     st.integers(INT64_MIN, INT64_MAX)),
       span=st.one_of(st.sampled_from(["bound", "bound+1", 1, 2, 7]),
                      st.integers(1, 200_000)),
       distinct=st.sampled_from([1, 3, None]),
       right_nulls=st.sampled_from([None, 0.0, 0.3]),
       left_nulls=st.sampled_from([None, 0.0, 0.3]),
       left_rows=st.integers(0, 300),
       seed=st.integers(0, 2 ** 32 - 1))
# spans at the bound and one past it, with both ends present
@example(rows=500, low=-5, span="bound", distinct=None, right_nulls=None,
         left_nulls=None, left_rows=300, seed=1)
@example(rows=500, low=-5, span="bound+1", distinct=None, right_nulls=None,
         left_nulls=None, left_rows=300, seed=2)
@example(rows=40_000, low=0, span="bound", distinct=None, right_nulls=0.0,
         left_nulls=0.0, left_rows=300, seed=3)
# keys at the int64 extremes: the range test must come before subtracting
@example(rows=50, low=INT64_MAX - 10, span=11, distinct=None,
         right_nulls=None, left_nulls=None, left_rows=300, seed=4)
@example(rows=50, low=INT64_MIN, span=11, distinct=None, right_nulls=0.3,
         left_nulls=0.3, left_rows=300, seed=5)
def test_direct_probe_equals_the_searchsorted_probe(
        rows, low, span, distinct, right_nulls, left_nulls, left_rows, seed):
    rng = np.random.default_rng(seed)
    span = {"bound": _bound(rows), "bound+1": _bound(rows) + 1}.get(span, span)
    low = min(low, INT64_MAX - span + 1)
    high = low + span - 1
    offsets = rng.integers(0, span, rows).tolist()
    if distinct is not None:  # duplicate build keys
        offsets = [offset % distinct for offset in offsets]
    if rows >= 2:
        offsets[0], offsets[-1] = 0, span - 1
    right = _int64(low + offset for offset in offsets)
    right_mask = _mask(rng, rows, right_nulls)
    # probe keys: build keys, gaps inside the range, both sides of it and
    # the int64 extremes
    pool = right.tolist() + [low - 1, low, high, high + 1, low + span // 2,
                             INT64_MIN, INT64_MAX, 0]
    left = _int64(pool[i] for i in rng.integers(0, len(pool), left_rows))
    left_mask = _mask(rng, left_rows, left_nulls)

    build = _VectorEquiBuild(right, right_mask)
    valid = right if right_mask is None else right[~right_mask]
    small = valid.size and int(valid.max()) - int(valid.min()) < _bound(rows)
    assert build.kind == ("direct" if small else "sorted")
    direct, by_search = _probes(build, left, left_mask)
    for got, expected in zip(direct, by_search):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


# --------------------------------------------------------------------------- #
# through the engine: dictionary codes, NULL keys, LEFT JOIN
# --------------------------------------------------------------------------- #
def _reference(left_rows, right_rows, key, left_join):
    """Pairs in the engine's order: left rows ascending, each key's build
    rows in row order; LEFT-join rows without a match after every match."""
    matches, unmatched = [], []
    for i, *left in left_rows:
        value = left[key]
        found = [j for j, *right in right_rows
                 if value is not None and right[key] == value]
        matches.extend((i, j) for j in found)
        if not found and left_join:
            unmatched.append((i, None))
    return matches + unmatched


KEYS = st.one_of(st.none(), st.integers(-3, 12))
STRINGS = st.one_of(st.none(), st.sampled_from(["", "a", "b", "c", "zz"]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(left=st.lists(st.tuples(KEYS, STRINGS), max_size=40),
       right=st.lists(st.tuples(KEYS, STRINGS), max_size=25),
       morsel_rows=st.sampled_from([3, 65_536]))
def test_engine_joins_match_the_reference_and_the_sorted_probe(
        left, right, morsel_rows):
    left_rows = [(i, *row) for i, row in enumerate(left)]
    right_rows = [(j, *row) for j, row in enumerate(right)]
    answers = {}
    for probe in ("direct", "sorted"):
        with pytest.MonkeyPatch.context() as patch:
            if probe == "sorted":  # every build onto np.searchsorted
                init = _VectorEquiBuild.__init__

                def sorted_only(self, *args):
                    init(self, *args)
                    self.slots, self.kind = None, "sorted"
                patch.setattr(_VectorEquiBuild, "__init__", sorted_only)
            db = Database(morsel_rows=morsel_rows)
            db.execute("CREATE TABLE l (i INTEGER, k INTEGER, s STRING)")
            db.execute("CREATE TABLE r (j INTEGER, k INTEGER, s STRING)")
            db.storage.table("l").insert_rows(left_rows)
            db.storage.table("r").insert_rows(right_rows)
            for column in ("k", "s"):
                for join in ("JOIN", "LEFT JOIN"):
                    sql = (f"SELECT l.i, r.j FROM l {join} r "
                           f"ON l.{column} = r.{column}")
                    answers[probe, sql] = db.execute(sql).fetchall()
                    expected = _reference(left_rows, right_rows,
                                          ("k", "s").index(column),
                                          join == "LEFT JOIN")
                    assert answers[probe, sql] == expected, (probe, sql)
            db.close()
    for (probe, sql), rows in answers.items():
        assert rows == answers["sorted", sql]


# --------------------------------------------------------------------------- #
# what sql_serve's join hands np.searchsorted and the gather
# --------------------------------------------------------------------------- #
FACT_ROWS = 3_000
DIM_ROWS = 500
JOIN_SQL = ("SELECT d.label, COUNT(*), SUM(f.v * d.w) FROM facts f "
            "JOIN dim d ON f.k = d.k WHERE f.id >= 5 GROUP BY d.label")


def _serving_database(morsel_rows, dim_keys):
    """``sql_serve``'s two tables at a small size (``v`` and ``w`` are
    multiples of 0.25 and 0.5, so every sum is exact in any order)."""
    db = Database(morsel_rows=morsel_rows)
    db.execute("CREATE TABLE facts (id INTEGER, k INTEGER, v DOUBLE, "
               "name STRING, nv DOUBLE)")
    db.execute("CREATE TABLE dim (k INTEGER, w DOUBLE, label STRING)")
    rng = np.random.default_rng(26)
    picks = rng.integers(0, DIM_ROWS, FACT_ROWS).tolist()
    db.storage.table("facts").insert_rows(
        (i, dim_keys[pick], i * 0.25, f"n{i % 200:03d}", None if i % 10 else 0.5)
        for i, pick in enumerate(picks))
    db.storage.table("dim").insert_rows(
        (key, (j % 8 + 1) * 0.5, f"d{j % 7}") for j, key in enumerate(dim_keys))
    expected = {}
    for i, pick in enumerate(picks):
        if i >= 5:
            count, total = expected.get(f"d{pick % 7}", (0, 0.0))
            expected[f"d{pick % 7}"] = (count + 1,
                                        total + i * 0.25 * (pick % 8 + 1) * 0.5)
    return db, expected


@pytest.fixture()
def probe_searches(monkeypatch):
    """Lengths of the arrays a join probe's key lookup
    (``_VectorEquiBuild.positions``) hands ``np.searchsorted``."""
    calls = []
    searchsorted = np.searchsorted

    def counting(keys, values, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "positions":
            calls.append(len(values))
        return searchsorted(keys, values, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    return calls


@pytest.fixture()
def gathered(monkeypatch):
    """Column counts of every batch the join's match gather builds."""
    counts = []
    gather = HashJoin._gather_matches

    def counting(self, *args):
        batch = gather(self, *args)
        counts.append(len(batch.columns))
        return batch

    monkeypatch.setattr(HashJoin, "_gather_matches", counting)
    return counts


@pytest.fixture()
def pair_expansions(monkeypatch):
    """Lengths of the arrays a build's ``probe`` hands ``np.repeat``: its
    pair expansion, which a unique build skips."""
    calls = []
    repeat = np.repeat

    def counting(values, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "probe":
            calls.append(len(values))
        return repeat(values, *args, **kwargs)

    monkeypatch.setattr(np, "repeat", counting)
    return calls


@pytest.mark.parametrize("morsel_rows", [7, 65_536])
def test_the_serving_join_never_searches_and_gathers_six_columns(
        probe_searches, gathered, pair_expansions, morsel_rows):
    db, expected = _serving_database(morsel_rows, list(range(DIM_ROWS)))
    rows = db.execute(JOIN_SQL).fetchall()
    assert {label: (count, total) for label, count, total in rows} == expected
    assert probe_searches == []
    # dim's keys are unique: each found row's one match is taken directly
    assert pair_expansions == []
    # facts' id, k, v beside dim's k, w, label — not all eight columns
    assert gathered and set(gathered) == {6}
    db.close()


def test_a_repeated_build_key_expands_pairs(pair_expansions):
    db, _ = _serving_database(65_536, list(range(DIM_ROWS)))
    db.execute("INSERT INTO dim VALUES (3, 1.0, 'd9')")
    count, = db.execute("SELECT COUNT(*) FROM facts f JOIN dim d "
                        "ON f.k = d.k").fetchone()
    assert count > FACT_ROWS
    assert pair_expansions
    db.close()


def test_a_key_spanning_2_to_the_20_still_searches(probe_searches):
    keys = list(range(DIM_ROWS - 1)) + [2 ** 20 - 1]
    db, expected = _serving_database(65_536, keys)
    rows = db.execute(JOIN_SQL).fetchall()
    assert {label: (count, total) for label, count, total in rows} == expected
    assert probe_searches == [FACT_ROWS]
    db.close()


# --------------------------------------------------------------------------- #
# EXPLAIN ANALYZE names the probe; plain EXPLAIN does not
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def joined():
    db = Database(morsel_rows=40)
    db.execute("CREATE TABLE l (k INTEGER, x DOUBLE, s STRING)")
    db.execute("CREATE TABLE r (k INTEGER, wide INTEGER, x DOUBLE, s STRING)")
    db.storage.table("l").insert_rows((i % 9, i * 0.5, f"s{i % 4}")
                                      for i in range(100))
    db.storage.table("r").insert_rows((i, i * 2 ** 20, i * 0.5, f"s{i}")
                                      for i in range(9))
    yield db
    db.close()


def _join_line(db, sql):
    return next(line for (line,) in db.execute(sql).fetchall()
                if line.lstrip().startswith("HashJoin"))


@pytest.mark.parametrize("condition, probe", [
    ("l.k = r.k", "direct"),              # integers spanning 9 values
    ("l.s = r.s", "direct"),              # shared dictionary codes
    ("l.k = r.wide", "sorted"),           # 9 keys spanning 2^23 values
    ("l.x = r.x", "sorted"),              # doubles
    ("l.k = r.k AND l.s = r.s", "direct"),  # two keys: 9 x 9 composite codes
    ("l.k = r.k AND l.x = r.s", "hash"),  # a double against a string: row tuples
])
def test_explain_analyze_names_the_probe(joined, condition, probe):
    sql = f"SELECT COUNT(*) FROM l JOIN r ON {condition}"
    line = _join_line(joined, f"EXPLAIN ANALYZE {sql}")
    # no key of r repeats, so every typed build is unique
    unique = "" if probe == "hash" else " build=unique"
    assert f" probe={probe}{unique}]" in line
    plain = _join_line(joined, f"EXPLAIN {sql}")
    assert "probe=" not in plain and "build=" not in plain
