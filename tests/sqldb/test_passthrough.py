"""Grouping and joins skip work whose result nobody reads, and it shows in
nothing but the time and the buffers they share.

* a sort layout is its geometry (``order`` / ``starts`` / ``out_perm``): the
  reduceat kernels never ask for per-row group ids, which are derived only
  when something does;
* the partial merge factorises the morsels' representative keys with the
  kernel a morsel uses, keys of mixed type falling back to the row dict;
* a WHERE that keeps every row of a morsel hands the morsel on unchanged,
  one that keeps one run of rows hands on a view of it, and only an
  interior cut copies — views stay read-only, to a UDF too;
* a join whose non-NULL build keys are distinct takes each found left row's
  one match directly, and a morsel whose every row matched passes through.

Every answer here must equal the pair-expanding probe's, the copying
filter's, or ``data/grouping_golden.jsonl``'s, recorded before these rules.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouping_golden import GOLDEN, answer, database
from repro.errors import ReproError
from repro.sqldb import Database
from repro.sqldb import operators
from repro.sqldb.aggregates import grouped_aggregate
from repro.sqldb.operators import _VectorEquiBuild, layout_from_sort_key
from repro.sqldb.types import SQLType
from repro.sqldb.vector import Vector


# --------------------------------------------------------------------------- #
# the sort layout: group ids on demand only
# --------------------------------------------------------------------------- #
@settings(derandomize=True, max_examples=150, deadline=None)
@given(keys=st.lists(st.integers(-3, 40) | st.integers(-2 ** 62, 2 ** 62),
                     min_size=1, max_size=200))
def test_group_ids_on_demand_are_first_appearance_numbers(keys):
    layout, first_rows, _ = layout_from_sort_key(np.array(keys), len(keys))
    numbering = {}
    expected = [numbering.setdefault(key, len(numbering)) for key in keys]
    assert layout.gids.tolist() == expected
    assert list(first_rows) == [keys.index(key) for key in numbering]


def test_the_reductions_never_build_group_ids():
    keys = np.array([3, 1, 3, 2, 1, 1, 7])
    layout, _, _ = layout_from_sort_key(keys, len(keys))
    values = Vector(np.arange(7.0), np.array([0, 0, 1, 0, 0, 0, 0], bool),
                    sql_type=SQLType.DOUBLE)
    for name in ("SUM", "AVG", "MIN", "MAX", "COUNT"):
        grouped_aggregate(name, values, layout)
    grouped_aggregate("COUNT", values, layout, is_star=True)
    assert layout._gids is None  # noqa: SLF001 - the point of the test


# --------------------------------------------------------------------------- #
# the partial merge
# --------------------------------------------------------------------------- #
@pytest.fixture()
def factorisations(monkeypatch):
    """``(type of the first key column, factoriser)`` per factorisation."""
    calls = []
    factorise = operators.layout_from_keys

    def recording(key_columns, row_count):
        layout, rep_indices, factoriser = factorise(key_columns, row_count)
        calls.append((type(key_columns[0]).__name__, factoriser))
        return layout, rep_indices, factoriser

    monkeypatch.setattr(operators, "layout_from_keys", recording)
    return calls


def test_a_typed_key_merges_through_the_sort_kernel(factorisations):
    db = Database(morsel_rows=100)
    db.execute("CREATE TABLE g (k INTEGER, s STRING)")
    db.storage.table("g").insert_rows((i % 37, f"s{i % 11}") for i in range(1_000))
    for key in ("k", "s", "k * 1000003"):
        factorisations.clear()
        db.execute(f"SELECT {key}, COUNT(*) FROM g GROUP BY {key}").fetchall()
        # ten morsels, then one merge over their representatives
        assert len(factorisations) == 11
        assert {kind for _, kind in factorisations} <= {"radix", "sort"}
    db.close()


MIXED = ("CASE WHEN id < 3000 THEN", "UPPER(name)")


def test_mixed_type_merge_keys_answer_as_recorded(factorisations):
    entries = [json.loads(line) for line in
               GOLDEN.read_text(encoding="utf-8").splitlines()]
    mixed = [entry for entry in entries
             if entry["morsel_rows"] == 1_024
             and any(marker in entry["sql"] for marker in MIXED)]
    assert len(mixed) == 5
    db = database(1_024)
    for entry in mixed:
        factorisations.clear()
        assert answer(db, entry["sql"]) == entry["expect"], entry["sql"]
        # the premise: the merge was handed the keys as one Python list
        assert factorisations[-1] == ("list", "hash"), entry["sql"]
    db.close()


# --------------------------------------------------------------------------- #
# the unique build: the same pairs without expansion
# --------------------------------------------------------------------------- #
def _expanded(build, left, left_mask):
    """The probe with the pair expansion every build took before."""
    unique, build.unique = build.unique, False
    try:
        return build.probe(left, left_mask)
    finally:
        build.unique = unique


@settings(derandomize=True, max_examples=300, deadline=None)
@given(right=st.lists(st.none() | st.integers(-5, 30), max_size=60),
       left=st.lists(st.none() | st.integers(-8, 33), max_size=120),
       wide=st.booleans())
def test_unique_and_duplicated_builds_give_the_expanded_pairs(right, left, wide):
    scale = 2 ** 40 if wide else 1  # wide: the searchsorted probe
    right_mask = np.array([key is None for key in right], bool)
    left_mask = np.array([key is None for key in left], bool)
    build = _VectorEquiBuild(
        np.array([0 if key is None else key * scale for key in right], np.int64),
        right_mask if right_mask.any() else None)
    present = [key for key in right if key is not None]
    assert build.unique == (len(set(present)) == len(present))
    left_data = np.array([0 if key is None else key * scale for key in left],
                         np.int64)
    got = build.probe(left_data, left_mask if left_mask.any() else None)
    expected = _expanded(build, left_data,
                         left_mask if left_mask.any() else None)
    for mine, theirs in zip(got, expected):
        assert mine.dtype == theirs.dtype
        assert np.array_equal(mine, theirs)


@pytest.fixture(scope="module")
def joins():
    db = Database(morsel_rows=4)
    db.execute("CREATE TABLE f (id INTEGER, k INTEGER, v DOUBLE)")
    db.execute("CREATE TABLE u (k INTEGER, w DOUBLE)")   # unique, NULL keys
    db.execute("CREATE TABLE p (k INTEGER, w DOUBLE)")   # unique, 0..3 only
    db.execute("CREATE TABLE d (k INTEGER, w DOUBLE)")   # duplicated
    db.storage.table("f").insert_rows(
        (i, None if i % 7 == 6 else i % 6, i * 0.5) for i in range(24))
    db.storage.table("u").insert_rows(
        [(None, -1.0)] + [(k, k + 0.25) for k in range(6)] + [(None, -2.0)])
    db.storage.table("p").insert_rows((k, k + 0.25) for k in range(4))
    db.storage.table("d").insert_rows((k % 6, k + 0.5) for k in range(12))
    yield db
    db.close()


def _reference(db, dim, left_join):
    fact = db.execute("SELECT id, k FROM f").fetchall()
    build = db.execute(f"SELECT k, w FROM {dim}").fetchall()
    matches, unmatched = [], []
    for i, key in fact:
        found = [w for k, w in build if key is not None and k == key]
        matches.extend((i, w) for w in found)
        if left_join and not found:
            unmatched.append((i, None))
    return matches + unmatched


@pytest.mark.parametrize("dim", ["u", "p", "d"])
@pytest.mark.parametrize("join", ["JOIN", "LEFT JOIN"])
def test_joins_answer_in_the_engine_order(joins, dim, join):
    sql = f"SELECT f.id, {dim}.w FROM f {join} {dim} ON f.k = {dim}.k"
    assert joins.execute(sql).fetchall() == _reference(
        joins, dim, join == "LEFT JOIN")


def test_a_left_join_with_every_row_matched(joins):
    sql = ("SELECT f.id, u.w FROM f LEFT JOIN u ON f.k = u.k "
           "WHERE f.k IS NOT NULL")
    rows = joins.execute(sql).fetchall()
    assert [i for i, _ in rows] == [i for i in range(24) if i % 7 != 6]
    assert all(w is not None for _, w in rows)


@pytest.mark.parametrize("dim, unique", [("u", True), ("p", True), ("d", False)])
def test_explain_analyze_names_the_unique_build(joins, dim, unique):
    sql = f"SELECT COUNT(*) FROM f JOIN {dim} ON f.k = {dim}.k"
    line = next(line for (line,) in joins.execute(
        f"EXPLAIN ANALYZE {sql}").fetchall() if "HashJoin" in line)
    suffix = " probe=direct build=unique]" if unique else " probe=direct]"
    assert line.split(" (actual")[0].endswith(suffix)
    plain = next(line for (line,) in joins.execute(f"EXPLAIN {sql}").fetchall()
                 if "HashJoin" in line)
    assert plain.endswith(f"ON (f.k = {dim}.k)]")


# --------------------------------------------------------------------------- #
# shared buffers, still read-only
# --------------------------------------------------------------------------- #
@pytest.fixture()
def served():
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER, k INTEGER, v DOUBLE)")
    db.execute("CREATE TABLE dim (k INTEGER, w DOUBLE)")
    db.storage.table("t").insert_rows((i, i % 5, i * 0.5) for i in range(50))
    db.storage.table("dim").insert_rows((k, k * 2.0) for k in range(5))
    yield db
    db.close()


def _stored(db, table, column):
    return db.storage.table(table).column(column).scan_values().data


@pytest.mark.parametrize("sql", [
    "SELECT id, v FROM t WHERE id >= 0",
    "SELECT t.id, t.v, dim.w FROM t JOIN dim ON t.k = dim.k WHERE t.id >= 0",
    "SELECT t.id, t.v, dim.w FROM t JOIN dim ON t.k = dim.k",
])
def test_kept_morsels_share_the_scan_buffers(served, sql):
    result = served.execute(sql)
    ids = result.columns[0].vector().data
    assert np.shares_memory(ids, _stored(served, "t", "id"))
    assert np.shares_memory(result.columns[1].vector().data,
                            _stored(served, "t", "v"))
    with pytest.raises(ValueError, match="read-only"):
        ids[0] = 7
    assert result.fetchall()[0][0] == 0


def _selection(db, sql):
    line = next(line for (line,) in db.execute(f"EXPLAIN ANALYZE {sql}").fetchall()
                if "Filter" in line)
    return line.split(" (actual")[0].rsplit(" selection=", 1)[1].rstrip("]")


@pytest.mark.parametrize("where, kept", [
    ("id >= 1", range(1, 50)),
    ("id < 49", range(0, 49)),
    ("id BETWEEN 3 AND 40", range(3, 41)),
    ("v >= 10.0 AND v < 12.0", range(20, 24)),
])
def test_a_front_or_back_cut_shares_the_scan_buffer(served, where, kept):
    result = served.execute(f"SELECT id, v FROM t WHERE {where}")
    ids = result.columns[0].vector().data
    assert np.shares_memory(ids, _stored(served, "t", "id"))
    assert np.shares_memory(result.columns[1].vector().data,
                            _stored(served, "t", "v"))
    with pytest.raises(ValueError, match="read-only"):
        ids[0] = 7
    assert [row[0] for row in result.fetchall()] == list(kept)
    assert _selection(served, f"SELECT id FROM t WHERE {where}") == "slice"


@pytest.mark.parametrize("where, kept", [
    ("id <> 7", [i for i in range(50) if i != 7]),
    ("id % 5 = 0", list(range(0, 50, 5))),
    ("id < 3 OR id > 46", [0, 1, 2, 47, 48, 49]),
])
def test_an_interior_cut_copies(served, where, kept):
    result = served.execute(f"SELECT id FROM t WHERE {where}")
    assert not np.shares_memory(result.columns[0].vector().data,
                                _stored(served, "t", "id"))
    assert [row[0] for row in result.fetchall()] == kept
    assert _selection(served, f"SELECT id FROM t WHERE {where}") == "gather"


def test_selection_is_counted_per_morsel():
    db = Database(morsel_rows=10)
    db.execute("CREATE TABLE t (id INTEGER)")
    db.storage.table("t").insert_rows((i,) for i in range(40))
    # morsel 0-9 is cut at the front, 10-19 kept whole, 20-29 cut inside,
    # 30-39 cut at the back
    sql = "SELECT id FROM t WHERE id >= 5 AND (id < 25 OR id >= 28) AND id < 36"
    assert _selection(db, sql) == "all:1,slice:2,gather:1"
    assert [row[0] for row in db.execute(sql).fetchall()] == \
        list(range(5, 25)) + list(range(28, 36))
    plain = next(line for (line,) in db.execute(f"EXPLAIN {sql}").fetchall()
                 if "Filter" in line)
    assert "selection=" not in plain
    db.close()


def test_a_udf_handed_a_sliced_input_cannot_write_it(served):
    served.execute("CREATE FUNCTION poke(x DOUBLE) RETURNS DOUBLE "
                   "LANGUAGE PYTHON { x[0] = -1.0; return x }")
    served.execute("CREATE FUNCTION peek(x DOUBLE) RETURNS BOOLEAN "
                   "LANGUAGE PYTHON { return not x.flags.writeable }")
    sql = "SELECT {} FROM t WHERE id >= 10"
    assert _selection(served, sql.format("id")) == "slice"
    assert served.execute(sql.format("peek(v)")).scalar() is True
    with pytest.raises(ReproError, match="read-only"):
        served.execute(sql.format("poke(v)"))
    assert served.execute("SELECT v FROM t WHERE id = 10").scalar() == 5.0


def test_a_partly_matched_unique_join_gathers(served):
    served.execute("DELETE FROM dim WHERE k = 3")
    result = served.execute("SELECT t.id FROM t JOIN dim ON t.k = dim.k")
    assert not np.shares_memory(result.columns[0].vector().data,
                                _stored(served, "t", "id"))
    assert [row[0] for row in result.fetchall()] == [
        i for i in range(50) if i % 5 != 3]
