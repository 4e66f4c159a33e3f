"""Configuration invariance: at a fixed ``morsel_rows`` a statement's answer
does not depend on which door it came in by.

``plan.split_morsels`` is the one splitting rule — it looks at the row
count and ``morsel_rows`` only — so a timeout, streaming, the wire and
PREPARE/EXECUTE may change *when* morsels run but never which rows are
combined in which order.  Results are therefore compared
with ``==``, floats included: no tolerance.
"""

import math
import re

import numpy as np
import pytest

from repro.netproto.client import Connection
from repro.netproto.server import DatabaseServer
from repro.sqldb import Database
from repro.sqldb.result import QueryResult

MORSEL_ROWS = 4096
ROWS = 10_000          # three morsels
DIM_ROWS = 40          # keys 0..39; the fact table's keys run to 49 (+ NULL)

#: (template with ``?`` placeholders, arguments)
STATEMENTS = [
    ("SELECT k, SUM(v / 3), AVG(v / 7), MIN(v), MAX(v), COUNT(*), COUNT(k) "
     "FROM t GROUP BY k", []),
    ("SELECT SUM(v / 3), AVG(v / 7), MIN(v), MAX(v), COUNT(*) FROM t", []),
    ("SELECT s, SUM(v * 1.1), COUNT(*) FROM t WHERE v > ? GROUP BY s", [12.5]),
    ("SELECT d.label, SUM(t.v / 3), COUNT(*) FROM t JOIN d ON t.k = d.k "
     "WHERE t.v < ? GROUP BY d.label", [25.25]),
    ("SELECT t.i, t.k, d.label FROM t LEFT JOIN d ON t.k = d.k "
     "WHERE t.i < ?", [9000]),
    # OFFSET..LIMIT straddles the first morsel boundary of the filtered rows
    ("SELECT i, v / 3, s FROM t WHERE v > ? LIMIT 500 OFFSET 3300", [5.0]),
    ("SELECT i, v FROM t WHERE k = ? ORDER BY v DESC, i LIMIT 50", [7]),
    ("SELECT k, AVG(v / 7) FROM t GROUP BY k ORDER BY k", []),
    ("SELECT DISTINCT k, s FROM t WHERE i > ?", [100]),
    ("SELECT s, MEDIAN(v) FROM t GROUP BY s", []),
    ("SELECT k, SUM(v / 3) FROM t GROUP BY k HAVING COUNT(*) > ?", [200]),
    # LEFT JOIN: the unmatched rows (keys 40..49 and NULL) are flushed after
    # the last morsel as all-NULL typed columns — grouped, filtered on, and
    # probed by a second join
    ("SELECT d.label, COUNT(*), COUNT(d.k), SUM(t.v / 3) FROM t "
     "LEFT JOIN d ON t.k = d.k GROUP BY d.label", []),
    ("SELECT t.i, t.k FROM t LEFT JOIN d ON t.k = d.k "
     "WHERE d.k IS NULL AND t.i > ?", [8000]),
    ("SELECT t.i, d.label, e.label, e.k FROM t LEFT JOIN d ON t.k = d.k "
     "LEFT JOIN d AS e ON d.k = e.k WHERE t.i < ?", [600]),
    # neighbours that differ only inside a literal: no door may take one for
    # the other (plan-cache key, PREPARE key, result-cache key)
    ("SELECT i, s || ' ;' FROM t WHERE i < ?", [60]),
    ("SELECT i, s || '  ' FROM t WHERE i < ?", [60]),
]


def _literal(template, args):
    return template.replace("?", "{}").format(*args)


def _make_database():
    db = Database(morsel_rows=MORSEL_ROWS)
    db.execute("CREATE TABLE t (i INTEGER, k INTEGER, v DOUBLE, s STRING)")
    db.execute("CREATE TABLE d (k INTEGER, label STRING)")
    rng = np.random.default_rng(18)
    keys = [None if key == 50 else key
            for key in rng.integers(0, 51, ROWS).tolist()]
    measures = (rng.random(ROWS) * 100 / 3).tolist()   # non-dyadic, < 33.4
    strings = [f"s{code}" for code in rng.integers(0, 12, ROWS).tolist()]
    db.storage.table("t").insert_rows(
        zip(range(ROWS), keys, measures, strings))
    db.storage.table("d").insert_rows(
        (key, f"label{key % 9}") for key in range(DIM_ROWS))
    for index, (template, _) in enumerate(STATEMENTS):
        db.execute(f"PREPARE q{index} AS {template}")
    return db


def _drain(outcome):
    if isinstance(outcome, QueryResult):
        return outcome.fetchall()
    return [row for piece in outcome for row in piece.fetchall()]


def _argument_list(args):
    return f"({', '.join(map(str, args))})" if args else ""


@pytest.fixture(scope="module")
def doors():
    """Every way into one database: ``{door: (run literal, run prepared)}``."""
    db = _make_database()
    connection = Connection.connect_in_process(DatabaseServer(db))
    handles = {index: connection.prepare(f"w{index}", template)
               for index, (template, _) in enumerate(STATEMENTS)}
    yield {
        "execute": (
            lambda i, sql, args: db.execute(sql).fetchall(),
            lambda i, sql, args: db.execute(
                f"EXECUTE q{i} {_argument_list(args)}").fetchall()),
        "execute_timeout": (
            lambda i, sql, args: db.execute(sql, timeout=60).fetchall(),
            lambda i, sql, args: db.execute_prepared(
                f"q{i}", args, timeout=60).fetchall()),
        "execute_stream": (
            lambda i, sql, args: _drain(db.execute_stream(sql)),
            lambda i, sql, args: _drain(db.execute_stream(
                f"EXECUTE q{i} {_argument_list(args)}"))),
        "wire": (
            lambda i, sql, args: connection.execute(sql).fetchall(),
            lambda i, sql, args: handles[i].execute(args).fetchall()),
    }
    connection.close()
    db.close()


@pytest.fixture(scope="module")
def reference():
    """The answers of the plainest configuration: ``execute``."""
    db = _make_database()
    answers = [db.execute(_literal(template, args)).fetchall()
               for template, args in STATEMENTS]
    db.close()
    assert all(answers), "every statement must select something"
    return answers


@pytest.mark.parametrize("form", ["literal", "prepared"])
@pytest.mark.parametrize(
    "door", ["execute", "execute_timeout", "execute_stream", "wire"])
def test_answer_is_identical_through_every_door(doors, reference, door, form):
    run = doors[door][form == "prepared"]
    for index, (template, args) in enumerate(STATEMENTS):
        rows = run(index, _literal(template, args), args)
        assert rows == reference[index], (door, form, template)


def test_a_literal_is_part_of_the_statement(reference):
    # the premise of the last two statements: had the reference run taken the
    # second for the first, every door would agree with it and prove nothing
    semicolon, blanks = reference[-2], reference[-1]
    assert len(semicolon) == len(blanks) == 60
    assert all(value.endswith(" ;") for _, value in semicolon)
    assert all(value.endswith("  ") for _, value in blanks)


def _scan_line(plan):
    return next(line for (line,) in plan if "Scan t" in line)


def test_the_table_spans_several_morsels_and_groups_merge_partials():
    # guards the premise: were the table to fit one morsel, every door would
    # trivially agree and the tests above would prove nothing
    db = _make_database()
    plan = db.execute(f"EXPLAIN ANALYZE {STATEMENTS[0][0]}").fetchall()
    assert "batches=3" in _scan_line(plan)
    aggregate = next(line for (line,) in plan if "HashAggregate" in line)
    assert "batches=3" in aggregate  # one partial state per morsel
    db.close()


#: GROUP BY keys on both sides of the factorisation rule (a key spanning at
#: most 65,536 values is sorted by counting, a wider one by comparison); the
#: measures are integers, so the answers are exact at every morsel size and
#: are compared across ``morsel_rows`` too
GROUPING_STATEMENTS = [
    f"SELECT {key}, COUNT(*), SUM(i), MIN(i), MAX(i) FROM g GROUP BY {key}"
    for key in ("w16", "w17", "neg", "small", "s")
]
GROUPING_ROWS = 3_000


def _grouping_rows():
    """``(i, w16, w17, neg, small, s, n)``: ``w16`` spans exactly 65,536
    values, ``w17`` 65,537, ``neg`` is negative, ``small`` a nullable
    41-value key, ``s`` a dictionary with NULLs, ``n`` a DOUBLE holding NaN
    (every 97th row), ``-0.0`` beside ``0.0`` and NULL wherever ``small``
    is.  Rows ``i % 7 in (0, 1)`` carry each key's two ends, so every
    morsel spans the whole range."""
    rng = np.random.default_rng(25)
    rows = []
    for i in range(GROUPING_ROWS):
        end = i % 7
        w16 = (1_000, 66_535)[end] if end < 2 else int(rng.integers(1_000, 66_535))
        w17 = (1_000, 66_536)[end] if end < 2 else int(rng.integers(1_000, 66_536))
        neg = (-70_000, -69_000)[end] if end < 2 else int(rng.integers(-70_000, -69_000))
        small = None if i % 10 == 3 else i % 41
        s = None if i % 9 == 4 else f"s{i % 23}"
        n = (None if small is None else math.nan if i % 97 == 50
             else -0.0 if i % 5 == 0 else 0.0 if i % 5 == 1
             else (i % 17) * 0.5)
        rows.append((i, w16, w17, neg, small, s, n))
    return rows


@pytest.fixture(scope="module")
def grouping_reference():
    """Every grouping statement's answer from a Python dict, groups in
    first-appearance order (the engine's order at every setting)."""
    answers = []
    for key in range(1, 6):
        groups = {}
        for row in _grouping_rows():
            groups.setdefault(row[key], []).append(row[0])
        answers.append([(value, len(ids), sum(ids), min(ids), max(ids))
                        for value, ids in groups.items()])
    return answers


def _grouping_database(morsel_rows):
    db = Database(morsel_rows=morsel_rows)
    db.execute("CREATE TABLE g (i INTEGER, w16 INTEGER, w17 INTEGER, "
               "neg INTEGER, small INTEGER, s STRING, n DOUBLE)")
    db.storage.table("g").insert_rows(_grouping_rows())
    return db


@pytest.mark.parametrize("morsel_rows", [7, 1_024, 65_536])
def test_grouping_answer_is_identical_across_morsel_rows(
        grouping_reference, morsel_rows):
    db = _grouping_database(morsel_rows)
    for sql, expected in zip(GROUPING_STATEMENTS, grouping_reference):
        assert db.execute(sql).fetchall() == expected, sql
    db.close()


#: MIN / MAX over a DOUBLE with NaN rows: a group holding a NaN answers NaN
#: (one reduction over its rows propagates it) at every morsel size
NAN_STATEMENT = "SELECT small, COUNT(n), MIN(n), MAX(n) FROM g GROUP BY small"


def _nan_as_text(rows):
    """``==`` cannot see two NaNs as equal; compare them as text."""
    return [tuple("NaN" if isinstance(value, float) and math.isnan(value)
                  else value for value in row) for row in rows]


@pytest.mark.parametrize("morsel_rows", [7, 1_024, 65_536])
def test_nan_min_max_is_identical_across_morsel_rows(morsel_rows):
    groups, late_nan = {}, set()
    for row in _grouping_rows():
        groups.setdefault(row[4], []).append(row[6])
        if row[0] >= 1_024 and row[6] is not None and math.isnan(row[6]):
            late_nan.add(row[4])
    expected = []
    for key, values in groups.items():
        present = [value for value in values if value is not None]
        nan = any(math.isnan(value) for value in present)
        expected.append((key, len(present),
                         math.nan if nan else min(present, default=None),
                         math.nan if nan else max(present, default=None)))
    # the premise: groups (all of which begin in the first 1,024 rows) meet
    # a NaN in a later morsel, and the NULL key's group holds no value
    assert late_nan and groups[None] == [None] * len(groups[None])
    db = _grouping_database(morsel_rows)
    assert _nan_as_text(db.execute(NAN_STATEMENT).fetchall()) \
        == _nan_as_text(expected)
    db.close()


@pytest.mark.parametrize("morsel_rows", [7, 1_024, 65_536])
def test_every_morsel_of_w16_and_w17_falls_on_its_side_of_the_rule(morsel_rows):
    # guards the premise: were a morsel to miss a key's ends, both keys could
    # take the same sort and the answers above would prove nothing
    db = _grouping_database(morsel_rows)
    for sql, grouping in zip(GROUPING_STATEMENTS, ("radix", "sort")):
        plan = db.execute(f"EXPLAIN ANALYZE {sql}").fetchall()
        aggregate = next(line for (line,) in plan if "HashAggregate" in line)
        assert f"grouping={grouping}]" in aggregate
    db.close()


@pytest.mark.parametrize("timeout", [None, 60])
def test_explain_estimate_equals_analyze_actual(timeout):
    db = _make_database()
    for template, args in STATEMENTS:
        if "OFFSET" in template:
            continue  # a satisfied LIMIT legitimately stops scanning early
        sql = _literal(template, args)
        estimate = db.execute(f"EXPLAIN {sql}", timeout=timeout).fetchall()
        actual = db.execute(f"EXPLAIN ANALYZE {sql}",
                            timeout=timeout).fetchall()
        morsels = re.search(r"morsels=(\d+)", _scan_line(estimate))
        batches = re.search(r"batches=(\d+)", _scan_line(actual))
        assert morsels and batches, sql
        assert morsels.group(1) == batches.group(1) == "3", sql
    db.close()


#: equi-joins on both sides of the probe rule (a build key spanning at most
#: max(65,536, 2 x build rows) values is probed by direct address, a wider one
#: by ``np.searchsorted``): ``j16``'s keys span exactly 65,536 values,
#: ``j17``'s 65,537; both hold duplicate keys and a NULL key
JOIN_STATEMENTS = [
    sql.format(dim=dim)
    for dim in ("j16", "j17")
    for sql in (
        "SELECT jf.i, d.tag FROM jf JOIN {dim} d ON jf.k = d.k",
        "SELECT jf.i, d.tag FROM jf LEFT JOIN {dim} d ON jf.k = d.k",
        "SELECT d.tag, COUNT(*), SUM(jf.i) FROM jf LEFT JOIN {dim} d "
        "ON jf.k = d.k GROUP BY d.tag",
    )
]
JOIN_ROWS = 3_000


def _join_tables():
    """``(jf, {dim: rows})``: 300-row builds over 120 distinct keys each,
    ends first; probe keys hit both builds, miss inside and outside their
    ranges, and are NULL."""
    rng = np.random.default_rng(26)
    dims = {}
    for dim, top in (("j16", 66_535), ("j17", 66_536)):
        keys = [1_000, top] + rng.integers(1_001, top, 118).tolist()
        picks = [keys[0], keys[1]] + [keys[j] for j in rng.integers(0, 120, 297)]
        dims[dim] = [(key, f"t{j % 13}") for j, key in enumerate(picks)]
        dims[dim].append((None, "none"))
    pool = [key for rows in dims.values() for key, _ in rows]
    pool += [999, 66_537, 5_000, -1, None]
    facts = [(i, pool[j]) for i, j in enumerate(rng.integers(0, len(pool), JOIN_ROWS))]
    return facts, dims


@pytest.fixture(scope="module")
def join_reference():
    """Each statement's answer in the engine's order: left rows ascending,
    a key's build rows in row order, LEFT-join rows without a match last;
    groups in first-appearance order over that stream."""
    facts, dims = _join_tables()
    answers = []
    for dim, rows in dims.items():
        matches, unmatched = [], []
        for i, k in facts:
            tags = [tag for key, tag in rows if k is not None and key == k]
            matches.extend((i, tag) for tag in tags)
            if not tags:
                unmatched.append((i, None))
        groups = {}
        for i, tag in matches + unmatched:
            groups.setdefault(tag, []).append(i)
        answers += [matches, matches + unmatched,
                    [(tag, len(ids), sum(ids)) for tag, ids in groups.items()]]
    return answers


def _join_database(morsel_rows):
    db = Database(morsel_rows=morsel_rows)
    facts, dims = _join_tables()
    db.execute("CREATE TABLE jf (i INTEGER, k INTEGER)")
    db.storage.table("jf").insert_rows(facts)
    for dim, rows in dims.items():
        db.execute(f"CREATE TABLE {dim} (k INTEGER, tag STRING)")
        db.storage.table(dim).insert_rows(rows)
    return db


@pytest.mark.parametrize("morsel_rows", [7, 1_024, 65_536])
def test_join_answer_is_identical_across_morsel_rows(
        join_reference, morsel_rows):
    db = _join_database(morsel_rows)
    for sql, expected in zip(JOIN_STATEMENTS, join_reference):
        assert db.execute(sql).fetchall() == expected, sql
    db.close()


def test_j16_and_j17_fall_on_their_sides_of_the_probe_rule():
    # guards the premise: were both builds probed alike, the answers above
    # would prove nothing about the rule
    db = _join_database(1_024)
    for sql in JOIN_STATEMENTS:
        plan = db.execute(f"EXPLAIN ANALYZE {sql}").fetchall()
        join = next(line for (line,) in plan if "HashJoin" in line)
        assert f"probe={'direct' if 'j16' in sql else 'sorted'}]" in join, sql
    db.close()
