"""Morsel-boundary correctness: the morsel pipeline must match the
single-morsel engine exactly.

Every query shape that crosses morsel boundaries — joins (probe order,
LEFT-join unmatched rows), GROUP BY (first-appearance group order, partial
merge), DISTINCT, ORDER BY + LIMIT, NULL-heavy aggregates — is run over
morsel sizes {1, 7, 65536} and compared row-for-row against a single-morsel
reference.  The data uses exactly-representable
values (integers and quarters), so even float partials merge exactly.
"""

import pytest

from repro.sqldb.database import Database
from repro.sqldb.plan import split_morsels

ROWS = 211  # prime: morsel size 7 leaves a ragged final morsel


def populate(db: Database) -> None:
    db.execute(
        "CREATE TABLE t (k INTEGER, v DOUBLE, name STRING, nv DOUBLE)")
    table = db.storage.table("t")
    for i in range(ROWS):
        table.insert_row([
            i % 7,
            i * 0.25,
            f"cat_{i % 5}" if i % 11 else None,
            None if i % 3 == 0 else float(i % 13),
        ])
    db.execute("CREATE TABLE r (k INTEGER, w DOUBLE)")
    side = db.storage.table("r")
    for i in range(5):
        side.insert_row([i, i * 10.0])


QUERIES = [
    # scans / filters / projections
    "SELECT k, v FROM t WHERE v > 10",
    "SELECT k * 2 + 1, v / 2 FROM t WHERE k IN (1, 3, 5)",
    "SELECT UPPER(name) FROM t WHERE name LIKE 'cat_%'",
    "SELECT name || '!' FROM t WHERE k = 2 AND v > 40",
    "SELECT nv FROM t WHERE nv IS NULL",
    # joins (inner / left / cross), probe order and unmatched rows
    "SELECT t.k, r.w FROM t JOIN r ON t.k = r.k WHERE t.v < 20",
    "SELECT t.k, r.w FROM t LEFT JOIN r ON t.k = r.k WHERE t.v < 20",
    "SELECT COUNT(*) FROM t, r",
    "SELECT t.k, r.w FROM t JOIN r ON t.k < r.k WHERE t.v < 3",
    # GROUP BY: partial merge, group order, NULL keys, HAVING
    "SELECT k, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM t GROUP BY k",
    "SELECT name, COUNT(*), SUM(nv) FROM t GROUP BY name",
    "SELECT k, name, COUNT(*) FROM t GROUP BY k, name",
    "SELECT k + 1, SUM(v) / COUNT(*) FROM t GROUP BY k HAVING COUNT(*) > 20",
    "SELECT name, MIN(name), MAX(name) FROM t GROUP BY name",
    # implicit aggregation and NULL-heavy aggregates
    "SELECT SUM(nv), COUNT(nv), AVG(nv), MIN(nv), MAX(nv) FROM t",
    "SELECT COUNT(*) FROM t WHERE nv IS NULL",
    # sequential-only aggregates still split their scans
    "SELECT k, MEDIAN(v) FROM t GROUP BY k",
    "SELECT k, GROUP_CONCAT(name) FROM t WHERE v < 6 GROUP BY k",
    "SELECT COUNT(DISTINCT name) FROM t",
    # DISTINCT / ORDER BY / LIMIT-OFFSET breakers
    "SELECT DISTINCT k, name FROM t",
    "SELECT k, v FROM t ORDER BY v DESC, k LIMIT 7",
    "SELECT v FROM t ORDER BY k, v LIMIT 10 OFFSET 100",
    "SELECT v FROM t LIMIT 5 OFFSET 190",
    "SELECT k FROM t WHERE v > 1 LIMIT 4",
]


@pytest.fixture(scope="module")
def reference():
    db = Database()  # one morsel: the pre-pipeline code path
    populate(db)
    return {sql: db.execute(sql).fetchall() for sql in QUERIES}


@pytest.mark.parametrize("morsel_rows", [1, 7, 65536])
def test_results_match_sequential_engine(reference, morsel_rows):
    db = Database(morsel_rows=morsel_rows)
    populate(db)
    try:
        for sql in QUERIES:
            assert db.execute(sql).fetchall() == reference[sql], sql
    finally:
        db.close()


def test_streamed_pieces_match_sequential(reference):
    db = Database(morsel_rows=16)
    populate(db)
    try:
        for sql in ["SELECT k, v FROM t WHERE v > 10",
                    "SELECT v FROM t LIMIT 5 OFFSET 190"]:
            stream = db.execute_stream(sql, max_rows=16)
            rows = [row for piece in stream for row in piece.fetchall()]
            assert rows == reference[sql], sql
    finally:
        db.close()


def test_streamed_empty_result_keeps_schema():
    db = Database(morsel_rows=4)
    populate(db)
    try:
        pieces = list(db.execute_stream("SELECT k, v FROM t WHERE v < 0"))
        assert len(pieces) >= 1
        assert pieces[0].column_names == ["k", "v"]
        assert sum(piece.row_count for piece in pieces) == 0
    finally:
        db.close()


def test_aggregates_and_breakers_do_not_stream():
    db = Database(morsel_rows=4)
    populate(db)
    try:
        for sql in ["SELECT k, COUNT(*) FROM t GROUP BY k",
                    "SELECT DISTINCT k FROM t",
                    "SELECT k FROM t ORDER BY v LIMIT 2"]:
            outcome = db.execute_stream(sql)
            # non-streamable plans come back fully materialised
            assert outcome.fetchall() == db.execute(sql).fetchall()
    finally:
        db.close()


def test_udf_queries_stay_sequential_and_correct():
    """UDF invocation counts are observable: splitting into morsels must
    not change how often a scalar UDF runs (once per whole column)."""
    db = Database(morsel_rows=1)
    populate(db)
    try:
        db.execute(
            "CREATE FUNCTION double_it(x DOUBLE) RETURNS DOUBLE "
            "LANGUAGE PYTHON { return x * 2 }")
        db.udf_runtime.invocation_counts.clear()
        result = db.execute("SELECT double_it(v) FROM t WHERE k = 0")
        expected = [(i * 0.25 * 2,) for i in range(ROWS) if i % 7 == 0]
        assert result.fetchall() == expected
        assert db.udf_runtime.invocation_counts.get("double_it") == 1
    finally:
        db.close()


class TestMorselSplit:
    @pytest.mark.parametrize("rows, max_rows, expected", [
        (25, None, [(0, 10), (10, 20), (20, 25)]),
        (25, 4, [(0, 4), (4, 8), (8, 12), (12, 16), (16, 20), (20, 24),
                 (24, 25)]),                      # max_rows tighter
        (25, 1000, [(0, 10), (10, 20), (20, 25)]),  # max_rows looser
        (10, None, [(0, 10)]),                    # rows == step: one morsel
        (11, None, [(0, 10), (10, 11)]),
        (0, None, [(0, 0)]),                      # empty input: one empty morsel
        (0, 4, [(0, 0)]),
    ])
    def test_one_splitting_rule(self, rows, max_rows, expected):
        assert split_morsels(rows, 10, max_rows) == expected

    def test_split_covers_every_row_exactly_once(self):
        ranges = split_morsels(211, 7)
        assert ranges[0][0] == 0 and ranges[-1][1] == 211
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start


def test_nan_group_keys_across_morsels_match_one_morsel():
    """Each NaN key is a group of its own in every factoriser, so merging
    the morsels' partials gives the one-morsel answer."""
    # NULLs make the key a masked vector, factorised by np.unique
    rows = [(float("nan") if i % 4 == 0 else None if i % 5 == 1
             else float(i % 3), i) for i in range(40)]
    sql = "SELECT x, COUNT(*), SUM(i) FROM n GROUP BY x"
    answers = []
    for morsel_rows in (65_536, 7):
        db = Database(morsel_rows=morsel_rows)
        db.execute("CREATE TABLE n (x DOUBLE, i INTEGER)")
        db.storage.table("n").insert_rows(rows)
        answers.append(repr(db.execute(sql).fetchall()))
        assert db.execute(f"{sql} ORDER BY x").row_count > 0
        db.close()
    assert answers[0] == answers[1]
    assert "nan" in answers[0]
