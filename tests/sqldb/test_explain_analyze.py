"""EXPLAIN ANALYZE: instrumented execution with per-operator actuals.

The annotations must be *correct*, not just present: in one morsel the
recorded rows match the sequential whole-batch execution exactly, and over
several the per-morsel samples must merge to the same row totals with the
batch count equal to the number of morsels.
"""

import re

import pytest

from repro.errors import QueryCancelledError
from repro.sqldb import Database
from repro.sqldb.context import QueryContext


def _make_db(**kwargs):
    db = Database(**kwargs)
    db.execute("CREATE TABLE t (i INTEGER, v DOUBLE, s VARCHAR)")
    values = ", ".join(f"({i}, {i * 0.5}, 'k{i % 7}')" for i in range(400))
    db.execute(f"INSERT INTO t VALUES {values}")
    return db


def _analyze_lines(db, sql):
    result = db.execute(f"EXPLAIN ANALYZE {sql}")
    assert result.statement_type == "EXPLAIN ANALYZE"
    column = result.columns[0]
    assert column.name == "plan"
    return [str(value) for value in column.values]


_ACTUAL = re.compile(
    r"\(actual rows=(\d+) batches=(\d+) time=([0-9.]+)ms\)")


def _actuals(lines):
    """Map operator-line prefix -> (rows, batches) for annotated lines."""
    out = {}
    for line in lines:
        match = _ACTUAL.search(line)
        if match:
            prefix = line[:match.start()].strip()
            out[prefix] = (int(match.group(1)), int(match.group(2)))
    return out


class TestExplainAnalyzeSequential:
    def test_scan_filter_project_actuals(self):
        db = _make_db()
        lines = _analyze_lines(db, "SELECT i, v FROM t WHERE v > 100")
        actuals = _actuals(lines)
        # 400 rows scanned; v > 100 keeps i in 201..399 => 199 rows
        by_op = {name.split(" ")[0]: counts
                 for name, counts in actuals.items()}
        assert by_op["Scan"] == (400, 1)
        assert by_op["Filter"] == (199, 1)
        assert by_op["Project"] == (199, 1)

    def test_total_time_footer(self):
        db = _make_db()
        lines = _analyze_lines(db, "SELECT i FROM t")
        assert lines[-1].startswith("-- morsel_rows=65536 parallel_safe=yes")
        assert "total_time=" in lines[-1]

    def test_aggregate_actual_rows(self):
        db = _make_db()
        lines = _analyze_lines(
            db, "SELECT s, COUNT(*) FROM t GROUP BY s")
        actuals = _actuals(lines)
        agg = next(counts for name, counts in actuals.items()
                   if name.startswith("HashAggregate"))
        assert agg == (7, 1)  # 7 groups, one sequential batch

    def test_time_is_nonnegative(self):
        db = _make_db()
        lines = _analyze_lines(db, "SELECT i FROM t WHERE v > 0")
        for line in lines:
            match = _ACTUAL.search(line)
            if match:
                assert float(match.group(3)) >= 0.0


class TestExplainAnalyzeMorsels:
    def test_morsel_samples_sum_to_sequential_rows(self):
        # force 10 morsels of 40 rows
        db = _make_db(morsel_rows=40)
        lines = _analyze_lines(db, "SELECT i, v FROM t WHERE v > 100")
        actuals = _actuals(lines)
        by_op = {name.split(" ")[0]: counts
                 for name, counts in actuals.items()}
        # row totals identical to sequential; batches = morsel count
        assert by_op["Scan"] == (400, 10)
        assert by_op["Filter"] == (199, 10)
        assert by_op["Project"] == (199, 10)

    def test_aggregate_merges_morsel_batches(self):
        db = _make_db(morsel_rows=40)
        lines = _analyze_lines(
            db, "SELECT s, COUNT(*), SUM(v) FROM t GROUP BY s")
        actuals = _actuals(lines)
        agg = next(counts for name, counts in actuals.items()
                   if name.startswith("HashAggregate"))
        assert agg[0] == 7       # group count unchanged by splitting
        assert agg[1] == 10      # one partial state per morsel

    def test_analyze_result_rows_match_plain_select(self):
        db = _make_db(morsel_rows=40)
        plain = db.execute("SELECT COUNT(*) FROM t WHERE v > 100")
        assert list(plain.rows()) == [(199,)]
        # running EXPLAIN ANALYZE must not disturb later executions
        _analyze_lines(db, "SELECT COUNT(*) FROM t WHERE v > 100")
        again = db.execute("SELECT COUNT(*) FROM t WHERE v > 100")
        assert list(again.rows()) == [(199,)]


class TestExplainAnalyzeJoin:
    @pytest.fixture()
    def db(self):
        db = Database(morsel_rows=40)
        db.execute("CREATE TABLE l (k INTEGER, v DOUBLE)")
        db.execute("CREATE TABLE r (k INTEGER, name VARCHAR)")
        db.execute("INSERT INTO l VALUES " +
                   ", ".join(f"({i % 5}, {i * 1.0})" for i in range(200)))
        db.execute("INSERT INTO r VALUES " +
                   ", ".join(f"({i}, 'n{i}')" for i in range(5)))
        return db

    def test_join_probe_rows_recorded(self, db):
        lines = _analyze_lines(
            db, "SELECT l.v, r.name FROM l JOIN r ON l.k = r.k")
        actuals = _actuals(lines)
        join = next(counts for name, counts in actuals.items()
                    if name.startswith("HashJoin"))
        assert join[0] == 200  # every probe row matches


class TestExplainAnalyzeGrouping:
    """The HashAggregate line names the factoriser each grouping ran."""

    @pytest.fixture()
    def db(self):
        db = Database(morsel_rows=40)
        db.execute("CREATE TABLE g (k INTEGER, s VARCHAR, x DOUBLE)")
        # the first morsel's keys span 40 values, the second's 4 million
        db.execute("INSERT INTO g VALUES " + ", ".join(
            f"({i if i < 40 else i * 100_000}, 's{i % 3}', {i * 0.5})"
            for i in range(80)))
        return db

    @staticmethod
    def _grouping(db, sql):
        line = next(line for line in _analyze_lines(db, sql)
                    if line.startswith("HashAggregate"))
        return re.search(r"grouping=(\S+?)\]", line).group(1)

    def test_radix(self, db):
        assert self._grouping(
            db, "SELECT s, COUNT(*) FROM g GROUP BY s") == "radix"

    def test_sort(self, db):
        assert self._grouping(
            db, "SELECT x, COUNT(*) FROM g GROUP BY x") == "sort"

    def test_typed_keys_sort_one_composite(self, db):
        # 40 x 3 composite codes in either morsel
        assert self._grouping(
            db, "SELECT k, s, COUNT(*) FROM g GROUP BY k, s") == "radix"
        # the first morsel's k * 1000 spans 39,001 values: 40 x 39,001 codes
        assert self._grouping(
            db, "SELECT COUNT(*) FROM g GROUP BY k * 1000, k") == "radix:1,sort:1"

    def test_hash(self, db):
        # a key that is a string in some rows and a double in others
        assert self._grouping(
            db, "SELECT COUNT(*) FROM g "
                "GROUP BY s, CASE WHEN x * 2 % 2 = 0 THEN s ELSE x END") == "hash"

    def test_counted_per_morsel_when_morsels_differ(self, db):
        assert self._grouping(
            db, "SELECT k, COUNT(*) FROM g GROUP BY k") == "radix:1,sort:1"

    def test_absent_without_group_by_and_from_plain_explain(self, db):
        for sql in ("EXPLAIN ANALYZE SELECT COUNT(*) FROM g",
                    "EXPLAIN SELECT s, COUNT(*) FROM g GROUP BY s"):
            assert not any("grouping=" in line
                           for (line,) in db.execute(sql).fetchall())


class TestPlainExplainUnchanged:
    def test_plain_explain_has_no_actuals(self):
        db = _make_db()
        result = db.execute("SELECT i FROM t")  # warm anything lazily
        assert result.row_count == 400
        explain = db.execute("EXPLAIN SELECT i FROM t WHERE v > 100")
        assert explain.statement_type == "EXPLAIN"
        for value in explain.columns[0].values:
            assert "actual" not in str(value)

    def test_plain_explain_still_does_not_execute(self):
        db = Database()
        db.execute("CREATE TABLE q (x INTEGER)")
        db.execute("INSERT INTO q VALUES (1)")
        before = _morsels_executed(db)
        db.execute("EXPLAIN SELECT x FROM q")
        assert _morsels_executed(db) == before

    def test_analyze_still_usable_as_identifier(self):
        db = Database()
        db.execute("CREATE TABLE w (analyze INTEGER)")
        db.execute("INSERT INTO w VALUES (42)")
        result = db.execute("SELECT analyze FROM w")
        assert list(result.rows()) == [(42,)]


def _morsels_executed(db):
    return db.stats_snapshot()["db.morsels_executed"]


class TestMorselsExecuted:
    """``db.morsels_executed`` counts the morsels that ran: it moves by the
    Scan's ``batches=``, not by the morsels the input splits into."""

    @pytest.fixture(scope="class")
    def db(self):
        db = Database(morsel_rows=1_000)
        db.execute("CREATE TABLE f (i INTEGER)")
        db.storage.table("f").insert_rows((i,) for i in range(100_000))
        return db

    @staticmethod
    def _scan_batches(db, sql):
        actuals = _actuals(_analyze_lines(db, sql))
        return next(counts[1] for name, counts in actuals.items()
                    if name.startswith("Scan"))

    @pytest.mark.parametrize("sql, morsels", [
        ("SELECT i FROM f LIMIT 2", 1),
        ("SELECT COUNT(*) FROM f", 100),
    ])
    def test_delta_equals_scan_batches(self, db, sql, morsels):
        before = _morsels_executed(db)
        db.execute(sql)
        assert _morsels_executed(db) - before == morsels
        assert self._scan_batches(db, sql) == morsels

    def test_abandoned_stream_counts_the_pieces_it_ran(self, db):
        stream = iter(db.execute_stream("SELECT i FROM f"))
        before = _morsels_executed(db)
        assert [next(stream).row_count, next(stream).row_count] == [1_000] * 2
        stream.close()
        assert _morsels_executed(db) - before == 2


class TestCancelAtEveryMorselBoundary:
    """The morsel loop checks its context before every morsel and once after
    the last: a cancel issued after ``pieces`` pieces surfaces at the very
    next piece, having run exactly ``pieces`` morsels."""

    @pytest.fixture(scope="class")
    def db(self):
        db = Database(morsel_rows=10)
        db.execute("CREATE TABLE f (i INTEGER)")
        db.storage.table("f").insert_rows((i,) for i in range(100))
        return db

    @pytest.mark.parametrize("pieces", range(11))
    def test_cancel_lands_at_the_next_boundary(self, db, pieces):
        context = QueryContext()
        stream = iter(db.execute_stream("SELECT i FROM f", context=context))
        before = _morsels_executed(db)
        rows = [row for _ in range(pieces) for row in next(stream).fetchall()]
        assert rows == [(i,) for i in range(10 * pieces)]
        context.cancel("stop")
        with pytest.raises(QueryCancelledError, match="stop"):
            next(stream)
        assert _morsels_executed(db) - before == pieces
