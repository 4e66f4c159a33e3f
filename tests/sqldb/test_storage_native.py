"""Native columnar storage against a plain-list model.

A :class:`Column` stores typed buffers (values + validity mask, dictionary
codes for strings) and publishes read-only views of them; the model is the
thing it replaced — one Python list per column.  Random interleavings of
every mutation must leave the two equal through every reader (``values``,
``to_numpy()``, ``scan_values()``, a ``SELECT``), and every scan handed out
before a mutation must keep reading the rows it was taken over.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PersistenceError, TypeMismatchError
from repro.sqldb.database import Database
from repro.sqldb.executor import Executor
from repro.sqldb.persist import read_wal, wal_path_for
from repro.sqldb.schema import ColumnDef
from repro.sqldb.storage import Column
from repro.sqldb.types import ColumnType, SQLType
from repro.sqldb.vector import Vector

TYPES = [SQLType.INTEGER, SQLType.DOUBLE, SQLType.BOOLEAN, SQLType.STRING,
         SQLType.BLOB]
NAMES = ["i", "d", "b", "s", "x"]

_VALUES = {
    SQLType.INTEGER: st.integers(-2**63, 2**63 - 1),
    SQLType.DOUBLE: st.floats(allow_nan=False),
    SQLType.BOOLEAN: st.booleans(),
    # a small pool, so appends hit known strings as often as new ones
    SQLType.STRING: st.sampled_from(["", "a", "b", "ab", "z", "é"])
    | st.text(max_size=3),
    SQLType.BLOB: st.binary(max_size=3),
}
# NULL-free runs matter as much as NULLs: the mask appears with the first one
_ROW = st.tuples(*[st.none() | _VALUES[t] for t in TYPES]) \
    | st.tuples(*[_VALUES[t] for t in TYPES])
_ROWS = st.lists(_ROW, min_size=1, max_size=6)

_OPS = st.one_of(
    st.tuples(st.just("append"), _ROW),
    st.tuples(st.just("extend"), _ROWS),
    st.tuples(st.just("insert_rows"), _ROWS),
    st.tuples(st.just("update_rows"), st.randoms(use_true_random=False),
              st.lists(_ROW, min_size=1, max_size=1)),
    st.tuples(st.just("delete_rows"), st.randoms(use_true_random=False)),
    st.tuples(st.just("truncate")),
    st.tuples(st.just("failed_insert"), _ROWS),
    st.tuples(st.just("rolled_back_insert"), _ROWS),
)


def _sql_literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _apply(database, table, model, op):
    """Apply ``op`` to the table and to the list-of-rows model."""
    kind = op[0]
    if kind == "append":
        for column, value in zip(table.columns, op[1]):
            column.append(value)
        model.append(op[1])
    elif kind == "extend":
        for position, column in enumerate(table.columns):
            column.extend(row[position] for row in op[1])
        model.extend(op[1])
    elif kind == "insert_rows":
        assert table.insert_rows(iter(op[1])) == len(op[1])
        model.extend(op[1])
    elif kind == "update_rows":
        rng, (new_row,) = op[1], op[2]
        mask = [rng.random() < 0.4 for _ in model]
        assigned = [p for p in range(len(NAMES)) if rng.random() < 0.5] or [3]
        updated = table.update_rows(
            mask, {NAMES[p]: [new_row[p]] * len(model) for p in assigned})
        assert updated == sum(mask)
        model[:] = [tuple(new_row[p] if hit and p in assigned else row[p]
                          for p in range(len(NAMES)))
                    for row, hit in zip(model, mask)]
    elif kind == "delete_rows":
        keep = [op[1].random() < 0.6 for _ in model]
        assert table.delete_rows(keep) == keep.count(False)
        model[:] = [row for row, kept in zip(model, keep) if kept]
    elif kind == "truncate":
        table.truncate()
        model.clear()
    elif kind == "failed_insert":
        # the last row cannot be coerced: the statement must leave no trace
        rows = [(1, 1.5, True, "fresh-" + str(len(model)), None)] \
            + [(None, 0.5, row[2], row[3], None) for row in op[1]] \
            + [(2.5, None, None, None, None)]
        values = ", ".join("(" + ", ".join(map(_sql_literal, row)) + ")"
                           for row in rows)
        with pytest.raises(TypeMismatchError):
            database.execute(f"INSERT INTO t VALUES {values}")
    elif kind == "rolled_back_insert":
        # what a failed WAL append does: rows applied, then taken back
        before = table.row_count
        table.insert_rows([(None, None, None, "gone-" + str(before), None)]
                          + op[1])
        Executor._rollback_inserted(table, before)


def _check(database, table, model):
    assert table.row_count == len(model)
    for position, (column, sql_type) in enumerate(zip(table.columns, TYPES)):
        expected = [row[position] for row in model]
        has_null = None in expected
        assert len(column) == len(expected)
        assert column.values == expected
        assert column.to_list(1, 3) == expected[1:3]
        # the UDF format: typed when it can be, else objects with None
        array = column.to_numpy()
        assert array.tolist() == expected
        typed = sql_type in (SQLType.INTEGER, SQLType.DOUBLE, SQLType.BOOLEAN)
        assert (array.dtype != object) == (typed and not has_null)
        assert not array.flags.writeable
        assert column.to_numpy() is array
        # the executor's format
        scan = column.scan_values()
        assert column.scan_values() is scan
        if sql_type is SQLType.BLOB:
            # the Python tier's shape: an object array holding None for NULL
            assert isinstance(scan, np.ndarray) and scan.dtype == object
            assert scan.tolist() == expected
        else:
            # every typed column is a vector; the mask follows the NULLs
            assert isinstance(scan, Vector)
            assert (scan.mask is not None) == has_null
            assert scan.to_list() == expected
            if sql_type is SQLType.STRING:
                dictionary = scan.dictionary.tolist()
                assert dictionary == sorted(set(dictionary))  # code order = string order
                assert len(dictionary) <= 2 * len(expected) + 16  # stale entries are bounded
            elif not has_null:
                assert array is scan.data  # handed to UDFs as it is stored
    assert list(table.rows()) == model
    assert database.execute("SELECT i, d, b, s, x FROM t").fetchall() == model
    strings = [row[3] for row in model if row[3] is not None]
    assert database.execute("SELECT COUNT(*), COUNT(s), MIN(s), MAX(s) FROM t"
                            ).fetchall() == [(len(model), len(strings),
                                              min(strings, default=None),
                                              max(strings, default=None))]


def _snapshot(table, model):
    scans = [column.scan_vector(0, len(model)) for column in table.columns]
    return scans, [list(rows) for rows in zip(*model)] or [[]] * len(NAMES)


def _assert_snapshot_intact(snapshot):
    scans, expected = snapshot
    for scan, values in zip(scans, expected):
        got = scan.to_list() if isinstance(scan, Vector) else scan.tolist()
        assert got == values


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_OPS, min_size=1, max_size=12))
def test_random_histories_match_the_list_model(ops):
    database = Database()
    database.execute(
        "CREATE TABLE t (i INTEGER, d DOUBLE, b BOOLEAN, s STRING, x BLOB)")
    table = database.storage.table("t")
    model: list[tuple] = []
    snapshots = []
    for op in ops:
        snapshots.append(_snapshot(table, model))
        _apply(database, table, model, op)
        _check(database, table, model)
        # every scan ever handed out still reads the rows it was taken over
        for snapshot in snapshots:
            _assert_snapshot_intact(snapshot)


def _column(sql_type, values):
    column = Column(ColumnDef("c", ColumnType(sql_type)))
    column.extend(values)
    return column


class TestSnapshots:
    def test_append_writes_only_the_new_rows(self):
        """The structural guard that read-after-write is O(batch): a second
        append lands in the spare capacity the first one made, so the new
        scan is the old scan's memory plus one row — nothing was rebuilt."""
        column = _column(SQLType.INTEGER, range(100_000))
        column.append(-1)
        old = column.scan_values()
        column.append(-2)
        new = column.scan_values()
        assert old.mask is None and new.mask is None  # mask-free vectors
        assert np.shares_memory(new.data, old.data)
        assert len(old) == 100_001 and old[-1] == -1
        assert new.data[-2:].tolist() == [-1, -2]

    def test_string_append_of_a_known_value_keeps_codes_and_dictionary(self):
        column = _column(SQLType.STRING, [f"s{i % 50}" for i in range(100_000)])
        column.append("s7")
        old = column.scan_values()
        column.append("s8")
        new = column.scan_values()
        assert np.shares_memory(new.data, old.data)
        assert new.dictionary is old.dictionary
        assert new[100_001] == "s8" and len(old) == 100_001

    def test_new_dictionary_value_remaps_onto_new_arrays(self):
        column = _column(SQLType.STRING, ["b", "d", "b"])
        old = column.scan_values()
        column.extend(["a", "c", None])  # sorts before, between, and ""
        new = column.scan_values()
        assert old.to_list() == ["b", "d", "b"]
        assert old.dictionary.tolist() == ["b", "d"]
        assert new.to_list() == ["b", "d", "b", "a", "c", None]
        assert new.dictionary.tolist() == ["", "a", "b", "c", "d"]
        assert not np.shares_memory(new.data, old.data)

    def test_update_and_delete_publish_new_arrays(self):
        database = Database()
        database.execute("CREATE TABLE t (i INTEGER, s STRING)")
        database.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        table = database.storage.table("t")
        before = [column.scan_vector(0, 3) for column in table.columns]
        database.execute("UPDATE t SET i = i + 10, s = 'z' WHERE i = 2")
        database.execute("DELETE FROM t WHERE i = 1")
        assert before[0].data.tolist() == [1, 2, 3]
        assert before[1].to_list() == ["a", "b", "c"]
        assert list(table.rows()) == [(12, "z"), (3, "c")]

    def test_truncate_does_not_reuse_buffers_a_reader_holds(self):
        column = _column(SQLType.INTEGER, [1, 2])
        column.append(3)  # the buffer now has spare capacity
        before = column.scan_values()
        column.truncate()
        column.extend([7, 8, 9])
        assert before.data.tolist() == [1, 2, 3]

    def test_a_udf_input_cannot_be_made_writable(self):
        column = _column(SQLType.INTEGER, [1, 2])
        column.append(3)  # a view of a buffer with spare capacity
        with pytest.raises(ValueError):
            column.to_numpy().view().setflags(write=True)


class TestIntegerOutOfRange:
    """A value beyond int64 used to be stored and then failed every SELECT
    with a raw OverflowError; it is now refused when it is written."""

    HUGE = 1180591620717411303424  # 2**70

    def test_insert_is_rejected_whole_and_nothing_is_logged(self, tmp_path):
        path = tmp_path / "big.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER, s STRING)")
        database.execute("INSERT INTO t VALUES (1, 'a')")
        database.persistence.wal.flush()
        wal_before = wal_path_for(path).read_bytes()
        with pytest.raises(TypeMismatchError, match="out of range"):
            database.execute(
                f"INSERT INTO t VALUES (2, 'b'), ({self.HUGE}, 'c'), (3, 'd')")
        with pytest.raises(TypeMismatchError):
            database.execute(f"UPDATE t SET i = {self.HUGE}")
        database.persistence.wal.flush()
        assert wal_path_for(path).read_bytes() == wal_before
        assert database.execute("SELECT i, s FROM t").fetchall() == [(1, "a")]
        database.persistence.close(checkpoint=False)

    @pytest.mark.parametrize("value", [2**63, -2**63 - 1, HUGE, float(2**70)])
    def test_column_extend_is_rejected_whole(self, value):
        column = _column(SQLType.BIGINT, [1, 2])
        with pytest.raises(TypeMismatchError):
            column.extend([3, value])
        assert column.values == [1, 2]
        column.extend([-2**63, 2**63 - 1])  # the extremes themselves fit
        assert column.to_numpy().tolist() == [1, 2, -2**63, 2**63 - 1]

    def test_wal_replay_refuses_a_record_written_before_the_check(self, tmp_path):
        path = tmp_path / "old.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER)")
        # what the engine used to log for the INSERT it used to accept: a
        # ``rows`` record, a shape version 4 does not replay
        database.wal_log({"op": "insert", "table": "t", "rows": [[self.HUGE]]})
        database.persistence.close(checkpoint=False)
        offset = read_wal(wal_path_for(path)).record_offsets[-1]
        with pytest.raises(PersistenceError, match=(
                f"'insert' record: it has no 'chunk' field "
                rf"\(the record at byte {offset} of the log\)")):
            Database(path=path)
