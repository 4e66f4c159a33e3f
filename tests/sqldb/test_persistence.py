"""Durable storage: single-file format, WAL, checkpointing, crash recovery.

The crash matrix required by the acceptance criteria — {clean close, kill
after WAL write, kill mid-checkpoint, truncated WAL tail} — simulates each
crash by copying the database file + WAL to a fresh path mid-stream (the
live process never gets to shut down cleanly) and reopening from the copy.
Every recovered state is compared against an in-memory reference database
that replayed the same committed statements.
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ExecutionError, PersistenceError
from repro.netproto.columnar import decode_chunk
from repro.sqldb.database import Database
from repro.sqldb.persist import format as persist_format
from repro.sqldb.persist import read_wal, wal_path_for
from repro.sqldb.persist.recovery import apply_record, tmp_path_for

#: One WAL record per statement (CREATE TABLE = 1, every DML = 1), covering
#: NULLs, dictionary strings, floats, booleans, BIGINT and BLOB columns.
STATEMENTS = [
    "CREATE TABLE events (id INTEGER, name STRING, score DOUBLE, "
    "big BIGINT, flag BOOLEAN, payload BLOB)",
    "INSERT INTO events VALUES (1, 'alpha', 1.5, 9000000000, TRUE, 'blob-a')",
    "INSERT INTO events VALUES (2, NULL, NULL, NULL, NULL, NULL), "
    "(3, 'alpha', -0.25, -1, FALSE, 'blob-b'), "
    "(4, 'beta', 0.0, 0, TRUE, '')",
    "UPDATE events SET score = 99.5, name = 'gamma' WHERE id = 3",
    "DELETE FROM events WHERE id = 2",
    "INSERT INTO events VALUES (5, '', 2.25, 123, FALSE, 'blob-c')",
]

PROBES = [
    "SELECT * FROM events ORDER BY id",
    "SELECT name, COUNT(*), SUM(score) FROM events GROUP BY name ORDER BY name",
    "SELECT id FROM events WHERE name = 'alpha' ORDER BY id",
    "SELECT SUM(big), COUNT(flag) FROM events",
]


def reference_database(statements=STATEMENTS) -> Database:
    database = Database()
    for sql in statements:
        database.execute(sql)
    return database


def assert_matches_reference(database: Database, reference: Database) -> None:
    assert database.table_names() == reference.table_names()
    for name in reference.table_names():
        assert (database.storage.table(name).to_dict()
                == reference.storage.table(name).to_dict())
    for sql in PROBES:
        assert database.execute(sql).fetchall() == reference.execute(sql).fetchall()


def crash_copy(path: Path, target: Path) -> Path:
    """Simulate a crash: snapshot the db file + WAL as they are right now."""
    if path.exists():
        shutil.copy(path, target)
    wal = wal_path_for(path)
    if wal.exists():
        shutil.copy(wal, wal_path_for(target))
    return target


class TestCrashMatrix:
    def test_clean_close(self, tmp_path):
        path = tmp_path / "clean.db"
        database = Database(path=path)
        for sql in STATEMENTS:
            database.execute(sql)
        database.close()
        # a clean close checkpoints: the WAL is empty and the image is full
        assert read_wal(wal_path_for(path)).records == []
        reopened = Database(path=path)
        assert_matches_reference(reopened, reference_database())
        assert reopened.persistence.last_recovery.wal_records_replayed == 0
        reopened.close()

    def test_kill_after_wal_write(self, tmp_path):
        path = tmp_path / "live.db"
        database = Database(path=path)
        for sql in STATEMENTS:
            database.execute(sql)
        crashed = crash_copy(path, tmp_path / "crash.db")
        reopened = Database(path=crashed)
        assert_matches_reference(reopened, reference_database())
        report = reopened.persistence.last_recovery
        assert report.wal_records_replayed == len(STATEMENTS)
        assert not report.wal_torn_tail
        reopened.close()
        database.close()

    def test_kill_mid_checkpoint(self, tmp_path):
        path = tmp_path / "live.db"
        database = Database(path=path)
        for sql in STATEMENTS[:3]:
            database.execute(sql)
        database.checkpoint()
        for sql in STATEMENTS[3:]:
            database.execute(sql)
        crashed = crash_copy(path, tmp_path / "crash.db")
        # the next checkpoint died after writing half its temp image
        tmp_path_for(crashed).write_bytes(b"REPRODB1half-written-garbage")
        reopened = Database(path=crashed)
        assert_matches_reference(reopened, reference_database())
        report = reopened.persistence.last_recovery
        assert report.removed_tmp_file
        assert report.wal_records_replayed == len(STATEMENTS) - 3
        assert not tmp_path_for(crashed).exists()
        reopened.close()
        database.close()

    def test_truncated_wal_tail(self, tmp_path):
        path = tmp_path / "live.db"
        database = Database(path=path)
        for sql in STATEMENTS:
            database.execute(sql)
        crashed = crash_copy(path, tmp_path / "crash.db")
        # tear the last record: chop a few bytes off the end of the log
        wal = wal_path_for(crashed)
        data = wal.read_bytes()
        wal.write_bytes(data[:-3])
        reopened = Database(path=crashed)
        # the torn record is the final INSERT: recovered state must equal the
        # reference that committed everything *except* that statement
        assert_matches_reference(reopened, reference_database(STATEMENTS[:-1]))
        report = reopened.persistence.last_recovery
        assert report.wal_torn_tail
        assert report.wal_records_replayed == len(STATEMENTS) - 1
        # the tail was truncated away: appends resume from a sane log
        reopened.execute(
            "INSERT INTO events VALUES (6, 'post', 1.0, 1, TRUE, 'x')")
        recovered_again = Database(
            path=crash_copy(crashed, tmp_path / "crash2.db"))
        assert recovered_again.row_count("events") == reopened.row_count("events")
        recovered_again.close()
        reopened.close()
        database.close()

    def test_stale_wal_after_checkpoint_replace(self, tmp_path):
        """Crash between the atomic image replace and the WAL reset."""
        path = tmp_path / "live.db"
        database = Database(path=path)
        for sql in STATEMENTS:
            database.execute(sql)
        pre_checkpoint_wal = (tmp_path / "old.wal")
        shutil.copy(wal_path_for(path), pre_checkpoint_wal)
        database.checkpoint()
        database.close()
        # put the old-generation log back: its records are already inside
        # the image, so replaying them would double-apply every statement
        shutil.copy(pre_checkpoint_wal, wal_path_for(path))
        reopened = Database(path=path)
        assert reopened.persistence.last_recovery.wal_was_stale
        assert_matches_reference(reopened, reference_database())
        reopened.close()


class TestSegmentsShareWireCodec:
    def test_segment_decodes_through_netproto_decode_chunk(self, tmp_path):
        """Acceptance: on-disk segments are wire-format chunk blobs."""
        path = tmp_path / "seg.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER, s STRING)")
        names = ["x", "y", None] * 8  # low cardinality: dictionary-encodes
        rows = ", ".join(
            f"({index}, {'NULL' if name is None else repr(name)})"
            for index, name in enumerate(names))
        database.execute(f"INSERT INTO t VALUES {rows}")
        database.close()

        data = path.read_bytes()
        footer = persist_format.read_footer(data, path)
        [table_meta] = footer["tables"]
        [segment] = table_meta["segments"]
        blob = data[segment["offset"]:segment["offset"] + segment["length"]]
        # decoded by the *shared* wire path, not a persistence-specific codec
        row_count, columns = decode_chunk(blob)
        assert row_count == len(names)
        assert [column.name for column in columns] == ["i", "s"]
        i_vector = columns[0].materialise()
        assert i_vector.mask is None
        assert i_vector.data.tolist() == list(range(len(names)))
        s_vector = columns[1].materialise()
        # low-cardinality strings keep their dictionary encoding on disk
        assert s_vector.is_dict
        assert s_vector.to_list() == names

    def test_multi_segment_round_trip(self, tmp_path):
        path = tmp_path / "multi.db"
        database = Database(path=path, segment_rows=16)
        database.execute("CREATE TABLE t (i INTEGER, s STRING)")
        rows = ", ".join(f"({i}, 'name_{i % 7}')" for i in range(100))
        database.execute(f"INSERT INTO t VALUES {rows}")
        database.close()
        data = path.read_bytes()
        footer = persist_format.read_footer(data, path)
        [table_meta] = footer["tables"]
        assert len(table_meta["segments"]) == 7  # ceil(100 / 16)
        # every segment is independently decodable (dictionary inlined)
        for segment in table_meta["segments"]:
            blob = data[segment["offset"]:segment["offset"] + segment["length"]]
            rows_decoded, _ = decode_chunk(blob)
            assert rows_decoded == segment["rows"]
        reopened = Database(path=path)
        assert reopened.execute("SELECT COUNT(*) FROM t").scalar() == 100
        assert (reopened.execute("SELECT s FROM t WHERE i = 42").scalar()
                == "name_0")
        reopened.close()


class TestCheckpoint:
    def test_checkpoint_statement_truncates_wal(self, tmp_path):
        path = tmp_path / "cp.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER)")
        database.execute("INSERT INTO t VALUES (1), (2)")
        assert len(read_wal(wal_path_for(path)).records) == 2
        result = database.execute("CHECKPOINT")
        assert result.statement_type == "CHECKPOINT"
        row = dict(zip(result.column_names, result.fetchall()[0]))
        assert row["generation"] == 1
        assert row["rows"] == 2
        assert row["wal_records_truncated"] == 2
        assert read_wal(wal_path_for(path)).records == []
        assert read_wal(wal_path_for(path)).generation == 1
        database.close()

    def test_checkpoint_in_memory_raises(self):
        database = Database()
        with pytest.raises(ExecutionError, match="persistent"):
            database.execute("CHECKPOINT")

    def test_generation_increments_and_wal_resets(self, tmp_path):
        path = tmp_path / "gen.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER)")
        first = database.checkpoint()
        second = database.checkpoint()
        assert (first.generation, second.generation) == (1, 2)
        database.close()  # third checkpoint
        reopened = Database(path=path)
        assert reopened.persistence.generation == 3
        reopened.close()

    def test_writes_after_close_raise(self, tmp_path):
        path = tmp_path / "closed.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER)")
        database.close()
        with pytest.raises(PersistenceError, match="closed"):
            database.execute("INSERT INTO t VALUES (1)")

    def test_direct_storage_mutations_persist_via_checkpoint(self, tmp_path):
        # bulk loads that poke storage bypass the WAL by design; a checkpoint
        # captures them because it snapshots the live tables
        path = tmp_path / "bulk.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER)")
        database.storage.table("t").column("i").extend(range(1000))
        database.close()
        reopened = Database(path=path)
        assert reopened.execute("SELECT COUNT(*) FROM t").scalar() == 1000
        reopened.close()


class TestFunctionsPersist:
    def test_udf_survives_reopen_and_runs(self, tmp_path):
        path = tmp_path / "udf.db"
        database = Database(path=path)
        database.execute("CREATE TABLE n (i INTEGER)")
        database.execute("INSERT INTO n VALUES (1), (2), (3)")
        database.execute(
            "CREATE FUNCTION triple(column INTEGER) RETURNS INTEGER "
            "LANGUAGE PYTHON { return column * 3 }")
        crashed = crash_copy(path, tmp_path / "crash.db")
        reopened = Database(path=crashed)
        assert reopened.has_function("triple")
        assert (reopened.execute("SELECT triple(i) FROM n ORDER BY i").fetchall()
                == [(3,), (6,), (9,)])
        reopened.close()
        # ...and again from the checkpointed image (no WAL replay)
        rereopened = Database(path=crashed)
        assert rereopened.persistence.last_recovery.wal_records_replayed == 0
        assert rereopened.has_function("triple")
        rereopened.close()
        database.close()

    def test_drop_function_persists(self, tmp_path):
        path = tmp_path / "dropfn.db"
        database = Database(path=path)
        database.execute(
            "CREATE FUNCTION f(column INTEGER) RETURNS INTEGER "
            "LANGUAGE PYTHON { return column }")
        database.execute("DROP FUNCTION f")
        reopened = Database(path=crash_copy(path, tmp_path / "crash.db"))
        assert not reopened.has_function("f")
        reopened.close()
        database.close()


class TestDDLPersistence:
    def test_drop_table_and_idempotent_ddl(self, tmp_path):
        path = tmp_path / "ddl.db"
        database = Database(path=path)
        database.execute("CREATE TABLE IF NOT EXISTS t (i INTEGER)")
        database.execute("CREATE TABLE IF NOT EXISTS t (i INTEGER)")  # no-op
        database.execute("INSERT INTO t VALUES (1)")
        database.execute("CREATE TABLE gone (i INTEGER)")
        database.execute("DROP TABLE gone")
        database.execute("DROP TABLE IF EXISTS never_there")  # no-op, no record
        contents = read_wal(wal_path_for(path))
        assert [record["op"] for record in contents.records] == [
            "create_table", "insert", "create_table", "drop_table"]
        reopened = Database(path=crash_copy(path, tmp_path / "crash.db"))
        assert reopened.table_names() == ["t"]
        reopened.close()
        database.close()

    def test_create_table_as_select_persists(self, tmp_path):
        path = tmp_path / "ctas.db"
        database = Database(path=path)
        database.execute("CREATE TABLE src (i INTEGER, s STRING)")
        database.execute("INSERT INTO src VALUES (1, 'a'), (2, 'b'), (3, 'a')")
        database.execute(
            "CREATE TABLE dst AS SELECT s, COUNT(*) AS n FROM src GROUP BY s")
        reopened = Database(path=crash_copy(path, tmp_path / "crash.db"))
        assert (reopened.execute("SELECT * FROM dst ORDER BY s").fetchall()
                == [("a", 2), ("b", 1)])
        reopened.close()
        database.close()

    def test_copy_into_replays_without_the_csv(self, tmp_path):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text("1,x\n2,y\n", encoding="utf-8")
        path = tmp_path / "copy.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER, s STRING)")
        database.execute(f"COPY INTO t FROM '{csv_file}'")
        crashed = crash_copy(path, tmp_path / "crash.db")
        csv_file.unlink()  # the file is gone by the time recovery replays
        reopened = Database(path=crashed)
        assert (reopened.execute("SELECT * FROM t ORDER BY i").fetchall()
                == [(1, "x"), (2, "y")])
        reopened.close()
        database.close()


class TestReplayCacheConsistency:
    def test_recovery_replayed_update_invalidates_cached_vector(self):
        """A cached ``scan_values()`` must never serve pre-UPDATE data."""
        database = Database()
        database.execute("CREATE TABLE t (i INTEGER, s STRING)")
        database.execute("INSERT INTO t VALUES (1, 'old'), (2, 'keep')")
        table = database.storage.table("t")
        # warm every scan cache the way queries do
        before = table.column("s").scan_values()
        table.column("s").to_numpy()
        table.column("i").scan_values()
        assert before.to_list() == ["old", "keep"]
        apply_record(database, {
            "op": "update", "table": "t",
            "indices": [0], "count": 2,
            "columns": {"s": ["new"]},
        })
        assert table.column("s").scan_values().to_list() == ["new", "keep"]
        assert table.column("s").to_numpy().tolist() == ["new", "keep"]
        assert (database.execute("SELECT s FROM t ORDER BY i").fetchall()
                == [("new",), ("keep",)])

    def test_failed_update_leaves_no_partial_mutation(self):
        database = Database()
        database.execute("CREATE TABLE t (i INTEGER)")
        database.execute("INSERT INTO t VALUES (1), (2), (3)")
        table = database.storage.table("t")
        table.column("i").scan_values()  # warm the cache
        with pytest.raises(ExecutionError):
            # 2.5 cannot be stored in an INTEGER column: the whole statement
            # must fail without touching row 1
            table.update_rows([True, True, False],
                              {"i": [10, 2.5, None]})
        assert table.column("i").values == [1, 2, 3]
        assert table.column("i").scan_values().data.tolist() == [1, 2, 3]

    def test_failed_extend_leaves_no_partial_mutation(self):
        database = Database()
        database.execute("CREATE TABLE t (i INTEGER)")
        column = database.storage.table("t").column("i")
        column.extend([1, 2])
        column.scan_values()
        with pytest.raises(ExecutionError):
            column.extend([3, "not-an-int", 5])
        assert column.values == [1, 2]
        assert column.scan_values().data.tolist() == [1, 2]

    def test_failed_insert_row_keeps_columns_aligned(self):
        database = Database()
        database.execute("CREATE TABLE t (i INTEGER, s STRING)")
        table = database.storage.table("t")
        table.insert_row([1, "a"])
        with pytest.raises(ExecutionError):
            table.insert_row([2.5, "b"])  # bad INTEGER in column 0
        assert table.row_count == 1
        assert [len(column) for column in table.columns] == [1, 1]


class TestWalDetails:
    def test_replay_is_idempotent(self, tmp_path):
        """Replaying a WAL twice (crash during recovery) converges."""
        database = Database()
        database.execute("CREATE TABLE t (i INTEGER)")
        schema_record = {
            "op": "create_table",
            "schema": {"name": "t", "columns": [["i", "INTEGER", True]]},
        }
        apply_record(database, schema_record)  # table exists: must not raise
        apply_record(database, {"op": "drop_table", "name": "ghost"})
        assert database.table_names() == ["t"]

    def test_unknown_record_op_raises(self):
        database = Database()
        with pytest.raises(PersistenceError, match="unknown WAL record"):
            apply_record(database, {"op": "explode"})

    def test_torn_wal_header_recovers(self, tmp_path):
        """Crash between a WAL reset's truncate and header write: the short
        file must not brick the database — the image is still authoritative."""
        path = tmp_path / "tornhdr.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER)")
        database.execute("INSERT INTO t VALUES (1), (2)")
        database.close()  # checkpoint: everything lives in the image
        for torn_bytes in (b"", b"REPRO"):
            wal_path_for(path).write_bytes(torn_bytes)
            reopened = Database(path=path)
            assert reopened.persistence.last_recovery.wal_torn_header
            assert reopened.execute("SELECT COUNT(*) FROM t").scalar() == 2
            # the recreated log is immediately usable
            reopened.execute("INSERT INTO t VALUES (3)")
            reopened.persistence.close(checkpoint=False)

    def test_failed_insert_statement_is_atomic_live_and_recovered(self, tmp_path):
        """A mid-statement coercion error must not leave rows that are
        visible live but absent from the WAL (state divergence)."""
        path = tmp_path / "atomic.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER)")
        database.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ExecutionError):
            database.execute("INSERT INTO t VALUES (2), (3), ('boom')")
        live_rows = database.execute("SELECT i FROM t ORDER BY i").fetchall()
        assert live_rows == [(1,)]  # the failed statement fully rolled back
        recovered = Database(path=crash_copy(path, tmp_path / "crash.db"))
        assert (recovered.execute("SELECT i FROM t ORDER BY i").fetchall()
                == live_rows)
        recovered.close()
        database.close()

    def test_bulk_insert_logs_bounded_chunked_records(self, tmp_path):
        from repro.sqldb.executor import Executor

        path = tmp_path / "bulk.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER)")
        chunk = Executor._WAL_INSERT_CHUNK_ROWS
        table = database.storage.table("t")
        before = table.row_count
        table.column("i").extend(range(chunk * 2 + 5))
        database._executor._log_inserted(table, before)
        records = read_wal(wal_path_for(path)).records
        inserts = [r for r in records if r["op"] == "insert"]
        assert [decode_chunk(r["chunk"])[0] for r in inserts] == [chunk, chunk, 5]
        recovered = Database(path=crash_copy(path, tmp_path / "crash.db"))
        assert recovered.row_count("t") == chunk * 2 + 5
        recovered.close()
        database.close()

    def test_torn_chunk_group_discards_whole_statement(self, tmp_path, monkeypatch):
        """A bulk INSERT logged as several chunk records must replay
        all-or-nothing: losing the tail of the group discards the whole
        statement, never a prefix of it."""
        from repro.sqldb.executor import Executor

        monkeypatch.setattr(Executor, "_WAL_INSERT_CHUNK_ROWS", 4)
        path = tmp_path / "group.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER)")
        database.execute("INSERT INTO t VALUES (100)")
        values = ", ".join(f"({i})" for i in range(10))
        database.execute(f"INSERT INTO t VALUES {values}")  # 3 records: 4+4+2
        crashed = crash_copy(path, tmp_path / "crash.db")
        wal = wal_path_for(crashed)
        contents = read_wal(wal)
        assert [r.get("more", False) for r in contents.records if r["op"] == "insert"] \
            == [False, True, True, False]
        # crash persisted only the first two chunks of the bulk statement
        wal.write_bytes(wal.read_bytes()[:contents.record_offsets[-1]])
        reopened = Database(path=crashed)
        assert reopened.persistence.last_recovery.wal_torn_tail
        # the whole 10-row statement is gone; the earlier statement survives
        assert reopened.execute("SELECT i FROM t").fetchall() == [(100,)]
        # the incomplete group was truncated away: new appends replay cleanly
        reopened.execute("INSERT INTO t VALUES (200)")
        again = Database(path=crash_copy(crashed, tmp_path / "crash2.db"))
        assert again.execute("SELECT i FROM t ORDER BY i").fetchall() \
            == [(100,), (200,)]
        again.close()
        reopened.close()
        database.close()

    def test_failed_checkpoint_prepare_keeps_store_usable(self, tmp_path, monkeypatch):
        """ENOSPC (etc.) while writing the temp image is retryable: nothing
        durable changed, so the store must not seal itself."""
        from repro.sqldb.persist import checkpoint as checkpoint_mod

        path = tmp_path / "prep.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER)")
        real_write = checkpoint_mod.format_mod.write_database
        monkeypatch.setattr(checkpoint_mod.format_mod, "write_database",
                            lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")))
        with pytest.raises(PersistenceError, match="retryable"):
            database.checkpoint()
        assert not (tmp_path / "prep.db.tmp").exists()
        # still fully usable: appends and a retried checkpoint succeed
        database.execute("INSERT INTO t VALUES (1)")
        monkeypatch.setattr(checkpoint_mod.format_mod, "write_database", real_write)
        assert database.checkpoint().generation == 1
        database.close()

    def test_failed_checkpoint_commit_seals_store(self, tmp_path, monkeypatch):
        """A failure after the atomic image replace must seal the store:
        appending to the old-generation WAL would be silently discarded as
        stale by the next recovery."""
        path = tmp_path / "commit.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER)")
        database.execute("INSERT INTO t VALUES (1)")
        monkeypatch.setattr(database.persistence.wal, "reset",
                            lambda generation: (_ for _ in ()).throw(OSError("boom")))
        with pytest.raises(OSError):
            database.checkpoint()
        with pytest.raises(PersistenceError, match="closed"):
            database.execute("INSERT INTO t VALUES (2)")
        # on-disk state is still consistent: new image, stale WAL to reset
        reopened = Database(path=path)
        assert reopened.persistence.last_recovery.wal_was_stale
        assert reopened.execute("SELECT i FROM t").fetchall() == [(1,)]
        reopened.close()

    def test_wal_append_failure_rolls_back_applied_rows(self, tmp_path, monkeypatch):
        """If the WAL itself fails (e.g. ENOSPC) after rows were applied in
        memory, the statement must roll back — otherwise live state shows
        rows a crash-reopen would not recover."""
        path = tmp_path / "walboom.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER)")
        database.execute("INSERT INTO t VALUES (1)")
        monkeypatch.setattr(
            database.persistence.wal, "append_group",
            lambda records: (_ for _ in ()).throw(OSError("disk full")))
        for sql in ("INSERT INTO t VALUES (2), (3)",
                    "UPDATE t SET i = 9 WHERE i = 1",
                    "DELETE FROM t WHERE i = 1",
                    "DELETE FROM t"):
            with pytest.raises(OSError):
                database.execute(sql)
        # every failed statement left memory untouched, matching the WAL
        assert database.execute("SELECT i FROM t").fetchall() == [(1,)]
        monkeypatch.undo()
        recovered = Database(path=crash_copy(path, tmp_path / "crash.db"))
        assert recovered.execute("SELECT i FROM t").fetchall() == [(1,)]
        recovered.close()
        database.close()

    def test_fsync_failure_truncates_unacknowledged_group(self, tmp_path, monkeypatch):
        """A failed batch fsync must truncate the group: the statement
        errored, so its records must not survive in the WAL where a later
        successful append would make them recoverable."""
        from repro.sqldb.persist import wal as wal_mod

        path = tmp_path / "fsyncboom.db"
        database = Database(path=path, wal_fsync_batch=1)  # sync every append
        database.execute("CREATE TABLE t (i INTEGER)")
        database.execute("INSERT INTO t VALUES (1)")
        real_fsync = wal_mod.os.fsync
        monkeypatch.setattr(wal_mod.os, "fsync",
                            lambda fd: (_ for _ in ()).throw(OSError("EIO")))
        with pytest.raises(PersistenceError, match="rolled back"):
            database.execute("INSERT INTO t VALUES (2)")
        monkeypatch.setattr(wal_mod.os, "fsync", real_fsync)
        assert database.execute("SELECT i FROM t").fetchall() == [(1,)]
        database.execute("INSERT INTO t VALUES (3)")  # appends still work
        recovered = Database(path=crash_copy(path, tmp_path / "crash.db"))
        # the failed statement's record was truncated: live == recovered
        assert recovered.execute("SELECT i FROM t ORDER BY i").fetchall() \
            == [(1,), (3,)]
        recovered.close()
        database.close()

    def test_ctas_create_and_rows_recover_atomically(self, tmp_path, monkeypatch):
        """CTAS logs create_table + rows as one group: losing the group's
        tail must not recover an empty table."""
        from repro.sqldb.executor import Executor

        monkeypatch.setattr(Executor, "_WAL_INSERT_CHUNK_ROWS", 2)
        path = tmp_path / "ctas.db"
        database = Database(path=path)
        database.execute("CREATE TABLE src (i INTEGER)")
        database.execute("INSERT INTO src VALUES (1), (2), (3), (4), (5)")
        database.execute("CREATE TABLE dst AS SELECT i FROM src")
        crashed = crash_copy(path, tmp_path / "crash.db")
        wal = wal_path_for(crashed)
        contents = read_wal(wal)
        assert contents.records[-1]["op"] == "insert"  # dst group's last chunk
        # crash persisted the create_table record and 2 of 3 row chunks
        wal.write_bytes(wal.read_bytes()[:contents.record_offsets[-1]])
        reopened = Database(path=crashed)
        assert reopened.persistence.last_recovery.wal_torn_tail
        # the whole CTAS is gone — not an empty (or half-filled) dst
        assert "dst" not in reopened.table_names()
        assert reopened.row_count("src") == 5
        reopened.close()
        database.close()

    def test_failed_image_swap_keeps_store_usable(self, tmp_path, monkeypatch):
        """os.replace failing is pre-point-of-no-return: retryable."""
        import os as os_mod

        from repro.sqldb.persist import checkpoint as checkpoint_mod

        path = tmp_path / "swap.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER)")
        database.execute("INSERT INTO t VALUES (1)")
        real_replace = os_mod.replace
        monkeypatch.setattr(checkpoint_mod.os, "replace",
                            lambda *a: (_ for _ in ()).throw(OSError("EACCES")))
        with pytest.raises(PersistenceError, match="swap"):
            database.checkpoint()
        monkeypatch.setattr(checkpoint_mod.os, "replace", real_replace)
        # still fully usable: appends and a retried checkpoint succeed
        database.execute("INSERT INTO t VALUES (2)")
        assert database.checkpoint().generation == 1
        database.close()
        reopened = Database(path=path)
        assert reopened.execute("SELECT i FROM t ORDER BY i").fetchall() \
            == [(1,), (2,)]
        reopened.close()

    def test_second_writer_on_same_file_is_rejected(self, tmp_path):
        pytest.importorskip("fcntl")
        path = tmp_path / "locked.db"
        first = Database(path=path)
        first.execute("CREATE TABLE t (i INTEGER)")
        with pytest.raises(PersistenceError, match="locked by another"):
            Database(path=path)
        first.close()
        # the lock is released on close: a new writer may open
        second = Database(path=path)
        assert second.table_names() == ["t"]
        second.close()

    def test_fsync_batching_still_flushes_every_record(self, tmp_path):
        # group commit defers fsync, not the OS-level write: a copied file
        # (process-crash simulation) always contains every appended record
        path = tmp_path / "batch.db"
        database = Database(path=path, wal_fsync_batch=1000)
        database.execute("CREATE TABLE t (i INTEGER)")
        for index in range(10):
            database.execute(f"INSERT INTO t VALUES ({index})")
        crashed = crash_copy(path, tmp_path / "crash.db")
        reopened = Database(path=crashed)
        assert reopened.execute("SELECT COUNT(*) FROM t").scalar() == 10
        reopened.close()
        database.close()
