"""Disk fault injection matrix for the durable storage subsystem.

Every cell of the required matrix — fault {EIO, ENOSPC, short write, torn
write, bit flip, fsync failure} x site {WAL append, WAL reset, checkpoint
image, checkpoint swap, backup} — must land in one of three acceptable
outcomes:

* the store stays **fully usable** (the failing operation rolled back),
* the store **seals** with a structured :class:`PersistenceError` (no
  further write can honestly claim durability), or
* the damage is **detected on reopen** (checksums catch what a lying disk
  acknowledged) and recovery converges to an intact prefix.

Never acceptable: silently losing a write the caller saw acknowledged as
durable, or silently applying bytes the disk corrupted.

Faults are injected through :mod:`repro.sqldb.persist.faults` — the
storage-side twin of the network chaos proxy: deterministic, keyed on byte
offsets and call counts, never timers.
"""

import shutil
from pathlib import Path

import pytest

from repro.errors import CorruptionError, PersistenceError
from repro.netproto.columnar import decode_chunk
from repro.obs import MetricsRegistry
from repro.sqldb.database import Database
from repro.sqldb.persist import read_wal, wal_path_for
from repro.sqldb.persist.faults import DiskFaultSpec, FaultyFS, injected
from repro.sqldb.persist.recovery import tmp_path_for
from repro.sqldb.persist.wal import HEADER_SIZE, WriteAheadLog


def seeded_database(path: Path) -> Database:
    database = Database(path=path)
    database.execute("CREATE TABLE t (i INTEGER, s STRING)")
    database.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    return database


def row_values(database: Database) -> list[tuple]:
    return database.execute("SELECT * FROM t ORDER BY i").fetchall()


SEED_ROWS = [(1, "a"), (2, "b"), (3, "c")]


# --------------------------------------------------------------------------- #
# WAL unit level: fsyncgate semantics
# --------------------------------------------------------------------------- #
class TestWalFsyncgate:
    """A failed fsync must never be retried against the dirty page cache."""

    def test_append_fsync_failure_truncates_group_and_recovers(self, tmp_path):
        """With nothing pending beyond the group, a failed append fsync is
        fully contained: truncate the group and the log stays honest."""
        wal_file = tmp_path / "log.wal"
        # fsync #1 is the header; #2 is the first (batch-of-1) append
        fs = FaultyFS(DiskFaultSpec(match=".wal", fail_fsync_at_call=2))
        wal = WriteAheadLog(wal_file, fsync_batch=1, fs=fs,
                            metrics=MetricsRegistry())
        wal.create(generation=1)
        with pytest.raises(PersistenceError, match="rolled back"):
            wal.append({"op": "truncate", "table": "t"})
        # the unacknowledged record was truncated away, not left behind,
        # and no earlier record's durability is in doubt: no seal
        assert wal.failed is None
        fs.heal()
        assert wal_file.stat().st_size == HEADER_SIZE
        assert read_wal(wal_file).records == []
        wal.append({"op": "truncate", "table": "u"})
        wal.close()
        assert [r["table"] for r in read_wal(wal_file).records] == ["u"]

    def test_append_fsync_failure_with_pending_records_seals(self, tmp_path):
        """Earlier acknowledged-but-unsynced records were covered by the
        failed fsync too — their pages may be gone, so the log must seal."""
        wal_file = tmp_path / "log.wal"
        fs = FaultyFS(DiskFaultSpec(match=".wal", fail_fsync_at_call=2))
        wal = WriteAheadLog(wal_file, fsync_batch=2, fs=fs,
                            metrics=MetricsRegistry())
        wal.create(generation=1)
        wal.append({"op": "truncate", "table": "t"})  # pending, no fsync yet
        with pytest.raises(PersistenceError, match="sealed"):
            wal.append({"op": "truncate", "table": "u"})  # batch fsync fails
        assert wal.failed is not None
        # only the unacknowledged group was truncated; the earlier record
        # stays in the file for recovery to re-read from disk
        fs.heal()
        assert [r["table"] for r in read_wal(wal_file).records] == ["t"]
        # sealed for good: append, flush, reset all refuse
        with pytest.raises(PersistenceError, match="sealed"):
            wal.append({"op": "truncate", "table": "t"})
        with pytest.raises(PersistenceError, match="sealed"):
            wal.flush()
        with pytest.raises(PersistenceError, match="sealed"):
            wal.reset(generation=2)
        wal.close()  # releases the handle without claiming durability

    def test_flush_fsync_failure_seals(self, tmp_path):
        wal_file = tmp_path / "log.wal"
        fs = FaultyFS(DiskFaultSpec(match=".wal", fail_fsync_at_call=2))
        wal = WriteAheadLog(wal_file, fsync_batch=1000, fs=fs,
                            metrics=MetricsRegistry())
        wal.create(generation=1)
        wal.append({"op": "truncate", "table": "t"})  # batched, no fsync yet
        with pytest.raises(PersistenceError, match="sealed"):
            wal.flush()
        assert wal.failed is not None
        wal.close()

    def test_reset_write_failure_seals(self, tmp_path):
        wal_file = tmp_path / "log.wal"
        # write #1 creates the header, #2 is the append, #3 is the reset's
        # fresh header — fail that one
        fs = FaultyFS(DiskFaultSpec(match=".wal", fail_write_at_call=3))
        wal = WriteAheadLog(wal_file, fsync_batch=1000, fs=fs,
                            metrics=MetricsRegistry())
        wal.create(generation=1)
        wal.append({"op": "truncate", "table": "t"})
        with pytest.raises(PersistenceError, match="reset"):
            wal.reset(generation=2)
        assert wal.failed is not None
        with pytest.raises(PersistenceError, match="sealed"):
            wal.append({"op": "truncate", "table": "t"})
        wal.close()

    def test_append_write_eio_rolls_back_and_stays_usable(self, tmp_path):
        wal_file = tmp_path / "log.wal"
        fs = FaultyFS(DiskFaultSpec(match=".wal", fail_write_at_call=2))
        wal = WriteAheadLog(wal_file, fsync_batch=1000, fs=fs,
                            metrics=MetricsRegistry())
        wal.create(generation=1)
        with pytest.raises(PersistenceError, match="rolled back"):
            wal.append({"op": "truncate", "table": "t"})
        # an EIO append truncates the group: the log is still healthy
        assert wal.failed is None
        wal.append({"op": "truncate", "table": "u"})
        wal.close()
        contents = read_wal(wal_file)
        assert [r["table"] for r in contents.records] == ["u"]
        assert not contents.torn


# --------------------------------------------------------------------------- #
# store level: WAL append site
# --------------------------------------------------------------------------- #
class TestWalAppendFaults:
    @pytest.mark.parametrize("kind", ["eio", "enospc", "torn"])
    def test_failed_append_rolls_back_statement(self, tmp_path, kind):
        path = tmp_path / "t.db"
        # write faults apply to handles *opened through* the faulty fs, so
        # the whole lifetime runs under injection; the fault is armed after
        # seeding by pointing it at the next write / the current file end
        fs = FaultyFS(DiskFaultSpec(match=".wal"))
        with injected(fs):
            database = seeded_database(path)
            wal_size = wal_path_for(path).stat().st_size
            if kind == "eio":
                fs.spec.fail_write_at_call = fs.writes + 1
            elif kind == "enospc":
                fs.spec.enospc_at_byte = wal_size + 8
            else:
                fs.spec.torn_write_at_call = fs.writes + 1
            with pytest.raises(PersistenceError):
                database.execute("INSERT INTO t VALUES (4, 'd')")
            assert fs.faults_fired >= 1
            # live state rolled back with the WAL group: statement atomicity
            assert row_values(database) == SEED_ROWS
            # the store is fully usable once the fault clears
            fs.heal()
            database.execute("INSERT INTO t VALUES (5, 'e')")
            database.close()
        reopened = Database(path=path)
        assert row_values(reopened) == SEED_ROWS + [(5, "e")]
        reopened.persistence.close(checkpoint=False)

    def test_short_write_is_caught_by_checksum_on_reopen(self, tmp_path):
        """A lying disk acknowledges half a record; the crc catches it."""
        path = tmp_path / "t.db"
        fs = FaultyFS(DiskFaultSpec(match=".wal"))
        with injected(fs):
            database = seeded_database(path)
            fs.spec.short_write_at_call = fs.writes + 1
            database.execute("INSERT INTO t VALUES (4, 'd')")  # disk lied
        assert fs.faults_fired == 1
        # simulate the crash that makes the lie matter (a clean close would
        # checkpoint and rewrite the image from intact memory)
        crash = tmp_path / "crash.db"
        if path.exists():  # no checkpoint ran: state may live in the WAL only
            shutil.copy(path, crash)
        shutil.copy(wal_path_for(path), wal_path_for(crash))
        database.persistence.close(checkpoint=False)
        reopened = Database(path=crash)
        # the half-written record is a torn tail: detected and discarded,
        # never decoded into garbage rows
        assert reopened.persistence.last_recovery.wal_torn_tail
        assert row_values(reopened) == SEED_ROWS
        reopened.execute("INSERT INTO t VALUES (9, 'z')")  # log still usable
        reopened.persistence.close(checkpoint=False)

    def test_fsync_failure_seals_store_but_loses_nothing_durable(self, tmp_path):
        path = tmp_path / "t.db"
        database = seeded_database(path)
        fs = FaultyFS(DiskFaultSpec(match=".wal", fail_fsync_at_call=1))
        with injected(fs):
            # CHECKPOINT starts with a WAL flush -> fsync -> injected EIO
            with pytest.raises(PersistenceError, match="fsync|sealed"):
                database.execute("CHECKPOINT")
            assert database.persistence.wal.failed is not None
            with pytest.raises(PersistenceError, match="sealed"):
                database.execute("INSERT INTO t VALUES (4, 'd')")
        database.persistence.close(checkpoint=False)
        # reopen re-reads what actually hit the disk: every acknowledged
        # record is still there
        reopened = Database(path=path)
        assert row_values(reopened) == SEED_ROWS
        reopened.persistence.close(checkpoint=False)


# --------------------------------------------------------------------------- #
# store level: checkpoint image + swap + WAL reset sites
# --------------------------------------------------------------------------- #
class TestCheckpointFaults:
    @pytest.mark.parametrize("spec", [
        DiskFaultSpec(match=".tmp", fail_write_at_call=1),
        DiskFaultSpec(match=".tmp", enospc_at_byte=64),
        DiskFaultSpec(match=".tmp", torn_write_at_call=1),
        DiskFaultSpec(match=".tmp", fail_fsync_at_call=1),
    ], ids=["eio", "enospc", "torn", "fsync"])
    def test_failed_image_write_is_retryable(self, tmp_path, spec):
        path = tmp_path / "t.db"
        database = seeded_database(path)
        fs = FaultyFS(spec)
        with injected(fs):
            with pytest.raises(PersistenceError, match="retryable"):
                database.execute("CHECKPOINT")
        assert fs.faults_fired >= 1
        # the half-written temp image never survives a failed prepare
        assert not tmp_path_for(path).exists()
        # old image + WAL are intact; the checkpoint simply retries
        fs.heal()
        with injected(fs):
            stats = database.checkpoint()
        assert stats.rows == 3
        database.close()
        reopened = Database(path=path)
        assert row_values(reopened) == SEED_ROWS
        reopened.persistence.close(checkpoint=False)

    def test_failed_swap_is_retryable(self, tmp_path):
        path = tmp_path / "t.db"
        database = seeded_database(path)
        fs = FaultyFS(DiskFaultSpec(match=".tmp", fail_replace=True))
        with injected(fs):
            with pytest.raises(PersistenceError, match="swap"):
                database.execute("CHECKPOINT")
        assert not tmp_path_for(path).exists()
        fs.heal()
        with injected(fs):
            database.checkpoint()
        database.close()
        reopened = Database(path=path)
        assert row_values(reopened) == SEED_ROWS
        reopened.persistence.close(checkpoint=False)

    def test_failed_wal_reset_after_swap_seals_store(self, tmp_path):
        """Past the point of no return: new image installed, WAL reset dies.

        Appending to a WAL whose generation no longer matches the image
        would make recovery classify those records as already-checkpointed
        and drop them — the store must seal instead.  The on-disk state
        (new image + truncated WAL) is consistent, so reopening recovers
        everything the checkpoint captured.
        """
        path = tmp_path / "t.db"
        fs = FaultyFS(DiskFaultSpec(match=".wal"))
        with injected(fs):
            database = seeded_database(path)
            # the next .wal write is the reset's fresh header (the
            # pre-checkpoint flush writes nothing, it only fsyncs)
            fs.spec.fail_write_at_call = fs.writes + 1
            with pytest.raises(PersistenceError, match="reset"):
                database.execute("CHECKPOINT")
        assert database.persistence.closed
        with pytest.raises(PersistenceError, match="closed"):
            database.execute("INSERT INTO t VALUES (4, 'd')")
        reopened = Database(path=path)
        # the headerless truncated log is recreated at the image generation
        assert reopened.persistence.last_recovery.wal_torn_header
        assert row_values(reopened) == SEED_ROWS
        reopened.persistence.close(checkpoint=False)


# --------------------------------------------------------------------------- #
# store level: backup site
# --------------------------------------------------------------------------- #
class TestBackupFaults:
    @pytest.mark.parametrize("spec", [
        # the match token must not collide with the pytest tmp dir name
        # (which embeds this test's name, containing "backup")
        DiskFaultSpec(match="copyout", fail_write_at_call=1),
        DiskFaultSpec(match="copyout", enospc_at_byte=64),
        DiskFaultSpec(match="copyout", fail_fsync_at_call=1),
        DiskFaultSpec(match="copyout", fail_replace=True),
    ], ids=["eio", "enospc", "fsync", "replace"])
    def test_failed_backup_leaves_live_store_untouched(self, tmp_path, spec):
        path = tmp_path / "t.db"
        target = tmp_path / "copyout.db"
        database = seeded_database(path)
        generation_before = database.persistence.generation
        fs = FaultyFS(spec)
        with injected(fs):
            with pytest.raises(PersistenceError):
                database.execute(f"BACKUP TO '{target}'")
        # cleanup convention: no half-written target, no stray temp file
        assert not target.exists()
        assert not tmp_path_for(target).exists()
        # the live store never noticed
        assert database.persistence.generation == generation_before
        assert row_values(database) == SEED_ROWS
        fs.heal()
        with injected(fs):
            database.execute(f"BACKUP TO '{target}'")
        database.close()
        restored = Database(path=target)
        assert row_values(restored) == SEED_ROWS
        restored.persistence.close(checkpoint=False)


# --------------------------------------------------------------------------- #
# bit flips: written corrupt, read corrupt
# --------------------------------------------------------------------------- #
class TestBitFlips:
    def test_bit_flip_on_image_write_is_detected_on_reopen(self, tmp_path):
        """The disk flips a byte inside a segment as the image is written;
        the segment checksum (computed from intact memory) convicts it."""
        path = tmp_path / "t.db"
        database = seeded_database(path)
        # offset 20 lands inside the first segment (the header is 16 bytes)
        fs = FaultyFS(DiskFaultSpec(match=".tmp", corrupt_at_byte=20))
        with injected(fs):
            database.close()  # closing checkpoint writes the corrupt image
        assert fs.faults_fired == 1
        with pytest.raises(CorruptionError, match="checksum") as info:
            Database(path=path)
        assert info.value.table == "t"
        assert info.value.row_range is not None
        assert info.value.offset is not None
        # salvage mode contains the same damage instead of failing the open
        salvaged = Database(path=path, salvage=True)
        assert salvaged.persistence.last_recovery.quarantined_segments == 1
        with pytest.raises(CorruptionError, match="quarantined"):
            salvaged.execute("SELECT * FROM t")
        salvaged.persistence.close(checkpoint=False)

    def test_bit_rot_on_read_is_detected_at_open(self, tmp_path):
        path = tmp_path / "t.db"
        seeded_database(path).close()
        fs = FaultyFS(DiskFaultSpec(match="t.db", corrupt_read_at_byte=20))
        with injected(fs):
            with pytest.raises(CorruptionError, match="checksum"):
                Database(path=path)
        # the rot was transient (a bad cable, not bad media): the file on
        # disk is intact and opens cleanly without the fault
        reopened = Database(path=path)
        assert row_values(reopened) == SEED_ROWS
        reopened.persistence.close(checkpoint=False)

    def test_read_eio_at_open_is_structured(self, tmp_path):
        path = tmp_path / "t.db"
        seeded_database(path).close()
        fs = FaultyFS(DiskFaultSpec(match="t.db", fail_read_at_call=1))
        with injected(fs):
            with pytest.raises(PersistenceError, match="read failed"):
                Database(path=path)
        reopened = Database(path=path)
        assert row_values(reopened) == SEED_ROWS
        reopened.persistence.close(checkpoint=False)


# --------------------------------------------------------------------------- #
# torn-tail property: truncation at EVERY byte offset
# --------------------------------------------------------------------------- #
class TestTornTailEveryByte:
    def test_recovery_from_every_truncation_offset(self, tmp_path):
        """Chop the WAL at every single byte offset; recovery must always
        converge to a complete-statement prefix and stay appendable."""
        path = tmp_path / "full.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER)")
        database.execute("CHECKPOINT")  # the image owns the (empty) table
        database.execute("INSERT INTO t VALUES (1)")
        database.execute("INSERT INTO t VALUES (2), (3)")
        database.execute("DELETE FROM t WHERE i = 1")
        database.persistence.close(checkpoint=False)  # keep the WAL populated

        wal_bytes = wal_path_for(path).read_bytes()
        assert len(wal_bytes) > HEADER_SIZE

        for cut in range(len(wal_bytes) + 1):
            copy = tmp_path / "cut.db"
            if path.exists():
                shutil.copy(path, copy)
            wal_path_for(copy).write_bytes(wal_bytes[:cut])

            if cut < HEADER_SIZE:
                # shorter than a header: recovery recreates the log
                reopened = Database(path=copy)
                assert reopened.persistence.last_recovery.wal_torn_header
                expected_rows: list[tuple] = []
            else:
                # the intact-prefix oracle: whatever records survive the cut,
                # minus a trailing unterminated statement group
                contents = read_wal(wal_path_for(copy))
                records = list(contents.records)
                while records and records[-1].get("more"):
                    records.pop()
                expected: list[int] = []
                for record in records:
                    if record["op"] == "insert":
                        expected.extend(
                            decode_chunk(record["chunk"])[1][0].materialise().to_list())
                    elif record["op"] == "delete":
                        expected = [value for keep, value in
                                    zip(_unpack(record), expected) if keep]
                expected_rows = [(value,) for value in sorted(expected)]
                reopened = Database(path=copy)
            assert reopened.execute(
                "SELECT * FROM t ORDER BY i").fetchall() == expected_rows, \
                f"diverged at truncation offset {cut}"
            # the recovered log accepts new appends at every offset
            reopened.execute("INSERT INTO t VALUES (99)")
            reopened.persistence.close(checkpoint=False)


def _unpack(record):
    from repro.sqldb.persist import wal as wal_mod

    return wal_mod.unpack_mask(record["keep_compressed"], int(record["count"]))
