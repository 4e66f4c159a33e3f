"""Online integrity: VERIFY scrub, corrupted-segment quarantine, BACKUP TO.

Corruption here is injected by byte surgery on closed files (the disk-fault
matrix in ``test_disk_faults.py`` covers live fault injection); these tests
pin the *detection and containment* contract:

* ``VERIFY`` finds every checksum violation and pins it to a table,
  row range, and file offset — without taking the database lock.
* ``salvage=True`` turns a fatal open into a quarantined one: every healthy
  table and segment loads; touching the damaged rows raises a structured
  :class:`CorruptionError`; TRUNCATE/DROP discard the quarantine.
* ``BACKUP TO`` writes a standalone image restorable with a plain
  ``Database(path=...)``.
"""

import zlib
from pathlib import Path

import pytest

from repro.errors import CorruptionError, ExecutionError, PersistenceError
from repro.sqldb.database import Database
from repro.sqldb.persist import format as persist_format
from repro.sqldb.persist import verify_image, wal_path_for


def build_database(path: Path, *, rows: int = 50) -> None:
    """Two tables, multiple segments, then a clean close (checkpointed)."""
    database = Database(path=path, segment_rows=16)
    database.execute("CREATE TABLE good (i INTEGER, s STRING)")
    database.execute("CREATE TABLE bad (i INTEGER, s STRING)")
    for start in range(0, rows, 10):
        values = ", ".join(f"({i}, 'row-{i}')"
                           for i in range(start, min(start + 10, rows)))
        database.execute(f"INSERT INTO good VALUES {values}")
        database.execute(f"INSERT INTO bad VALUES {values}")
    database.close()


def corrupt_segment(path: Path, table: str, segment_index: int = 0) -> dict:
    """Flip one byte inside a chosen segment; returns the segment meta."""
    data = bytearray(path.read_bytes())
    footer = persist_format.read_footer(bytes(data), path)
    table_meta = next(t for t in footer["tables"] if t["schema"]["name"] == table)
    segment = table_meta["segments"][segment_index]
    data[segment["offset"] + 5] ^= 0xFF
    path.write_bytes(bytes(data))
    return segment


class TestVerify:
    def test_clean_database_verifies_ok(self, tmp_path):
        path = tmp_path / "clean.db"
        build_database(path)
        database = Database(path=path)
        result = database.execute("VERIFY")
        report = dict(zip(result.to_dict()["object"],
                          result.to_dict()["status"]))
        assert report == {"good": "ok", "bad": "ok", "(wal)": "ok"}
        assert database.persistence.last_verify.ok
        database.close()

    def test_fresh_database_without_image_verifies_ok(self, tmp_path):
        # the image file appears at the first checkpoint; before that the
        # store is new, not corrupt (--verify-on-start hits this state)
        path = tmp_path / "fresh.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER)")  # WAL only, no image
        assert not path.exists()
        report = database.verify()
        assert report.ok
        assert report.image.error is None
        database.persistence.close(checkpoint=False)

    def test_verify_pins_corruption_to_table_and_rows(self, tmp_path):
        path = tmp_path / "corrupt.db"
        build_database(path)
        segment = corrupt_segment(path, "bad", segment_index=1)
        report = verify_image(path)
        assert not report.ok
        assert len(report.faults) == 1
        fault = report.faults[0]
        assert fault.table == "bad"
        # segment_rows=16: segment #1 covers rows 16..32
        assert (fault.start_row, fault.stop_row) == (16, 32)
        assert fault.offset == segment["offset"]
        assert "checksum" in fault.reason

    @pytest.mark.parametrize("footer", [b"S\0\0\0\2\xff\xfe", b"L\0\0\0\1" * 40],
                             ids=["not_utf8", "too_deep"])
    def test_a_footer_with_a_sound_crc_that_does_not_decode(self, tmp_path, footer):
        path = tmp_path / "footer.db"
        build_database(path)
        data = path.read_bytes()
        tail = persist_format._TAIL
        offset = tail.unpack_from(data, len(data) - tail.size)[0]
        path.write_bytes(data[:offset] + footer + tail.pack(
            offset, len(footer), zlib.crc32(footer), persist_format.DB_MAGIC))
        assert "footer does not decode" in verify_image(path).error
        with pytest.raises(PersistenceError, match="footer does not decode"):
            Database(path=path)

    def test_verify_statement_reports_corruption(self, tmp_path):
        path = tmp_path / "corrupt.db"
        build_database(path)
        corrupt_segment(path, "bad")
        database = Database(path=path, salvage=True)
        result = database.execute("VERIFY").to_dict()
        by_object = dict(zip(result["object"], result["status"]))
        assert by_object["bad"] == "corrupt"
        assert by_object["good"] == "ok"
        detail = dict(zip(result["object"], result["detail"]))["bad"]
        assert "checksum" in detail and "rows 0..16" in detail
        database.persistence.close(checkpoint=False)

    def test_verify_detects_wal_corruption(self, tmp_path):
        path = tmp_path / "walrot.db"
        database = Database(path=path)
        database.execute("CREATE TABLE t (i INTEGER)")
        database.execute("INSERT INTO t VALUES (1)")
        database.persistence.wal.flush()
        # flip a byte inside the first record's payload (header is 20 bytes:
        # 12 WAL header? no — header 20 = 8+2+2+8; record frame starts there)
        wal_bytes = bytearray(wal_path_for(path).read_bytes())
        wal_bytes[30] ^= 0xFF
        wal_path_for(path).write_bytes(bytes(wal_bytes))
        report = database.verify()
        assert report.wal_torn
        assert not report.ok
        database.persistence.close(checkpoint=False)

    def test_verify_requires_persistence(self):
        database = Database()
        with pytest.raises(ExecutionError, match="persistent"):
            database.execute("VERIFY")

    def test_verify_counters(self, tmp_path):
        path = tmp_path / "count.db"
        build_database(path)
        database = Database(path=path)
        assert database.persistence.verify_runs == 0
        database.execute("VERIFY")
        database.execute("VERIFY")
        assert database.persistence.verify_runs == 2
        assert database.persistence.corruption_detected == 0
        database.close()


class TestCorruptionErrors:
    def test_open_without_salvage_names_table_rows_offset(self, tmp_path):
        path = tmp_path / "named.db"
        build_database(path)
        segment = corrupt_segment(path, "bad", segment_index=2)
        with pytest.raises(CorruptionError) as info:
            Database(path=path)
        error = info.value
        assert error.table == "bad"
        assert error.row_range == (32, 48)
        assert error.offset == segment["offset"]
        # the satellite contract: the *message* names all three too
        assert "'bad'" in str(error)
        assert "rows 32..48" in str(error)
        assert str(segment["offset"]) in str(error)


class TestSalvage:
    def test_salvage_contains_damage_and_loads_the_rest(self, tmp_path):
        path = tmp_path / "salvage.db"
        build_database(path)
        corrupt_segment(path, "bad", segment_index=1)
        database = Database(path=path, salvage=True)
        report = database.persistence.last_recovery
        assert report.quarantined_segments == 1
        # every healthy table is fully usable
        assert database.execute("SELECT COUNT(*) FROM good").scalar() == 50
        # the damaged table refuses reads with the structured error
        with pytest.raises(CorruptionError) as info:
            database.execute("SELECT * FROM bad")
        assert info.value.table == "bad"
        assert info.value.row_range == (16, 32)
        with pytest.raises(CorruptionError):
            database.execute("DELETE FROM bad WHERE i = 1")
        with pytest.raises(CorruptionError):
            database.execute("UPDATE bad SET s = 'x' WHERE i = 1")
        # appends land after the damaged range: allowed
        database.execute("INSERT INTO bad VALUES (99, 'new')")
        database.persistence.close(checkpoint=False)

    def test_checkpoint_refused_while_quarantined(self, tmp_path):
        """A salvaged image must never be laundered into a 'healthy' one."""
        path = tmp_path / "launder.db"
        build_database(path)
        corrupt_segment(path, "bad")
        database = Database(path=path, salvage=True)
        with pytest.raises(CorruptionError, match="quarantined"):
            database.execute("CHECKPOINT")
        with pytest.raises(CorruptionError, match="quarantined"):
            database.backup(tmp_path / "out.db")
        # close() skips the closing checkpoint rather than laundering
        before = path.read_bytes()
        database.close()
        assert path.read_bytes() == before

    def test_truncate_discards_quarantine(self, tmp_path):
        path = tmp_path / "truncate.db"
        build_database(path)
        corrupt_segment(path, "bad")
        database = Database(path=path, salvage=True)
        database.execute("DELETE FROM bad")  # no WHERE: truncate
        # quarantine gone: reads work, checkpoint allowed again
        assert database.execute("SELECT COUNT(*) FROM bad").scalar() == 0
        database.execute("INSERT INTO bad VALUES (1, 'fresh')")
        database.execute("CHECKPOINT")
        database.close()
        reopened = Database(path=path)
        assert reopened.verify().ok
        assert reopened.execute("SELECT COUNT(*) FROM bad").scalar() == 1
        assert reopened.execute("SELECT COUNT(*) FROM good").scalar() == 50
        reopened.close()

    def test_drop_discards_quarantine(self, tmp_path):
        path = tmp_path / "drop.db"
        build_database(path)
        corrupt_segment(path, "bad")
        database = Database(path=path, salvage=True)
        database.execute("DROP TABLE bad")
        database.execute("CHECKPOINT")
        database.close()
        reopened = Database(path=path)
        assert reopened.verify().ok
        assert reopened.table_names() == ["good"]
        reopened.close()

    def test_wal_records_for_quarantined_table_are_skipped(self, tmp_path):
        """Replaying row-level records over NULL placeholders would corrupt
        row positions — salvage recovery must skip them, not crash."""
        path = tmp_path / "replay.db"
        database = Database(path=path, segment_rows=16)
        database.execute("CREATE TABLE bad (i INTEGER, s STRING)")
        database.execute("CREATE TABLE good (i INTEGER)")
        values = ", ".join(f"({i}, 'row-{i}')" for i in range(40))
        database.execute(f"INSERT INTO bad VALUES {values}")
        database.execute("CHECKPOINT")
        # post-checkpoint mutations live only in the WAL
        database.execute("INSERT INTO bad VALUES (100, 'wal-only')")
        database.execute("INSERT INTO good VALUES (7)")
        database.persistence.close(checkpoint=False)
        corrupt_segment(path, "bad")
        salvaged = Database(path=path, salvage=True)
        report = salvaged.persistence.last_recovery
        assert report.quarantined_segments == 1
        assert report.wal_records_skipped == 1   # the 'bad' insert
        assert report.wal_records_replayed == 1  # the 'good' insert
        assert salvaged.execute("SELECT COUNT(*) FROM good").scalar() == 1
        salvaged.persistence.close(checkpoint=False)


class TestBackup:
    def test_backup_and_restore(self, tmp_path):
        path = tmp_path / "live.db"
        build_database(path)
        database = Database(path=path)
        generation = database.persistence.generation
        target = tmp_path / "restore.db"
        result = database.execute(f"BACKUP TO '{target}'").to_dict()
        assert result["rows"] == [100]
        assert target.exists()
        # the live store is untouched: same generation, still writable
        assert database.persistence.generation == generation
        database.execute("INSERT INTO good VALUES (999, 'after-backup')")
        database.close()
        restored = Database(path=target)
        assert restored.execute("SELECT COUNT(*) FROM good").scalar() == 50
        assert restored.execute("SELECT COUNT(*) FROM bad").scalar() == 50
        assert restored.verify().ok
        # the backup is a first-class database: writable, checkpointable
        restored.execute("INSERT INTO good VALUES (1000, 'in-restore')")
        restored.close()

    def test_backup_refuses_live_path(self, tmp_path):
        path = tmp_path / "self.db"
        build_database(path)
        database = Database(path=path)
        with pytest.raises(PersistenceError, match="differ"):
            database.backup(path)
        database.close()

    def test_backup_requires_persistence(self, tmp_path):
        database = Database()
        with pytest.raises(ExecutionError, match="persistent"):
            database.execute(f"BACKUP TO '{tmp_path / 'nope.db'}'")

    def test_backup_counter_and_stats(self, tmp_path):
        path = tmp_path / "counted.db"
        build_database(path)
        database = Database(path=path)
        database.execute(f"BACKUP TO '{tmp_path / 'one.db'}'")
        database.execute(f"BACKUP TO '{tmp_path / 'two.db'}'")
        assert database.persistence.backups_taken == 2
        assert database.persistence.last_backup is not None
        database.close()


class TestShowStats:
    def test_show_stats_exposes_engine_and_persist_counters(self, tmp_path):
        path = tmp_path / "stats.db"
        build_database(path)
        database = Database(path=path)
        database.execute("VERIFY")
        result = database.execute("SHOW STATS").to_dict()
        stats = dict(zip(result["name"], result["value"]))
        assert stats["db.tables"] == 2
        assert stats["persist.verify_runs"] == 1
        assert stats["persist.corruption_detected"] == 0
        assert stats["persist.wal_sealed"] == 0
        assert stats["persist.backups_taken"] == 0
        database.close()

    def test_show_stats_counts_detected_corruption(self, tmp_path):
        path = tmp_path / "stats2.db"
        build_database(path)
        corrupt_segment(path, "bad")
        database = Database(path=path, salvage=True)
        database.execute("VERIFY")
        result = database.execute("SHOW STATS").to_dict()
        stats = dict(zip(result["name"], result["value"]))
        assert stats["persist.quarantined_tables"] == 1
        assert stats["persist.corruption_detected"] >= 1
        database.persistence.close(checkpoint=False)

    def test_show_stats_works_in_memory(self):
        database = Database()
        database.execute("CREATE TABLE t (i INTEGER)")
        result = database.execute("SHOW STATS").to_dict()
        stats = dict(zip(result["name"], result["value"]))
        assert stats["db.tables"] == 1
        assert "persist.generation" not in stats
