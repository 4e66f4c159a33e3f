"""``repro.sqldb.persist`` — durable single-file storage for the engine.

The subsystem has four layers, glued together by :class:`PersistentStore`:

* :mod:`~repro.sqldb.persist.format`    — the single-file columnar image
  (segments are wire-format chunk blobs; footer carries catalog + index).
* :mod:`~repro.sqldb.persist.wal`       — the append-only checksummed
  write-ahead log with group-commit fsync batching.
* :mod:`~repro.sqldb.persist.checkpoint` — atomic image rewrite + WAL reset.
* :mod:`~repro.sqldb.persist.recovery`  — the open sequence: load image,
  replay the same-generation WAL, discard torn tails, resume appending.

``Database(path="file.db")`` owns one store; everything here is usable
standalone for tooling (offline inspection, backup verification).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Any

from dataclasses import dataclass

from ...errors import CorruptionError, PersistenceError
from ...obs import MetricsRegistry
from . import faults
from .checkpoint import (
    BackupStats,
    CheckpointStats,
    backup_to,
    prepare_checkpoint,
    reset_wal,
    swap_image,
)
from .format import (
    DEFAULT_CODEC,
    DEFAULT_SEGMENT_ROWS,
    ImageVerifyReport,
    TableVerify,
    read_database,
    verify_image,
    write_database,
)
from .recovery import RecoveryReport, recover, tmp_path_for, wal_path_for
from .wal import DEFAULT_FSYNC_BATCH, WriteAheadLog, read_wal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..database import Database

__all__ = [
    "BackupStats",
    "CheckpointStats",
    "CorruptionError",
    "DEFAULT_CODEC",
    "DEFAULT_FSYNC_BATCH",
    "DEFAULT_SEGMENT_ROWS",
    "ImageVerifyReport",
    "PersistenceError",
    "PersistentStore",
    "RecoveryReport",
    "TableVerify",
    "VerifyReport",
    "WriteAheadLog",
    "backup_to",
    "faults",
    "read_database",
    "read_wal",
    "recover",
    "tmp_path_for",
    "verify_image",
    "wal_path_for",
    "write_database",
]


@dataclass
class VerifyReport:
    """Outcome of one ``VERIFY`` scrub: the image report plus the WAL's."""

    image: ImageVerifyReport
    wal_records: int = 0
    wal_torn: bool = False
    wal_error: str | None = None
    generation: int = 0

    @property
    def ok(self) -> bool:
        return self.image.ok and not self.wal_torn and self.wal_error is None

    @property
    def corrupt_segments(self) -> int:
        return len(self.image.faults)


class PersistentStore:
    """One database's durable state: the image file plus its WAL.

    Created by :class:`repro.sqldb.Database` when a ``path`` is given.
    ``open()`` runs recovery; :meth:`log` appends one logical mutation
    record; :meth:`checkpoint` rewrites the image and resets the log;
    :meth:`close` checkpoints once more and releases the file handles.
    """

    def __init__(self, path: str | os.PathLike[str], database: "Database", *,
                 segment_rows: int = DEFAULT_SEGMENT_ROWS,
                 codec: str = DEFAULT_CODEC,
                 fsync_batch: int = DEFAULT_FSYNC_BATCH,
                 salvage: bool = False,
                 fs: faults.FileSystem | None = None,
                 metrics: MetricsRegistry) -> None:
        self.path = Path(path)
        self.database = database
        self.segment_rows = max(1, int(segment_rows))
        self.codec = codec
        self.generation = 0
        self.salvage = bool(salvage)
        self._fs = fs
        self._h_checkpoint = metrics.histogram("persist.checkpoint_us")
        self.wal = WriteAheadLog(wal_path_for(self.path),
                                 fsync_batch=fsync_batch, fs=fs,
                                 metrics=metrics)
        self.last_recovery: RecoveryReport | None = None
        self.last_checkpoint: CheckpointStats | None = None
        self.last_verify: "VerifyReport | None" = None
        self.last_backup: BackupStats | None = None
        #: Fault-observability counters surfaced by ``SHOW STATS``.
        self.verify_runs = 0
        self.corruption_detected = 0
        self.backups_taken = 0
        self._closed = False
        self._lock_file: Any = None
        for name, read in (
                ("generation", lambda: self.generation),
                ("wal_records", lambda: self.wal.records_appended),
                ("wal_sealed", lambda: self.wal.failed is not None),
                ("verify_runs", lambda: self.verify_runs),
                ("corruption_detected", lambda: self.corruption_detected),
                ("backups_taken", lambda: self.backups_taken),
                ("quarantined_tables",
                 lambda: len(self.quarantined_tables()))):
            metrics.gauge(f"persist.{name}", read)

    @property
    def fs(self) -> faults.FileSystem:
        return self._fs or faults.current_fs()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def open(self) -> RecoveryReport:
        """Run the recovery sequence and leave the WAL open for appends."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._acquire_lock()
        try:
            report = recover(self.path, self.database, self.wal,
                             salvage=self.salvage, fs=self._fs)
        except BaseException:
            self._release_lock()
            raise
        self.generation = report.generation
        self.last_recovery = report
        self.corruption_detected += report.quarantined_segments
        return report

    def _acquire_lock(self) -> None:
        """Take an exclusive advisory lock on ``<path>.lock``.

        Two live handles on the same file would append to one WAL and
        checkpoint over each other's images, silently losing acknowledged
        writes.  ``flock`` is released by the kernel when the process dies,
        so a crash never leaves a stale lock behind.  Platforms without
        ``fcntl`` (Windows) skip the guard rather than lose durability.
        """
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX
            return
        lock_path = Path(str(self.path) + ".lock")
        handle = open(lock_path, "a+b")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise PersistenceError(
                f"database file {self.path} is locked by another process "
                "(one writer per database file)") from None
        self._lock_file = handle

    def _release_lock(self) -> None:
        if self._lock_file is not None:
            try:
                self._lock_file.close()  # closing drops the flock
            finally:
                self._lock_file = None

    def close(self, *, checkpoint: bool = True) -> None:
        """Flush, optionally checkpoint, and release the WAL handle.

        A salvaged store with live quarantined ranges skips the closing
        checkpoint (writing an image would launder placeholder NULLs into a
        clean-looking file) and just flushes the WAL.  The handle and lock
        are released even when the final flush/checkpoint fails — the error
        still propagates, but nothing leaks.
        """
        if self._closed:
            return
        try:
            if checkpoint and not self.quarantined_tables():
                self.checkpoint()
            elif self.wal.failed is None:
                # a sealed log already reported its failure once; close
                # must not raise it again on the way out
                self.wal.flush()
        finally:
            self._closed = True
            try:
                self.wal.close()
            finally:
                self._release_lock()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------ #
    # logging + checkpointing
    # ------------------------------------------------------------------ #
    def log(self, record: dict[str, Any]) -> None:
        """Append one logical mutation record to the WAL."""
        self.log_group([record])

    def log_group(self, records: Any) -> None:
        """Append one statement's records (any iterable, consumed lazily)
        as an all-or-nothing group."""
        if self._closed:
            raise PersistenceError(
                f"database file {self.path} is closed; no further writes "
                "can be made durable")
        self.wal.append_group(records)

    def checkpoint(self) -> CheckpointStats:
        """Write a fresh image (next generation) and reset the WAL."""
        if self._closed:
            raise PersistenceError(f"database file {self.path} is closed")
        self.wal.flush()
        # failures while preparing or swapping leave the old image + WAL
        # fully intact (temp files are removed), so the store stays usable
        # and the checkpoint can simply be retried
        prepared = prepare_checkpoint(
            self.path, self.database, generation=self.generation + 1,
            segment_rows=self.segment_rows, codec=self.codec, fs=self._fs)
        swap_image(self.path, prepared, fs=self._fs)
        try:
            stats = reset_wal(prepared, self.wal)
        except BaseException:
            # past the point of no return: the new image is installed but
            # the WAL still carries the old generation.  Appending further
            # records there would make recovery classify them as stale and
            # drop them silently — seal the store instead.  The on-disk
            # pair (new image + stale WAL) is consistent.
            self._closed = True
            self.wal.close()
            self._release_lock()
            raise
        self.generation = stats.generation
        self.last_checkpoint = stats
        self._h_checkpoint.observe(stats.seconds)
        return stats

    # ------------------------------------------------------------------ #
    # integrity: scrub, quarantine inspection, backup
    # ------------------------------------------------------------------ #
    def verify(self) -> "VerifyReport":
        """Re-check every checksum of the image and WAL (online scrub).

        Reads only the on-disk bytes — no storage decode, no database lock —
        so it can run next to live readers.  The WAL half tolerates a torn
        tail only when it is the live, *open* log (an append may genuinely
        be in flight); on a closed store a torn tail is a fault.
        """
        if os.path.exists(self.path):
            image = verify_image(self.path, fs=self._fs)
        else:
            # the image file is created lazily by the first checkpoint —
            # a store that has never checkpointed is new, not corrupt
            image = ImageVerifyReport(path=str(self.path),
                                      generation=self.generation)
        report = VerifyReport(image=image, generation=image.generation)
        wal_path = self.wal.path
        if wal_path.exists():
            try:
                contents = read_wal(wal_path, fs=self._fs)
            except PersistenceError as exc:
                report.wal_error = str(exc)
            else:
                report.wal_records = len(contents.records)
                report.wal_torn = contents.torn
                if contents.generation != image.generation \
                        and image.error is None and not self._closed:
                    report.wal_error = (
                        f"WAL generation {contents.generation} does not "
                        f"match image generation {image.generation}")
        self.verify_runs += 1
        if not report.ok:
            self.corruption_detected += len(image.faults) or 1
        self.last_verify = report
        return report

    def quarantined_tables(self) -> dict[str, list[Any]]:
        """Live tables with quarantined row ranges (salvage leftovers)."""
        storage = self.database.storage
        result: dict[str, list[Any]] = {}
        for name in storage.table_names():
            quarantined = getattr(storage.table(name), "quarantined", None)
            if quarantined:
                result[name] = list(quarantined)
        return result

    def backup(self, target: str | os.PathLike[str]) -> BackupStats:
        """Write a consistent standalone image at ``target`` (online backup).

        Uses the checkpoint prepare/swap machinery against the target path
        (``<target>.tmp`` + fsync + atomic rename + directory fsync); the
        live image, WAL and generation are untouched, so any failure leaves
        the store fully usable.  The result is a plain database file —
        restore is simply ``Database(path=target)``.
        """
        if self._closed:
            raise PersistenceError(f"database file {self.path} is closed")
        target = Path(target)
        if target.resolve() == self.path.resolve():
            raise PersistenceError(
                "BACKUP target must differ from the live database path")
        self.wal.flush()
        stats = backup_to(target, self.database,
                          generation=self.generation + 1,
                          segment_rows=self.segment_rows, codec=self.codec,
                          fs=self._fs)
        self.backups_taken += 1
        self.last_backup = stats
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PersistentStore({str(self.path)!r}, "
                f"generation={self.generation}, closed={self._closed})")
