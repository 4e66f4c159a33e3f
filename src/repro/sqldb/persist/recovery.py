"""Crash recovery: rebuild in-memory state from the file + write-ahead log.

Open sequence (ARIES reduced to its redo-only core — the engine applies
mutations in memory first and has no steal/no-force pages, so recovery is a
pure replay of logical records over the last checkpoint image):

1. A leftover ``*.tmp`` checkpoint file is deleted — an interrupted
   checkpoint never replaced the real file, so the temp image is garbage.
2. The database file, if present, is loaded through the shared columnar
   decode path (:func:`repro.sqldb.persist.format.read_database`); its
   footer names the checkpoint ``generation``.
3. The WAL, if present and of the *same* generation, is replayed record by
   record.  A torn tail (crash mid-append) is detected by checksum and
   discarded; the log is truncated back to the last intact record so new
   appends never follow garbage.  A WAL of an older generation is a crash
   between checkpoint-replace and log-reset: the image already contains
   everything the log describes, so the log is reset, not replayed.  An
   older version's log is refused if it holds records and reset if not.
4. Appending resumes on the recovered log.

Replay applies records through the entry points the executor and the image
loader use (an insert's chunk through the segment loader), with
``if_not_exists``/``if_exists`` semantics so replay is idempotent —
re-opening after a crash *during* recovery-triggered truncation converges to
the same state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from ...errors import PersistenceError
from . import faults
from . import format as format_mod
from .wal import HEADER_SIZE, WAL_VERSION, WalContents, WriteAheadLog
from .wal import read_wal, unpack_mask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..database import Database


@dataclass
class RecoveryReport:
    """What one open did: image load plus WAL replay accounting."""

    generation: int = 0
    image_tables: int = 0
    image_rows: int = 0
    wal_records_replayed: int = 0
    wal_torn_tail: bool = False
    wal_torn_header: bool = False
    wal_was_stale: bool = False
    removed_tmp_file: bool = False
    #: Segments the salvage loader quarantined instead of failing the open
    #: (always empty without ``salvage=True``).
    quarantined_segments: int = 0
    #: WAL records skipped because they target a quarantined table (salvage
    #: only): their row indices refer to data the placeholders cannot carry.
    wal_records_skipped: int = 0


def wal_path_for(path: str | os.PathLike[str]) -> Path:
    return Path(str(path) + ".wal")


def tmp_path_for(path: str | os.PathLike[str]) -> Path:
    return Path(str(path) + ".tmp")


def recover(path: str | os.PathLike[str], database: "Database",
            wal: WriteAheadLog, *, salvage: bool = False,
            fs: faults.FileSystem | None = None) -> RecoveryReport:
    """Load the image, replay the WAL, and leave ``wal`` open for appends.

    ``salvage=True`` quarantines corrupt image segments instead of failing
    the open (see :func:`repro.sqldb.persist.format.read_database`); WAL
    replay still runs — replayed appends land after any quarantined range.
    """
    report = RecoveryReport()
    db_path = Path(path)
    tmp_path = tmp_path_for(path)
    if tmp_path.exists():
        # a checkpoint died before its atomic rename: the half-written image
        # is worthless, the previous image + WAL are still authoritative
        tmp_path.unlink()
        report.removed_tmp_file = True

    if db_path.exists():
        image = format_mod.read_database(db_path, database.storage,
                                         database.catalog,
                                         salvage=salvage, fs=fs)
        report.generation = image.generation
        report.image_tables = image.tables
        report.image_rows = image.rows
        report.quarantined_segments = len(image.quarantined)

    if wal.path.exists():
        if wal.path.stat().st_size < HEADER_SIZE:
            # a crash between a WAL reset's truncate and its header write
            # leaves a short file; no record can exist past a truncate, so
            # recreating at the image's generation loses nothing
            report.wal_torn_header = True
            wal.create(report.generation)
            return report
        contents = read_wal(wal.path, fs=fs)
        if contents.generation == report.generation \
                and contents.version == WAL_VERSION:
            good_end = _replay(database, contents, report, salvage=salvage)
            wal.open_at(good_end)
        else:
            # a stale log from before the last completed checkpoint (the
            # crash hit between file replace and log reset), whose effects
            # are already inside the image, or a header-only older log (a
            # clean close): nothing to replay
            report.wal_was_stale = contents.generation != report.generation
            wal.create(report.generation)
    else:
        wal.create(report.generation)
    return report


# --------------------------------------------------------------------------- #
# record replay
# --------------------------------------------------------------------------- #
def _replay(database: "Database", contents: WalContents,
            report: RecoveryReport, *, salvage: bool = False) -> int:
    """Replay WAL records statement-atomically; returns the truncation point.

    A bulk statement is logged as a *group* of consecutive records — every
    record but the last carries ``"more": True`` (the executor holds the
    database lock for the whole statement, so groups are never interleaved).
    A group is applied only once its final record is present: a tail that
    ends inside a group is discarded and truncated away exactly like a torn
    record, because replaying a prefix would recover a partially-applied
    statement no committed execution could produce.

    In salvage mode, records that insert into / delete from / update a
    *quarantined* table are skipped: their row indices refer to real values
    the NULL placeholders cannot stand in for.  TRUNCATE and DROP still
    apply — they discard the quarantine along with the data, so records
    after them replay normally.
    """
    pending: list[tuple[dict[str, Any], int]] = []  # (record, its offset)
    replayed = 0
    skipped = 0

    def _apply(record: dict[str, Any], offset: int) -> None:
        nonlocal replayed, skipped
        if salvage and _targets_quarantined(database, record):
            skipped += 1
            return
        try:
            apply_record(database, record)
        except PersistenceError as exc:
            raise PersistenceError(f"{exc} (the record at byte {offset} of "
                                   f"the log)") from exc
        replayed += 1

    for record, offset in zip(contents.records, contents.record_offsets):
        if record.get("more"):
            pending.append((record, offset))
            continue
        for part in pending:
            _apply(*part)
        pending.clear()
        _apply(record, offset)
    report.wal_records_replayed = replayed
    report.wal_records_skipped = skipped
    report.wal_torn_tail = contents.torn or bool(pending)
    if pending:
        # the group's final record never made it to disk: discard the prefix
        return pending[0][1]
    return contents.good_end


def _targets_quarantined(database: "Database", record: dict[str, Any]) -> bool:
    """Whether a row-level record addresses a table with quarantined rows."""
    if record.get("op") not in ("insert", "delete", "update"):
        return False
    name = str(record.get("table", ""))
    storage = database.storage
    if not storage.has_table(name):
        return False
    return bool(storage.table(name).quarantined)


def apply_record(database: "Database", record: dict[str, Any]) -> None:
    """Apply one logical WAL record to the database's in-memory state.

    Mutations go through the storage layer's public entry points, so value
    coercion behaves exactly as it did when the original statement ran.
    """
    op = record.get("op")
    storage = database.storage
    try:
        if op == "create_table":
            storage.create_table(
                format_mod.schema_from_record(record["schema"]),
                if_not_exists=True)
        elif op == "drop_table":
            storage.drop_table(str(record["name"]), if_exists=True)
        elif op == "insert":
            format_mod._load_segment(storage.table(str(record["table"])),
                                     record["chunk"], "WAL record")
        elif op == "delete":
            keep = unpack_mask(record["keep_compressed"], int(record["count"]))
            storage.table(str(record["table"])).delete_rows(keep)
        elif op == "truncate":
            storage.table(str(record["table"])).truncate()
        elif op == "update":
            _apply_update(database, record)
        elif op == "create_function":
            signature = format_mod.signature_from_record(record["signature"])
            database.catalog.register(signature, replace=True)
        elif op == "drop_function":
            database.catalog.drop(str(record["name"]), if_exists=True)
        else:
            raise PersistenceError(f"unknown WAL record op {op!r}")
    except PersistenceError:
        raise
    except KeyError as exc:
        raise PersistenceError(f"WAL replay failed on {op!r} record: it has "
                               f"no {exc.args[0]!r} field") from exc
    except Exception as exc:
        raise PersistenceError(
            f"WAL replay failed on {op!r} record: {exc}") from exc


def _apply_update(database: "Database", record: dict[str, Any]) -> None:
    table = database.storage.table(str(record["table"]))
    indices = np.asarray(record["indices"], dtype=np.intp)
    for column_name, values in record["columns"].items():
        if len(values) != len(indices):
            raise PersistenceError(
                f"UPDATE record for {record['table']!r}.{column_name!r}: "
                f"{len(values)} values for {len(indices)} selected rows")
    table.assign_rows(indices, record["columns"])
