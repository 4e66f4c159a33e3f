"""Write-ahead log: an append-only, checksummed record stream.

Every SQL-level mutation (DML and DDL) is appended to the log *after* it has
been applied in memory but before the statement's result is returned, so a
crash loses at most the records that were never written — never a record the
caller saw succeed and that a subsequent ``fsync`` confirmed durable.

File layout::

    +----------------------------------------------+
    | header: magic "REPROWAL" | u16 version       |
    |         u16 reserved     | u64 generation    |
    +----------------------------------------------+
    | record: u32 payload length | u32 crc32       |
    |         payload (value-codec encoded dict)   |
    +----------------------------------------------+
    | ...more records...                           |
    +----------------------------------------------+

Records are dictionaries encoded with the shared self-describing value codec
(:func:`repro.netproto.wire.encode_value`) — the same bytes-level codec the
client protocol uses, so the WAL introduces no parallel serialisation scheme.
Rows travel as typed buffers: an ``insert`` record's ``chunk`` is one
columnar chunk blob (an image segment's form, its dictionary compacted to
those rows) and a ``delete`` record's ``keep_compressed`` a compressed
keep-bitmap.

One version is read: the one written, 4.  A log of an older version that
holds records is refused with an error naming its version (its records may
be shapes or sections this build does not decode; open it with the build
that wrote it and CHECKPOINT).  A header-only older log, which is what a
clean close leaves, has nothing to replay: recovery re-creates it at the
image's generation, as it does a stale log.
The crc32 covers the payload only; a torn tail (crash mid-append) is detected
on read as a short header, short payload, or checksum mismatch, and everything
from the first bad record onward is discarded (those statements never
acknowledged durability).

``generation`` ties a log to one checkpoint of the database file: every
checkpoint bumps the generation and resets the log, so a stale log (crash
between the atomic file replace and the log reset) is recognised and ignored
instead of being replayed over a newer checkpoint.

Durability policy: ``fsync_batch`` groups commits — the file is flushed to the
OS on every append (a crash of *this process* loses nothing) but ``fsync`` to
stable storage happens every N records and at every checkpoint/close, which is
the classic group-commit trade between insert throughput and the window a
whole-machine crash can lose.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from time import perf_counter

from ...errors import PersistenceError, WireFormatError
from ...netproto.wire import decode_value, encode_value
from ...obs import MetricsRegistry
from . import faults
from .records import pack_mask, unpack_mask  # noqa: F401  (record-level API)

WAL_MAGIC = b"REPROWAL"
WAL_VERSION = 4

_HEADER = struct.Struct("<8sHHQ")   # magic, version, reserved, generation
_RECORD = struct.Struct("<II")      # payload length, payload crc32

#: Exposed for recovery's torn-header detection (a crash between the
#: truncate and the header write of a WAL reset leaves a shorter file).
HEADER_SIZE = _HEADER.size

#: fsync to stable storage every N appended records (and on flush/close).
DEFAULT_FSYNC_BATCH = 32

#: Upper bound on a single record payload; a length field beyond this is
#: treated as tail corruption rather than an attempt to allocate gigabytes.
_MAX_RECORD_BYTES = 1 << 30


# --------------------------------------------------------------------------- #
# reading
# --------------------------------------------------------------------------- #
@dataclass
class WalContents:
    """The readable prefix of a write-ahead log."""

    generation: int
    version: int = WAL_VERSION
    records: list[dict[str, Any]] = field(default_factory=list)
    #: Start offset of each record in ``records`` — recovery truncates back
    #: to a record boundary when it discards an incomplete record group.
    record_offsets: list[int] = field(default_factory=list)
    #: File offset just past the last intact record — the truncation point
    #: appends resume from after a torn tail.
    good_end: int = 0
    #: True when trailing bytes had to be discarded (torn/corrupt tail).
    torn: bool = False


def read_wal(path: str | os.PathLike[str], *,
             fs: faults.FileSystem | None = None) -> WalContents:
    """Read every intact record of a WAL file, discarding a torn tail.

    Raises :class:`PersistenceError` only when the *header* is unreadable —
    that is not a torn append but a file that was never a WAL (or lost its
    first sectors, in which case no record boundary is trustworthy) — or
    names a newer version, or an older one with anything past its header.
    """
    try:
        data = (fs or faults.current_fs()).read_bytes(path)
    except OSError as exc:
        raise PersistenceError(f"WAL {path}: read failed ({exc})") from exc
    if len(data) < _HEADER.size:
        raise PersistenceError(f"WAL {path}: truncated header")
    magic, version, _reserved, generation = _HEADER.unpack_from(data, 0)
    if magic != WAL_MAGIC:
        raise PersistenceError(f"WAL {path}: bad magic {magic!r}")
    if version > WAL_VERSION or (version < WAL_VERSION
                                 and len(data) > _HEADER.size):
        raise PersistenceError(
            f"WAL {path}: unsupported version {version} (this build "
            f"replays version {WAL_VERSION} only)")
    contents = WalContents(generation=generation, version=version,
                           good_end=_HEADER.size)
    offset = _HEADER.size
    while offset < len(data):
        if offset + _RECORD.size > len(data):
            contents.torn = True
            break
        length, crc = _RECORD.unpack_from(data, offset)
        payload_start = offset + _RECORD.size
        payload_end = payload_start + length
        if length > _MAX_RECORD_BYTES or payload_end > len(data):
            contents.torn = True
            break
        payload = data[payload_start:payload_end]
        if zlib.crc32(payload) != crc:
            contents.torn = True
            break
        try:
            record = decode_value(payload)
        except WireFormatError:
            record = None
        if not isinstance(record, dict):
            contents.torn = True
            break
        contents.records.append(record)
        contents.record_offsets.append(offset)
        offset = payload_end
        contents.good_end = offset
    return contents


# --------------------------------------------------------------------------- #
# writing
# --------------------------------------------------------------------------- #
class WriteAheadLog:
    """Append-side handle on a WAL file.

    Opened by recovery (:func:`repro.sqldb.persist.recovery.recover`), which
    decides whether the existing log is replayed, truncated past a torn tail,
    or reset to a new generation.  All methods are thread-safe; the database
    additionally serialises statements under its own lock.
    """

    def __init__(self, path: str | os.PathLike[str], *,
                 fsync_batch: int = DEFAULT_FSYNC_BATCH,
                 fs: faults.FileSystem | None = None,
                 metrics: MetricsRegistry) -> None:
        self.path = Path(path)
        self.fsync_batch = max(1, int(fsync_batch))
        self._file: Any = None
        self._pending = 0
        self._lock = threading.Lock()
        self.records_appended = 0
        self._fs = fs
        self._h_append = metrics.histogram("persist.wal_append_us")
        self._h_fsync = metrics.histogram("persist.wal_fsync_us")
        #: Set to the failure reason after an fsync the disk rejected.  A
        #: failed fsync leaves the page cache in an unknown state — the
        #: kernel may already have dropped the dirty pages — so retrying it
        #: and reporting success would claim durability the disk never
        #: confirmed (the "fsyncgate" failure mode).  The log seals instead:
        #: every further append/flush raises until the store is reopened and
        #: recovery re-reads what actually made it to disk.
        self._failed: str | None = None

    @property
    def fs(self) -> faults.FileSystem:
        return self._fs or faults.current_fs()

    @property
    def closed(self) -> bool:
        return self._file is None

    @property
    def failed(self) -> str | None:
        """Why the log sealed itself (``None`` while healthy)."""
        return self._failed

    def _check_usable(self) -> None:
        if self._failed is not None:
            raise PersistenceError(
                f"WAL {self.path} is sealed after a failed fsync "
                f"({self._failed}); durability cannot be re-established "
                "without reopening the database")

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def open_at(self, good_end: int) -> None:
        """Open for appending at ``good_end``, truncating anything beyond it
        (the discarded torn tail must not precede future intact records)."""
        with self._lock:
            if self._file is not None:
                raise PersistenceError(f"WAL {self.path} is already open")
            self._file = self.fs.open(self.path, "r+b")
            self._file.truncate(good_end)
            self._file.seek(good_end)

    def create(self, generation: int) -> None:
        """Create (or overwrite) the log with a fresh header; fsynced."""
        with self._lock:
            if self._file is not None:
                self._file.close()
            self._file = self.fs.open(self.path, "w+b")
            self._write_header(generation)

    def reset(self, generation: int) -> None:
        """Truncate to an empty log for a new checkpoint generation; fsynced.

        A reset that fails — the truncate, the header write, or its fsync —
        seals the log: the file may now hold a dirty mix of old records and
        a half-written header, and no further append could be honestly
        acknowledged against it.  (The store seals itself too: a reset only
        runs after a checkpoint swap, past the point of no return.)
        """
        with self._lock:
            if self._file is None:
                raise PersistenceError(f"WAL {self.path} is closed")
            self._check_usable()
            try:
                self._file.seek(0)
                self._file.truncate(0)
                self._write_header(generation)
            except PersistenceError:
                raise
            except OSError as exc:
                self._failed = f"reset failed: {exc}"
                raise PersistenceError(
                    f"WAL {self.path}: reset to generation {generation} "
                    f"failed ({exc})") from exc
            self._pending = 0

    def _write_header(self, generation: int) -> None:
        self._file.write(_HEADER.pack(WAL_MAGIC, WAL_VERSION, 0, generation))
        self._file.flush()
        self._sync()

    def close(self) -> None:
        """Fsync pending records (when healthy) and release the handle.

        The file handle is closed even when the final fsync fails — the
        caller gets the :class:`PersistenceError`, but never a leaked fd.
        """
        with self._lock:
            if self._file is None:
                return
            try:
                if self._failed is None and self._pending:
                    self._sync()
            finally:
                try:
                    self._file.close()
                except OSError:  # pragma: no cover - close-time disk failure
                    pass
                self._file = None

    # ------------------------------------------------------------------ #
    # appending
    # ------------------------------------------------------------------ #
    def append(self, record: dict[str, Any]) -> None:
        """Append one record; flushed to the OS always, fsynced per batch."""
        self.append_group([record])

    def append_group(self, records: Any) -> None:
        """Append an iterable of records as one all-or-nothing unit.

        Statement groups (chunked bulk loads, CTAS create+rows) must never
        end up partially on disk with a *complete*-looking final record:
        **any** failure — a frame write, the flush, or the batch ``fsync``
        itself — truncates the file back to where the group started, so
        recovery never sees a half group (or an unacknowledged one) that a
        later successful append would make look complete.  (A torn *final*
        frame needs no help — the checksum reader discards it.)

        Records are encoded and written one at a time, so a million-row
        load never holds more than one chunk's frame in memory here.
        """
        with self._lock:
            if self._file is None:
                raise PersistenceError(
                    f"WAL {self.path} is closed (database was closed?)")
            self._check_usable()
            append_started = perf_counter()
            group_start = self._file.tell()
            written = 0
            counted = False
            try:
                for record in records:
                    payload = encode_value(record)
                    if len(payload) > _MAX_RECORD_BYTES:
                        # the reader treats an over-large length as tail
                        # corruption and would silently discard the record
                        # on recovery — fail loudly at write time instead
                        # (callers chunk bulk loads into bounded records,
                        # so hitting this means a bug)
                        raise PersistenceError(
                            f"WAL record of {len(payload)} bytes exceeds "
                            f"the {_MAX_RECORD_BYTES}-byte record limit")
                    self._file.write(
                        _RECORD.pack(len(payload), zlib.crc32(payload))
                        + payload)
                    written += 1
                self._file.flush()
                self.records_appended += written
                self._pending += written
                counted = True
                if self._pending >= self.fsync_batch:
                    self._sync()
                # append latency includes the batch fsync when this group
                # triggered one — that is the latency a committer saw
                self._h_append.observe(perf_counter() - append_started)
            except BaseException as exc:
                if counted:
                    self.records_appended -= written
                    self._pending -= written
                try:
                    self._file.truncate(group_start)
                    self._file.seek(group_start)
                    self._file.flush()
                except OSError:  # pragma: no cover - disk-level failure
                    pass
                if counted and self._failed is not None and not self._pending:
                    # the batch fsync failed but covered ONLY this group's
                    # records, and the whole group was just truncated away:
                    # nothing unacknowledged remains whose durability a
                    # later fsync could falsely claim, so the log may
                    # honestly continue.  (With earlier records pending the
                    # seal stands — their pages may already be dropped.)
                    self._failed = None
                    raise PersistenceError(
                        f"WAL {self.path}: batch fsync failed; the "
                        "unacknowledged group was rolled back (no earlier "
                        "records were pending, so the log remains usable)"
                    ) from exc
                if isinstance(exc, OSError):
                    # EIO / ENOSPC / torn page mid-group: the whole group was
                    # truncated away, so nothing unacknowledged can surface
                    # on recovery and the log stays usable for new appends
                    raise PersistenceError(
                        f"WAL {self.path}: append failed ({exc}); the "
                        "unacknowledged group was rolled back") from exc
                raise

    def flush(self) -> None:
        """Force pending records to stable storage (group-commit barrier).

        Unlike a failed *append* fsync — where the whole unacknowledged
        group can be truncated away — the records behind a flush were
        already appended and acknowledged at flush-to-OS level, so there is
        nothing safe to truncate: a failed flush fsync seals the log.
        """
        with self._lock:
            if self._file is not None:
                self._check_usable()
                self._file.flush()
                if self._pending:
                    self._sync()

    def _sync(self) -> None:
        sync_started = perf_counter()
        try:
            self.fs.fsync(self._file)
        except OSError as exc:
            self._failed = f"fsync failed: {exc}"
            raise PersistenceError(
                f"WAL {self.path}: fsync to stable storage failed ({exc}); "
                "the log is sealed — a retry against the dirty page cache "
                "could claim durability the disk never confirmed") from exc
        self._h_fsync.observe(perf_counter() - sync_started)
        self._pending = 0
