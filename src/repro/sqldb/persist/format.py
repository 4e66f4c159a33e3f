"""Single-file columnar database format.

One database = one file.  The paper's lesson for the wire — serialise columns
as contiguous typed buffers so cost scales with bytes, not Python objects —
is exactly the right segment format for disk, so segments *are* columnar
chunk blobs produced by the shared :mod:`repro.netproto.columnar` encoders
(typed buffers, null bitmaps, dictionary-encoded strings, per-column
compression).  There is deliberately no second codec: a segment read back
from disk goes through the very same ``decode_chunk`` path a wire chunk does.

File layout::

    +--------------------------------------------------+
    | header:  magic "REPRODB1" | u16 version          |
    |          u16 flags        | u32 reserved         |
    +--------------------------------------------------+
    | segment: columnar chunk blob (self-contained:    |
    |          dictionaries inlined per segment)       |
    +--------------------------------------------------+
    | ...one blob per `segment_rows` rows per table... |
    +--------------------------------------------------+
    | footer:  value-codec catalog (schemas, function  |
    |          signatures, per-segment index entries   |
    |          {offset, length, rows, crc32})          |
    +--------------------------------------------------+
    | tail:    u64 footer offset | u32 footer length   |
    |          u32 footer crc32  | magic "REPRODB1"    |
    +--------------------------------------------------+

The fixed-size tail makes open cost proportional to the catalog, not the
data: seek to the end, verify the magic, read the footer, and the segment
index tells you where every block lives (cf. block-grid storage indexes).
Every segment carries its own crc32 so corruption is pinned to a block and
reported precisely instead of surfacing as a numpy shape error three layers
later.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO

from ...errors import CorruptionError, PersistenceError, WireFormatError
from ...netproto import compression as compression_mod
from ...netproto.columnar import ChunkEncoder, decode_chunk
from ...netproto.wire import decode_value, encode_value
from ..catalog import FunctionCatalog
from ..result import QueryResult, ResultColumn
from ..storage import (
    QuarantinedRange,
    Storage,
    compact_dictionary,
)
from ..types import NUMPY_DTYPES, SQLType
from ..vector import Vector
from . import faults
from .records import (
    schema_from_record,
    schema_to_record,
    signature_from_record,
    signature_to_record,
)

DB_MAGIC = b"REPRODB1"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sHHI")    # magic, version, flags, reserved
_TAIL = struct.Struct("<QII8s")      # footer offset, footer length, crc, magic

#: Rows per on-disk segment.  Matches the wire default chunk size: reopen
#: decodes block-at-a-time with the same cost profile as result streaming.
DEFAULT_SEGMENT_ROWS = 65536

#: Segments are compressed per column through the shared codec layer.
DEFAULT_CODEC = compression_mod.CODEC_ZLIB


# --------------------------------------------------------------------------- #
# writing
# --------------------------------------------------------------------------- #
@dataclass
class WriteStats:
    """What one database image write produced (checkpoint reporting)."""

    tables: int = 0
    segments: int = 0
    rows: int = 0
    file_bytes: int = 0
    segment_bytes: int = 0
    raw_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "tables": self.tables, "segments": self.segments,
            "rows": self.rows, "file_bytes": self.file_bytes,
            "segment_bytes": self.segment_bytes, "raw_bytes": self.raw_bytes,
        }


def _table_result(table: Any, start: int, stop: int) -> QueryResult:
    """Rows ``[start, stop)`` of a table's stored buffers as a
    :class:`QueryResult` for the chunk encoder.

    Nothing is converted: chunks are encoded straight from the arrays
    queries scan.  Only a string dictionary is first compacted to the
    strings those rows reference, so the bytes depend on the rows alone,
    not on what was deleted, overwritten or stored beside them.
    """
    columns = []
    for column in table.columns:
        scan = column.scan_vector(start, stop)
        if isinstance(scan, Vector) and scan.is_dict:
            codes, dictionary = compact_dictionary(scan.data, scan.dictionary)
            scan = Vector(codes, scan.mask, dictionary, scan.sql_type)
        columns.append(ResultColumn(column.name, column.sql_type, scan))
    return QueryResult(columns)


def write_database(file: BinaryIO, storage: Storage, catalog: FunctionCatalog,
                   *, generation: int,
                   segment_rows: int = DEFAULT_SEGMENT_ROWS,
                   codec: str = DEFAULT_CODEC) -> WriteStats:
    """Write a complete database image to ``file``; returns write stats.

    Atomicity is the caller's problem (see
    :mod:`repro.sqldb.persist.checkpoint` — write to a temp file, fsync,
    rename); this function only defines the bytes.
    """
    segment_rows = max(1, int(segment_rows))
    stats = WriteStats()
    file.write(_HEADER.pack(DB_MAGIC, FORMAT_VERSION, 0, 0))
    offset = _HEADER.size
    tables_meta: list[dict[str, Any]] = []
    for name in storage.table_names():
        table = storage.table(name)
        row_count = table.row_count
        result = _table_result(table, 0, row_count)
        # A fresh shipped-dictionaries map per encoder would still share the
        # dictionary across this table's segments; clearing it per segment
        # forces the dictionary inline into *every* blob so each segment is
        # independently decodable (cold reads need no sibling segment).
        shipped: dict[int, Any] = {}
        encoder = ChunkEncoder(result, codec=codec, allow_dict=True,
                               shipped_dictionaries=shipped)
        segments: list[dict[str, int]] = []
        for start in range(0, row_count, segment_rows) or [0]:
            stop = min(start + segment_rows, row_count)
            shipped.clear()
            blob, raw = encoder.encode(start, stop)
            file.write(blob)
            segments.append({
                "offset": offset, "length": len(blob),
                "rows": stop - start, "crc": zlib.crc32(blob),
            })
            offset += len(blob)
            stats.segments += 1
            stats.segment_bytes += len(blob)
            stats.raw_bytes += raw
        tables_meta.append({
            "schema": schema_to_record(table.schema),
            "row_count": row_count,
            "segments": segments,
        })
        stats.tables += 1
        stats.rows += row_count
    footer = encode_value({
        "format_version": FORMAT_VERSION,
        "generation": int(generation),
        "segment_rows": segment_rows,
        "codec": codec,
        "tables": tables_meta,
        "functions": [signature_to_record(entry.signature)
                      for entry in _catalog_entries(catalog)],
    })
    file.write(footer)
    file.write(_TAIL.pack(offset, len(footer), zlib.crc32(footer), DB_MAGIC))
    stats.file_bytes = offset + len(footer) + _TAIL.size
    return stats


def encode_rows(table: Any, start: int, stop: int) -> bytes:
    """Rows ``[start, stop)`` of ``table`` as one self-contained chunk blob
    (wire default codec): a WAL insert record, replayed like a segment."""
    return ChunkEncoder(_table_result(table, start, stop),
                        allow_dict=True).encode(0, stop - start)[0]


def _catalog_entries(catalog: FunctionCatalog) -> list[Any]:
    return [entry for entry in catalog.functions() if not entry.is_builtin]


# --------------------------------------------------------------------------- #
# reading
# --------------------------------------------------------------------------- #
@dataclass
class DatabaseImage:
    """The decoded footer of a database file plus load bookkeeping."""

    generation: int
    segment_rows: int
    tables: int = 0
    rows: int = 0
    functions: int = 0
    segments: int = 0
    table_meta: list[dict[str, Any]] = field(default_factory=list)
    #: Row ranges the salvage loader pinned a bad checksum to (empty on a
    #: clean load; only ever populated when ``salvage=True``).
    quarantined: list[QuarantinedRange] = field(default_factory=list)


def read_footer(data: bytes, path: str | os.PathLike[str]) -> dict[str, Any]:
    """Verify header + tail and return the decoded footer catalog."""
    if len(data) < _HEADER.size + _TAIL.size:
        raise PersistenceError(f"database file {path}: too short")
    magic, version, _flags, _reserved = _HEADER.unpack_from(data, 0)
    if magic != DB_MAGIC:
        raise PersistenceError(f"database file {path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise PersistenceError(
            f"database file {path}: unsupported format version {version}")
    footer_offset, footer_len, footer_crc, tail_magic = _TAIL.unpack_from(
        data, len(data) - _TAIL.size)
    if tail_magic != DB_MAGIC:
        raise PersistenceError(
            f"database file {path}: bad tail magic (truncated file?)")
    footer_end = footer_offset + footer_len
    if footer_end != len(data) - _TAIL.size:
        raise PersistenceError(f"database file {path}: footer bounds mismatch")
    footer_bytes = data[footer_offset:footer_end]
    if zlib.crc32(footer_bytes) != footer_crc:
        raise PersistenceError(f"database file {path}: footer checksum mismatch")
    try:
        footer = decode_value(footer_bytes)
    except WireFormatError as exc:
        raise PersistenceError(
            f"database file {path}: footer does not decode: {exc}") from None
    if not isinstance(footer, dict):
        raise PersistenceError(f"database file {path}: footer is not a catalog")
    return footer


def _segment_fault(segment: dict[str, Any], data: bytes,
                   blob: bytes | None = None) -> str | None:
    """The integrity problem with one indexed segment, or ``None`` if sound."""
    seg_offset, seg_len = int(segment["offset"]), int(segment["length"])
    if blob is None:
        blob = data[seg_offset:seg_offset + seg_len]
    if len(blob) != seg_len:
        return (f"segment out of bounds ({seg_offset}+{seg_len} > "
                f"{len(data)} file bytes)")
    if zlib.crc32(blob) != int(segment["crc"]):
        return "segment checksum mismatch"
    return None


def read_database(path: str | os.PathLike[str], storage: Storage,
                  catalog: FunctionCatalog, *, salvage: bool = False,
                  fs: faults.FileSystem | None = None) -> DatabaseImage:
    """Load a database file into ``storage``/``catalog``; returns the image.

    ``storage`` is expected to be empty (a fresh open).  Segment checksums
    are verified before decode; decoding itself is the shared
    :func:`repro.netproto.columnar.decode_chunk` wire path.

    A corrupt segment normally fails the open with a
    :class:`~repro.errors.CorruptionError` naming the table, the segment's
    row range, and the file offset.  With ``salvage=True`` the bad segment
    is *quarantined* instead: its row range is filled with NULL placeholder
    rows (so later segments keep their row positions), recorded on the
    table, and every healthy table and segment still loads — touching the
    quarantined table then raises the same structured error at access time.
    The footer itself (and the fixed tail) cannot be salvaged: without a
    trustworthy segment index there are no row ranges to pin faults to.
    """
    try:
        data = (fs or faults.current_fs()).read_bytes(path)
    except OSError as exc:
        raise PersistenceError(
            f"database file {path}: read failed ({exc})") from exc
    footer = read_footer(data, path)
    image = DatabaseImage(generation=int(footer.get("generation", 0)),
                          segment_rows=int(footer.get("segment_rows",
                                                      DEFAULT_SEGMENT_ROWS)))
    image.table_meta = list(footer.get("tables", []))
    for table_meta in image.table_meta:
        schema = schema_from_record(table_meta["schema"])
        table = storage.create_table(schema)
        loaded = 0
        for segment in table_meta.get("segments", []):
            seg_offset = int(segment["offset"])
            seg_rows = int(segment["rows"])
            row_range = (loaded, loaded + seg_rows)
            blob = data[seg_offset:seg_offset + int(segment["length"])]
            fault = _segment_fault(segment, data, blob)
            if fault is None:
                try:
                    decoded_rows = _load_segment(table, blob,
                                                 f"database file {path}")
                except PersistenceError as exc:
                    fault = str(exc)
                else:
                    loaded += decoded_rows
                    image.segments += 1
                    continue
            message = (f"database file {path}: {fault} "
                       f"(table {schema.name!r}, "
                       f"rows {row_range[0]}..{row_range[1]}, "
                       f"offset {seg_offset})")
            if not salvage:
                raise CorruptionError(message, table=schema.name,
                                      row_range=row_range, offset=seg_offset)
            # quarantine: NULL placeholders keep later segments' rows at
            # their original positions; the range is sealed on the table
            for column in table.columns:
                column.extend([None] * seg_rows)
            table.quarantine(QuarantinedRange(
                table=schema.name, start_row=row_range[0],
                stop_row=row_range[1], offset=seg_offset, reason=message))
            image.quarantined.append(table.quarantined[-1])
            loaded += seg_rows
            image.segments += 1
        if loaded != int(table_meta.get("row_count", loaded)):
            raise PersistenceError(
                f"database file {path}: table {schema.name!r} row count "
                f"mismatch ({loaded} loaded)")
        image.tables += 1
        image.rows += loaded
    for record in footer.get("functions", []):
        signature = signature_from_record(record)
        catalog.register(signature, replace=True)
        image.functions += 1
    return image


def _load_segment(table: Any, blob: bytes, source: str) -> int:
    """Decode one chunk blob (an image segment or a WAL insert record, named
    by ``source`` in errors) through the shared wire path into ``table``.

    The decoded buffers are what a column stores and are appended as they
    are — a vector's ``(data, mask)``, or ``(codes, mask, dictionary)`` for
    dictionary strings; only var-width/object sections (and one that does
    not match the column's type) are coerced from Python values.  Every
    column's batch is ready before any column is touched, so a failure in
    column k cannot leave columns 0..k-1 a segment longer than the rest (the
    salvage loader relies on a failed segment leaving the table as it was).
    """
    try:
        row_count, decoded = decode_chunk(blob)
        if [piece.name.lower() for piece in decoded] != \
                [column.name.lower() for column in table.columns]:
            raise PersistenceError(f"{source}: segment columns do not match "
                                   f"schema of table {table.name!r}")
        batches: list[tuple[Any, ...]] = []
        for column, piece in zip(table.columns, decoded):
            data = piece.materialise()
            if isinstance(data, Vector) and (
                    column.sql_type is SQLType.STRING if data.is_dict
                    else data.data.dtype == NUMPY_DTYPES[column.sql_type]):
                batch = (data.data, data.mask, data.dictionary)
            else:
                batch = column.coerce_batch(
                    data.to_list() if isinstance(data, Vector) else data)
            if len(batch[0]) != row_count:
                raise PersistenceError(
                    f"{source}: segment column {column.name!r} length mismatch")
            batches.append(batch)
    except PersistenceError:
        raise
    except Exception as exc:
        raise PersistenceError(f"segment decode failed: {exc}") from exc
    for column, batch in zip(table.columns, batches):
        column.append_batch(*batch)
    return row_count


# --------------------------------------------------------------------------- #
# verification (the image half of the VERIFY statement)
# --------------------------------------------------------------------------- #
@dataclass
class TableVerify:
    """Per-table outcome of an image scrub."""

    name: str
    rows: int = 0
    segments: int = 0
    corrupt_segments: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.corrupt_segments == 0 and not self.errors


@dataclass
class ImageVerifyReport:
    """Outcome of re-checking every checksum of one database image."""

    path: str
    generation: int = 0
    segment_rows: int = 0
    #: Fatal file-level problem (bad magic, torn tail, footer checksum):
    #: nothing below the footer could be checked.
    error: str | None = None
    tables: list[TableVerify] = field(default_factory=list)
    #: Structured locations of every corrupt segment found.
    faults: list[QuarantinedRange] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and all(t.ok for t in self.tables)


def verify_image(path: str | os.PathLike[str], *,
                 fs: faults.FileSystem | None = None) -> ImageVerifyReport:
    """Re-check header, tail, footer crc, and every segment crc of a file.

    Pure reads over the on-disk bytes — nothing is decoded into storage and
    no lock is taken, so a scrub can run next to live readers.  Faults are
    reported with the same (table, row range, offset) pinning the salvage
    loader uses.
    """
    report = ImageVerifyReport(path=str(path))
    try:
        data = (fs or faults.current_fs()).read_bytes(path)
        footer = read_footer(data, path)
    except (OSError, PersistenceError) as exc:
        report.error = str(exc)
        return report
    report.generation = int(footer.get("generation", 0))
    report.segment_rows = int(footer.get("segment_rows", DEFAULT_SEGMENT_ROWS))
    for table_meta in footer.get("tables", []):
        try:
            name = schema_from_record(table_meta["schema"]).name
        except Exception:  # footer passed crc, so this is a format bug
            name = "?"
        entry = TableVerify(name=name,
                            rows=int(table_meta.get("row_count", 0)))
        start_row = 0
        for segment in table_meta.get("segments", []):
            seg_rows = int(segment["rows"])
            fault = _segment_fault(segment, data)
            entry.segments += 1
            if fault is not None:
                entry.corrupt_segments += 1
                entry.errors.append(
                    f"{fault} (rows {start_row}..{start_row + seg_rows}, "
                    f"offset {int(segment['offset'])})")
                report.faults.append(QuarantinedRange(
                    table=name, start_row=start_row,
                    stop_row=start_row + seg_rows,
                    offset=int(segment["offset"]), reason=fault))
            start_row += seg_rows
        report.tables.append(entry)
    return report
