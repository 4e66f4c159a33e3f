"""Columnar chunk codec: typed column buffers, the one result payload format.

Tagging every cell individually makes serialisation cost scale with the
number of Python objects in a result.  This module ships each result column
as one contiguous typed buffer — fixed-width types as the array's own bytes,
var-width types as offsets + concatenated blob — so cost scales with bytes.
The same chunk blob is the payload of a ``result_chunk`` message
(:func:`repro.netproto.messages.result_messages`) and a row-range segment of
the durable image (:mod:`repro.sqldb.persist.format`).  The binary layout is
documented in the :mod:`repro.netproto.wire` module docstring (see "Columnar
chunk format").

Per-column compression routes every value buffer through the codec layer in
:mod:`repro.netproto.compression`, which means compression ratios are
measured on typed buffers rather than on tag-soup, matching how a production
wire protocol (and the paper's §2.1 transfer experiments) would behave.

``ChunkEncoder`` slices a result into row-range chunks; ``decode_chunk``
produces :class:`DecodedColumn` views that decode value buffers zero-copy
(``np.frombuffer``) and defer any Python-object materialisation to the
caller — the server side of chunked streaming and the client side of lazy
decoding respectively.

Dictionary-encoded strings
--------------------------
Low-cardinality string columns ship as ``TAG_DICT``: an ``int32`` codes
buffer per chunk plus the (much smaller) sorted unique-value table, sent
inline **once per column** (``_FLAG_DICT_INLINE`` on the first chunk; later
chunks reference the previously shipped dictionary via the decode-side
dictionary cache).  When the executor already produced a dictionary
:class:`~repro.sqldb.vector.Vector` (string scans, filters, GROUP BY keys),
the codes are re-used zero-copy; list-backed string columns are
dictionary-encoded at the wire when a cardinality sample says it pays off.
NULLs ride in the ordinary null bitmap — the bitmap, never a code or
placeholder value, is the source of truth on decode.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import WireFormatError
from ..sqldb.result import QueryResult, ResultColumn
from ..sqldb.types import SQLType
from ..sqldb.vector import Vector, concat_values
from . import compression as compression_mod
from .wire import Reader, decode_value, encode_value, utf8

#: Chunk blob magic + format version.
CHUNK_MAGIC = b"CB"
CHUNK_VERSION = 1

# dtype tags (documented in wire.py)
TAG_INT64 = 0x01
TAG_FLOAT64 = 0x02
TAG_BOOL = 0x03
TAG_UTF8 = 0x10
TAG_BINARY = 0x11
TAG_DICT = 0x12
TAG_OBJECT = 0x20

_FLAG_NULLS = 0x01
_FLAG_DICT_INLINE = 0x02

#: Smallest column / largest relative dictionary worth dictionary-encoding.
_DICT_MIN_ROWS = 16


def _dictionary_worthwhile(dictionary_size: int, row_count: int) -> bool:
    return row_count >= _DICT_MIN_ROWS and dictionary_size * 2 <= row_count


def _maybe_build_dictionary(values: list[Any]) -> Vector | None:
    """Dictionary-encode a list-backed string column when a sample says the
    cardinality is low enough to pay off.

    The cheap sample checks (type and cardinality, first 512 values) run
    before any full-column pass, so high-cardinality columns decline without
    scanning all values.
    """
    row_count = len(values)
    if row_count < _DICT_MIN_ROWS:
        return None
    sample = values[:512]
    if not all(isinstance(value, str) or value is None for value in sample):
        return None
    if len(set(sample)) * 2 > len(sample):
        return None
    if not all(isinstance(value, str) or value is None for value in values):
        return None
    vector = Vector.from_values(values, SQLType.STRING)
    if not _dictionary_worthwhile(len(vector.dictionary), row_count):
        return None
    return vector

#: Stable wire codes for SQL types (do not reorder: this is wire format).
_SQL_TYPE_CODES: dict[SQLType, int] = {
    SQLType.INTEGER: 0,
    SQLType.BIGINT: 1,
    SQLType.DOUBLE: 2,
    SQLType.REAL: 3,
    SQLType.STRING: 4,
    SQLType.BOOLEAN: 5,
    SQLType.BLOB: 6,
}
_SQL_TYPE_BY_CODE = {code: sql_type for sql_type, code in _SQL_TYPE_CODES.items()}

#: Preferred dtype tag per SQL type.
_SQL_TYPE_TAGS = {
    SQLType.INTEGER: TAG_INT64,
    SQLType.BIGINT: TAG_INT64,
    SQLType.DOUBLE: TAG_FLOAT64,
    SQLType.REAL: TAG_FLOAT64,
    SQLType.BOOLEAN: TAG_BOOL,
    SQLType.STRING: TAG_UTF8,
    SQLType.BLOB: TAG_BINARY,
}

#: Little-endian buffer dtypes for the fixed-width tags.
_TAG_DTYPES = {TAG_INT64: "<i8", TAG_FLOAT64: "<f8", TAG_BOOL: "|b1"}


# --------------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------------- #
def _pack_section(data: Any, codec: str) -> tuple[bytes, bytes]:
    """Compress one value buffer — the array slice itself, so the codec sees
    its ``itemsize`` — as its length prefix and bytes, left apart so that
    the chunk's one join is the only copy of them."""
    packed = compression_mod.compress(data, codec)
    return struct.pack("<I", len(packed)), packed


def _var_width_sections(encoded: list[bytes]) -> list[Any]:
    """The two sections of a var-width buffer: ``u32`` offsets and the blob."""
    offsets = np.zeros(len(encoded) + 1, dtype="<u4")
    if encoded:
        np.cumsum([len(item) for item in encoded], out=offsets[1:], dtype="<u4")
    return [offsets, b"".join(encoded)]


class ChunkEncoder:
    """Encodes one query result into row-range chunk blobs.

    All per-column buffers are prepared eagerly at construction (so encoding
    errors surface before the result header is sent); :meth:`encode` then
    only slices, packs and compresses, which lets the server stream chunk
    *i* while the client is already consuming chunk *i - 1*.
    """

    def __init__(self, result: QueryResult, *,
                 codec: str = compression_mod.CODEC_NARROW,
                 allow_dict: bool = False,
                 shipped_dictionaries: dict[int, np.ndarray] | None = None) -> None:
        self.codec = codec
        self.row_count = result.row_count
        self.allow_dict = allow_dict
        #: Column index -> dictionary already on the wire.  Streamed results
        #: encode each pipeline morsel with its own encoder but share this
        #: map, so a dictionary is only re-inlined when the morsel's
        #: dictionary object actually changed (identity comparison; holding
        #: the object also pins its id against reuse).
        self._shipped = shipped_dictionaries if shipped_dictionaries is not None \
            else {}
        self._columns: list[tuple[ResultColumn, int, Any, np.ndarray | None,
                                  np.ndarray | None]] = []
        for column in result.columns:
            tag = _SQL_TYPE_TAGS[column.sql_type]
            data: Any
            mask: np.ndarray | None
            dictionary: np.ndarray | None = None
            if tag in _TAG_DTYPES:
                try:
                    data, mask = column.buffer_arrays()
                    data = np.ascontiguousarray(data, dtype=_TAG_DTYPES[tag])
                except (OverflowError, TypeError, ValueError):
                    # e.g. a BIGINT column holding a >64-bit Python int
                    tag, data, mask = TAG_OBJECT, column.values, None
            elif tag == TAG_UTF8 and allow_dict \
                    and (vector := self._dictionary_vector(column)) is not None:
                tag = TAG_DICT
                data = np.ascontiguousarray(
                    vector.data if vector.mask is None
                    else np.where(vector.mask, 0, vector.data), dtype="<i4")
                mask = vector.mask
                dictionary = vector.dictionary
            else:
                values = column.values
                expected = str if tag == TAG_UTF8 else bytes
                if all(isinstance(v, expected) or v is None for v in values):
                    data = values
                    if any(v is None for v in values):
                        mask = np.fromiter((v is None for v in values),
                                           dtype=bool, count=len(values))
                    else:
                        mask = None
                else:
                    tag, data, mask = TAG_OBJECT, values, None
            self._columns.append((column, tag, data, mask, dictionary))

    def _dictionary_vector(self, column: ResultColumn) -> Vector | None:
        """A dictionary vector worth shipping as ``TAG_DICT``, else None."""
        vector = column.dict_vector()
        if vector is not None:
            if _dictionary_worthwhile(len(vector.dictionary), len(vector)):
                return vector
            return None
        return _maybe_build_dictionary(column.values)

    def encode(self, row_start: int, row_stop: int) -> tuple[bytes, int]:
        """Encode rows ``[row_start, row_stop)``; returns (blob, raw bytes).

        ``raw bytes`` is the pre-compression size of the value buffers, the
        numerator of the compression ratio reported in transfer stats.
        """
        rows = row_stop - row_start
        parts = [CHUNK_MAGIC,
                 struct.pack("<BIH", CHUNK_VERSION, rows, len(self._columns))]
        raw_total = 0
        for index, (column, tag, data, mask, dictionary) in enumerate(self._columns):
            name_bytes = column.name.encode("utf-8")
            chunk_mask = mask[row_start:row_stop] if mask is not None else None
            if chunk_mask is not None and not chunk_mask.any():
                chunk_mask = None
            flags = _FLAG_NULLS if chunk_mask is not None else 0
            dict_inline = tag == TAG_DICT \
                and self._shipped.get(index) is not dictionary
            if dict_inline:
                flags |= _FLAG_DICT_INLINE
                self._shipped[index] = dictionary
            parts.append(struct.pack("<H", len(name_bytes)))
            parts.append(name_bytes)
            parts.append(struct.pack("<BBB", _SQL_TYPE_CODES[column.sql_type],
                                     tag, flags))
            if chunk_mask is not None:
                bitmap = np.packbits(chunk_mask).tobytes()
                parts.append(struct.pack("<I", len(bitmap)))
                parts.append(bitmap)
            if tag in _TAG_DTYPES or tag == TAG_DICT:
                sections = [data[row_start:row_stop]]
                if dict_inline:
                    sections += _var_width_sections(
                        [entry.encode("utf-8") for entry in dictionary.tolist()])
            elif tag in (TAG_UTF8, TAG_BINARY):
                sections = _var_width_sections(
                    [b"" if v is None
                     else (v.encode("utf-8") if tag == TAG_UTF8 else v)
                     for v in data[row_start:row_stop]])
            else:  # TAG_OBJECT
                sections = [encode_value(list(data[row_start:row_stop]))]
            for payload in sections:
                parts += _pack_section(payload, self.codec)
                raw_total += memoryview(payload).nbytes
        return b"".join(parts), raw_total


def encode_result_chunk(result: QueryResult, row_start: int = 0,
                        row_stop: int | None = None, *,
                        codec: str = compression_mod.CODEC_NARROW,
                        allow_dict: bool = False) -> tuple[bytes, int]:
    """One-shot helper: encode a row range of ``result`` as a chunk blob.

    With ``allow_dict`` the dictionary (if any) is inlined, so the blob stays
    self-contained.
    """
    if row_stop is None:
        row_stop = result.row_count
    return ChunkEncoder(result, codec=codec,
                        allow_dict=allow_dict).encode(row_start, row_stop)


# --------------------------------------------------------------------------- #
# decoding
# --------------------------------------------------------------------------- #
@dataclass
class DecodedColumn:
    """A decoded view over one column of a chunk blob.

    Fixed-width columns expose ``data`` as a zero-copy ``np.frombuffer`` view
    of the received buffer; var-width and object columns keep their sections
    and decode on demand (:meth:`materialise`), so the cost of building
    Python strings is only paid when the consumer actually touches values.
    """

    name: str
    sql_type: SQLType
    tag: int
    row_count: int
    mask: np.ndarray | None
    data: np.ndarray | None = None      # fixed-width value view
    offsets: np.ndarray | None = None   # var-width section
    blob: bytes | None = None           # var-width section
    objects: bytes | None = None        # TAG_OBJECT section (value-codec bytes)
    codes: np.ndarray | None = None     # TAG_DICT codes view (int32)
    dictionary: np.ndarray | None = None  # TAG_DICT unique-value table

    def materialise(self) -> Vector | list[Any]:
        """Produce the backing a :class:`ResultColumn` wants.

        A :class:`Vector` for fixed-width columns (over the received buffer,
        zero-copy) and dictionary columns (codes stay encoded), a value list
        (``None`` = NULL) for var-width/object columns.
        """
        if self.data is not None:
            return Vector(self.data, self.mask, None, self.sql_type)
        if self.codes is not None:
            return Vector.from_codes(self.codes, self.dictionary,
                                     self.mask, self.sql_type)
        if self.objects is not None:
            values = decode_value(self.objects)
            if not isinstance(values, list) or len(values) != self.row_count:
                raise WireFormatError(
                    f"object column payload is not a list of {self.row_count}")
            return values
        assert self.offsets is not None and self.blob is not None
        starts = self.offsets[:-1]
        stops = self.offsets[1:]
        if self.tag == TAG_UTF8:
            try:
                values: list[Any] = [
                    self.blob[start:stop].decode("utf-8")
                    for start, stop in zip(starts.tolist(), stops.tolist())
                ]
            except UnicodeDecodeError as exc:
                raise WireFormatError(f"string column is not UTF-8: {exc}") from None
        else:
            values = [self.blob[start:stop]
                      for start, stop in zip(starts.tolist(), stops.tolist())]
        if self.mask is not None:
            for index in np.flatnonzero(self.mask):
                values[index] = None
        return values


_CHUNK_HEADER = struct.Struct("<BIH")    # version, row count, column count
_COLUMN_HEADER = struct.Struct("<BBB")   # sql type code, dtype tag, flags
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def decode_chunk(blob: bytes, *,
                 dictionaries: dict[int, np.ndarray] | None = None
                 ) -> tuple[int, list[DecodedColumn]]:
    """Decode one chunk blob into ``(row_count, decoded columns)``.

    ``dictionaries`` is the cross-chunk dictionary cache (column index ->
    unique-value table): an inline dictionary is stored into it, and a
    ``TAG_DICT`` chunk without an inline dictionary resolves against it.
    Callers decoding a multi-chunk stream must pass the same dict for every
    chunk (the assembler does); a standalone chunk is self-contained.
    """
    reader = Reader(blob)
    if reader.read(2) != CHUNK_MAGIC:
        raise WireFormatError("bad columnar chunk magic")
    version, row_count, column_count = reader.unpack(_CHUNK_HEADER)
    if version != CHUNK_VERSION:
        raise WireFormatError(f"unsupported columnar chunk version {version}")
    columns: list[DecodedColumn] = []
    for column_index in range(column_count):
        name = reader.text(reader.unpack(_U16)[0])
        type_code, tag, flags = reader.unpack(_COLUMN_HEADER)
        try:
            sql_type = _SQL_TYPE_BY_CODE[type_code]
        except KeyError:
            raise WireFormatError(f"unknown SQL type code {type_code}") from None
        mask = None
        if flags & _FLAG_NULLS:
            (bitmap_len,) = reader.unpack(_U32)
            if bitmap_len != (row_count + 7) // 8:
                raise WireFormatError("null bitmap length mismatch")
            bitmap = np.frombuffer(reader.read(bitmap_len), dtype=np.uint8)
            mask = np.unpackbits(bitmap, count=row_count).astype(bool)

        def read_section(dtype: str | None = None,
                         max_items: int = len(blob)) -> Any:
            """A section's values over the decoded buffer itself, or its bytes;
            a section of unknown length is bounded by the blob's."""
            (section_len,) = reader.unpack(_U32)
            buffer = compression_mod.decompress_buffer(reader.read(section_len),
                                                       max_items)
            try:
                return bytes(buffer) if dtype is None \
                    else np.frombuffer(buffer, dtype)
            except ValueError:
                raise WireFormatError(f"section is not whole {dtype} values") from None

        if tag in _TAG_DTYPES:
            data = read_section(_TAG_DTYPES[tag], row_count)
            if len(data) != row_count:
                raise WireFormatError("column buffer length mismatch")
            columns.append(DecodedColumn(name, sql_type, tag, row_count,
                                         mask, data=data))
        elif tag == TAG_DICT:
            codes = read_section("<i4", row_count)
            if len(codes) != row_count:
                raise WireFormatError("dictionary codes length mismatch")
            if flags & _FLAG_DICT_INLINE:
                offsets = read_section("<u4")
                dict_blob = read_section()
                entries = np.empty(max(len(offsets) - 1, 0), dtype=object)
                for entry_index, (start, stop) in enumerate(
                        zip(offsets[:-1].tolist(), offsets[1:].tolist())):
                    entries[entry_index] = utf8(dict_blob[start:stop])
                if dictionaries is not None:
                    dictionaries[column_index] = entries
            else:
                if dictionaries is None or column_index not in dictionaries:
                    raise WireFormatError(
                        "dictionary chunk references an unshipped dictionary")
                entries = dictionaries[column_index]
            if row_count and (not len(entries) or int(codes.max()) >= len(entries)
                              or int(codes.min()) < 0):
                raise WireFormatError("dictionary code out of range")
            columns.append(DecodedColumn(name, sql_type, tag, row_count, mask,
                                         codes=codes, dictionary=entries))
        elif tag in (TAG_UTF8, TAG_BINARY):
            offsets = read_section("<u4", row_count + 1)
            if len(offsets) != row_count + 1:
                raise WireFormatError("offsets buffer length mismatch")
            columns.append(DecodedColumn(name, sql_type, tag, row_count, mask,
                                         offsets=offsets, blob=read_section()))
        elif tag == TAG_OBJECT:
            columns.append(DecodedColumn(name, sql_type, tag, row_count, mask,
                                         objects=read_section()))
        else:
            raise WireFormatError(f"unknown dtype tag {tag:#x}")
    reader.finish("columnar chunk")
    return row_count, columns


def columns_from_chunks(column_index: int, name: str, sql_type: SQLType,
                        chunks: list[list[DecodedColumn]],
                        total_rows: int) -> ResultColumn:
    """Assemble one lazy :class:`ResultColumn` from its per-chunk pieces.

    Single-chunk fixed-width columns stay zero-copy views of the received
    buffer; multi-chunk columns concatenate on first touch (pieces sharing
    one dictionary stay dictionary-encoded client-side).
    """
    pieces = [chunk[column_index] for chunk in chunks]
    return ResultColumn.lazy(
        name, sql_type, total_rows,
        lambda: concat_values([piece.materialise() for piece in pieces]))
