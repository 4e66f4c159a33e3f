"""Binary wire encoding for the client protocol.

devUDF talks to the database over a client connection (JDBC in the paper); the
reproduction ships its own small length-prefixed binary protocol so that the
data-transfer experiments (compression / sampling / encryption, paper §2.1)
can measure real bytes-on-the-wire rather than Python object sizes.

Frame layout
============
Every message travels as one frame::

    MAGIC (2 bytes, b"dU") | payload length (u32 BE) | payload

The payload of a control message is a string-keyed dictionary encoded with
the self-describing *value codec* below.  Result data additionally uses the
*columnar chunk format* (:mod:`repro.netproto.columnar`).

Value codec
===========
Tag-prefixed, recursive, self-describing.  Tags:

    ``N``         None
    ``T`` / ``F`` booleans
    ``I``         integer, fixed-width i64 big-endian (8 bytes)
    ``J``         big integer fallback: u32 length + two's-complement bytes
                  (arbitrary precision, used when the value overflows i64)
    ``D``         float, IEEE-754 f64 big-endian
    ``S``         string: u32 byte length + UTF-8 bytes
    ``B``         bytes: u32 length + raw bytes
    ``L``         list: u32 count + encoded items
    ``M``         dict: u32 count + alternating encoded string keys / values

Columnar chunk format
=====================
Query results are shipped as whole typed column buffers instead of one tagged
value per cell, so transfer cost scales with bytes rather than Python object
count.  A ``result`` header message announces the schema and is followed by
``result_chunk`` messages, each carrying a binary chunk blob; the result ends
at the message flagged ``last`` — the final chunk, or the header itself when
there are no rows to ship (see :func:`repro.netproto.messages.result_messages`)::

    "CB" | version u8 | row_count u32 | column_count u16
    then per column:
        name        u16 length + UTF-8 bytes
        sql type    u8  (stable code, see columnar._SQL_TYPE_CODES)
        dtype tag   u8  (see below)
        flags       u8  (bit 0: null bitmap present;
                         bit 1: inline dictionary present, TAG_DICT only)
        [null bitmap: u32 length + packed bits, row-major]
        sections    each ``u32 length + bytes``; every value section is
                    routed through the compression codec layer
                    (:mod:`repro.netproto.compression`) and therefore starts
                    with a one-byte codec id: 0 ``none`` (the bytes),
                    2 ``zlib`` (DEFLATE level 6),
                    3 ``shuffle`` (``lane width u8`` + one zlib stream of the
                    section transposed into that many byte lanes: byte 0 of
                    every value, then byte 1, ...; lanes of 8 KiB or more are
                    each stored, run-length or DEFLATE-6 coded, as a probe of
                    their head chooses, shorter ones and width 1 are
                    ``zlib.compress`` level 6),
                    4 ``narrow`` in one of three forms:
                    ``item width u8`` + ``stored width u8`` + ``base i64 LE``
                    + each value minus base in stored-width LE (frame of
                    reference); ``item width u8`` + ``0`` + ``first i64 LE``
                    + ``step i64 LE`` + ``count u32 LE`` (an arithmetic
                    sequence); ``0`` + ``exponent u8`` (0..15) + an 8-byte
                    integer section in either form before, whose values
                    ``d`` decode as the doubles ``d / 10**exponent``
                    (decimal).  A section it cannot shrink is written as
                    id 0.  Id 1 (a retired run-length codec) is refused.
                    The widths are those of the buffer encoded — 8, 4
                    (codes, offsets) or 1 (bool, blobs, OBJECT) — and ride in
                    the section so that a section decodes without its column.
                    A client that names no codec gets ``narrow``.

Dtype tags and their sections:

    0x01 INT64    one section: little-endian i64 value buffer
    0x02 FLOAT64  one section: little-endian f64 value buffer
    0x03 BOOL     one section: one byte per value
    0x10 UTF8     two sections: u32 LE offsets (n+1 entries) + UTF-8 blob
    0x11 BINARY   two sections: u32 LE offsets (n+1 entries) + raw blob
    0x12 DICT     dictionary-encoded strings: one
                  section of little-endian i32 codes indexing the column's
                  sorted unique-value table; when flags bit 1 is set the
                  table follows as two more sections (u32 LE offsets + UTF-8
                  blob).  The dictionary ships inline once per column — the
                  first chunk carries it, later chunks reference it through
                  the decoder's per-result dictionary cache.  NULL rows are
                  marked by the null bitmap only (their code is a
                  placeholder, not a sentinel).
    0x20 OBJECT   one section: value-codec encoded list (escape hatch for
                  values a typed buffer cannot hold, e.g. >64-bit integers)

Protocol version
================
There is one dialect.  The client names ``protocol_version`` in its ``hello``
message and the server repeats it in ``challenge``; a ``hello`` that names
any other version (or none) is answered with a structured ``protocol`` error
naming the version the server speaks, and a client refuses a ``challenge``
that names another version — a version change is a refusal, never a silent
downgrade.  The version covers the message set, the result framing and this
value codec together, and the encrypted payload.  It is 8: version 7 predates
the ``dUE2`` cipher (:mod:`repro.netproto.encryption`), version 6 the
``narrow`` stride and decimal forms.
"""

from __future__ import annotations

import struct
from typing import Any, BinaryIO

from ..errors import ConnectionLostError, WireFormatError

#: Frame magic marker (helps catch stream desynchronisation early).
MAGIC = b"dU"

#: Type tags used by the value codec.
_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_BIGINT = b"J"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_LIST = b"L"
_TAG_DICT = b"M"

#: Hard cap on a single frame's payload.  A hostile (or corrupted) length
#: prefix would otherwise make the reader allocate up to 2 GiB before a
#: single payload byte is validated; no legitimate message comes close —
#: result data ships in 64k-row chunks well under a megabyte each.  Both
#: sides enforce the same cap so a conforming peer can never emit a frame
#: the other refuses.
MAX_FRAME_BYTES = 64 * 1024 * 1024


# --------------------------------------------------------------------------- #
# value codec
# --------------------------------------------------------------------------- #
def encode_value(value: Any) -> bytes:
    """Encode a single value (recursively) to bytes."""
    if value is None:
        return _TAG_NONE
    if value is True:
        return _TAG_TRUE
    if value is False:
        return _TAG_FALSE
    if isinstance(value, int):
        if -(1 << 63) <= value < (1 << 63):
            return _TAG_INT + struct.pack(">q", value)
        data = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        return _TAG_BIGINT + struct.pack(">I", len(data)) + data
    if isinstance(value, float):
        return _TAG_FLOAT + struct.pack(">d", value)
    if isinstance(value, str):
        data = value.encode("utf-8")
        return _TAG_STR + struct.pack(">I", len(data)) + data
    if isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        return _TAG_BYTES + struct.pack(">I", len(data)) + data
    if isinstance(value, (list, tuple)):
        parts = [_TAG_LIST, struct.pack(">I", len(value))]
        for item in value:
            parts.append(encode_value(item))
        return b"".join(parts)
    if isinstance(value, dict):
        parts = [_TAG_DICT, struct.pack(">I", len(value))]
        for key, item in value.items():
            if not isinstance(key, str):
                raise WireFormatError(f"dictionary keys must be strings, got {key!r}")
            parts.append(encode_value(key))
            parts.append(encode_value(item))
        return b"".join(parts)
    # numpy scalars and arrays reach the protocol from UDF results; normalise
    # them rather than rejecting.
    item_method = getattr(value, "item", None)
    if callable(item_method) and getattr(value, "shape", None) == ():
        return encode_value(value.item())
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return encode_value(tolist())
    raise WireFormatError(f"cannot encode value of type {type(value).__name__}")


class _Reader:
    """Sequential reader over a bytes buffer."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def read(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise WireFormatError("truncated payload")
        chunk = self.data[self.offset:self.offset + count]
        self.offset += count
        return chunk

    def read_length(self) -> int:
        return struct.unpack(">I", self.read(4))[0]


def decode_value(data: bytes) -> Any:
    """Decode a single value; the payload must be fully consumed."""
    reader = _Reader(data)
    value = _decode(reader)
    if reader.offset != len(data):
        raise WireFormatError(
            f"trailing garbage after value ({len(data) - reader.offset} bytes)"
        )
    return value


def _decode(reader: _Reader) -> Any:
    tag = reader.read(1)
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        return struct.unpack(">q", reader.read(8))[0]
    if tag == _TAG_BIGINT:
        return int.from_bytes(reader.read(reader.read_length()), "big", signed=True)
    if tag == _TAG_FLOAT:
        return struct.unpack(">d", reader.read(8))[0]
    if tag == _TAG_STR:
        return reader.read(reader.read_length()).decode("utf-8")
    if tag == _TAG_BYTES:
        return reader.read(reader.read_length())
    if tag == _TAG_LIST:
        count = reader.read_length()
        return [_decode(reader) for _ in range(count)]
    if tag == _TAG_DICT:
        count = reader.read_length()
        result = {}
        for _ in range(count):
            key = _decode(reader)
            result[key] = _decode(reader)
        return result
    raise WireFormatError(f"unknown type tag {tag!r}")


# --------------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------------- #
def encode_frame(payload: bytes) -> bytes:
    """Wrap a payload in a length-prefixed frame."""
    if len(payload) > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit")
    return MAGIC + struct.pack(">I", len(payload)) + payload


def decode_frame(data: bytes) -> tuple[bytes, bytes]:
    """Split one frame off the front of ``data``; returns (payload, rest)."""
    if len(data) < 6:
        raise WireFormatError("incomplete frame header")
    if data[:2] != MAGIC:
        raise WireFormatError("bad frame magic")
    (length,) = struct.unpack(">I", data[2:6])
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit")
    if len(data) < 6 + length:
        raise WireFormatError("incomplete frame payload")
    return data[6:6 + length], data[6 + length:]


def extract_frame(buffer: bytearray,
                  max_length: int = MAX_FRAME_BYTES) -> bytes | None:
    """Incrementally split one complete frame's payload off ``buffer``.

    The workhorse of the async front end: the event loop appends whatever
    ``recv`` produced and calls this until it returns ``None`` (no complete
    frame buffered yet).  On success the consumed bytes are deleted from the
    front of ``buffer``.  Raises :class:`~repro.errors.WireFormatError` as
    soon as the buffered prefix can never become a valid frame (bad magic or
    an oversized length), without waiting for the rest to arrive.
    """
    if buffer[:2] != MAGIC[:len(buffer)]:
        raise WireFormatError("bad frame magic")
    if len(buffer) < 6:
        return None
    (length,) = struct.unpack(">I", bytes(buffer[2:6]))
    if length > max_length:
        raise WireFormatError(
            f"frame length {length} exceeds the {max_length}-byte limit")
    if len(buffer) < 6 + length:
        return None
    payload = bytes(buffer[6:6 + length])
    del buffer[:6 + length]
    return payload


def read_frame(stream: BinaryIO,
               max_length: int = MAX_FRAME_BYTES) -> bytes:
    """Read exactly one frame from a binary stream.

    Raises :class:`~repro.errors.ConnectionLostError` when the stream ends
    *between* frames (a clean peer disconnect) and
    :class:`~repro.errors.WireFormatError` when it ends mid-frame, the magic
    is wrong, or the length prefix exceeds ``max_length`` (a hostile or
    corrupted prefix must not trigger a giant allocation).
    """
    first = stream.read(1)
    if not first:
        raise ConnectionLostError("connection closed")
    header = first + _read_exact(stream, 5)
    if header[:2] != MAGIC:
        raise WireFormatError("bad frame magic")
    (length,) = struct.unpack(">I", header[2:6])
    if length > max_length:
        raise WireFormatError(
            f"frame length {length} exceeds the {max_length}-byte limit")
    return _read_exact(stream, length)


def _read_exact(stream: BinaryIO, count: int) -> bytes:
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            raise WireFormatError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# --------------------------------------------------------------------------- #
# message helpers
# --------------------------------------------------------------------------- #
def encode_message(message: dict[str, Any]) -> bytes:
    """Encode a message dict into a framed payload."""
    return encode_frame(encode_value(message))


def decode_message(frame_payload: bytes) -> dict[str, Any]:
    """Decode a frame payload back into a message dict."""
    value = decode_value(frame_payload)
    if not isinstance(value, dict):
        raise WireFormatError("message payload is not a dictionary")
    return value
