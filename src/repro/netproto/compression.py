"""Transfer compression codecs.

The paper (§2.1) lets the developer "compress the data during the transfer,
leading to faster transfer times".  The reproduction offers several codecs so
that the compression benchmark can sweep them:

* ``none``    — identity (the baseline).
* ``zlib``    — DEFLATE level 6 over the bytes as they come (the durable
  image's codec, and what ``compress()`` uses when not told otherwise).
* ``rle``     — a from-scratch byte-level run-length encoder; demo data
  (repetitive integer columns) compresses well even with this naive scheme,
  which makes the benchmark's point without relying on zlib internals.
* ``shuffle`` — the same DEFLATE level 6 over the buffer transposed into byte
  lanes (the Blosc shuffle): byte 0 of every value, then byte 1, ...  A typed
  column's high bytes are mostly equal, so each lane is a long run — faster to
  compress *and* smaller than ``zlib`` on every column kind the engine ships.
  The lane width is the ``itemsize`` of the buffer handed in and rides in the
  section, so decoding needs no column context.  What "compress" in the
  settings dialog means.
* ``narrow``  — frame of reference: an integer buffer (``<i8`` values, ``<i4``
  dictionary codes, ``<u4`` offsets) ships as its minimum plus each value's
  distance from it in 1, 2 or 4 bytes, whichever holds the span.  A buffer it
  cannot shrink (floats, bools, blobs, a span needing the full width, too few
  values to pay for the 10-byte header) is written as ``none`` writes it, id
  0 included.  The result wire's default: a caller that names no codec gets
  it, one that names ``none`` gets the raw bytes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..errors import ProtocolError

CODEC_NONE = "none"
CODEC_ZLIB = "zlib"
CODEC_RLE = "rle"
CODEC_SHUFFLE = "shuffle"
CODEC_NARROW = "narrow"


# --------------------------------------------------------------------------- #
# run-length codec (from scratch); DEFLATE, plain and over byte lanes
# --------------------------------------------------------------------------- #
def rle_compress(data: bytes) -> bytes:
    """Byte-level run-length encoding: (count, byte) pairs, count <= 255."""
    data = bytes(data) if not isinstance(data, bytes) else data
    if not data:
        return b""
    out = bytearray()
    previous = data[0]
    run = 1
    for byte in data[1:]:
        if byte == previous and run < 255:
            run += 1
        else:
            out.append(run)
            out.append(previous)
            previous = byte
            run = 1
    out.append(run)
    out.append(previous)
    return bytes(out)


def rle_decompress(data: bytes) -> bytes:
    if len(data) % 2 != 0:
        raise ProtocolError("corrupt RLE stream (odd length)")
    out = bytearray()
    for index in range(0, len(data), 2):
        count = data[index]
        value = data[index + 1]
        out.extend(bytes([value]) * count)
    return bytes(out)


def _inflate(data: bytes) -> bytes:
    try:
        return zlib.decompress(data)
    except zlib.error as exc:
        raise ProtocolError(f"corrupt DEFLATE stream: {exc}") from None


def shuffle_compress(data: Any) -> bytes:
    """``[lane width][DEFLATE-6 of the buffer as width byte lanes]``."""
    view = memoryview(data)
    width = view.itemsize
    if width > 1:
        view = np.frombuffer(view, np.uint8).reshape(-1, width).T.tobytes()
    return bytes([width]) + zlib.compress(view, 6)


def shuffle_decompress(data: bytes) -> bytes:
    width, lanes = data[0] if data else 0, _inflate(data[1:])
    if not width or len(lanes) % width:
        raise ProtocolError(f"corrupt shuffle section: {len(lanes)} B, {width} lanes")
    if width == 1:
        return lanes
    return np.frombuffer(lanes, np.uint8).reshape(width, -1).T.tobytes()


#: ``[item width u8][stored width u8][base i64 LE]`` in front of a narrowed buffer
_NARROW_HEADER = struct.Struct("<BBq")
#: int64 values, int32 dictionary codes, uint32 var-width / dictionary offsets
_NARROW_KINDS = ("<i8", "<i4", "<u4")


def narrow_compress(data: Any) -> bytes | None:
    """``[header][values - base as stored-width LE]``; None when no smaller."""
    if not isinstance(data, np.ndarray) or data.dtype.str not in _NARROW_KINDS \
            or not len(data):
        return None
    low, item = int(data.min()), data.itemsize
    span = int(data.max()) - low  # Python ints: no int64 overflow
    stored = next(width for width in (1, 2, 4, item) if span >> 8 * width == 0)
    if len(data) * (item - stored) <= _NARROW_HEADER.size:
        return None
    return _NARROW_HEADER.pack(item, stored, low) + \
        (data - data.dtype.type(low)).astype(f"<u{stored}").tobytes()


def narrow_decompress(data: bytes) -> bytes:
    item, stored, base = _NARROW_HEADER.unpack_from(data) \
        if len(data) >= _NARROW_HEADER.size else (0, 0, 0)
    body = memoryview(data)[_NARROW_HEADER.size:]
    if item not in (4, 8) or stored not in (1, 2, 4) or stored >= item \
            or len(body) % stored:
        raise ProtocolError(f"corrupt narrow section: {len(data)} B, "
                            f"width {stored} of {item}")
    offsets = np.frombuffer(body, f"<u{stored}")
    high, bits = base + (int(offsets.max()) if len(offsets) else 0), 8 * item
    # the values fit the item type: i8, or i4 / u4 (codes / offsets)
    top = 1 << (bits - 1 if base < 0 or item == 8 else bits)
    if base < -(1 << bits - 1) or high >= top:
        raise ProtocolError(f"corrupt narrow section: values {base}..{high} "
                            f"outside {item}-byte integers")
    kind = np.dtype(f"<u{item}")
    return np.add(offsets, kind.type(base % (1 << bits)), dtype=kind).tobytes()


# --------------------------------------------------------------------------- #
# codec registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Codec:
    """A named compression codec.

    ``codec_id`` is the byte that prefixes every compressed section on the
    wire, in image segments and in ``input.bin``.  It is part of those
    formats: a new codec takes the next unused id, an id is never reassigned.
    """

    name: str
    codec_id: int
    #: None: nothing to gain, the section is written as codec ``none`` writes it
    compress: Callable[[Any], bytes | None]
    decompress: Callable[[bytes], bytes]


_CODECS: dict[str, Codec] = {codec.name: codec for codec in (
    Codec(CODEC_NONE, 0,
          lambda data: data if isinstance(data, bytes) else bytes(data),
          lambda data: data),
    Codec(CODEC_RLE, 1, rle_compress, rle_decompress),
    Codec(CODEC_ZLIB, 2, lambda data: zlib.compress(data, 6), _inflate),
    Codec(CODEC_SHUFFLE, 3, shuffle_compress, shuffle_decompress),
    Codec(CODEC_NARROW, 4, narrow_compress, narrow_decompress),
)}
_CODECS_BY_ID = {codec.codec_id: codec for codec in _CODECS.values()}


def available_codecs() -> list[str]:
    return sorted(_CODECS)


def get_codec(name: str) -> Codec:
    try:
        return _CODECS[name.lower()]
    except KeyError:
        raise ProtocolError(f"unknown compression codec {name!r}; "
                            f"available: {available_codecs()}") from None


def compress(data: Any, codec: str = CODEC_ZLIB) -> bytes:
    """Compress ``data`` and prepend a one-byte codec id so it is self-describing.

    Accepts any contiguous buffer: the columnar wire path hands in the numpy
    array slice itself, without an intermediate copy, and ``shuffle`` reads
    its lane width off that buffer's ``itemsize``, ``narrow`` its integer kind
    off its dtype.
    """
    codec_obj = get_codec(codec)
    packed = codec_obj.compress(data)
    if packed is None:
        codec_obj = _CODECS[CODEC_NONE]
        packed = codec_obj.compress(data)
    return bytes([codec_obj.codec_id]) + packed


def decompress(data: bytes) -> bytes:
    """Reverse :func:`compress`."""
    if not data:
        raise ProtocolError("empty compressed payload")
    codec = _CODECS_BY_ID.get(data[0])
    if codec is None:
        raise ProtocolError(f"unknown codec id {data[0]}")
    return codec.decompress(data[1:])


def compression_ratio(original: bytes, codec: str = CODEC_ZLIB) -> float:
    """Original size divided by compressed size (>= 1 means it helped)."""
    compressed = compress(original, codec)
    return len(original) / max(len(compressed), 1)
