"""Transfer compression codecs.

The paper (§2.1) lets the developer "compress the data during the transfer,
leading to faster transfer times".  The reproduction offers several codecs so
that the compression benchmark can sweep them:

* ``none``   — identity (the baseline).
* ``zlib``   — DEFLATE at a configurable level (the default, closest to what a
  production plugin would ship).
* ``rle``    — a from-scratch byte-level run-length encoder; demo data
  (repetitive integer columns) compresses well even with this naive scheme,
  which makes the benchmark's point without relying on zlib internals.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

from ..errors import ProtocolError

CODEC_NONE = "none"
CODEC_ZLIB = "zlib"
CODEC_RLE = "rle"


# --------------------------------------------------------------------------- #
# run-length codec (from scratch)
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
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]


_CODECS: dict[str, Codec] = {codec.name: codec for codec in (
    Codec(CODEC_NONE, 0,
          lambda data: data if isinstance(data, bytes) else bytes(data),
          lambda data: data),
    Codec(CODEC_RLE, 1, rle_compress, rle_decompress),
    Codec(CODEC_ZLIB, 2, lambda data: zlib.compress(data, 6), zlib.decompress),
)}


def available_codecs() -> list[str]:
    return sorted(_CODECS)


def get_codec(name: str) -> Codec:
    try:
        return _CODECS[name.lower()]
    except KeyError:
        raise ProtocolError(f"unknown compression codec {name!r}; "
                            f"available: {available_codecs()}") from None


def compress(data: bytes | bytearray | memoryview, codec: str = CODEC_ZLIB) -> bytes:
    """Compress ``data`` and prepend a one-byte codec id so it is self-describing.

    Accepts any bytes-like buffer (the columnar wire path hands in numpy
    buffer exports) without an intermediate copy for codecs that support it.
    """
    codec_obj = get_codec(codec)
    return bytes([codec_obj.codec_id]) + codec_obj.compress(data)


def decompress(data: bytes) -> bytes:
    """Reverse :func:`compress`."""
    if not data:
        raise ProtocolError("empty compressed payload")
    for codec in _CODECS.values():
        if codec.codec_id == data[0]:
            return codec.decompress(data[1:])
    raise ProtocolError(f"unknown codec id {data[0]}")


def compression_ratio(original: bytes, codec: str = CODEC_ZLIB) -> float:
    """Original size divided by compressed size (>= 1 means it helped)."""
    compressed = compress(original, codec)
    return len(original) / max(len(compressed), 1)
