"""Transfer compression codecs.

The paper (§2.1) lets the developer "compress the data during the transfer,
leading to faster transfer times".  The reproduction offers four codecs:

* ``none``    — identity (the baseline).
* ``zlib``    — DEFLATE level 6 over the bytes as they come (the durable
  image's codec, and what ``compress()`` uses when not told otherwise).
* ``shuffle`` — one zlib stream over the buffer transposed into byte lanes
  (the Blosc shuffle): byte 0 of every value, then byte 1, ...  A typed
  column's high bytes are mostly equal, so each lane is a long run — faster to
  compress *and* smaller than ``zlib`` on every column kind the engine ships.
  Each lane of 8 KiB or more is stored, run-length or DEFLATE-6 coded, as a
  probe of its head says.  The lane width is the ``itemsize`` of the buffer
  handed in and rides in the section, so decoding needs no column context.
  What "compress" in the settings dialog means.
* ``narrow``  — the result wire's default: a caller that names no codec gets
  it, one that names ``none`` gets the raw bytes.  Three forms, the smallest
  written:

  - frame of reference: an integer buffer (``<i8`` values, ``<i4``
    dictionary codes, ``<u4`` offsets) ships as its minimum plus each value's
    distance from it in as many bits as the span needs, eight values to every
    ``bits`` bytes (bit packing, vectorised a slot of every group at a time
    after Lemire & Boytsov), or in 1, 2 or 4 bytes where that is no larger
    (a byte-aligned span, a few values);
  - stride: such a buffer that is an arithmetic sequence (consecutive ids,
    sorted codes, the offsets of equal-width strings) ships as its first
    value, step and count;
  - decimal: a ``<f8`` buffer whose values are all ``d / 10**e`` for one
    ``e <= 15`` ships as ``e`` plus the integers ``d``, themselves narrowed.
    The exponent is chosen on a sample (as ALP does), and the whole buffer is
    then checked to decode back to its own bits, so ``-0.0``, NaN and inf
    never take this form.

  A buffer it cannot shrink (bools, blobs, doubles that are not short
  decimals, a span needing the full width, too few values to pay for a
  header) is written as ``none`` writes it, id 0 included.
"""

from __future__ import annotations

import functools
import itertools
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..errors import ProtocolError
from .wire import MAX_FRAME_BYTES

CODEC_NONE = "none"
CODEC_ZLIB = "zlib"
CODEC_SHUFFLE = "shuffle"
CODEC_NARROW = "narrow"


# --------------------------------------------------------------------------- #
# DEFLATE, plain and over byte lanes
# --------------------------------------------------------------------------- #
def _inflate(data: bytes) -> bytes:
    """One whole zlib stream: a stream cut short or with bytes after it is
    as corrupt as a bad one."""
    inflater = zlib.decompressobj()
    try:
        inflated = inflater.decompress(data)
    except zlib.error as exc:
        raise ProtocolError(f"corrupt DEFLATE stream: {exc}") from None
    if not inflater.eof or inflater.unused_data:
        raise ProtocolError("corrupt DEFLATE stream: "
                            + ("bytes after its end" if inflater.eof else "cut short"))
    return inflated


#: lanes shorter than this stay one DEFLATE-6 pass over all lanes.  Measured
#: (2-vCPU Xeon, Python 3.11; ``test_lane_threshold_crossover`` in
#: ``benchmarks/test_bench_transfer_compression.py``): the shortest lane at
#: which coding lanes apart is faster on four of five column kinds (geometric
#: mean 0.7 x); at 4 KiB it is slower on three, at 200 B 2.5-3.8 x on all five
_LANE_MIN_BYTES = 8192
#: the head of a lane its encoding is chosen on
_LANE_PROBE_BYTES = 4096
#: ``(level, strategy)`` of a lane's raw DEFLATE segment
_STORED, _RLE, _DEFLATE = (0, zlib.Z_DEFAULT_STRATEGY), (6, zlib.Z_RLE), \
    (6, zlib.Z_DEFAULT_STRATEGY)
#: the header ``zlib.compress(..., 6)`` writes (DEFLATE, 32 KiB window) and an
#: empty final block (fixed Huffman codes, end of block)
_ZLIB_HEADER, _FINAL_BLOCK = b"\x78\x9c", b"\x03\x00"


def _deflated_size(data: Any, level: int, strategy: int) -> int:
    encoder = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS, 8, strategy)
    return len(encoder.compress(data)) + len(encoder.flush())


def _lane_encoding(lane: np.ndarray) -> tuple[int, int]:
    """Stored, ``Z_RLE`` or DEFLATE-6 for one byte lane, whichever its first
    4 KiB come out smallest under (ties to the cheaper): a lane of random bits
    is not searched for matches, a lane of runs not for distant ones.  A fast
    DEFLATE-1 stands in for DEFLATE-6 in the probe."""
    if not (lane != lane[0]).any():
        return _RLE
    probe = lane[:_LANE_PROBE_BYTES]
    deflated = _deflated_size(probe, 1, zlib.Z_DEFAULT_STRATEGY)
    if deflated >= len(probe):
        return _STORED
    return _DEFLATE if deflated < _deflated_size(probe, *_RLE) else _RLE


def shuffle_compress(data: Any) -> bytes:
    """``[lane width][zlib stream of the buffer as width byte lanes]``.

    Lanes of 8 KiB or more are each stored, run-length coded or DEFLATE-6
    coded, as :func:`_lane_encoding` chooses; neighbours choosing alike share
    one raw DEFLATE segment ended by a sync flush.  The segments go under one
    zlib header and are closed by an empty final block and the Adler-32 of
    all the lanes, so the section is one ordinary zlib stream.  Narrower
    buffers (width 1: bytes, keep-masks) and shorter lanes are DEFLATE-6 in
    one go, as ``zlib.compress`` writes it.
    """
    view = memoryview(data)
    width = view.itemsize
    if width == 1:
        return b"\x01" + zlib.compress(view, 6)
    lanes = np.frombuffer(view, np.uint8).reshape(-1, width).T
    if lanes.shape[1] < _LANE_MIN_BYTES:
        return bytes([width]) + zlib.compress(lanes.tobytes(), 6)
    lanes = np.ascontiguousarray(lanes)
    segments = [bytes([width]), _ZLIB_HEADER]
    for (level, strategy), run in itertools.groupby(
            zip(map(_lane_encoding, lanes), lanes), key=lambda pair: pair[0]):
        encoder = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS, 8, strategy)
        segments += [encoder.compress(lane) for _, lane in run]
        segments.append(encoder.flush(zlib.Z_SYNC_FLUSH))
    segments += [_FINAL_BLOCK, zlib.adler32(lanes).to_bytes(4, "big")]
    return b"".join(segments)


def shuffle_decompress(data: bytes) -> bytes:
    width, lanes = data[0] if data else 0, _inflate(data[1:])
    if not width or len(lanes) % width:
        raise ProtocolError(f"corrupt shuffle section: {len(lanes)} B, {width} lanes")
    if width == 1:
        return lanes
    return np.frombuffer(lanes, np.uint8).reshape(width, -1).T.tobytes()


#: ``[item width u8][stored width u8][base i64 LE]`` in front of a narrowed buffer
_NARROW_HEADER = struct.Struct("<BBq")
#: ``[item width | _PACKED][bits u8][base i64 LE][count u32 LE]`` in front of
#: ``count`` values packed ``bits`` to a value, a group of eight to ``bits`` bytes
_PACKED_HEADER = struct.Struct("<BBqI")
_PACKED = 0x80
#: ``[item width u8][0][first i64 LE][step i64 LE][count u32 LE]``: a sequence
_STRIDE_HEADER = struct.Struct("<BBqqI")
#: ``[0][exponent u8]`` in front of the narrowed integers of a decimal buffer
_DECIMAL_HEADER = struct.Struct("<BB")
#: int64 values, int32 dictionary codes, uint32 var-width / dictionary offsets
_NARROW_KINDS = ("<i8", "<i4", "<u4")
#: ``10 ** e`` for every decimal exponent ``e``; each is exact in a double
_POWERS = [float(10 ** exponent) for exponent in range(16)]
#: values of a float buffer an exponent is chosen on
_DECIMAL_SAMPLE = 8


def _stride(data: np.ndarray) -> tuple[int, int] | None:
    """``(first, step)`` when ``data`` (two or more integers) is an
    arithmetic sequence whose step fits an ``int64``; the endpoints are
    compared first."""
    first, last = int(data[0]), int(data[-1])
    step = int(data[1]) - first  # Python ints: no overflow
    if last - first != step * (len(data) - 1) or not -1 << 63 <= step < 1 << 63:
        return None
    # with the endpoints exact, equal wrapped differences mean equal steps
    unsigned = data.view(f"<u{data.itemsize}")
    steps = np.diff(unsigned) == unsigned.dtype.type(step % (1 << 8 * data.itemsize))
    return (first, step) if steps.all() else None


@functools.lru_cache(maxsize=None)
def _slots(bits: int) -> tuple[np.dtype, list[int], np.ndarray, list[tuple[int, int, int]]]:
    """Slot ``j`` of a group of ``bits`` bytes: its little-endian word, as
    wide as the group allows (1, 2, 4 or 8 bytes), at byte ``offsets[j]``, its
    value at bit ``shifts[j]``; ``tops`` lists ``(j, byte, shift)`` where the
    word cannot hold it all (more than 57 bits): that byte holds the top bits."""
    width = min(8, 1 << bits.bit_length() - 1)
    offsets = [min(slot * bits // 8, bits - width) for slot in range(8)]
    shifts = [slot * bits - 8 * offset for slot, offset in enumerate(offsets)]
    tops = [(slot, offsets[slot] + 8, 64 - shift)
            for slot, shift in enumerate(shifts) if shift + bits > 64]
    return np.dtype(f"<u{width}"), offsets, np.array(shifts, np.uint64)[:, None], tops


def _words(body: Any, kind: Any, bits: int, groups: int) -> np.ndarray:
    """Row ``r``: the ``kind`` word at byte ``r`` of every group of ``body``."""
    kind = np.dtype(kind)
    return np.ndarray((bits - kind.itemsize + 1, groups), kind, body, 0, (1, bits))


def _pack_bits(data: np.ndarray, low: int, bits: int) -> np.ndarray:
    """``data - low`` (each below ``2**bits``) in groups of ``bits`` bytes,
    slot ``j`` of every group holding the ``j``-th eighth of the values: a
    slot is shifted into place and OR-ed into its word of every group at once."""
    groups = (len(data) + 7) // 8
    columns = np.zeros((8, groups), np.uint64)
    np.subtract(data, low, out=columns.reshape(-1)[:len(data)].view(np.int64),
                dtype=np.int64)
    body = np.zeros(groups * bits, np.uint8)
    kind, offsets, shifts, tops = _slots(bits)
    for slot, top, shift in tops:
        top = _words(body, np.uint8, bits, groups)[top]
        np.bitwise_or(top, columns[slot] >> np.uint64(shift), out=top)
    columns <<= shifts
    words = _words(body, kind, bits, groups)
    for slot, offset in enumerate(offsets):
        np.bitwise_or(words[offset], columns[slot], out=words[offset])
    return body


def _unpack_bits(body: Any, bits: int, count: int) -> np.ndarray:
    """:func:`_pack_bits` undone: ``count`` offsets as ``uint64``, a slot's
    words gathered from every group at once."""
    kind, offsets, shifts, tops = _slots(bits)
    groups = (count + 7) // 8
    values = _words(body, kind, bits, groups)[offsets].astype(np.uint64, copy=False)
    values >>= shifts
    for slot, top, shift in tops:
        values[slot] |= _words(body, np.uint8, bits, groups)[top] << np.uint64(shift)
    values &= np.uint64((1 << bits) - 1)
    return values.reshape(-1)[:count]


def _narrow_integers(data: np.ndarray,
                     bounds: tuple[int, int] | None = None) -> bytes | None:
    """The smallest of a stride and a frame of reference in bytes or in bits;
    None when none beats the raw buffer.  ``bounds``: the values' minimum and
    maximum, when the caller has them (a decimal's digits)."""
    count, item = len(data), data.itemsize
    groups = (count + 7) // 8
    stride = _stride(data) if count > 1 else None
    if stride is not None and _STRIDE_HEADER.size < _PACKED_HEADER.size + groups:
        return _STRIDE_HEADER.pack(item, 0, *stride, count)  # beats any width
    low, high = bounds or (int(data.min()), int(data.max()))
    span = high - low  # Python ints: no int64 overflow
    stored = next(width for width in (1, 2, 4, item) if span >> 8 * width == 0)
    bits = max(1, span.bit_length())
    byte_size = _NARROW_HEADER.size + stored * count  # at full width, above raw
    bit_size = _PACKED_HEADER.size + groups * bits
    size = min(byte_size, bit_size, count * item)
    if stride is not None and _STRIDE_HEADER.size < size:
        return _STRIDE_HEADER.pack(item, 0, *stride, count)
    if size == count * item:
        return None
    if byte_size == size:  # a byte-aligned span, or too few values to pad
        offsets = np.subtract(data, data.dtype.type(low), casting="unsafe",
                              out=np.empty(count, f"<u{stored}"))
        return _NARROW_HEADER.pack(item, stored, low) + offsets.data
    return _PACKED_HEADER.pack(_PACKED | item, bits, low, count) + \
        _pack_bits(data, low, bits).data


def _decimal_exponent(values: np.ndarray) -> int | None:
    """The least ``e`` at which each of a few values spread over ``values``
    is ``d / 10**e`` for an integer ``|d| < 2**53`` (ALP's sampling): a scalar
    loop, so a buffer of random doubles is turned down after one value."""
    exponent = 0
    for value in values[::max(1, len(values) // _DECIMAL_SAMPLE)][
            :_DECIMAL_SAMPLE].tolist():
        for candidate in range(exponent, len(_POWERS)):
            scaled = value * _POWERS[candidate]
            if not -2.0 ** 53 < scaled < 2.0 ** 53:  # NaN and inf included
                return None
            if round(scaled) / _POWERS[candidate] == value:
                exponent = candidate
                break
        else:
            return None
    return exponent


def _narrow_decimal(data: np.ndarray) -> bytes | None:
    """``[0][e][the integers d, narrowed]`` when every value decodes back to
    its own bits as ``d / 10**e``; None otherwise or when no smaller."""
    if data.nbytes <= _DECIMAL_HEADER.size + _NARROW_HEADER.size + len(data):
        return None  # not even one-byte integers would be smaller
    exponent = _decimal_exponent(data)
    for retry in (True, False):
        if exponent is None:
            return None
        with np.errstate(over="ignore", invalid="ignore"):  # inf, signalling NaN
            digits = data * _POWERS[exponent]
        np.rint(digits, out=digits)
        low, high = digits.min(), digits.max()
        if not -2.0 ** 53 < low <= high < 2.0 ** 53:  # NaN compares False
            return None
        integers = digits.astype("<i8")  # differences and offsets exact at any span
        # what the decoder computes from them (0, never -0.0), so only exact
        # buffers pass
        np.divide(integers, _POWERS[exponent], out=digits)
        missed = digits.view("<i8") != data.view("<i8")
        if not missed.any():
            break
        if not retry:
            return None
        # the sample missed longer decimals: choose again on the values it missed
        longer = _decimal_exponent(data[missed])
        exponent = None if longer is None else max(exponent, longer)
    del digits, missed  # one buffer of the values' size at a time
    inner = _narrow_integers(integers, (int(low), int(high)))
    if inner is None or _DECIMAL_HEADER.size + len(inner) >= data.nbytes:
        return None
    return _DECIMAL_HEADER.pack(0, exponent) + inner


def narrow_compress(data: Any) -> bytes | None:
    """A stride, a frame of reference or a decimal; None when no smaller."""
    if not isinstance(data, np.ndarray) or not len(data):
        return None
    if data.dtype.str == "<f8":
        return _narrow_decimal(data)
    if data.dtype.str in _NARROW_KINDS:
        return _narrow_integers(data)
    return None


def _check_integers(item: int, low: int, high: int, count: int,
                    max_items: int | None) -> None:
    if max_items is None:  # no count vouched for: no more than a frame holds
        max_items = MAX_FRAME_BYTES // item
    if count > max_items:
        raise ProtocolError(f"corrupt narrow section: {count} values, "
                            f"at most {max_items} expected")
    bits = 8 * item
    # the values fit the item type: i8, or i4 / u4 (codes / offsets)
    top = 1 << (bits - 1 if low < 0 or item == 8 else bits)
    if low < -(1 << bits - 1) or high >= top:
        raise ProtocolError(f"corrupt narrow section: values {low}..{high} "
                            f"outside {item}-byte integers")


def _expand_integers(data: Any, max_items: int | None,
                     doubles: bool = False) -> np.ndarray:
    """A stride or frame-of-reference section as ``<u{item}`` values, or as
    ``<f8`` with ``doubles`` (the digits of a decimal: exact below 2**53)."""
    if len(data) == _STRIDE_HEADER.size and data[0] in (4, 8) and data[1] == 0:
        item, _, first, step, count = _STRIDE_HEADER.unpack(data)
        last = first + step * max(count - 1, 0)
        _check_integers(item, min(first, last), max(first, last), count, max_items)
        values = np.arange(count, dtype=np.uint64)  # wrapping: no overflow
        values *= np.uint64(step % (1 << 64))
        values += np.uint64(first % (1 << 64))
        if doubles:
            return values.view("<i8").astype("<f8")
        return values if item == 8 else values.astype("<u4")
    if len(data) and data[0] & _PACKED:
        flagged, bits, base, count = _PACKED_HEADER.unpack_from(data) \
            if len(data) >= _PACKED_HEADER.size else (_PACKED, 0, 0, 0)
        item = flagged ^ _PACKED
        if item not in (4, 8) or not 0 < bits < 8 * item or not count \
                or len(data) != _PACKED_HEADER.size + (count + 7) // 8 * bits:
            raise ProtocolError(f"corrupt narrow section: {len(data)} B, "
                                f"{count} values of {bits} bits, width {item}")
        _check_integers(item, base, base, count, max_items)  # before allocating
        values = _unpack_bits(data[_PACKED_HEADER.size:], bits, count)
        _check_integers(item, base, base + int(values.max()), count, max_items)
        if doubles:  # in place: the int64 sums written as doubles
            return np.add(values.view("<i8"), base, out=values.view("<f8"),
                          dtype="<i8", casting="unsafe")
        values += np.uint64(base % (1 << 64))
        return values if item == 8 else values.astype("<u4")
    item, stored, base = _NARROW_HEADER.unpack_from(data) \
        if len(data) >= _NARROW_HEADER.size else (0, 0, 0)
    body = data[_NARROW_HEADER.size:]
    if item not in (4, 8) or stored not in (1, 2, 4) or stored >= item \
            or len(body) % stored:
        raise ProtocolError(f"corrupt narrow section: {len(data)} B, "
                            f"width {stored} of {item}")
    offsets = np.frombuffer(body, f"<u{stored}")
    high = base + (int(offsets.max()) if len(offsets) else 0)
    _check_integers(item, base, high, len(offsets), max_items)
    if doubles:
        return np.add(offsets, np.float64(base))
    kind = np.dtype(f"<u{item}")
    return np.add(offsets, kind.type(base % (1 << 8 * item)), dtype=kind)


def narrow_decompress(data: Any, max_items: int | None = None) -> np.ndarray:
    """The decoded values as a read-only array, no copy of them made;
    ``max_items`` bounds the count before anything is allocated."""
    if len(data) >= _DECIMAL_HEADER.size and data[0] == 0:
        exponent = data[1]
        if exponent >= len(_POWERS):
            raise ProtocolError(f"corrupt narrow section: decimal exponent "
                                f"{exponent} outside 0..{len(_POWERS) - 1}")
        digits = data[_DECIMAL_HEADER.size:]
        if not len(digits) or digits[0] & ~_PACKED != 8:
            raise ProtocolError("corrupt narrow section: decimal digits are "
                                "not 8-byte integers")
        values = _expand_integers(digits, max_items, doubles=True)
        values /= _POWERS[exponent]
    else:
        values = _expand_integers(data, max_items)
    values.flags.writeable = False
    return values


# --------------------------------------------------------------------------- #
# codec registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Codec:
    """A named compression codec.

    ``codec_id`` is the byte that prefixes every compressed section on the
    wire, in WAL records and in image segments.  It is part of those formats:
    a new codec takes the next unused id, an id is never reassigned (id 1, the
    retired run-length codec, stays unused).
    """

    name: str
    codec_id: int
    #: None: nothing to gain, the section is written as codec ``none`` writes it
    compress: Callable[[Any], bytes | None]
    #: bytes-like, or the array a ``narrow`` section expands into
    decompress: Callable[[Any], Any]


_CODECS: dict[str, Codec] = {codec.name: codec for codec in (
    Codec(CODEC_NONE, 0,
          lambda data: data if isinstance(data, bytes) else bytes(data),
          lambda data: data),
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


def decompress_buffer(data: Any, max_items: int | None = None) -> Any:
    """Reverse :func:`compress` without copying the result: a bytes-like
    object, or the read-only array a ``narrow`` section expands into.

    ``max_items`` is the most values the caller can accept (by default what
    one frame can carry); a ``narrow`` section claiming more is refused
    before anything is allocated.
    """
    if not len(data):
        raise ProtocolError("empty compressed payload")
    codec = _CODECS_BY_ID.get(data[0])
    if codec is None:
        raise ProtocolError(f"unknown codec id {data[0]}")
    if codec.name == CODEC_NARROW:
        return narrow_decompress(data[1:], max_items)
    return codec.decompress(data[1:])


def decompress(data: bytes) -> bytes:
    """Reverse :func:`compress`."""
    return bytes(decompress_buffer(data))


def compression_ratio(original: bytes, codec: str = CODEC_ZLIB) -> float:
    """Original size divided by compressed size (>= 1 means it helped)."""
    compressed = compress(original, codec)
    return len(original) / max(len(compressed), 1)
