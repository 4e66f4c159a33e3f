"""Tests for the transfer compression codecs."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.netproto import compression
from repro.netproto.compression import (
    CODEC_NARROW,
    CODEC_NONE,
    CODEC_SHUFFLE,
    CODEC_ZLIB,
    available_codecs,
    compress,
    compression_ratio,
    decompress,
    decompress_buffer,
    get_codec,
)


ALL_CODECS = [CODEC_NONE, CODEC_ZLIB, CODEC_SHUFFLE]


class TestCodecRegistry:
    def test_available_codecs(self):
        assert available_codecs() == [CODEC_NARROW, CODEC_NONE,
                                      CODEC_SHUFFLE, CODEC_ZLIB]

    def test_unknown_codec_rejected(self):
        with pytest.raises(ProtocolError):
            get_codec("lz4")

    def test_case_insensitive(self):
        assert get_codec("ZLIB").name == CODEC_ZLIB


class TestRoundTrips:
    @pytest.mark.parametrize("codec", ALL_CODECS)
    @pytest.mark.parametrize("payload", [b"", b"a", b"hello world" * 100, bytes(range(256))])
    def test_roundtrip(self, codec, payload):
        assert decompress(compress(payload, codec)) == payload

    def test_self_describing_payload(self):
        """decompress() does not need to be told which codec was used."""
        payload = b"42," * 500
        for codec in available_codecs():
            assert decompress(compress(payload, codec)) == payload

    def test_empty_compressed_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decompress(b"")

    def test_unknown_codec_id_rejected(self):
        with pytest.raises(ProtocolError):
            decompress(bytes([250]) + b"data")

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=1000), st.sampled_from(ALL_CODECS))
    def test_all_codecs_roundtrip_property(self, data, codec):
        assert decompress(compress(data, codec)) == data


class TestCodecIds:
    def test_ids_are_part_of_the_stored_formats(self, monkeypatch):
        """The id byte lives in image segments, wire chunks and ``input.bin``:
        it is pinned per codec, and a codec registered later — even one whose
        name sorts before ``zlib`` — renumbers nothing."""
        payload = b"42," * 500
        blobs = {codec: compress(payload, codec)
                 for codec in ALL_CODECS}
        assert {codec: blob[0] for codec, blob in blobs.items()} == {
            CODEC_NONE: 0, CODEC_ZLIB: 2, CODEC_SHUFFLE: 3}
        assert compress(np.arange(300, dtype="<i8"), CODEC_NARROW)[0] == 4

        newcomer = compression.Codec("brotli", 5, lambda data: bytes(data)[::-1],
                                     lambda data: data[::-1])
        monkeypatch.setitem(compression._CODECS, newcomer.name, newcomer)
        monkeypatch.setitem(compression._CODECS_BY_ID, newcomer.codec_id, newcomer)
        for codec, blob in blobs.items():
            assert compress(payload, codec) == blob
            assert decompress(blob) == payload
        assert compress(payload, "brotli")[0] == 5
        assert decompress(compress(payload, "brotli")) == payload
        with pytest.raises(ProtocolError, match="unknown codec id 6"):
            decompress(bytes([6]) + b"data")

    def test_codecs_0_to_2_write_the_bytes_they_always_wrote(self):
        payload = np.arange(300, dtype="<i8")
        assert compress(payload, CODEC_NONE) == b"\x00" + payload.tobytes()
        assert compress(payload, CODEC_ZLIB) == \
            b"\x02" + zlib.compress(payload.tobytes(), 6)

    def test_the_retired_run_length_id_is_refused(self):
        """Id 1 was a run-length codec no default ever wrote; it is deleted,
        and its sections are a ``ProtocolError`` like any unknown id."""
        with pytest.raises(ProtocolError, match="unknown codec id 1"):
            decompress(b"\x01" + bytes([4, ord("a")]))


class TestShuffle:
    """Codec 3: ``[3][lane width][DEFLATE-6 of the buffer as byte lanes]``."""

    @pytest.mark.parametrize("dtype,width", [("|b1", 1), ("<u2", 2), ("<i4", 4),
                                             ("<u4", 4), ("<i8", 8), ("<f8", 8)])
    def test_width_is_the_itemsize_of_the_buffer_handed_in(self, dtype, width):
        values = (np.arange(1000) % 7).astype(dtype)
        section = compress(values, CODEC_SHUFFLE)
        assert section[:2] == bytes([3, width])
        lanes = zlib.decompress(section[2:])
        assert lanes == np.frombuffer(values.tobytes(), np.uint8) \
            .reshape(-1, width).T.tobytes()
        # self-describing: no dtype, no column, no codec name on the way back
        assert decompress(section) == values.tobytes()

    def test_bytes_have_width_one_and_are_plain_deflate(self):
        payload = b"station_3," * 400
        section = compress(payload, CODEC_SHUFFLE)
        assert section == b"\x03\x01" + zlib.compress(payload, 6)
        assert decompress(section) == payload

    def test_lanes_beat_interleaved_deflate_on_a_typed_column(self):
        """The e2e benchmark's column: 16 000 ``int64`` below 100 000."""
        column = np.random.default_rng(1).integers(0, 100_000, 16_000)
        assert len(compress(column, CODEC_SHUFFLE)) < \
            0.8 * len(compress(column, CODEC_ZLIB))

    @pytest.mark.parametrize("section", [
        b"\x03",                                        # no lane width
        b"\x03\x00" + zlib.compress(b""),               # width 0
        b"\x03\x08" + zlib.compress(b"1234567"),        # 7 bytes in 8 lanes
        b"\x03\x04garbage",                             # not DEFLATE
        b"\x03\x08" + zlib.compress(b"12345678")[:-3],  # truncated DEFLATE
    ], ids=["no_width", "width_0", "indivisible", "garbage", "truncated"])
    def test_malformed_sections_are_protocol_errors(self, section):
        with pytest.raises(ProtocolError):
            decompress(section)

    def test_corrupt_zlib_section_is_a_protocol_error(self):
        """Reproduced at the parent: ``zlib.error`` leaked out of id 2."""
        with pytest.raises(ProtocolError, match="DEFLATE"):
            decompress(b"\x02garbage")

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([1, 2, 4, 8]), st.binary(max_size=2400))
    def test_roundtrip_property(self, width, raw):
        raw = raw[:len(raw) // width * width]  # whole values: 0, 1, ... of them
        values = np.frombuffer(raw, dtype=f"<u{width}")
        section = compress(values, CODEC_SHUFFLE)
        assert section[:2] == bytes([3, width])
        assert decompress(section) == raw


def _lanes(values):
    """The byte lanes of a typed buffer, as ``shuffle`` transposes them."""
    return np.frombuffer(values.tobytes(), np.uint8) \
        .reshape(-1, values.itemsize).T.tobytes()


def _lane(kind, length, rng):
    if kind == "constant":
        return np.full(length, rng.integers(256), np.uint8)
    if kind == "random":
        return rng.integers(0, 256, length, dtype=np.uint8)
    if kind == "sequence":
        return (np.arange(length) * rng.integers(1, 5)).astype(np.uint8)
    return rng.choice(rng.integers(0, 256, 3), length).astype(np.uint8)


#: below, at and above the length from which each lane is coded on its own
LANE_LENGTHS = [1, 4095, 8191, 8192, 8193, 12_000]
#: the 200 k-row column kinds the codec dominance table measures, and the
#: extract benchmark's 16 000 ``int64`` below 100 000
DOMINANCE_KINDS = {
    "ids": lambda rng: np.arange(200_000, dtype=np.int64),
    "int64_below_500": lambda rng: rng.integers(0, 500, 200_000),
    "int32_codes_below_200": lambda rng: rng.integers(0, 200, 200_000).astype(np.int32),
    "float64": lambda rng: rng.random(200_000),
    "extract_column": lambda rng: rng.integers(0, 100_000, 16_000),
}


class TestShuffleLanes:
    """Lanes of 8 KiB or more are stored, ``Z_RLE`` or DEFLATE-6 coded each,
    inside one zlib stream; shorter lanes keep ``zlib.compress(lanes, 6)``."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(st.sampled_from([2, 4, 8]), st.sampled_from(LANE_LENGTHS),
           st.lists(st.sampled_from(["constant", "random", "sequence", "few"]),
                    min_size=8, max_size=8),
           st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, width, length, kinds, seed):
        rng = np.random.default_rng(seed)
        lanes = np.stack([_lane(kind, length, rng) for kind in kinds[:width]])
        values = np.ascontiguousarray(lanes.T).view(f"<u{width}").ravel()
        assert _lanes(values) == lanes.tobytes()
        section = compress(values, CODEC_SHUFFLE)
        assert section[:2] == bytes([3, width])
        assert decompress(section) == values.tobytes()
        # one standard zlib stream either way: the decoder is unchanged
        assert zlib.decompress(section[2:]) == lanes.tobytes()
        if length < 8192:
            assert section[2:] == zlib.compress(lanes.tobytes(), 6)

    @pytest.mark.parametrize("width", [2, 4, 8])
    @pytest.mark.parametrize("length", [8191, 8192])
    def test_lanes_below_the_threshold_keep_the_old_bytes(self, width, length):
        values = np.random.default_rng(width).integers(0, 1 << 20, length) \
            .astype(f"<u{width}")
        section = compress(values, CODEC_SHUFFLE)
        zlib_stream = zlib.decompress(section[2:]) == _lanes(values)
        old = bytes([3, width]) + zlib.compress(_lanes(values), 6)
        assert zlib_stream and (section == old) == (length < 8192)

    @pytest.mark.parametrize("kind", sorted(DOMINANCE_KINDS))
    def test_no_column_kind_grows_past_one_percent(self, kind):
        values = DOMINANCE_KINDS[kind](np.random.default_rng(5))
        section = compress(values, CODEC_SHUFFLE)
        old = bytes([3, values.itemsize]) + zlib.compress(_lanes(values), 6)
        assert len(section) <= 1.01 * len(old)
        assert decompress(section) == values.tobytes()

    @pytest.mark.parametrize("lane,encoding", [
        (np.random.default_rng(9).integers(0, 256, 16_000, dtype=np.uint8), "_STORED"),
        (np.zeros(16_000, np.uint8), "_RLE"),
        (np.random.default_rng(9).random(16_000) < 0.35, "_RLE"),
        (np.arange(16_000).astype(np.uint8), "_DEFLATE"),
    ], ids=["random_bits", "constant", "two_values", "repeating_ramp"])
    def test_each_lane_is_coded_as_its_head_suggests(self, lane, encoding):
        """Random bits are not searched for matches, runs not for distant
        ones; a ramp repeating every 256 bytes is what DEFLATE-6 is for."""
        lane = lane.astype(np.uint8)
        assert compression._lane_encoding(lane) == getattr(compression, encoding)


#: The integer buffers the wire ships, with the limits of their type
NARROW_KINDS = {"<i8": (-2**63, 2**63 - 1), "<i4": (-2**31, 2**31 - 1),
                "<u4": (0, 2**32 - 1)}
EDGE_SPANS = [2**8 - 1, 2**8, 2**16 - 1, 2**16, 2**32 - 1, 2**32]


def _edge_cases():
    """Every kind at every edge span: from the type's minimum, from a negative
    base and up to the type's maximum, wherever the span fits the type."""
    for kind, (low, high) in NARROW_KINDS.items():
        for span in EDGE_SPANS:
            for base in sorted({low, -span // 2 - 7, high - span}):
                if low <= base and base + span <= high:
                    yield pytest.param(kind, span, base, id=f"{kind}-{span}-{base}")


#: the values of the three frame-of-reference sections the parent commit
#: pinned, one per kind, stored in 2, 1 and 2 bytes
PARENT_VALUES = {"<i8": [-2**63 + i * 977 for i in range(30)],
                 "<i4": [i % 7 - 3 for i in range(30)],
                 "<u4": [i * 2001 for i in range(30)]}
#: those sections as the parent wrote them: ``[4][item][stored][base]`` + offsets
PARENT_SECTIONS = {
    kind: b"\x04" + struct.pack("<BBq", np.dtype(kind).itemsize, stored, min(values))
    + np.array([value - min(values) for value in values], f"<u{stored}").tobytes()
    for (kind, values), stored in zip(PARENT_VALUES.items(), (2, 1, 2))}
#: the sections the damage tests cut and flip: the parent's, a stride, and
#: decimals whose integers take a frame of reference and a stride
NARROWED = {**PARENT_SECTIONS,
            "stride": compress(np.arange(40, dtype="<i8") * -3 + 1000, CODEC_NARROW),
            "decimal": compress(np.array([(i * 37 % 41) * 0.25 - 3.5
                                          for i in range(30)]), CODEC_NARROW),
            "decimal_stride": compress(np.arange(30) * 0.5 - 3.0, CODEC_NARROW)}


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


#: doubles as bit patterns: NaNs with payloads, both zeros, both infinities,
#: subnormals, 2**53 and the ends of the ``e = 15`` decimals
SPECIAL_DOUBLES = [0x7FF8000000000000, 0xFFF8000000000123, 0x7FF0000000000001,
                   0x7FF4000000000000, _bits(0.0), _bits(-0.0), _bits(np.inf),
                   _bits(-np.inf), 1, 0x8000000000000001, 0x000FFFFFFFFFFFFF,
                   _bits(2.0**53), _bits(-2.0**53), _bits(2.0**53 - 1),
                   _bits((2**53 - 1) / 10**15), _bits(-(2**53 - 1) / 10**15),
                   _bits(1e-15), _bits(1e-16)]


@st.composite
def integer_buffers(draw) -> np.ndarray:
    """Any values of a kind, or an arithmetic sequence of it: steps negative
    and zero included, ends near the limits of the type."""
    kind = draw(st.sampled_from(sorted(NARROW_KINDS)))
    low, high = NARROW_KINDS[kind]
    count = draw(st.one_of(st.integers(0, 3), st.integers(4, 40)))
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.one_of(st.sampled_from([low, high, 0]),
                                                 st.integers(low, high)),
                                       min_size=count, max_size=count)), kind)
    reach = (high - low) // max(count - 1, 1)
    step = draw(st.one_of(st.sampled_from([0, 1, -1, reach, -reach]),
                          st.integers(-reach, reach)))
    start_low = low - min(0, step * (count - 1))
    start_high = high - max(0, step * (count - 1))
    first = draw(st.one_of(st.sampled_from([start_low, start_high]),
                           st.integers(start_low, start_high)))
    return np.array([first + step * i for i in range(count)], kind)


@st.composite
def double_buffers(draw) -> np.ndarray:
    """Decimals of one exponent (|d| up to 2**53), any doubles and the special
    ones, mixed; built from bits so that NaN payloads survive."""
    count = draw(st.one_of(st.integers(0, 3), st.integers(4, 40)))
    exponent = draw(st.integers(0, 15))
    limit = draw(st.sampled_from([2**53, 1000]))
    decimal = st.integers(-limit + 1, limit - 1).map(
        lambda d: _bits(d / 10**exponent))
    value = st.one_of(decimal, st.sampled_from(SPECIAL_DOUBLES),
                      st.floats(width=64).map(_bits))
    pick = draw(st.sampled_from([decimal, value]))
    bits = draw(st.lists(pick, min_size=count, max_size=count))
    return np.array(bits, "<u8").view("<f8")


def _parent_section_size(values: np.ndarray) -> int:
    """What the parent commit's ``narrow`` wrote: a frame of reference when
    it was smaller than the raw buffer, else the raw buffer (codec id 0)."""
    raw = 1 + values.nbytes
    if values.dtype.str not in NARROW_KINDS or not len(values):
        return raw
    span = int(values.max()) - int(values.min())
    stored = next(width for width in (1, 2, 4, 8) if span >> 8 * width == 0)
    return min(raw, 1 + 10 + stored * len(values))


class TestNarrow:
    """Codec 4: ``[4][item width][stored width][base i64][values - base]``."""

    @pytest.mark.parametrize("kind,span,base", _edge_cases())
    def test_round_trip_at_the_width_edges(self, kind, span, base):
        values = np.array([base + span // 3, base, base + span] * 8, dtype=kind)
        section = compress(values, CODEC_NARROW)
        assert decompress(section) == values.tobytes()
        stored = next(width for width in (1, 2, 4, 8) if span < 1 << 8 * width)
        if stored < values.itemsize:
            assert section[:11] == struct.pack("<BBBq", 4, values.itemsize,
                                               stored, base)
            assert len(section) == 11 + stored * len(values)
        else:  # the span needs the full width
            assert section == compress(values, CODEC_NONE)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(NARROW_KINDS)),
           st.sampled_from([0, 1] + EDGE_SPANS), st.data())
    def test_round_trip_property(self, kind, span, data):
        low, high = NARROW_KINDS[kind]
        span = min(span, high - low)
        base = data.draw(st.integers(low, high - span))
        values = np.array(data.draw(st.lists(st.integers(base, base + span),
                                             max_size=40)), dtype=kind)
        section = compress(values, CODEC_NARROW)
        assert section[0] in (0, 4)
        assert decompress(section) == values.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(integer_buffers(), double_buffers()))
    def test_every_buffer_round_trips_bit_for_bit_and_never_grows(self, values):
        section = compress(values, CODEC_NARROW)
        assert decompress(section) == values.tobytes()
        assert len(section) <= _parent_section_size(values)

    @pytest.mark.parametrize("values", [
        np.random.default_rng(3).random(50),
        np.array([-0.0, 0.5] * 25),
        np.array([np.nan, 0.5] * 25),
        np.array([np.inf, 0.5] * 25),
        np.array([2.0**53, 0.5] * 25),
        np.array([3e-16, 0.5] * 25),
        np.arange(50) % 3 == 0,
        b"station_3," * 40,
        np.zeros(0, "<i8"),
        np.zeros(0, "<u4"),
        np.array([0, 2**32] * 20, "<i8"),
        np.array([-2**31, 2**31 - 1] * 20, "<i4"),
        np.array([0, 2**32 - 1] * 20, "<u4"),
        np.array([7], "<i8"),
        np.array([1, 2, 3], "<i4"),
        np.arange(50, dtype="<u8"),
        np.arange(50, dtype=">i8"),
    ], ids=["float64", "float64_negative_zero", "float64_nan", "float64_inf",
            "float64_beyond_2_53", "float64_needs_e_16", "bool", "bytes", "empty_i8", "empty_u4", "i8_wide_span",
            "i4_full_span", "u4_full_span", "header_costs_more_i8",
            "header_costs_more_i4", "u8_not_shipped", "big_endian"])
    def test_what_cannot_shrink_is_codec_none_byte_for_byte(self, values):
        assert compress(values, CODEC_NARROW) == compress(values, CODEC_NONE)

    @pytest.mark.parametrize("values,exponent,inner", [
        (np.arange(50) * 0.5, 1, (0, 22)),
        (np.arange(50_000) * 0.5, 1, (0, 22)),
        (np.random.default_rng(4).permutation(50) * 0.5, 1, (1, 10 + 50)),
        (np.array([1234.5, -0.125, 7.0, 0.001] * 10), 3, (4, 10 + 160)),
        (np.array([0.1, 0.2, 0.3] * 10), 1, (1, 10 + 30)),
        (np.array([(2**53 - 1 - i) / 10**15 for i in range(20)]), 15, (1, 10 + 20)),
    ], ids=["halves", "halves_the_sample_misses", "permuted_halves",
            "thousandths", "tenths", "e_15"])
    def test_decimal_doubles_ship_as_narrowed_integers(self, values, exponent,
                                                       inner):
        """``[4][0][e]`` + the integers ``d`` of ``d / 10**e``, narrowed."""
        section = compress(values, CODEC_NARROW)
        stored, size = inner
        assert section[:5] == bytes([4, 0, exponent, 8, stored])
        assert len(section) == 3 + size
        assert decompress(section) == values.tobytes()

    @pytest.mark.parametrize("section", [
        b"\x04",
        b"\x04" + struct.pack("<BBq", 8, 1, 0)[:-1],
        b"\x04" + struct.pack("<BBq", 2, 1, 0) + b"\x00",
        b"\x04" + struct.pack("<BBq", 8, 3, 0) + b"\x00" * 3,
        b"\x04" + struct.pack("<BBq", 4, 4, 0) + b"\x00" * 4,
        b"\x04" + struct.pack("<BBq", 4, 8, 0) + b"\x00" * 8,
        b"\x04" + struct.pack("<BBq", 8, 2, 0) + b"\x00" * 3,
        b"\x04" + struct.pack("<BBq", 8, 1, 2**63 - 1) + b"\x01",
        b"\x04" + struct.pack("<BBq", 4, 1, -2**31 - 1) + b"\x00",
        b"\x04" + struct.pack("<BBq", 4, 2, 2**32 - 2) + b"\x02\x00",
        b"\x04" + struct.pack("<BBqqI", 4, 0, 2**32 - 2, 1, 3),
        b"\x04" + struct.pack("<BBqqI", 8, 0, -2**63, -1, 2),
        b"\x04" + struct.pack("<BBqqI", 8, 0, 0, 1, 40) + b"\x00",
        b"\x04" + struct.pack("<BBqqI", 8, 0, 0, 1, 2**32 - 1),
        b"\x04\x00\x10" + struct.pack("<BBqqI", 8, 0, 0, 1, 40),
        b"\x04\x00\x01" + struct.pack("<BBqqI", 4, 0, 0, 1, 40),
        b"\x04\x00\x01\x00\x01" + struct.pack("<BBqqI", 8, 0, 0, 1, 40),
        b"\x04\x00",
    ], ids=["no_header", "short_header", "item_width_2", "stored_width_3",
            "stored_is_item", "stored_above_item", "ragged", "above_int64",
            "below_int32", "above_uint32", "stride_above_uint32",
            "stride_below_int64", "stride_header_too_long",
            "stride_beyond_a_frame", "exponent_16", "decimal_of_int32",
            "decimal_of_decimal", "decimal_without_integers"])
    def test_malformed_sections_are_protocol_errors(self, section):
        with pytest.raises(ProtocolError, match="narrow"):
            decompress(section)

    def test_the_damaged_sections_are_narrowed(self):
        assert {kind: section[:3] for kind, section in NARROWED.items()} == {
            "<i8": b"\x04\x08\x02", "<i4": b"\x04\x04\x01", "<u4": b"\x04\x04\x02",
            "stride": b"\x04\x08\x00", "decimal": b"\x04\x00\x02",
            "decimal_stride": b"\x04\x00\x01"}
        assert NARROWED["decimal"][3:5] == b"\x08\x02"      # frame of reference
        assert NARROWED["decimal_stride"][3:5] == b"\x08\x00"  # stride

    @pytest.mark.parametrize("kind", sorted(PARENT_SECTIONS))
    def test_the_parents_sections_decode_byte_for_byte_as_before(self, kind):
        values = np.array(PARENT_VALUES[kind], kind)
        assert decompress(PARENT_SECTIONS[kind]) == values.tobytes()
        # a sequence now ships smaller; anything else as the parent wrote it
        section = compress(values, CODEC_NARROW)
        if kind == "<i4":
            assert section == PARENT_SECTIONS[kind]
        else:
            assert section == b"\x04" + struct.pack(
                "<BBqqI", values.itemsize, 0, values[0], values[1] - values[0], 30)

    def test_a_stride_count_is_checked_before_anything_is_allocated(self):
        section = NARROWED["stride"]
        assert np.frombuffer(decompress_buffer(section, 40), "<i8").tolist() == \
            list(range(1000, 1000 - 3 * 40, -3))
        with pytest.raises(ProtocolError, match="at most 39"):
            decompress_buffer(section, 39)
        flipped = section[:-1] + b"\x7f"  # count 40 -> 2**30 + 40
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError, match="at most"):
                decompress_buffer(flipped)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    @staticmethod
    def _decode_or_protocol_error(section: bytes) -> None:
        try:
            decompress(section)
        except ProtocolError:
            pass

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(sorted(NARROWED)), st.booleans(), st.data())
    def test_a_flipped_or_cut_section(self, kind, flip, data):
        """A section carries no value count, so a cut at a value boundary
        decodes (fewer values); the chunk around it catches that.  Anything
        else is a ``ProtocolError`` and nothing else."""
        section = bytearray(NARROWED[kind])
        position = data.draw(st.integers(0, len(section) - 1))
        if flip:
            section[position] ^= data.draw(st.integers(1, 255))
        else:
            del section[position:]
        self._decode_or_protocol_error(bytes(section))

    @pytest.mark.parametrize("kind", sorted(NARROWED))
    def test_every_position_once(self, kind):
        section = NARROWED[kind]
        for position in range(len(section)):
            damaged = bytearray(section)
            damaged[position] ^= 0x5A
            self._decode_or_protocol_error(bytes(damaged))
            self._decode_or_protocol_error(section[:position])


class TestCompressionEffect:
    def test_repetitive_data_compresses_well(self):
        """The demo data (repetitive integer text) must show a clear win (C1)."""
        payload = ("1234\n" * 2000).encode()
        assert compression_ratio(payload, CODEC_ZLIB) > 5

    def test_none_codec_adds_only_header(self):
        payload = b"x" * 100
        assert len(compress(payload, CODEC_NONE)) == len(payload) + 1

    def test_random_data_does_not_explode(self):
        import os

        payload = os.urandom(4096)
        assert len(compress(payload, CODEC_ZLIB)) < len(payload) * 1.05
