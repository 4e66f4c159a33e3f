"""Tests for the binary wire codec and framing."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import struct

from repro.errors import ConnectionLostError, WireFormatError
from repro.netproto.wire import (
    MAGIC,
    MAX_FRAME_BYTES,
    decode_frame,
    decode_message,
    decode_value,
    encode_frame,
    encode_message,
    encode_value,
    read_frame,
)


class TestValueCodec:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 2**63, -2**70, 3.5, -0.0, "hello", "",
        "unicode: café ∑", b"", b"\x00\xff", [1, 2, 3], [], {"a": 1},
        {"nested": {"list": [1, "x", None]}}, [None, True, {"k": b"v"}],
    ])
    def test_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_tuple_becomes_list(self):
        assert decode_value(encode_value((1, 2))) == [1, 2]

    def test_numpy_values_are_normalised(self):
        import numpy as np

        assert decode_value(encode_value(np.int64(7))) == 7
        assert decode_value(encode_value(np.array([1, 2]))) == [1, 2]

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(WireFormatError):
            encode_value({1: "x"})

    def test_unencodable_object_rejected(self):
        with pytest.raises(WireFormatError):
            encode_value(object())


class TestFraming:
    def test_frame_roundtrip(self):
        payload = b"some payload"
        frame = encode_frame(payload)
        decoded, rest = decode_frame(frame + b"tail")
        assert decoded == payload
        assert rest == b"tail"

    def test_incomplete_frame_rejected(self):
        frame = encode_frame(b"abcdef")
        with pytest.raises(WireFormatError):
            decode_frame(frame[:-2])

    def test_stream_read_write(self):
        stream = io.BytesIO()
        stream.write(encode_frame(b"one"))
        stream.write(encode_frame(b"two"))
        stream.seek(0)
        assert read_frame(stream) == b"one"
        assert read_frame(stream) == b"two"

    def test_read_frame_on_closed_stream(self):
        # EOF between frames is a peer disconnect, not a codec failure
        with pytest.raises(ConnectionLostError):
            read_frame(io.BytesIO(b""))

    def test_read_frame_on_mid_frame_eof(self):
        frame = encode_frame(b"abcdef")
        with pytest.raises(WireFormatError):
            read_frame(io.BytesIO(frame[:-2]))

    def test_hostile_length_prefix_rejected(self):
        # a 2 GiB length prefix must be rejected before any allocation
        hostile = MAGIC + struct.pack(">I", (1 << 31) - 1) + b"x" * 16
        with pytest.raises(WireFormatError, match="exceeds"):
            read_frame(io.BytesIO(hostile))
        with pytest.raises(WireFormatError, match="exceeds"):
            decode_frame(hostile)

    def test_read_frame_custom_cap(self):
        frame = encode_frame(b"x" * 128)
        with pytest.raises(WireFormatError, match="exceeds"):
            read_frame(io.BytesIO(frame), max_length=64)

    def test_oversized_payload_not_encodable(self):
        class FakePayload(bytes):
            def __len__(self) -> int:
                return MAX_FRAME_BYTES + 1

        with pytest.raises(WireFormatError, match="exceeds"):
            encode_frame(FakePayload())


class TestMessages:
    def test_message_roundtrip(self):
        message = {"type": "query", "sql": "SELECT 1", "options": {"compress": True}}
        frame = encode_message(message)
        payload, _ = decode_frame(frame)
        assert decode_message(payload) == message


json_like = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(min_value=-2**40, max_value=2**40),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=30), st.binary(max_size=30)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5)),
    max_leaves=20,
)


class TestWireProperties:
    @settings(max_examples=100, deadline=None)
    @given(json_like)
    def test_value_roundtrip_property(self, value):
        assert decode_value(encode_value(value)) == value

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=2000))
    def test_frame_roundtrip_property(self, payload):
        decoded, rest = decode_frame(encode_frame(payload))
        assert decoded == payload and rest == b""
