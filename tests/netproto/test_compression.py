"""Tests for the transfer compression codecs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.netproto import compression
from repro.netproto.compression import (
    CODEC_NONE,
    CODEC_RLE,
    CODEC_ZLIB,
    available_codecs,
    compress,
    compression_ratio,
    decompress,
    get_codec,
    rle_compress,
    rle_decompress,
)


class TestCodecRegistry:
    def test_available_codecs(self):
        assert set(available_codecs()) == {CODEC_NONE, CODEC_ZLIB, CODEC_RLE}

    def test_unknown_codec_rejected(self):
        with pytest.raises(ProtocolError):
            get_codec("lz4")

    def test_case_insensitive(self):
        assert get_codec("ZLIB").name == CODEC_ZLIB


class TestRoundTrips:
    @pytest.mark.parametrize("codec", [CODEC_NONE, CODEC_ZLIB, CODEC_RLE])
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


class TestCodecIds:
    def test_ids_are_part_of_the_stored_formats(self, monkeypatch):
        """The id byte lives in image segments, wire chunks and ``input.bin``:
        it is pinned per codec, and a codec registered later — even one whose
        name sorts before ``zlib`` — renumbers nothing."""
        payload = b"42," * 500
        blobs = {codec: compress(payload, codec)
                 for codec in (CODEC_NONE, CODEC_RLE, CODEC_ZLIB)}
        assert {codec: blob[0] for codec, blob in blobs.items()} == {
            CODEC_NONE: 0, CODEC_RLE: 1, CODEC_ZLIB: 2}

        newcomer = compression.Codec("brotli", 3, lambda data: bytes(data)[::-1],
                                     lambda data: data[::-1])
        monkeypatch.setitem(compression._CODECS, newcomer.name, newcomer)
        for codec, blob in blobs.items():
            assert compress(payload, codec) == blob
            assert decompress(blob) == payload
        assert compress(payload, "brotli")[0] == 3
        assert decompress(compress(payload, "brotli")) == payload
        with pytest.raises(ProtocolError, match="unknown codec id 4"):
            decompress(bytes([4]) + b"data")


class TestCompressionEffect:
    def test_repetitive_data_compresses_well(self):
        """The demo data (repetitive integer text) must show a clear win (C1)."""
        payload = ("1234\n" * 2000).encode()
        assert compression_ratio(payload, CODEC_ZLIB) > 5

    def test_rle_wins_on_long_runs(self):
        payload = b"a" * 5000 + b"b" * 5000
        assert compression_ratio(payload, CODEC_RLE) > 50

    def test_none_codec_adds_only_header(self):
        payload = b"x" * 100
        assert len(compress(payload, CODEC_NONE)) == len(payload) + 1

    def test_random_data_does_not_explode(self):
        import os

        payload = os.urandom(4096)
        assert len(compress(payload, CODEC_ZLIB)) < len(payload) * 1.05


class TestRLE:
    def test_simple_runs(self):
        assert rle_compress(b"aaaabbb") == bytes([4, ord("a"), 3, ord("b")])
        assert rle_decompress(rle_compress(b"aaaabbb")) == b"aaaabbb"

    def test_long_run_split_at_255(self):
        data = b"z" * 600
        assert rle_decompress(rle_compress(data)) == data

    def test_empty(self):
        assert rle_compress(b"") == b""
        assert rle_decompress(b"") == b""

    def test_corrupt_stream_rejected(self):
        with pytest.raises(ProtocolError):
            rle_decompress(b"\x01")

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=1000))
    def test_rle_roundtrip_property(self, data):
        assert rle_decompress(rle_compress(data)) == data

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=1000), st.sampled_from([CODEC_NONE, CODEC_ZLIB, CODEC_RLE]))
    def test_all_codecs_roundtrip_property(self, data, codec):
        assert decompress(compress(data, codec)) == data
