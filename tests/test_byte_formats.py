"""Every byte format's decoder against five mutations of valid blobs.

A row per format: valid blobs, the decoder, the one error type it may raise,
its oracle (a checksummed format gives back an original or refuses, a wire
format a well-typed value of the shape it declares), its label bytes and how
bytes go after its end.  Mutations: flip any bit; truncate anywhere; splice in
a slice of another blob of the row; relabel each magic or version byte (which
must then be refused) and each codec id or type tag byte to each value its
row lists; inflate a u32 length or count (any 4-byte window below 2**24) to
2**31 or 2**32 - 1; append bytes, which a format that fixes its own end must
refuse.  Memory stays under a multiple of the input and of what decoding the
original took.  ``input.bin`` is the plain pickle Listing 2 loads, no row.
"""
from __future__ import annotations

import io
import struct
import tracemalloc
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DecryptionError, PersistenceError, ProtocolError, WireFormatError
from repro.netproto.auth import compute_response
from repro.netproto.columnar import TAG_BINARY, TAG_BOOL, TAG_FLOAT64, TAG_INT64, \
    TAG_OBJECT, decode_chunk, encode_result_chunk
from repro.netproto.compression import compress, decompress_buffer
from repro.netproto.encryption import decrypt, encrypt
from repro.netproto.messages import PROTOCOL_VERSION
from repro.netproto.server import DatabaseServer
from repro.netproto.wire import decode_frame, decode_message, encode_frame, encode_message
from repro.obs import MetricsRegistry
from repro.sqldb.catalog import FunctionCatalog
from repro.sqldb.database import Database
from repro.sqldb.persist.faults import FileSystem
from repro.sqldb.persist.format import read_database, verify_image, write_database
from repro.sqldb.persist.wal import HEADER_SIZE, WriteAheadLog, read_wal
from repro.sqldb.result import QueryResult, ResultColumn
from repro.sqldb.storage import Storage
from repro.sqldb.types import SQLType
from repro.sqldb.vector import Vector


class Row(NamedTuple):
    name: str
    blobs: st.SearchStrategy[bytes]
    decode: Callable[[bytes], Any]
    error: type[Exception]
    oracle: Callable[[Any, list[Any]], bool]  # (decoded, the originals decoded)
    labels: Callable[[bytes], list[tuple[int, bytes]]]  # [(at, values to put)]
    marks: Callable[[bytes], list[tuple[int, bytes]]]  # the same, each refused
    #: the blob with bytes after its end that it must refuse, or None where
    #: its format takes them (as data, or as a torn tail)
    append: Callable[[bytes, bytes], bytes | None]


class _Memory(FileSystem):
    """One file in memory: what a writer leaves, a reader reads."""

    def __init__(self, data: bytes = b"") -> None:
        self.file = io.BytesIO(data)
        self.file.close = self.fsync = lambda *_: None  # still readable, no disk

    def open(self, path: Any, mode: str) -> Any:
        return self.file

    def read_bytes(self, path: Any) -> bytes:
        return self.file.getvalue()


def _near(blob: bytes, *positions: int) -> list[tuple[int, bytes]]:
    """Magic and version bytes, each to its neighbours and other letter case."""
    return [(at, bytes({(blob[at] + 1) % 256, (blob[at] - 1) % 256, blob[at] ^ 0x20}))
            for at in positions]


def _after(blob: bytes, extra: bytes) -> bytes:
    return blob + extra


def _well_typed(value: Any) -> bool:
    """What the value codec may decode to, all the way down."""
    if isinstance(value, dict):
        return all(isinstance(key, str) and _well_typed(item) for key, item in value.items())
    return all(map(_well_typed, value)) if isinstance(value, list) else \
        value is None or isinstance(value, (bool, int, float, str, bytes))


# --------------------------------------------------------------------------- #
# the rows, then the mutations
# --------------------------------------------------------------------------- #
_TAGS, _CODEC_IDS = b"NTFIJDSBLM", bytes(range(6))  # 1 retired, 5 unassigned
_CODECS = ["none", "zlib", "shuffle", "narrow"]     # ids 0, 2, 3, 4
_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
    | st.binary(max_size=12), lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4), max_leaves=12)
_frames = st.builds(lambda kind, fields: encode_message({"type": kind, **fields}),
                    st.sampled_from(["hello", "query"]),
                    st.dictionaries(st.text(max_size=8), _values, max_size=4))


def _frame_labels(blob: bytes) -> list[tuple[int, bytes]]:
    """Each byte that may be a type tag."""
    return [(at, _TAGS) for at, byte in enumerate(blob) if byte in _TAGS]


def _frame_marks(blob: bytes) -> list[tuple[int, bytes]]:
    """The frame magic, and the payload's first tag to tags there are not."""
    return _near(blob, 0, 1) + [(6, b"\x00AXZ\xff")]


_SERVER = DatabaseServer()
_SALT = _SERVER.registry.accounts["monetdb"].salt
_SERVER.registry.challenge_for = lambda username: (_SALT, bytes(16))  # a fixed one
_RESPONSE = compute_response("monetdb", _SALT, bytes(16))
_handshakes = st.builds(
    lambda user, version: encode_message({
        "type": "hello", "username": user, "protocol_version": version})
    + encode_message({"type": "login", "username": user, "response": _RESPONSE}),
    st.sampled_from(["monetdb", "nobody"]), st.sampled_from([PROTOCOL_VERSION, 1]))


def _handshake(blob: bytes) -> list[Any]:
    """Each frame of ``blob`` through the server, as a connection sends them."""
    session, replies = _SERVER.open_session(), []
    try:
        while blob:
            payload, blob = decode_frame(blob)
            replies += [decode_message(decode_frame(frame)[0]) for frame
                        in _SERVER.handle_frame_stream(session, payload)]
    finally:
        _SERVER.close_session(session)
    return replies


def _column(kind: str, rows: int, seed: int) -> ResultColumn:
    """A column whose sections take each codec's forms: strides, narrow and
    wide integers, decimals, dictionary and plain strings, NULLs, OBJECT."""
    rng = np.random.default_rng(seed)
    small = rng.integers(-300, 300, rows).tolist()
    return ResultColumn(kind, *{
        "id": lambda: (SQLType.BIGINT, list(range(seed, seed + 3 * rows, 3))),
        "int": lambda: (SQLType.INTEGER, [None if v % 7 == 0 else v for v in small]),
        "wide": lambda: (SQLType.BIGINT, rng.integers(-2**62, 2**62, rows).tolist()),
        "huge": lambda: (SQLType.BIGINT, [2**66 + v for v in small]),
        "decimal": lambda: (SQLType.DOUBLE, [v * 0.25 for v in small]),
        "double": lambda: (SQLType.DOUBLE, rng.standard_normal(rows).tolist()),
        "bool": lambda: (SQLType.BOOLEAN, [v % 2 == 0 for v in small]),
        "word": lambda: (SQLType.STRING, [f"g{v % 3}" for v in small]),
        "text": lambda: (SQLType.STRING,
                         [None if v % 5 == 0 else f"naïve-{v}" for v in small]),
        "blob": lambda: (SQLType.BLOB, [bytes([v % 256]) * (v % 3) for v in small]),
    }[kind]())


_chunks = st.builds(
    lambda kinds, rows, seed, codec: encode_result_chunk(QueryResult(
        [_column(kind, rows, seed) for kind in kinds]), codec=codec, allow_dict=True)[0],
    st.lists(st.sampled_from(["id", "int", "wide", "huge", "decimal", "double", "bool",
                              "word", "text", "blob"]), min_size=1, max_size=4, unique=True),
    st.integers(0, 40), st.integers(0, 1 << 16), st.sampled_from(_CODECS))
#: what a value of each typed tag materialises to (UTF8 and DICT: str)
_TAG_TYPES = {TAG_INT64: int, TAG_FLOAT64: float, TAG_BOOL: bool, TAG_BINARY: bytes}


def _decode_chunk(blob: bytes) -> tuple[int, list[tuple[int, list[Any]]]]:
    row_count, columns = decode_chunk(blob)
    return row_count, [(column.tag, values.to_list() if isinstance(values, Vector)
                        else values) for column in columns
                       for values in [column.materialise()]]


def _chunk_shaped(decoded: tuple[int, list[Any]], _: list[Any]) -> bool:
    """``row_count`` values a column, each NULL or of its tag's type."""
    row_count, columns = decoded
    return all(len(values) == row_count and (tag == TAG_OBJECT or all(
        value is None or isinstance(value, _TAG_TYPES.get(tag, str))
        for value in values)) for tag, values in columns)


def _chunk_labels(blob: bytes) -> list[tuple[int, bytes]]:
    """Each codec id: a byte below 5 behind a u32 length."""
    return [(at, _CODEC_IDS) for at in range(4, len(blob)) if blob[at] < 5
            and 0 < struct.unpack_from("<I", blob, at - 4)[0] <= len(blob) - at]


_ITEMS = 64  # the most values a lone section may hold: what its caller vouches for
_sections = st.builds(
    lambda kind, dtype, count, seed, codec: compress(np.array(
        _column(kind, count, seed).values, "<f8" if kind in ("decimal", "double")
        else dtype), codec),
    st.sampled_from(["id", "bool", "decimal", "double"]),
    st.sampled_from(["<i8", "<i4", "<u4"]), st.integers(0, _ITEMS),
    st.integers(0, 1 << 16), st.sampled_from(_CODECS))


def test_the_rows_reach_each_narrow_form():
    """A stride, a frame of reference in bits and in bytes, and a decimal."""
    forms = [compress(np.array(_column(kind, rows, 3).values, dtype), "narrow")[1:3]
             for kind, rows, dtype in [("id", 40, "<i8"), ("bool", 40, "<i4"),
                                       ("bool", 3, "<i8"), ("decimal", 40, "<f8")]]
    assert forms == [b"\x08\x00", b"\x84\x01", b"\x08\x01", b"\x00\x02"]


def _image(rows: int, seed: int, codec: str) -> bytes:
    database, file = Database(), io.BytesIO()
    database.execute("CREATE TABLE t (i INTEGER, d DOUBLE, s STRING)")
    for column, kind in zip(database.storage.table("t").columns,
                            ["int", "decimal", "word"]):
        column.extend(_column(kind, rows, seed).values)
    database.execute("CREATE FUNCTION twice(x INTEGER) RETURNS INTEGER "
                     "LANGUAGE PYTHON { return x * 2 }")
    write_database(file, database.storage, database.catalog, generation=seed,
                   segment_rows=16, codec=codec)
    return file.getvalue()


def _read_image(blob: bytes) -> tuple[bool, Any]:
    """Whether a scrub passes, and what an open loads (it refuses only an
    image a scrub fails)."""
    storage, catalog = Storage(), FunctionCatalog()
    report = verify_image("db", fs=_Memory(blob))
    try:
        read_database("db", storage, catalog, fs=_Memory(blob))
    except PersistenceError:
        assert not report.ok, report
        raise
    return report.ok, ([entry.signature.name for entry in catalog.functions()],
                       [column.values for column in storage.table("t").columns])


def _wal(records: list[dict[str, Any]], generation: int) -> bytes:
    memory = _Memory()
    wal = WriteAheadLog("log", fs=memory, metrics=MetricsRegistry())
    wal.create(generation)
    wal.append_group(records)
    return memory.read_bytes("log")


def _wal_marks(blob: bytes) -> list[tuple[int, bytes]]:
    """Magic and version, except an older version of a log that is only its
    header: a clean close, which the next open re-creates (a relabel)."""
    return _near(blob, *range(8), 9) + ([] if len(blob) == HEADER_SIZE else _near(blob, 8))


ROWS = [
    Row("frame", _frames, lambda blob: decode_message(decode_frame(blob)[0]),
        WireFormatError, lambda message, _: isinstance(message, dict)
        and _well_typed(message), _frame_labels, _frame_marks,
        lambda blob, extra: encode_frame(decode_frame(blob)[0] + extra)),
    # bytes after the login are a frame cut short (fewer than a header)
    Row("handshake", _handshakes, _handshake, WireFormatError,
        lambda replies, _: _SERVER.counters["internal_errors"].value == 0 and all(
            reply["type"] in ("challenge", "login_ok", "error") for reply in replies),
        _frame_labels, lambda blob: _near(blob, 0, 1), _after),
    Row("chunk", _chunks, _decode_chunk, ProtocolError, _chunk_shaped, _chunk_labels,
        lambda blob: _near(blob, 0, 1, 2), _after),
    # id 0 is the bytes themselves: any number of them is a section
    Row("section", _sections, lambda blob: bytes(decompress_buffer(blob, _ITEMS)),
        ProtocolError, lambda values, _: isinstance(values, bytes),
        lambda blob: [(0, b"\x00\x02\x03\x04")], lambda blob: [(0, b"\x01\x05")],
        lambda blob, extra: blob + extra if blob[0] else None),
    Row("dUE2", st.binary(max_size=200).map(lambda data: encrypt(data, "pw")),
        lambda blob: decrypt(blob, "pw"), DecryptionError,
        lambda plain, originals: plain in originals, lambda blob: [],
        lambda blob: _near(blob, 0, 1, 2, 3), _after),
    Row("wal", st.builds(_wal, st.lists(st.fixed_dictionaries(
        {"op": st.sampled_from(["insert", "delete"]), "chunk": _chunks}), max_size=4),
        st.integers(0, 1 << 16)),
        lambda blob: read_wal("log", fs=_Memory(blob)).records, PersistenceError,
        # a prefix of its records; with a slice of a second log spliced in,
        # records each of which one of the two logs holds
        lambda records, originals: records == originals[0][:len(records)] or len(
            originals) == 2 and all(record in sum(originals, []) for record in records),
        lambda blob: _near(blob, 8) if len(blob) == HEADER_SIZE else [], _wal_marks,
        lambda blob, extra: None),  # a torn tail
    Row("image", st.builds(_image, st.integers(0, 40), st.integers(0, 1 << 16),
                           st.sampled_from(_CODECS)), _read_image, PersistenceError,
        lambda loaded, originals: loaded[0] and loaded in originals, lambda blob: [],
        lambda blob: _near(blob, *range(10), *range(len(blob) - 8, len(blob))), _after),
]


# each mutation gives [(mutated blob, whether the decoder must refuse it)]
def _flip(row: Row, blob: bytes, donor: bytes, data: Any) -> list[tuple[bytes, bool]]:
    mutated = bytearray(blob)
    mutated[data.draw(st.integers(0, len(blob) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    return [(bytes(mutated), False)]


def _truncate(row: Row, blob: bytes, donor: bytes, data: Any) -> list[tuple[bytes, bool]]:
    return [(blob[:data.draw(st.integers(0, len(blob) - 1))], False)]


def _splice(row: Row, blob: bytes, donor: bytes, data: Any) -> list[tuple[bytes, bool]]:
    start, first = data.draw(st.integers(0, len(blob))), data.draw(st.integers(0, len(donor)))
    return [(blob[:start] + donor[first:data.draw(st.integers(first, len(donor)))]
             + blob[data.draw(st.integers(start, len(blob))):], False)]


def _relabel(row: Row, blob: bytes, donor: bytes, data: Any) -> list[tuple[bytes, bool]]:
    return [(blob[:at] + bytes([value]) + blob[at + 1:], refused)
            for refused, labels in [(False, row.labels(blob)), (True, row.marks(blob))]
            for at, values in labels for value in values if value != blob[at]]


def _inflate(row: Row, blob: bytes, donor: bytes, data: Any) -> list[tuple[bytes, bool]]:
    order = data.draw(st.sampled_from("<>"))  # the value codec's are big-endian
    top, start = 3 if order == "<" else 0, data.draw(st.integers(0, len(blob) - 1))
    # the first window from a drawn offset: what is drawn does not depend on
    # the blob's bytes, which a dUE2 nonce makes differ from run to run
    windows = [at for at in range(len(blob) - 3) if blob[at + top] == 0] or [0]
    at = next((at for at in windows if at >= start), windows[0])
    value = data.draw(st.sampled_from([1 << 31, (1 << 32) - 1]))
    return [(blob[:at] + struct.pack(order + "I", value) + blob[at + 4:], False)]


def _append(row: Row, blob: bytes, donor: bytes, data: Any) -> list[tuple[bytes, bool]]:
    extra = data.draw(st.binary(min_size=1, max_size=5))
    refused = row.append(blob, extra)
    return [(blob + extra, False)] if refused is None else [(refused, True)]


def _decode_traced(row: Row, blob: bytes) -> tuple[Any, int]:
    """``row.decode(blob)`` (or the row's error it raised) and its peak."""
    tracemalloc.start()
    try:
        return row.decode(blob), tracemalloc.get_traced_memory()[1]
    except row.error as exc:
        return exc, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mutation", [_flip, _truncate, _splice, _relabel, _inflate,
                                      _append],
                         ids=lambda mutation: mutation.__name__[1:])
@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_a_mutated_blob_decodes_per_its_oracle_or_raises_its_error(row, mutation, data):
    blob = data.draw(row.blobs, label="blob")
    donor = data.draw(row.blobs, label="donor") if mutation is _splice else blob
    originals, baseline = [], 0
    for original in dict.fromkeys([blob, donor]):
        decoded, peak = _decode_traced(row, original)
        assert not isinstance(decoded, Exception), decoded
        originals.append(decoded)
        baseline = max(baseline, peak)
    for mutated, refused in mutation(row, blob, donor, data):
        decoded, peak = _decode_traced(row, mutated)
        if refused:
            assert isinstance(decoded, row.error), (mutated, decoded)
        elif not isinstance(decoded, row.error):
            assert row.oracle(decoded, originals), (mutated, decoded)
        assert peak <= 16 * max(len(mutated), baseline) + (1 << 20)  # + first-use caches
