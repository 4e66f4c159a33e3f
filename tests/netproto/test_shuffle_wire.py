"""The ``shuffle`` codec (id 3) on the paths that use it (what a damaged
chunk may do: ``tests/test_byte_formats.py``).

* every column kind round-trips through ``encode_result_chunk`` ↔
  ``decode_chunk`` and through a TCP connection with ``encrypt`` on;
* a typed column reaches the codec *with its width* (the lane-width byte of
  each section is the buffer's ``itemsize``, not 1);
* the durable image may be written with the codec (an image segment *is* a
  wire chunk) although it is not the image's default.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.settings import DataTransferSettings
from repro.errors import ProtocolError
from repro.netproto.client import Connection, ConnectionInfo, TransferOptions
from repro.netproto.columnar import decode_chunk, encode_result_chunk
from repro.netproto.compression import CODEC_SHUFFLE
from repro.netproto.server import (
    AsyncSocketServer,
    DatabaseServer,
    SocketTransport,
)
from repro.sqldb.database import Database
from repro.sqldb.persist.format import DEFAULT_CODEC
from repro.sqldb.result import QueryResult, ResultColumn
from repro.sqldb.types import SQLType


def _nullable(values: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(st.none(), values)


#: SQL type -> per-value strategy; together they reach every dtype tag
COLUMN_KINDS = {
    "int64": (SQLType.INTEGER, st.integers(-2**63, 2**63 - 1)),
    "int64_nulls": (SQLType.BIGINT, _nullable(st.integers(-1000, 1000))),
    "float64": (SQLType.DOUBLE, _nullable(
        st.floats(allow_nan=False, allow_infinity=True, width=64))),
    "bool": (SQLType.BOOLEAN, _nullable(st.booleans())),
    "utf8": (SQLType.STRING, _nullable(st.text(max_size=12))),
    "dictionary": (SQLType.STRING, _nullable(st.sampled_from(["a", "bb", "ç"]))),
    "binary": (SQLType.BLOB, _nullable(st.binary(max_size=8))),
    "object": (SQLType.BIGINT, st.integers(2**64, 2**70)),
}


@st.composite
def results(draw) -> QueryResult:
    rows = draw(st.sampled_from([0, 1, 2, 17, 40]))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1,
                          max_size=4))
    return QueryResult([
        ResultColumn(f"c{index}_{kind}", COLUMN_KINDS[kind][0],
                     draw(st.lists(COLUMN_KINDS[kind][1], min_size=rows,
                                   max_size=rows)))
        for index, kind in enumerate(kinds)])


def _decoded_rows(blob: bytes) -> list[list]:
    _, columns = decode_chunk(blob)
    values = [column.materialise() for column in columns]
    return [column if isinstance(column, list) else column.to_list()
            for column in values]


def _section_headers(blob: bytes) -> list[bytes]:
    """``[codec id][lane width]`` of every section of a one-column, NULL-free
    chunk blob."""
    (name_len,) = struct.unpack_from("<H", blob, 9)
    offset = 9 + 2 + name_len + 3
    headers = []
    while offset < len(blob):
        (length,) = struct.unpack_from("<I", blob, offset)
        headers.append(blob[offset + 4:offset + 6])
        offset += 4 + length
    return headers


class TestChunkRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(results(), st.booleans())
    def test_every_column_kind(self, result, allow_dict):
        blob, raw = encode_result_chunk(result, codec=CODEC_SHUFFLE,
                                        allow_dict=allow_dict)
        assert _decoded_rows(blob) == [column.values for column in result.columns]
        plain, plain_raw = encode_result_chunk(result, allow_dict=allow_dict)
        assert raw == plain_raw  # the ratio's numerator does not depend on codec

    @pytest.mark.parametrize("sql_type,values,widths", [
        (SQLType.INTEGER, list(range(40)), [8]),
        (SQLType.DOUBLE, [i * 0.5 for i in range(40)], [8]),
        (SQLType.BOOLEAN, [i % 3 == 0 for i in range(40)], [1]),
        (SQLType.STRING, [f"unique-{i}" for i in range(40)], [4, 1]),
        (SQLType.STRING, [f"g{i % 3}" for i in range(40)], [4, 4, 1]),
        (SQLType.BLOB, [bytes([i]) * 3 for i in range(40)], [4, 1]),
        (SQLType.BIGINT, [2**65 + i for i in range(40)], [1]),
    ], ids=["int64", "float64", "bool", "utf8", "dictionary", "binary", "object"])
    def test_sections_carry_the_width_of_their_buffer(self, sql_type, values,
                                                      widths):
        result = QueryResult([ResultColumn("c", sql_type, values)])
        blob, _ = encode_result_chunk(result, codec=CODEC_SHUFFLE,
                                      allow_dict=True)
        assert _section_headers(blob) == [bytes([3, width]) for width in widths]


# --------------------------------------------------------------------------- #
# through a TCP connection, compressed and encrypted
# --------------------------------------------------------------------------- #
ROWS = 120
TABLE = {
    "id": list(range(ROWS)),
    "n": [None if i % 5 == 0 else i * 1_000_003 for i in range(ROWS)],
    "v": [None if i % 7 == 0 else i * 0.125 for i in range(ROWS)],
    "flag": [None if i % 11 == 0 else i % 2 == 0 for i in range(ROWS)],
    "low": [None if i % 13 == 0 else f"grp_{i % 4}" for i in range(ROWS)],
    "high": [f"unique-{i:04d}-ü" for i in range(ROWS)],
    "raw": [None if i % 3 == 0 else bytes([i]) * (i % 5) for i in range(ROWS)],
}


@pytest.fixture(scope="module")
def tcp_connection():
    server = DatabaseServer(result_chunk_rows=16)
    server.database.execute(
        "CREATE TABLE t (id INTEGER, n BIGINT, v DOUBLE, flag BOOLEAN, "
        "low STRING, high STRING, raw BLOB)")
    table = server.database.storage.table("t")
    for name, values in TABLE.items():
        table.column(name).extend(values)
    front = AsyncSocketServer(server)
    host, port = front.start_background()
    connection = Connection(SocketTransport(host, port, timeout=5.0),
                            ConnectionInfo(host=host, port=port, database="demo"))
    connection.login()
    yield connection
    connection.close()
    front.stop()


class TestTcpRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, ROWS), st.integers(0, ROWS))
    def test_row_ranges_compressed_and_encrypted(self, tcp_connection, low, high):
        options = TransferOptions(compression=CODEC_SHUFFLE, encrypt=True)
        result = tcp_connection.execute(
            f"SELECT * FROM t WHERE id >= {low} AND id < {high}", options=options)
        assert result.fetchall() == list(zip(*(values[low:high]
                                               for values in TABLE.values())))
        transfer = tcp_connection.stats.last_transfer
        assert transfer.compression_codec == CODEC_SHUFFLE and transfer.encrypted

    def test_the_settings_default_is_the_new_codec(self, tcp_connection):
        transfer = DataTransferSettings(use_compression=True)
        assert transfer.compression_codec == CODEC_SHUFFLE
        assert transfer.transfer_options().compression == CODEC_SHUFFLE
        tcp_connection.execute("SELECT n, v FROM t",
                               options=transfer.transfer_options())
        lanes = tcp_connection.stats.last_transfer.wire_bytes
        tcp_connection.execute("SELECT n, v FROM t",
                               options=TransferOptions(compression="zlib"))
        assert lanes < tcp_connection.stats.last_transfer.wire_bytes


class TestDamagedChunks:
    def test_section_not_a_multiple_of_its_dtype(self):
        """Reproduced at the parent: NumPy's ``ValueError`` leaked."""
        result = QueryResult([ResultColumn("i", SQLType.INTEGER, [1, 2, 3])])
        blob, _ = encode_result_chunk(result, codec="none")
        assert blob.endswith(struct.pack("<IB", 25, 0) + struct.pack("<3q", 1, 2, 3))
        short = blob[:-29] + struct.pack("<IB", 24, 0) + blob[-24:-1]
        with pytest.raises(ProtocolError, match="not whole <i8 values"):
            decode_chunk(short)


# --------------------------------------------------------------------------- #
# the durable image can be written with it (but is not, by default)
# --------------------------------------------------------------------------- #
def test_image_written_with_shuffle_reopens_verifies_and_answers(tmp_path):
    assert DEFAULT_CODEC == "zlib"
    statements = [
        "SELECT COUNT(*), SUM(n), SUM(v) FROM t",
        "SELECT low, COUNT(*) FROM t GROUP BY low ORDER BY low",
        "SELECT id, high, raw, flag FROM t WHERE id % 17 = 0 ORDER BY id",
    ]

    def load(path, codec):
        database = Database(path=path, segment_rows=32)
        database.persistence.codec = codec
        database.execute("CREATE TABLE t (id INTEGER, n BIGINT, v DOUBLE, "
                         "flag BOOLEAN, low STRING, high STRING, raw BLOB)")
        for name, values in TABLE.items():
            database.storage.table("t").column(name).extend(values)
        database.execute("CHECKPOINT")
        database.close()
        return path.stat().st_size

    sizes = {codec: load(tmp_path / f"{codec}.db", codec)
             for codec in ("zlib", CODEC_SHUFFLE)}
    assert sizes[CODEC_SHUFFLE] < sizes["zlib"]
    answers = {}
    for codec in sizes:
        database = Database(path=tmp_path / f"{codec}.db")
        assert set(database.execute("VERIFY").to_dict()["status"]) == {"ok"}
        answers[codec] = [database.execute(sql).fetchall() for sql in statements]
        database.close()
    assert answers[CODEC_SHUFFLE] == answers["zlib"]
    assert answers["zlib"][0][0][0] == ROWS
