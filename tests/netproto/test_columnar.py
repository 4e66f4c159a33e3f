"""Tests for the columnar wire format: chunk codec, streaming, lazy decode,
and the refusal of any protocol version but the one spoken."""

import numpy as np
import pytest

from repro.errors import ProtocolError, WireFormatError
from repro.netproto.client import Connection, TransferOptions
from repro.netproto.columnar import (
    ChunkEncoder,
    decode_chunk,
    encode_result_chunk,
)
from repro.netproto.compression import (
    CODEC_NARROW,
    CODEC_NONE,
    CODEC_SHUFFLE,
    CODEC_ZLIB,
)
from repro.netproto.messages import (
    ERR_PROTOCOL,
    MSG_HELLO,
    MSG_LOGIN,
    MSG_QUERY,
    PROTOCOL_VERSION,
    ColumnarResultAssembler,
    TransferStats,
    result_messages,
)
from repro.netproto.auth import compute_response
from repro.netproto.server import DatabaseServer, InProcessTransport
from repro.sqldb.database import Database
from repro.sqldb.result import QueryResult, ResultColumn
from repro.sqldb.types import SQLType


def roundtrip(result: QueryResult, *, codec: str = CODEC_NONE,
              chunk_rows: int = 65_536) -> tuple[QueryResult, TransferStats]:
    """Encode a result through the chunked columnar path and decode it back."""
    stream = result_messages(result, chunk_rows=chunk_rows,
                             compression=codec)
    assembler = ColumnarResultAssembler(next(stream))
    for chunk in stream:
        assembler.add_chunk(chunk)
    return assembler.finish()


ALL_TYPES_RESULT = QueryResult([
    ResultColumn("i", SQLType.INTEGER, [1, -2, 3]),
    ResultColumn("big", SQLType.BIGINT, [2**40, -2**40, 0]),
    ResultColumn("d", SQLType.DOUBLE, [1.5, -0.25, 3.75]),
    ResultColumn("r", SQLType.REAL, [0.5, 1.0, -1.0]),
    ResultColumn("s", SQLType.STRING, ["alpha", "", "unicode: café ∑"]),
    ResultColumn("b", SQLType.BOOLEAN, [True, False, True]),
    ResultColumn("blob", SQLType.BLOB, [b"\x00\x01", b"", b"\xff" * 4]),
], statement_type="SELECT")


class TestChunkCodec:
    def test_all_types_roundtrip(self):
        decoded, stats = roundtrip(ALL_TYPES_RESULT)
        assert decoded.fetchall() == ALL_TYPES_RESULT.fetchall()
        for column in decoded.columns:
            assert column.sql_type is ALL_TYPES_RESULT.column(column.name).sql_type
        assert stats.chunks == 1
        assert stats.total_rows == 3

    @pytest.mark.parametrize("codec", [CODEC_NONE, CODEC_ZLIB, CODEC_SHUFFLE,
                                       CODEC_NARROW])
    def test_codecs_roundtrip(self, codec):
        decoded, stats = roundtrip(ALL_TYPES_RESULT, codec=codec)
        assert decoded.fetchall() == ALL_TYPES_RESULT.fetchall()
        assert stats.compression_codec == codec

    def test_null_bearing_columns(self):
        result = QueryResult([
            ResultColumn("i", SQLType.INTEGER, [None, 2, None]),
            ResultColumn("d", SQLType.DOUBLE, [1.0, None, 3.0]),
            ResultColumn("s", SQLType.STRING, ["x", None, "z"]),
            ResultColumn("b", SQLType.BOOLEAN, [None, None, True]),
            ResultColumn("blob", SQLType.BLOB, [None, b"q", None]),
        ])
        decoded, _ = roundtrip(result)
        assert decoded.fetchall() == result.fetchall()

    def test_all_null_column(self):
        result = QueryResult([ResultColumn("n", SQLType.INTEGER,
                                           [None, None, None])])
        decoded, _ = roundtrip(result)
        assert decoded["n"] == [None, None, None]

    def test_empty_result_with_schema(self):
        result = QueryResult([ResultColumn("i", SQLType.INTEGER, []),
                              ResultColumn("s", SQLType.STRING, [])])
        decoded, stats = roundtrip(result)
        assert decoded.row_count == 0
        assert decoded.column_names == ["i", "s"]
        assert decoded.column("s").sql_type is SQLType.STRING
        assert stats.chunks == 0

    def test_dml_result_roundtrip(self):
        result = QueryResult.empty(affected_rows=9, statement_type="INSERT")
        decoded, _ = roundtrip(result)
        assert decoded.affected_rows == 9
        assert decoded.statement_type == "INSERT"

    def test_multi_chunk_roundtrip(self):
        rows = 1000
        result = QueryResult([
            ResultColumn("i", SQLType.INTEGER, list(range(rows))),
            ResultColumn("s", SQLType.STRING,
                         [f"row_{i}" if i % 7 else None for i in range(rows)]),
        ])
        decoded, stats = roundtrip(result, chunk_rows=64)
        assert stats.chunks == (rows + 63) // 64
        assert decoded.fetchall() == result.fetchall()

    def test_huge_int_falls_back_to_object_codec(self):
        result = QueryResult([
            ResultColumn("big", SQLType.BIGINT, [2**100, -(2**80), None]),
        ])
        decoded, _ = roundtrip(result)
        assert decoded["big"] == [2**100, -(2**80), None]

    def test_chunk_blob_is_self_contained(self):
        blob, raw_bytes = encode_result_chunk(ALL_TYPES_RESULT)
        row_count, columns = decode_chunk(blob)
        assert row_count == 3
        assert [c.name for c in columns] == ALL_TYPES_RESULT.column_names
        assert raw_bytes > 0

    def test_fixed_width_decode_is_zero_copy(self):
        result = QueryResult([ResultColumn("v", SQLType.DOUBLE,
                                           [float(i) for i in range(100)])])
        blob, _ = encode_result_chunk(result)
        _, columns = decode_chunk(blob)
        data = columns[0].data
        assert data.base is not None  # a view over the received buffer
        np.testing.assert_array_equal(data, np.arange(100, dtype="<f8"))

    def test_per_column_compression_shrinks_typed_buffers(self):
        rows = 5_000
        result = QueryResult([
            ResultColumn("k", SQLType.INTEGER, [i % 10 for i in range(rows)]),
            ResultColumn("v", SQLType.DOUBLE, [(i % 10) * 0.5 for i in range(rows)]),
        ])
        plain, plain_stats = roundtrip(result, codec=CODEC_NONE)
        packed, packed_stats = roundtrip(result, codec=CODEC_ZLIB)
        assert packed.fetchall() == plain.fetchall()
        assert packed_stats.wire_bytes < plain_stats.wire_bytes / 3
        assert packed_stats.compression_ratio > 3


class TestLazyDecode:
    def test_values_materialise_only_on_touch(self):
        result = QueryResult([
            ResultColumn("i", SQLType.INTEGER, list(range(500))),
            ResultColumn("s", SQLType.STRING, [f"v{i}" for i in range(500)]),
        ])
        decoded, _ = roundtrip(result)
        int_col = decoded.column("i")
        str_col = decoded.column("s")
        assert int_col._values is None
        assert str_col._values is None
        # shape queries stay lazy
        assert decoded.row_count == 500
        assert len(int_col) == 500
        assert int_col._values is None
        # numeric columns expose the received buffer zero-copy
        array = int_col.to_numpy()
        assert array.dtype == np.dtype("int64")
        assert int_col._values is None
        # touching values materialises plain Python objects
        assert str_col.values[3] == "v3"
        assert str_col._values is not None
        assert int_col.values[:3] == [0, 1, 2]

    def test_single_chunk_numeric_is_buffer_view(self):
        result = QueryResult([ResultColumn("v", SQLType.DOUBLE,
                                           [0.5] * 1000)])
        decoded, _ = roundtrip(result)
        array = decoded.column("v").to_numpy()
        assert array.base is not None
        assert array.sum() == 500.0


class TestProtocolNegotiation:
    @pytest.fixture()
    def server(self) -> DatabaseServer:
        database = Database()
        database.execute("CREATE TABLE t (i INTEGER, s STRING)")
        database.execute("INSERT INTO t VALUES (1, 'a'), (2, NULL), (3, 'c')")
        return DatabaseServer(database)

    def test_v2_client_gets_columnar_stream(self, server):
        connection = Connection.connect_in_process(server)
        result = connection.execute("SELECT * FROM t ORDER BY i")
        assert result.fetchall() == [(1, "a"), (2, None), (3, "c")]
        assert connection.stats.last_transfer.chunks == 1
        connection.close()

    def test_v2_compressed_through_connection(self, server):
        for i in range(4, 300):
            server.database.execute(f"INSERT INTO t VALUES ({i}, 's{i}')")
        connection = Connection.connect_in_process(server)
        result = connection.execute(
            "SELECT * FROM t ORDER BY i",
            options=TransferOptions(compression=CODEC_ZLIB))
        assert result.row_count == 299
        transfer = connection.stats.last_transfer
        assert transfer.compression_codec == CODEC_ZLIB
        assert transfer.compressed_bytes < transfer.raw_bytes
        connection.close()

    def test_a_stream_is_cut_at_the_server_chunk_size(self, server):
        for i in range(4, 104):
            server.database.execute(f"INSERT INTO t VALUES ({i}, 's{i}')")
        sixteen = DatabaseServer(server.database, result_chunk_rows=16)
        connection = Connection.connect_in_process(sixteen)
        reply = connection._transport.exchange({
            "type": MSG_QUERY, "sql": "SELECT * FROM t ORDER BY i",
            "options": TransferOptions().as_dict(),
        })
        assert reply["row_count"] == 103 and not reply["last"]
        assembler = ColumnarResultAssembler(reply)
        while not assembler.complete:
            assembler.add_chunk(connection._transport.receive())
        result, stats = assembler.finish()
        assert result.row_count == 103
        assert stats.chunks == (103 + 15) // 16
        connection.close()

    def test_server_chunk_rows_config(self):
        database = Database()
        database.execute("CREATE TABLE n (i INTEGER)")
        for i in range(50):
            database.execute(f"INSERT INTO n VALUES ({i})")
        server = DatabaseServer(database, result_chunk_rows=10)
        connection = Connection.connect_in_process(server)
        result = connection.execute("SELECT i FROM n ORDER BY i")
        assert connection.stats.last_transfer.chunks == 5
        assert [row[0] for row in result.rows()] == list(range(50))
        connection.close()

    def test_encrypted_columnar_roundtrip(self, server):
        connection = Connection.connect_in_process(server)
        result = connection.execute("SELECT * FROM t ORDER BY i",
                                    options=TransferOptions(encrypt=True))
        assert result.fetchall()[0] == (1, "a")
        assert connection.stats.last_transfer.encrypted
        connection.close()

    def test_any_other_version_is_refused_then_correct_hello_logs_in(
            self, server):
        """No negotiation and no downgrade: a hello that names no version,
        an older one or garbage gets a structured refusal naming the version
        spoken, and the same connection can still log in properly."""
        transport = InProcessTransport(server)
        hello = {"type": MSG_HELLO, "username": "monetdb",
                 "database": server.database.name}
        for version in (None, 1, 4, PROTOCOL_VERSION + 1, "x", 5.0, True):
            named = {} if version is None else {"protocol_version": version}
            reply = transport.exchange({**hello, **named})
            assert reply["type"] == "error", version
            assert reply["code"] == ERR_PROTOCOL
            assert not reply["retryable"]
            assert f"version {PROTOCOL_VERSION}" in reply["message"]
        challenge = transport.exchange(
            {**hello, "protocol_version": PROTOCOL_VERSION})
        assert challenge["type"] == "challenge"
        assert challenge["protocol_version"] == PROTOCOL_VERSION
        login = transport.exchange({
            "type": MSG_LOGIN, "username": "monetdb",
            "response": compute_response("monetdb", challenge["salt"],
                                         challenge["challenge"]),
        })
        assert login["type"] == "login_ok"
        reply = transport.exchange({
            "type": MSG_QUERY, "sql": "SELECT COUNT(*) FROM t", "options": {}})
        assert reply["type"] == "result"
        transport.close()

    def test_a_version_5_hello_is_refused(self, server):
        """Version 6 added codec 4 (``narrow``, the default), which a version-5
        client cannot read, version 7 its stride and decimal forms, version 8
        the ``dUE2`` cipher and version 9 its frame of reference in bits: the
        hello is refused, never served a downgrade."""
        assert PROTOCOL_VERSION == 9
        reply = InProcessTransport(server).exchange({
            "type": MSG_HELLO, "username": "monetdb",
            "database": server.database.name, "protocol_version": 5})
        assert (reply["type"], reply["code"]) == ("error", ERR_PROTOCOL)
        assert not reply["retryable"]
        assert "unsupported protocol version 5" in reply["message"]
        assert "speaks version 9 only" in reply["message"]

    def test_client_refuses_a_challenge_naming_another_version(self, server):
        original = server._handle_hello

        def older_server_hello(session, message):
            return {**original(session, message),
                    "protocol_version": PROTOCOL_VERSION - 1}

        server._handle_hello = older_server_hello
        with pytest.raises(ProtocolError, match="version"):
            Connection.connect_in_process(server)

    def test_refusal_reaches_the_caller_as_protocol_error(self, server,
                                                          monkeypatch):
        monkeypatch.setattr("repro.netproto.client.PROTOCOL_VERSION",
                            PROTOCOL_VERSION - 1)
        with pytest.raises(ProtocolError,
                           match=f"speaks version {PROTOCOL_VERSION} only"):
            Connection.connect_in_process(server)

    def test_connection_survives_corrupt_chunk(self, server):
        """A bad chunk raises, but the stream is drained so the connection
        does not desync onto a stale result_chunk frame."""
        for i in range(4, 104):
            server.database.execute(f"INSERT INTO t VALUES ({i}, 's{i}')")
        server.result_chunk_rows = 16
        connection = Connection.connect_in_process(server)
        transport = connection._transport
        original_receive = transport.receive
        corrupted = {"count": 0}

        def corrupting_receive():
            message = original_receive()
            if message.get("type") == "result_chunk" and corrupted["count"] == 0:
                corrupted["count"] += 1
                message = dict(message)
                message["payload"] = b"XX" + bytes(message["payload"])[2:]
            return message

        transport.receive = corrupting_receive
        with pytest.raises(WireFormatError):
            connection.execute("SELECT * FROM t ORDER BY i")
        transport.receive = original_receive
        assert connection.execute("SELECT COUNT(*) FROM t").scalar() == 103
        connection.close()


class TestChunkEncoder:
    def test_encoder_slices_consistently(self):
        rows = 100
        result = QueryResult([
            ResultColumn("i", SQLType.INTEGER, list(range(rows))),
            ResultColumn("s", SQLType.STRING, [f"s{i}" for i in range(rows)]),
        ])
        encoder = ChunkEncoder(result)
        pieces = []
        for start in range(0, rows, 30):
            blob, _ = encoder.encode(start, min(start + 30, rows))
            _, columns = decode_chunk(blob)
            pieces.append(columns)
        ints = [v for piece in pieces for v in piece[0].materialise().to_list()]
        assert ints == list(range(rows))
