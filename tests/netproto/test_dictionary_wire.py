"""TAG_DICT wire format and the incremental cursor."""

import numpy as np
import pytest

from repro.errors import WireFormatError
from repro.netproto.client import Connection, ConnectionInfo
from repro.netproto.columnar import (
    TAG_DICT,
    TAG_UTF8,
    ChunkEncoder,
    decode_chunk,
    encode_result_chunk,
)
from repro.netproto.messages import ColumnarResultAssembler, result_messages
from repro.netproto.server import DatabaseServer
from repro.sqldb.database import Database
from repro.sqldb.result import QueryResult, ResultColumn
from repro.sqldb.types import SQLType
from repro.sqldb.vector import Vector


def low_cardinality_result(rows=1000, cardinality=10):
    values = [f"name_{i % cardinality}" for i in range(rows)]
    return QueryResult([ResultColumn("s", SQLType.STRING, values)])


def roundtrip_stream(result, *, chunk_rows=100):
    messages = list(result_messages(result, chunk_rows=chunk_rows))
    assembler = ColumnarResultAssembler(messages[0])
    for message in messages[1:]:
        assembler.add_chunk(message)
    return messages, assembler.finish()[0]


@pytest.fixture
def server():
    database = Database()
    database.execute("CREATE TABLE t (name STRING, v DOUBLE)")
    table = database.storage.table("t")
    table.column("name").extend(
        None if i % 17 == 0 else f"cat_{i % 25}" for i in range(5000))
    table.column("v").extend(float(i) for i in range(5000))
    return DatabaseServer(database, result_chunk_rows=1000)


class TestDictionaryEncoding:
    def test_single_chunk_roundtrip(self):
        result = low_cardinality_result()
        blob, _ = encode_result_chunk(result, allow_dict=True)
        row_count, columns = decode_chunk(blob)
        assert columns[0].tag == TAG_DICT
        data = columns[0].materialise()
        assert isinstance(data, Vector) and data.is_dict
        assert data.to_list() == result.columns[0].values

    def test_dictionary_shipped_once_per_column(self):
        result = low_cardinality_result(rows=1000)
        messages, decoded = roundtrip_stream(result, chunk_rows=250)
        chunks = messages[1:]
        assert len(chunks) == 4
        # the later chunks reference the first chunk's dictionary: smaller
        assert all(len(c["payload"]) < len(chunks[0]["payload"])
                   for c in chunks[1:])
        assert decoded.columns[0].values == result.columns[0].values

    def test_multi_chunk_column_stays_dictionary_backed(self):
        result = low_cardinality_result(rows=600)
        _, decoded = roundtrip_stream(result, chunk_rows=200)
        vector = decoded.columns[0].vector()
        assert vector is not None and vector.is_dict

    def test_chunk_without_inline_dictionary_needs_cache(self):
        result = low_cardinality_result(rows=200)
        encoder = ChunkEncoder(result, allow_dict=True)
        first, _ = encoder.encode(0, 100)
        second, _ = encoder.encode(100, 200)
        cache: dict = {}
        decode_chunk(first, dictionaries=cache)
        # the second chunk resolves against the cache...
        _, columns = decode_chunk(second, dictionaries=cache)
        assert columns[0].materialise().to_list() \
            == result.columns[0].values[100:200]
        # ...and is rejected without it
        with pytest.raises(WireFormatError):
            decode_chunk(second)

    def test_nulls_and_sentinel_values_roundtrip(self):
        values = (["", None, "x"] * 40)
        result = QueryResult([ResultColumn("s", SQLType.STRING, list(values))])
        _, decoded = roundtrip_stream(result, chunk_rows=50)
        assert decoded.columns[0].values == values

    def test_high_cardinality_stays_utf8(self):
        values = [f"unique_{i}" for i in range(500)]
        result = QueryResult([ResultColumn("s", SQLType.STRING, values)])
        blob, _ = encode_result_chunk(result, allow_dict=True)
        _, columns = decode_chunk(blob)
        assert columns[0].tag == TAG_UTF8

    def test_tiny_column_stays_utf8(self):
        result = QueryResult([ResultColumn("s", SQLType.STRING, ["a", "a"])])
        blob, _ = encode_result_chunk(result, allow_dict=True)
        _, columns = decode_chunk(blob)
        assert columns[0].tag == TAG_UTF8

    def test_engine_vector_flows_to_wire_without_reencoding(self):
        """A dictionary built by the executor is reused by the encoder."""
        database = Database()
        database.execute("CREATE TABLE t (name STRING)")
        database.storage.table("t").column("name").extend(
            f"v{i % 4}" for i in range(100))
        result = database.execute("SELECT name FROM t")
        vector = result.columns[0].vector()
        assert vector is not None and vector.is_dict
        encoder = ChunkEncoder(result, allow_dict=True)
        _, tag, data, _, dictionary = encoder._columns[0]
        assert tag == TAG_DICT
        assert dictionary is vector.dictionary  # zero re-encode

    def test_dict_wire_bytes_smaller_than_utf8(self):
        result = low_cardinality_result(rows=5000, cardinality=20)
        dict_blob, _ = encode_result_chunk(result, allow_dict=True)
        utf8_blob, _ = encode_result_chunk(result, allow_dict=False)
        assert decode_chunk(utf8_blob)[1][0].tag == TAG_UTF8
        assert len(dict_blob) < len(utf8_blob)

    def test_out_of_range_code_rejected(self):
        result = low_cardinality_result(rows=200, cardinality=5)
        encoder = ChunkEncoder(result, allow_dict=True)
        encoder.encode(0, 100)  # ships the dictionary inline
        second, _ = encoder.encode(100, 200)
        # a dictionary smaller than the codes demand must be rejected
        cache = {0: np.array(["only_entry"], dtype=object)}
        with pytest.raises(WireFormatError):
            decode_chunk(second, dictionaries=cache)


class TestIncrementalCursor:
    def test_fetchmany_yields_before_full_assembly(self, server):
        connection = Connection.connect_in_process(server)
        cursor = connection.cursor()
        cursor.execute("SELECT name, v FROM t")
        stream = cursor._stream
        # morsels are streamed: the row count is unknown until the
        # last-flagged chunk arrives
        assert stream.streamed
        first = cursor.fetchmany(10)
        assert len(first) == 10
        assert stream.chunks_received == 1  # only the first chunk was pulled
        assert not stream.complete
        rest = cursor.fetchall()
        assert len(first) + len(rest) == 5000

    def test_fetchall_identical_to_eager_execute(self, server):
        connection = Connection.connect_in_process(server)
        eager = connection.execute("SELECT name, v FROM t").fetchall()
        cursor = connection.cursor()
        cursor.execute("SELECT name, v FROM t")
        assert cursor.fetchall() == eager

    def test_partial_fetch_then_fetchall_covers_every_row(self, server):
        connection = Connection.connect_in_process(server)
        cursor = connection.cursor()
        cursor.execute("SELECT v FROM t")
        head = [cursor.fetchone() for _ in range(1500)]  # crosses a chunk edge
        tail = cursor.fetchall()
        assert len(head) + len(tail) == 5000
        assert head[0] == (0.0,) and tail[-1] == (4999.0,)

    def test_new_query_drains_pending_stream(self, server):
        connection = Connection.connect_in_process(server)
        cursor = connection.cursor()
        cursor.execute("SELECT name, v FROM t")
        cursor.fetchmany(3)  # leaves chunks on the wire
        # a second query must not desync the transport
        other = connection.execute("SELECT COUNT(*) FROM t")
        assert other.scalar() == 5000
        # the old stream was drained and stays fully readable
        assert len(cursor.fetchall()) == 5000 - 3

    def test_cursor_metadata_before_rows_are_touched(self, server):
        connection = Connection.connect_in_process(server)
        cursor = connection.cursor()
        cursor.execute("SELECT name, v FROM t")
        assert [d[0] for d in cursor.description] == ["name", "v"]
        # a streamed result does not know its row count up front:
        # DB-API's "unknown" value until the stream is drained
        assert cursor.rowcount == -1
        cursor.fetchall()
        assert cursor.rowcount == 5000

    def test_dml_through_cursor(self, server):
        connection = Connection.connect_in_process(server)
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE dml_t (x INTEGER)")
        cursor.execute("INSERT INTO dml_t VALUES (1), (2)")
        assert cursor.rowcount == 2
        assert cursor.description is None
        cursor.execute("SELECT x FROM dml_t")
        assert cursor.fetchall() == [(1,), (2,)]

    def test_stats_recorded_once_per_query(self, server):
        connection = Connection.connect_in_process(server)
        cursor = connection.cursor()
        cursor.execute("SELECT name FROM t")
        cursor.fetchall()
        cursor.execute("SELECT v FROM t")
        cursor.fetchall()
        assert connection.stats.queries == 2
        assert connection.stats.rows_received == 10000
