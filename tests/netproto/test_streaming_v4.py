"""Streamed results — morsels leave before execution finishes.

Covers the streaming contract protocol v4 introduced and the one dialect
kept (unknown-count header, ``last``-flagged chunks, dictionary continuity
across morsel-encoded chunks), mid-stream error frames, and the
fetch-boundary regression: ``fetchmany`` on an exhausted stream returns
``[]`` even when the final chunk drained exactly at the fetch boundary.
"""

import time

import pytest

from repro.errors import ExecutionError
from repro.netproto.client import Connection, ConnectionInfo
from repro.netproto.server import (
    AsyncSocketServer,
    DatabaseServer,
    SocketTransport,
)
from repro.sqldb import Database

ROWS = 40
CHUNK = 8


@pytest.fixture()
def server():
    database_server = DatabaseServer(Database(),
                                     result_chunk_rows=CHUNK)
    db = database_server.database
    db.execute("CREATE TABLE t (a INTEGER, s STRING)")
    table = db.storage.table("t")
    for i in range(ROWS):
        table.insert_row([i, f"name_{i % 4}"])
    return database_server


@pytest.fixture()
def connection(server):
    return Connection.connect_in_process(server)


class TestStreamedResults:
    def test_header_has_unknown_counts(self, connection):
        stream = connection.execute_stream("SELECT a FROM t")
        assert stream.streamed
        assert stream.row_count == -1
        assert not stream.complete

    def test_first_rows_arrive_before_the_stream_completes(self, connection):
        stream = connection.execute_stream("SELECT a, s FROM t")
        first = stream.fetchmany(3)
        assert first == [(0, "name_0"), (1, "name_1"), (2, "name_2")]
        assert stream.chunks_received == 1
        assert not stream.complete

    def test_row_count_resolves_after_drain(self, connection):
        stream = connection.execute_stream("SELECT a FROM t")
        rows = stream.fetchall()
        assert len(rows) == ROWS
        assert stream.row_count == ROWS
        assert stream.transfer.total_rows == ROWS

    def test_results_identical_to_materialised_execute(self, server,
                                                       connection):
        for sql in ("SELECT a, s FROM t WHERE a < 30",
                    "SELECT s, COUNT(*) FROM t GROUP BY s",
                    "SELECT a FROM t WHERE a > 1000"):
            assert connection.execute(sql).fetchall() == \
                server.database.execute(sql).fetchall(), sql

    def test_dictionary_ships_once_across_streamed_chunks(self, connection):
        stream = connection.execute_stream("SELECT s FROM t")
        values = [row[0] for row in stream.fetchall()]
        assert values == [f"name_{i % 4}" for i in range(ROWS)]
        assert stream.chunks_received == ROWS // CHUNK

    def test_empty_streamed_result_keeps_schema(self, connection):
        result = connection.execute("SELECT a, s FROM t WHERE a < 0")
        assert result.column_names == ["a", "s"]
        assert result.fetchall() == []

    def test_dml_still_single_response(self, connection):
        result = connection.execute("INSERT INTO t VALUES (99, 'x')")
        assert result.affected_rows == 1

    def test_non_streamable_selects_fall_back(self, connection):
        stream = connection.execute_stream("SELECT a FROM t ORDER BY a DESC")
        assert not stream.streamed  # materialised header with a known count
        assert stream.row_count == ROWS + 0
        assert stream.fetchone() == (ROWS - 1,)


class TestFetchBoundaryRegression:
    """`fetchmany` on an exhausted stream returns [] instead of raising
    when the final chunk drained exactly at the fetch boundary."""

    def test_exact_chunk_boundary_then_empty(self, connection):
        cursor = connection.cursor()
        cursor.execute("SELECT a FROM t")  # 40 rows = 5 chunks of 8
        for _ in range(ROWS // CHUNK):
            assert len(cursor.fetchmany(CHUNK)) == CHUNK
        assert cursor.fetchmany(CHUNK) == []
        assert cursor.fetchmany(1) == []
        assert cursor.fetchone() is None

    def test_single_fetch_consuming_everything(self, connection):
        cursor = connection.cursor()
        cursor.execute("SELECT a FROM t")
        assert len(cursor.fetchmany(ROWS)) == ROWS
        assert cursor.fetchmany(3) == []

    def test_fetchall_then_fetchmany(self, connection):
        cursor = connection.cursor()
        cursor.execute("SELECT a FROM t")
        assert len(cursor.fetchall()) == ROWS
        assert cursor.fetchmany(2) == []
        assert cursor.fetchall() == []

    def test_exhausted_empty_result(self, connection):
        cursor = connection.cursor()
        cursor.execute("SELECT a FROM t WHERE a < 0")
        assert cursor.fetchmany(5) == []
        assert cursor.fetchmany(5) == []


class TestMidStreamError:
    def test_error_after_first_chunk_does_not_poison_the_socket(self):
        """A failure in a later morsel arrives as the stream's terminal
        error frame: the client must not issue another blocking receive
        (which would time out and kill the connection) while draining."""
        database_server = DatabaseServer(result_chunk_rows=4)
        db = database_server.database
        db.execute("CREATE TABLE logt (v DOUBLE)")
        # two clean chunks, then LOG(-1) raises inside the third morsel
        db.storage.table("logt").column("v").extend([1.0] * 8 + [-1.0])
        socket_server = AsyncSocketServer(database_server)
        host, port = socket_server.start_background()
        transport = SocketTransport(host, port, timeout=3.0)
        connection = Connection(transport, ConnectionInfo(
            host=host, port=port, username="monetdb", password="monetdb",
            database="demo"))
        connection.login()
        try:
            started = time.monotonic()
            with pytest.raises(ExecutionError):
                connection.execute("SELECT LOG(v) FROM logt")
            # the terminal error frame ends the stream: no timed-out drain
            assert time.monotonic() - started < 2.0
            assert connection.execute(
                "SELECT COUNT(*) FROM logt").scalar() == 9
        finally:
            connection.close()
            socket_server.stop()


class TestStreamSafety:
    def test_new_query_drains_streamed_stream(self, connection):
        stream = connection.execute_stream("SELECT a FROM t")
        stream.fetchmany(2)
        assert connection.execute("SELECT COUNT(*) FROM t").scalar() == ROWS
        assert len(stream.fetchall()) == ROWS - 2

    def test_error_then_connection_still_usable(self, connection):
        with pytest.raises(ExecutionError):
            connection.execute("SELECT nosuch FROM t")
        assert connection.execute("SELECT COUNT(*) FROM t").scalar() == ROWS
