"""Tests for the in-process protocol: server, client connection, result transfer."""

import pytest

from repro.errors import (
    AuthenticationError,
    ConnectionClosedError,
    ExecutionError,
    ProtocolError,
    ReproError,
)
from repro.netproto.client import Connection, ConnectionInfo, TransferOptions
from repro.netproto.compression import CODEC_NONE, CODEC_ZLIB
from repro.netproto.server import AsyncSocketServer, DatabaseServer
from repro.sqldb.database import Database
from repro.sqldb.types import SQLType


@pytest.fixture()
def populated_server() -> DatabaseServer:
    database = Database()
    database.execute("CREATE TABLE t (i INTEGER, s STRING)")
    database.execute("INSERT INTO t VALUES (1, 'aaa'), (2, 'bbb'), (3, NULL)")
    return DatabaseServer(database)


@pytest.fixture()
def client(populated_server) -> Connection:
    connection = Connection.connect_in_process(populated_server)
    yield connection
    connection.close()


class TestLogin:
    def test_default_user_can_login(self, populated_server):
        connection = Connection.connect_in_process(populated_server)
        assert not connection.closed
        connection.close()

    def test_wrong_password_rejected(self, populated_server):
        info = ConnectionInfo(username="monetdb", password="nope")
        with pytest.raises(AuthenticationError):
            Connection.connect_in_process(populated_server, info)

    def test_unknown_user_rejected(self, populated_server):
        info = ConnectionInfo(username="ghost", password="x")
        with pytest.raises(AuthenticationError):
            Connection.connect_in_process(populated_server, info)

    def test_extra_users_can_be_registered(self, populated_server):
        populated_server.registry.add_user("analyst", "secret",
                                           database=populated_server.database.name)
        info = ConnectionInfo(username="analyst", password="secret")
        connection = Connection.connect_in_process(populated_server, info)
        assert connection.execute("SELECT COUNT(*) FROM t").scalar() == 3
        connection.close()

    def test_session_stats_tracked(self, populated_server):
        connection = Connection.connect_in_process(populated_server)
        connection.execute("SELECT 1")
        assert populated_server.counters["sessions_opened"].value == 1
        assert populated_server.counters["queries_executed"].value == 1
        connection.close()


class TestQueries:
    def test_select_roundtrip(self, client):
        result = client.execute("SELECT * FROM t ORDER BY i")
        assert result.fetchall() == [(1, "aaa"), (2, "bbb"), (3, None)]
        assert result.column("i").sql_type is SQLType.INTEGER

    def test_ddl_and_dml_through_protocol(self, client):
        client.execute("CREATE TABLE made (x DOUBLE)")
        insert = client.execute("INSERT INTO made VALUES (1.5), (2.5)")
        assert insert.affected_rows == 2
        assert client.execute("SELECT SUM(x) FROM made").scalar() == 4.0

    def test_parameterised_query(self, client):
        result = client.execute("SELECT * FROM t WHERE i = %d", (2,))
        assert result.fetchall() == [(2, "bbb")]

    def test_sql_error_surfaces_as_execution_error(self, client):
        with pytest.raises(ExecutionError):
            client.execute("SELECT * FROM missing_table")
        # connection still usable afterwards
        assert client.execute("SELECT 1").scalar() == 1

    def test_empty_query_rejected(self, client):
        # structured error codes preserve the server-side exception type
        with pytest.raises(ProtocolError):
            client.execute("   ")

    def test_closed_connection_rejects_queries(self, populated_server):
        connection = Connection.connect_in_process(populated_server)
        connection.close()
        with pytest.raises(ConnectionClosedError):
            connection.execute("SELECT 1")

    def test_script_execution(self, client):
        results = client.execute_script(
            "CREATE TABLE s (i INTEGER); INSERT INTO s VALUES (1); SELECT COUNT(*) FROM s;")
        assert len(results) == 3
        assert results[-1].scalar() == 1

    @pytest.mark.parametrize("transport", ["in_process", "tcp"])
    def test_script_is_split_by_the_engine_parser(self, populated_server,
                                                  transport):
        """Comments, string literals and UDF bodies may hold a ``;``: the
        script is split by the parser that will run it, not by a second,
        character-level splitter."""
        if transport == "tcp":
            socket_server = AsyncSocketServer(populated_server,
                                              host="127.0.0.1", port=0)
            host, port = socket_server.start_background()
            connection = Connection.connect_tcp(
                ConnectionInfo(host=host, port=port))
        else:
            connection = Connection.connect_in_process(populated_server)
        try:
            results = connection.execute_script(
                "SELECT 1 -- a; b\n; SELECT 2 /* c; d */")
            assert [result.scalar() for result in results] == [1, 2]
            results = connection.execute_script(
                "CREATE FUNCTION semi(x INTEGER) RETURNS INTEGER "
                "LANGUAGE PYTHON { y = x; return y * 2 };\n"
                "SELECT semi(i), 'a;b' FROM t WHERE s = 'aaa';")
            assert len(results) == 2
            assert results[1].fetchall() == [(2, "a;b")]
            # like Database.execute_script: parsed whole before anything runs
            with pytest.raises(ReproError):
                connection.execute_script(
                    "CREATE TABLE never (i INTEGER); SELEC 1")
            with pytest.raises(ReproError):
                connection.execute("SELECT COUNT(*) FROM never")
        finally:
            connection.close()
            if transport == "tcp":
                socket_server.stop()

    def test_udf_create_and_call_through_protocol(self, client):
        client.execute("CREATE FUNCTION twice(x INTEGER) RETURNS INTEGER "
                       "LANGUAGE PYTHON { return x * 2 }")
        result = client.execute("SELECT twice(i) FROM t ORDER BY i")
        assert [r[0] for r in result.rows()] == [2, 4, 6]


class TestTransferOptions:
    def test_compression_reduces_wire_bytes(self, populated_server):
        database = populated_server.database
        database.execute("CREATE TABLE big (v STRING)")
        for _ in range(200):
            database.execute("INSERT INTO big VALUES ('repetitive payload text')")
        connection = Connection.connect_in_process(populated_server)
        plain = connection.execute(
            "SELECT * FROM big", options=TransferOptions(compression=CODEC_NONE))
        plain_bytes = connection.stats.last_transfer.wire_bytes
        compressed = connection.execute(
            "SELECT * FROM big", options=TransferOptions(compression=CODEC_ZLIB))
        compressed_bytes = connection.stats.last_transfer.wire_bytes
        assert compressed.fetchall() == plain.fetchall()
        assert compressed_bytes < plain_bytes / 2
        connection.close()

    def test_encryption_roundtrip(self, client):
        result = client.execute("SELECT * FROM t ORDER BY i",
                                options=TransferOptions(encrypt=True))
        assert result.row_count == 3
        assert client.stats.last_transfer.encrypted

    def test_compression_and_encryption_combined(self, client):
        options = TransferOptions(compression=CODEC_ZLIB, encrypt=True)
        result = client.execute("SELECT * FROM t ORDER BY i", options=options)
        assert result.fetchall()[0] == (1, "aaa")

    def test_stats_accumulate(self, client):
        client.execute("SELECT 1")
        client.execute("SELECT * FROM t")
        assert client.stats.queries == 2
        assert client.stats.rows_received == 4


class TestCursor:
    def test_cursor_api(self, client):
        cursor = client.cursor()
        cursor.execute("SELECT i, s FROM t ORDER BY i")
        assert cursor.rowcount == 3
        assert cursor.description[0][0] == "i"
        assert cursor.fetchone() == (1, "aaa")
        assert cursor.fetchmany(2) == [(2, "bbb"), (3, None)]
        assert cursor.fetchone() is None

    def test_cursor_fetchall_after_partial(self, client):
        cursor = client.cursor().execute("SELECT i FROM t ORDER BY i")
        cursor.fetchone()
        assert cursor.fetchall() == [(2,), (3,)]

    def test_cursor_rowcount_for_dml(self, client):
        cursor = client.cursor()
        cursor.execute("CREATE TABLE c (i INTEGER)")
        cursor.execute("INSERT INTO c VALUES (1), (2)")
        assert cursor.rowcount == 2
