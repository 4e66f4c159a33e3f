"""Integration tests for the TCP socket transport."""

import hashlib

import pytest

from repro.errors import AuthenticationError
from repro.netproto.auth import client_digest
from repro.netproto.client import Connection, ConnectionInfo, TransferOptions
from repro.netproto.server import AsyncSocketServer, DatabaseServer
from repro.sqldb.database import Database


# the one-value parameter only keeps the ``[async]`` test ids these cases
# have had since they also ran against the (deleted) threaded front end
@pytest.fixture(params=["async"])
def tcp_server():
    database = Database()
    database.execute("CREATE TABLE t (i INTEGER)")
    database.execute("INSERT INTO t VALUES (1), (2), (3)")
    server = DatabaseServer(database)
    socket_server = AsyncSocketServer(server, host="127.0.0.1", port=0)
    host, port = socket_server.start_background()
    yield server, host, port
    socket_server.stop()


class TestSocketTransport:
    def test_query_over_tcp(self, tcp_server):
        _, host, port = tcp_server
        connection = Connection.connect_tcp(ConnectionInfo(host=host, port=port))
        assert connection.execute("SELECT SUM(i) FROM t").scalar() == 6
        connection.close()

    def test_multiple_sequential_connections(self, tcp_server):
        server, host, port = tcp_server
        for _ in range(3):
            connection = Connection.connect_tcp(ConnectionInfo(host=host, port=port))
            assert connection.execute("SELECT COUNT(*) FROM t").scalar() == 3
            connection.close()
        assert server.stats.sessions_opened == 3

    def test_concurrent_connections(self, tcp_server):
        _, host, port = tcp_server
        connections = [Connection.connect_tcp(ConnectionInfo(host=host, port=port))
                       for _ in range(4)]
        try:
            for index, connection in enumerate(connections):
                assert connection.execute("SELECT %d", (index,)).scalar() == index
        finally:
            for connection in connections:
                connection.close()

    def test_wrong_password_over_tcp(self, tcp_server):
        _, host, port = tcp_server
        with pytest.raises(AuthenticationError):
            Connection.connect_tcp(ConnectionInfo(host=host, port=port, password="bad"))

    def test_transfer_options_over_tcp(self, tcp_server):
        _, host, port = tcp_server
        connection = Connection.connect_tcp(ConnectionInfo(host=host, port=port))
        result = connection.execute(
            "SELECT * FROM t", options=TransferOptions(compression="zlib", encrypt=True))
        assert result.row_count == 3
        connection.close()

    def test_udf_lifecycle_over_tcp(self, tcp_server):
        _, host, port = tcp_server
        connection = Connection.connect_tcp(ConnectionInfo(host=host, port=port))
        connection.execute("CREATE FUNCTION halve(x INTEGER) RETURNS DOUBLE "
                           "LANGUAGE PYTHON { return x / 2.0 }")
        assert connection.execute("SELECT halve(i) FROM t WHERE i = 2").scalar() == 1.0
        connection.close()


class TestLoginDerivations:
    """A login stretches the password once, and only the first login with
    given credentials does; the server (same process here) never does."""

    @pytest.fixture()
    def derivations(self, monkeypatch):
        client_digest.cache_clear()
        passwords = []
        stretch = hashlib.pbkdf2_hmac

        def counted(name, password, *args, **kwargs):
            passwords.append(password)
            return stretch(name, password, *args, **kwargs)

        monkeypatch.setattr(hashlib, "pbkdf2_hmac", counted)
        yield passwords
        client_digest.cache_clear()

    def test_one_derivation_then_none(self, tcp_server, derivations):
        _, host, port = tcp_server
        info = ConnectionInfo(host=host, port=port)
        Connection.connect_tcp(info).close()
        assert derivations == [b"monetdb"]
        connection = Connection.connect_tcp(info)
        assert derivations == [b"monetdb"]
        # the memoised digest is still the transfer key both sides hold
        result = connection.execute(
            "SELECT * FROM t", options=TransferOptions(encrypt=True))
        assert result.row_count == 3
        connection.close()

    def test_wrong_password_still_rejected(self, tcp_server, derivations):
        _, host, port = tcp_server
        Connection.connect_tcp(ConnectionInfo(host=host, port=port)).close()
        for _ in range(2):  # the second try reads the memo: rejected all the same
            with pytest.raises(AuthenticationError):
                Connection.connect_tcp(
                    ConnectionInfo(host=host, port=port, password="bad"))
        assert derivations == [b"monetdb", b"bad"]

    def test_changed_password_is_not_served_from_the_memo(self, tcp_server,
                                                          derivations):
        server, host, port = tcp_server
        Connection.connect_tcp(ConnectionInfo(host=host, port=port)).close()
        server.registry.add_user("monetdb", "rotated")  # new salt, new digest
        del derivations[:]
        with pytest.raises(AuthenticationError):
            Connection.connect_tcp(ConnectionInfo(host=host, port=port))
        Connection.connect_tcp(
            ConnectionInfo(host=host, port=port, password="rotated")).close()
        assert derivations == [b"monetdb", b"rotated"]
