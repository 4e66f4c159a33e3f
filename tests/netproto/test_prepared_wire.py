"""PREPARE/EXECUTE over the wire: message round trips, the parameter-binding
type matrix, and the server cache counters exposed through ``stats``."""

import pytest

from repro.errors import ExecutionError, ReproError
from repro.netproto.client import Connection, ConnectionInfo
from repro.netproto.server import AsyncSocketServer, DatabaseServer
from repro.sqldb.database import Database


# the one-value parameter only keeps the ``[async]`` test ids these cases
# have had since they also ran against the (deleted) threaded front end
@pytest.fixture(params=["async"])
def prepared_server():
    database = Database(result_cache_bytes=1 << 20)
    database.execute(
        "CREATE TABLE typed (i INTEGER, big BIGINT, d DOUBLE, "
        "flag BOOLEAN, s STRING, payload BLOB)")
    server = DatabaseServer(database)
    socket_server = AsyncSocketServer(server, host="127.0.0.1", port=0)
    host, port = socket_server.start_background()
    yield server, host, port
    socket_server.stop()


def tcp(host, port):
    return Connection.connect_tcp(ConnectionInfo(host=host, port=port))


class TestPreparedRoundTrip:
    def test_prepare_execute_deallocate(self, prepared_server):
        _, host, port = prepared_server
        connection = tcp(host, port)
        connection.execute("INSERT INTO typed (i) VALUES (1), (2), (3)")
        handle = connection.prepare(
            "above", "SELECT i FROM typed WHERE i > ?")
        assert handle.parameter_count == 1
        assert [r[0] for r in handle.execute([1]).rows()] == [2, 3]
        assert [r[0] for r in handle.execute([2]).rows()] == [3]
        assert handle.deallocate() is True
        with pytest.raises(ReproError):
            connection.execute_prepared("above", [1])
        connection.close()

    def test_handle_arity_check_is_client_side(self, prepared_server):
        _, host, port = prepared_server
        connection = tcp(host, port)
        handle = connection.prepare("one", "SELECT ? + 0")
        with pytest.raises(ExecutionError, match="argument"):
            handle.execute([])
        connection.close()

    def test_prepared_registry_is_shared_across_connections(
            self, prepared_server):
        _, host, port = prepared_server
        first = tcp(host, port)
        first.execute("INSERT INTO typed (i) VALUES (7)")
        first.prepare("shared", "SELECT COUNT(*) FROM typed WHERE i = ?")
        second = tcp(host, port)
        assert second.execute_prepared("shared", [7]).scalar() == 1
        first.close()
        second.close()

    def test_prepare_bad_sql_is_an_error_frame(self, prepared_server):
        _, host, port = prepared_server
        connection = tcp(host, port)
        with pytest.raises(ReproError):
            connection.prepare("broken", "SELEKT 1")
        # the connection survives the failed prepare
        assert connection.execute("SELECT 1").scalar() == 1
        connection.close()


class TestParameterTypeMatrix:
    """Prepared arguments across every wire value type."""

    MATRIX = [
        ("i64", (2, 2 ** 40, 2.5, True, "two", b"\x02"), None),
        ("negative", (-5, -(2 ** 50), -0.5, False, "", b""), None),
        ("i64_extremes", (3, 2 ** 62, 3.5, True, "big", b"\x03" * 8), None),
        ("nulls", (None, None, None, None, None, None), None),
        ("dict_strings", (4, 1, 4.5, False, "repeated" * 4, b"x"), None),
    ]

    @pytest.mark.parametrize("label,row,_", MATRIX,
                             ids=[m[0] for m in MATRIX])
    def test_round_trip(self, prepared_server, label, row, _):
        _, host, port = prepared_server
        connection = tcp(host, port)
        insert = connection.prepare(
            "ins", "INSERT INTO typed VALUES (?, ?, ?, ?, ?, ?)")
        insert.execute(list(row))
        fetched = connection.execute(
            "SELECT i, big, d, flag, s, payload FROM typed")
        assert list(fetched.rows()) == [row]
        connection.close()

    def test_bigint_beyond_i64_argument(self, prepared_server):
        # column storage is int64-backed, but the wire value codec carries
        # arbitrary-precision ints (tag J) — a >64-bit argument must round
        # trip through binding and back in the result
        _, host, port = prepared_server
        connection = tcp(host, port)
        handle = connection.prepare("big_id", "SELECT ? + 1")
        assert handle.execute([2 ** 100]).scalar() == 2 ** 100 + 1
        assert handle.execute([-(2 ** 80)]).scalar() == -(2 ** 80) + 1
        connection.close()

    def test_dictionary_string_argument(self, prepared_server):
        # a repeated string column travels dictionary-encoded; a
        # string *argument* must bind and filter correctly against it
        _, host, port = prepared_server
        connection = tcp(host, port)
        connection.execute_script(
            "INSERT INTO typed (i, s) VALUES (1, 'aaa');"
            "INSERT INTO typed (i, s) VALUES (2, 'bbb');"
            "INSERT INTO typed (i, s) VALUES (3, 'aaa')")
        handle = connection.prepare(
            "by_s", "SELECT i FROM typed WHERE s = ? ORDER BY i")
        assert [r[0] for r in handle.execute(["aaa"]).rows()] == [1, 3]
        assert [r[0] for r in handle.execute(["bbb"]).rows()] == [2]
        connection.close()

    def test_blob_argument_in_predicate(self, prepared_server):
        _, host, port = prepared_server
        connection = tcp(host, port)
        insert = connection.prepare(
            "ins_blob", "INSERT INTO typed (i, payload) VALUES (?, ?)")
        insert.execute([1, b"\x00\x01\x02"])
        insert.execute([2, b"\xff" * 16])
        result = connection.execute("SELECT payload FROM typed ORDER BY i")
        assert list(result.rows()) == [(b"\x00\x01\x02",), (b"\xff" * 16,)]
        connection.close()


class TestCacheCounters:
    def test_stats_expose_cache_and_connection_counters(self, prepared_server):
        server, host, port = prepared_server
        connection = tcp(host, port)
        connection.execute("INSERT INTO typed (i) VALUES (1)")
        connection.execute("SELECT SUM(i) FROM typed")
        connection.execute("SELECT SUM(i) FROM typed")
        stats = connection.server_stats()
        for key in ("server.plan_cache_hits", "server.plan_cache_misses",
                    "server.plan_cache_evictions", "server.result_cache_hits",
                    "server.result_cache_misses",
                    "server.result_cache_invalidations",
                    "server.open_connections"):
            assert key in stats, key
        assert stats["server.open_connections"] >= 1
        assert stats["server.plan_cache_hits"] >= 1
        assert stats["server.result_cache_hits"] >= 1
        connection.close()
