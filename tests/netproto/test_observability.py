"""End-to-end observability over the wire: SHOW STATS histograms, the
bounded query log, the slow-query ring, and trace ids in result headers."""

import threading

import pytest

from repro.netproto.client import Connection, ConnectionInfo
from repro.netproto.server import (
    AsyncSocketServer,
    DatabaseServer,
    ServerStats,
)
from repro.sqldb import Database


def _make_database():
    db = Database(workers=2)
    db.execute("CREATE TABLE t (i INTEGER, v DOUBLE)")
    db.execute("INSERT INTO t VALUES " +
               ", ".join(f"({i}, {i * 0.5})" for i in range(500)))
    return db


# the one-value parameter only keeps the ``[async]`` test ids these cases
# have had since they also ran against the (deleted) threaded front end
@pytest.fixture(params=["async"])
def tcp_connection():
    db = _make_database()
    server = DatabaseServer(db, slow_query_ms=0.0)  # everything is "slow"
    socket_server = AsyncSocketServer(server, port=0)
    host, port = socket_server.start_background()
    connection = Connection.connect_tcp(
        ConnectionInfo(host=host, port=port, database=db.name))
    yield connection, server
    connection.close()
    socket_server.stop()
    db.close()


class TestShowStatsRoundTrip:
    def test_histogram_quantiles_over_both_front_ends(self, tcp_connection):
        connection, _ = tcp_connection
        connection.execute("SELECT COUNT(*) FROM t")
        rows = dict(connection.execute("SHOW STATS").rows())
        for key in ("db.query_us_p50", "db.query_us_p95", "db.query_us_p99",
                    "db.query_us_count", "db.parse_us_count",
                    "server.query_us_p95", "server.query_us_count",
                    "server.queries_executed", "server.query_log_dropped",
                    "server.slow_queries"):
            assert key in rows, f"missing {key}"
        assert rows["db.query_us_count"] >= 1
        assert rows["server.query_us_count"] >= 1

    def test_stats_message_matches_show_stats(self, tcp_connection):
        connection, _ = tcp_connection
        connection.execute("SELECT 1")
        message_stats = connection.server_stats()
        show_stats = dict(connection.execute("SHOW STATS").rows())
        for key in ("db.query_us_p50", "server.queries_executed"):
            assert key in message_stats and key in show_stats


class TestSlowQueryLog:
    def test_entries_carry_trace_id_sql_and_spans(self, tcp_connection):
        connection, server = tcp_connection
        stream = connection.execute_stream("SELECT i, v FROM t WHERE v > 10")
        stream.result()
        assert stream.trace_id  # header carried the trace id
        entries = connection.server_slow_queries()
        assert entries
        matching = [e for e in entries if e["trace_id"] == stream.trace_id]
        assert matching, (stream.trace_id, entries)
        entry = matching[0]
        assert "WHERE v > 10" in entry["sql"]
        assert entry["duration_ms"] >= 0
        assert entry["rows"] == 479
        assert entry["bytes"] > 0
        span_names = [s["span"] for s in entry["spans"]]
        assert "query" in span_names
        assert "parse" in span_names

    def test_ring_is_bounded(self):
        db = _make_database()
        server = DatabaseServer(db, slow_query_ms=0.0, slow_query_log_size=4)
        connection = Connection.connect_in_process(server)
        for i in range(10):
            connection.execute(f"SELECT {i}")
        assert len(server.slow_query_log) == 4
        assert server.stats.slow_queries == 10
        connection.close()

    def test_disabled_means_no_traces_no_entries(self):
        db = _make_database()
        server = DatabaseServer(db, slow_query_ms=None)
        connection = Connection.connect_in_process(server)
        stream = connection.execute_stream("SELECT COUNT(*) FROM t")
        stream.result()
        assert stream.trace_id is None
        assert not connection.server_slow_queries()
        assert server.stats.slow_queries == 0
        connection.close()

    def test_fast_queries_not_logged_with_high_threshold(self):
        db = _make_database()
        server = DatabaseServer(db, slow_query_ms=60_000.0)
        connection = Connection.connect_in_process(server)
        stream = connection.execute_stream("SELECT COUNT(*) FROM t")
        stream.result()
        assert stream.trace_id  # traced (sampling policy: tracking enabled)
        assert not connection.server_slow_queries()  # but not slow
        connection.close()


class TestBoundedQueryLog:
    def test_query_log_keeps_last_n_and_counts_drops(self):
        stats = ServerStats(query_log_limit=5)
        for i in range(12):
            stats.log_query(f"SELECT {i}")
        assert list(stats.query_log) == [f"SELECT {i}" for i in range(7, 12)]
        assert stats.query_log_dropped == 7
        assert stats.counters()["query_log_dropped"] == 7

    def test_direct_counter_assignment_rejected(self):
        stats = ServerStats()
        with pytest.raises(AttributeError):
            stats.queries_executed += 1
        with pytest.raises(AttributeError):
            stats.errors = 5

    def test_inc_is_thread_safe(self):
        stats = ServerStats()

        def worker():
            for _ in range(10_000):
                stats.inc("wire_errors")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.wire_errors == 80_000

    def test_counters_exposes_all_names(self):
        stats = ServerStats()
        counters = stats.counters()
        for name in ServerStats.COUNTER_NAMES:
            assert name in counters

