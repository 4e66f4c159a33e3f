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
    db = Database()
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
        server = DatabaseServer(db, slow_query_ms=0.0)
        connection = Connection.connect_in_process(server)
        size = DatabaseServer.SLOW_QUERY_LOG_SIZE
        for i in range(size + 1):
            connection.execute(f"SELECT {i}")
        assert len(server.slow_query_log) == size
        assert server.stats.slow_queries == size + 1
        assert server.slow_query_log[0]["sql"] == "SELECT 1"
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
        stats = ServerStats()
        limit = ServerStats.QUERY_LOG_LIMIT
        for i in range(limit + 7):
            stats.log_query(f"SELECT {i}")
        assert list(stats.query_log) == [f"SELECT {i}"
                                         for i in range(7, limit + 7)]
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



# --------------------------------------------------------------------------- #
# every statement kind through every door is observed exactly once
# --------------------------------------------------------------------------- #
#: one of each statement kind; ``STREAMED`` is the streamable projection
OBSERVED_STATEMENTS = [
    "CREATE TABLE o (i INTEGER, v DOUBLE)",
    "INSERT INTO o VALUES (1, 1.5), (2, 2.5), (3, 3.5)",
    "UPDATE o SET v = v + 1 WHERE i = 2",
    "DELETE FROM o WHERE i = 3",
    "SELECT i, v FROM o",
    "SELECT COUNT(*), SUM(v) FROM o",
    "EXPLAIN ANALYZE SELECT i FROM o WHERE v > 1",
    "PREPARE p AS SELECT v FROM o WHERE i = ?",
    "EXECUTE p (1)",
    "DROP TABLE o",
]
STREAMED = "SELECT i, v FROM o"


def _observed(db):
    snapshot = db.metrics.snapshot()
    return (db.statements_executed, snapshot["db.query_us_count"],
            snapshot["db.execute_us_count"])


def _drain(outcome):
    if not hasattr(outcome, "fetchall"):
        for _ in outcome:  # db.query_us is observed when the stream ends
            pass


class TestEveryStatementObservedOnce:
    @pytest.mark.parametrize("door, batch", [
        ("execute", 1), ("execute_stream", 1), ("execute_script", 2)])
    def test_embedded_doors(self, door, batch):
        db = Database()
        run = {
            "execute": lambda texts: db.execute(texts[0]),
            "execute_stream": lambda texts: _drain(
                db.execute_stream(texts[0])),
            "execute_script": lambda texts: db.execute_script(
                ";\n".join(texts) + ";"),
        }[door]
        for start in range(0, len(OBSERVED_STATEMENTS), batch):
            texts = OBSERVED_STATEMENTS[start:start + batch]
            before = _observed(db)
            run(texts)
            assert _observed(db) == tuple(n + batch for n in before), texts
            assert list(db.query_log)[-batch:] == texts
        db.close()

    def test_execute_prepared_door(self):
        db = Database()
        for text in OBSERVED_STATEMENTS[:2] + OBSERVED_STATEMENTS[7:8]:
            db.execute(text)
        before = _observed(db)
        assert db.execute_prepared("p", [1]).fetchall() == [(1.5,)]
        assert _observed(db) == tuple(n + 1 for n in before)
        assert db.query_log[-1] == "EXECUTE p"
        db.close()

    def test_wire_door_and_its_slow_query_spans(self):
        db = Database()
        server = DatabaseServer(db, slow_query_ms=0.0)  # everything is "slow"
        connection = Connection.connect_in_process(server)
        for text in OBSERVED_STATEMENTS:
            before = _observed(db)
            connection.execute(text)
            assert _observed(db) == tuple(n + 1 for n in before), text
            assert db.query_log[-1] == text
            entry = server.slow_query_log[-1]
            assert entry["sql"] == text
            spans = [span["span"] for span in entry["spans"]]
            assert "parse" in spans and "respond" in spans, (text, spans)
            # a streamed SELECT only prepares under the lock; everything
            # else — DDL and DML included — executes there
            assert ("prepare" if text == STREAMED else "execute") in spans, \
                (text, spans)
        handle = connection.prepare("w", "SELECT COUNT(*) FROM sys.tables")
        before = _observed(db)
        handle.execute([])
        assert _observed(db) == tuple(n + 1 for n in before)
        entry = server.slow_query_log[-1]
        assert entry["sql"] == "EXECUTE w"
        assert "execute" in [span["span"] for span in entry["spans"]]
        connection.close()
        db.close()
