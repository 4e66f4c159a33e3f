"""End-to-end observability over the wire: SHOW STATS histograms and key
sets, the slow-query ring, and trace ids in result headers."""

import time

import pytest

from repro.netproto.client import Connection, ConnectionInfo
from repro.netproto.server import AsyncSocketServer, DatabaseServer
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
                    "server.queries_executed", "server.slow_queries"):
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
        assert server.counters["slow_queries"].value == size + 1
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
        assert server.counters["slow_queries"].value == 0
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


#: ``SHOW STATS`` after :data:`KEY_SCENARIO`, one set per setup: every
#: histogram exports these suffixes, and counters and gauges exist from the
#: moment their owner does, so no key comes and goes with traffic.
HISTOGRAM_SUFFIXES = ("count", "sum_us", "p50", "p95", "p99")


def _histogram_keys(*names):
    return {f"{name}_{suffix}" for name in names
            for suffix in HISTOGRAM_SUFFIXES}


MEMORY_KEYS = {"db.statements_executed", "db.tables", "db.morsels_executed",
               *_histogram_keys("db.query_us", "db.parse_us", "db.execute_us")}
PATH_KEYS = MEMORY_KEYS | {
    "persist.generation", "persist.wal_records", "persist.wal_sealed",
    "persist.verify_runs", "persist.corruption_detected",
    "persist.backups_taken", "persist.quarantined_tables",
    *_histogram_keys("persist.checkpoint_us", "persist.wal_append_us",
                     "persist.wal_fsync_us")}
SERVED_KEYS = MEMORY_KEYS | _histogram_keys("server.query_us",
                                            "server.queue_wait_us") | {
    f"server.{name}" for name in (
        "sessions_opened", "sessions_closed", "queries_executed",
        "bytes_sent", "bytes_received", "errors", "internal_errors",
        "queries_rejected", "queries_cancelled", "queries_timed_out",
        "client_disconnects", "idle_disconnects", "stalled_disconnects",
        "wire_errors", "corruption_errors", "slow_queries",
        "open_connections",
        "plan_cache_entries", "plan_cache_hits", "plan_cache_misses",
        "plan_cache_evictions",
        "result_cache_entries", "result_cache_bytes", "result_cache_hits",
        "result_cache_misses", "result_cache_invalidations",
        "result_cache_evictions")}
KEY_SCENARIO = [
    "CREATE TABLE k (i INTEGER, v DOUBLE)",
    "INSERT INTO k VALUES (1, 0.5), (2, 1.0)",
    "SELECT i, v FROM k WHERE i > 1",
    "SELECT COUNT(*) FROM k",
]


def _show_stats_keys(execute):
    for statement in KEY_SCENARIO:
        execute(statement)
    return set(dict(execute("SHOW STATS").rows()))


class TestStatsKeySets:
    def test_embedded_in_memory(self):
        assert _show_stats_keys(Database().execute) == MEMORY_KEYS

    def test_embedded_with_path(self, tmp_path):
        db = Database(path=tmp_path / "keys.db")
        try:
            assert _show_stats_keys(db.execute) == PATH_KEYS
        finally:
            db.close()

    def test_served_over_tcp(self):
        db = Database()
        socket_server = AsyncSocketServer(DatabaseServer(db), port=0)
        host, port = socket_server.start_background()
        connection = Connection.connect_tcp(
            ConnectionInfo(host=host, port=port, database=db.name))
        try:
            assert _show_stats_keys(connection.execute) == SERVED_KEYS
            assert set(connection.server_stats()) == SERVED_KEYS
        finally:
            connection.close()
            socket_server.stop()

    def test_a_new_server_counts_from_its_own_start(self):
        db = Database()
        Connection.connect_in_process(DatabaseServer(db)).execute("SELECT 1")
        second = DatabaseServer(db)
        assert db.stats_snapshot()["server.queries_executed"] == 0
        Connection.connect_in_process(second).execute("SELECT 1")
        stats = db.stats_snapshot()
        assert stats["server.queries_executed"] == 1
        assert stats["server.sessions_opened"] == 1
        assert stats["server.open_connections"] == 1

    def test_open_connections_follows_a_close(self, tcp_connection):
        connection, server = tcp_connection
        host, port = connection.info.host, connection.info.port
        second = Connection.connect_tcp(
            ConnectionInfo(host=host, port=port, database=server.database.name))
        assert connection.server_stats()["server.open_connections"] == 2
        second.close()
        deadline = time.monotonic() + 5.0
        while connection.server_stats()["server.open_connections"] != 1:
            assert time.monotonic() < deadline, "close never reached the gauge"
            time.sleep(0.01)


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
