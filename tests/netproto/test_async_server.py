"""The TCP front end (one selector event loop).

The behaviours any socket server must have are covered by
test_socket_server.py / test_chaos.py; this file tests what is *specific* to
the event loop: many idle connections multiplexed by one thread, strict
per-connection frame ordering, saturation pre-rejection, streamed results
through the per-connection send buffers, and idle reaping.
"""

import threading
import time

import pytest

from repro.errors import ServerBusyError
from repro.netproto.client import Connection, ConnectionInfo
from repro.netproto.messages import ERR_SESSION_LIMIT
from repro.netproto.server import (
    AsyncSocketServer,
    DatabaseServer,
    ServerLimits,
)
from repro.sqldb.database import Database


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def make_server(rows: int = 0, **server_kwargs):
    database = Database()
    database.execute("CREATE TABLE big (i INTEGER)")
    if rows:
        column = database.storage.table("big").columns[0]
        column.extend(range(rows))
    server = DatabaseServer(database, **server_kwargs)
    front = AsyncSocketServer(server, host="127.0.0.1", port=0)
    host, port = front.start_background()
    return server, front, host, port


def tcp(host, port, **kwargs):
    return Connection.connect_tcp(ConnectionInfo(host=host, port=port),
                                  **kwargs)


class TestMultiplexing:
    def test_many_idle_connections_one_loop_thread(self):
        server, front, host, port = make_server(
            rows=1000, limits=ServerLimits(max_sessions=300))
        threads_before = threading.active_count()
        idle = [tcp(host, port) for _ in range(100)]
        try:
            # 100 connections cost zero additional threads (the worker pool
            # is allocated up front, sized by admission limits)
            assert threading.active_count() == threads_before
            assert server.active_sessions == 100
            # an active query is unaffected by the idle crowd
            active = tcp(host, port)
            assert active.execute("SELECT SUM(i) FROM big").scalar() == \
                sum(range(1000))
            # ... and neither is a PREPARE / EXECUTE round trip
            handle = active.prepare(
                "amid_idle", "SELECT COUNT(*) FROM big WHERE i < ?")
            assert handle.execute([10]).scalar() == 10
            active.close()
            # every idle connection still answers
            for connection in idle[::20]:
                assert connection.execute("SELECT 1").scalar() == 1
        finally:
            for connection in idle:
                connection.close()
            front.stop()
        assert wait_until(lambda: server.active_sessions == 0)

    def test_session_limit_still_enforced(self):
        server, front, host, port = make_server(
            limits=ServerLimits(max_sessions=2))
        first = tcp(host, port)
        second = tcp(host, port)
        try:
            # the structured refusal survives the handshake: code and
            # retryable flag reach the caller, as they do in-process
            with pytest.raises(ServerBusyError) as refused:
                tcp(host, port, retry_policy=None)
            assert refused.value.code == ERR_SESSION_LIMIT
            assert refused.value.retryable
            assert server.active_sessions == 2
        finally:
            first.close()
            second.close()
            front.stop()

    def test_concurrent_queries_across_connections(self):
        server, front, host, port = make_server(rows=50_000)
        connections = [tcp(host, port) for _ in range(8)]
        results, errors = [], []

        def worker(connection, low):
            try:
                value = connection.execute(
                    f"SELECT COUNT(*) FROM big WHERE i >= {low}").scalar()
                results.append((low, value))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(c, i * 1000))
                   for i, c in enumerate(connections)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert sorted(results) == [(i * 1000, 50_000 - i * 1000)
                                   for i in range(8)]
        for connection in connections:
            connection.close()
        front.stop()

    def test_streamed_v4_results_through_send_buffers(self):
        server, front, host, port = make_server(
            rows=120_000, result_chunk_rows=4_096)
        connection = tcp(host, port)
        stream = connection.execute_stream("SELECT i FROM big WHERE i >= 0")
        rows = stream.fetchall()
        assert len(rows) == 120_000
        connection.close()
        front.stop()


class TestOrderingAndSaturation:
    def test_pipelined_frames_keep_order(self):
        # raw pipelining: several query frames written back-to-back must be
        # answered in order (the loop queues frames behind the busy one)
        from repro.netproto.wire import decode_message, encode_message, read_frame

        server, front, host, port = make_server(rows=100)
        connection = tcp(host, port)  # does the handshake for us
        stream = connection._transport._stream
        for n in (1, 2, 3, 4):
            stream.write(encode_message(
                {"type": "query", "sql": f"SELECT {n}", "options": {}}))
        stream.flush()
        # v4 answers each query with a result header + a last-flagged chunk;
        # the 4 pipelined queries must come back strictly in order
        replies = [decode_message(read_frame(stream)) for _ in range(8)]
        assert [r["type"] for r in replies] == \
            ["result", "result_chunk"] * 4
        connection.close()
        front.stop()

    def test_saturation_pre_rejection(self):
        server, front, host, port = make_server(
            rows=200_000, result_chunk_rows=4_096,
            limits=ServerLimits(max_concurrent_queries=1, max_queue_depth=0,
                                max_queue_wait=0.05))
        # hold chunk production open after the first chunk so the one
        # execution slot stays occupied while we probe
        release = threading.Event()
        chunks_seen = [0]

        def hold_after_first(point):
            if point == "chunk":
                chunks_seen[0] += 1
                if chunks_seen[0] > 1:
                    release.wait(timeout=10)

        server.fault_hook = hold_after_first
        slow = tcp(host, port)
        slow.retry_policy = None
        stream = slow.execute_stream("SELECT i FROM big WHERE i >= 0")
        assert stream.fetchone() is not None
        rejected = 0
        try:
            for _ in range(4):
                fast = tcp(host, port)
                fast.retry_policy = None
                try:
                    fast.execute("SELECT 1")
                except ServerBusyError:
                    rejected += 1
                finally:
                    fast.close()
        finally:
            release.set()
        assert rejected >= 1
        assert server.counters["queries_rejected"].value >= 1
        stream.fetchall()
        slow.close()
        front.stop()


class TestIdleReaping:
    def test_idle_connection_reaped(self):
        server, front, host, port = make_server(
            limits=ServerLimits(idle_timeout=0.3))
        front.poll_interval = 0.05
        connection = tcp(host, port)
        assert connection.execute("SELECT 1").scalar() == 1
        assert wait_until(lambda: server.counters["idle_disconnects"].value >= 1,
                          timeout=5.0)
        assert wait_until(lambda: server.active_sessions == 0)
        front.stop()


class TestLifecycle:
    def test_stop_with_open_connections(self):
        server, front, host, port = make_server()
        connections = [tcp(host, port) for _ in range(5)]
        assert server.active_sessions == 5
        front.stop()
        assert server.active_sessions == 0

    def test_clean_close_message(self):
        server, front, host, port = make_server()
        connection = tcp(host, port)
        connection.close()
        assert wait_until(lambda: server.active_sessions == 0)
        assert server.counters["sessions_closed"].value >= 1
        front.stop()
