"""The TCP front end (one selector event loop).

The behaviours any socket server must have are covered by
test_socket_server.py / test_chaos.py; this file tests what is *specific* to
the event loop and its one executor: many idle connections multiplexed by
one thread, statements taking turns in arrival order, strict per-connection
frame ordering, saturation pre-rejection, streamed results written through
the per-connection send buffers, parking behind a stalled reader, and idle
reaping.
"""

import sys
import threading
import time

import pytest

from repro.errors import QueryCancelledError, ServerBusyError
from repro.netproto.client import Connection, ConnectionInfo
from repro.netproto.messages import ERR_SATURATED, ERR_SESSION_LIMIT
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


def record_statements(database):
    """Record the text of every statement the server starts, in order."""
    started = []
    execute_stream = database.execute_stream

    def recorded(sql, **kwargs):
        started.append(sql)
        return execute_stream(sql, **kwargs)

    database.execute_stream = recorded
    return started


def hold_the_executor(server):
    """Block chunk production after a stream's first chunk until the
    returned event is set: the statement keeps its turn meanwhile."""
    release = threading.Event()
    chunks_seen = [0]

    def hold_after_first(point):
        if point == "chunk":
            chunks_seen[0] += 1
            if chunks_seen[0] > 1:
                release.wait(timeout=10)

    server.fault_hook = hold_after_first
    return release


class TestMultiplexing:
    def test_many_idle_connections_one_loop_thread(self):
        server, front, host, port = make_server(
            rows=1000, limits=ServerLimits(max_sessions=300))
        threads_before = threading.active_count()
        idle = [tcp(host, port) for _ in range(100)]
        try:
            # 100 connections cost zero additional threads (the loop and
            # the one executor serve them all)
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

    def test_statements_take_turns_in_arrival_order(self):
        # one executor: statements queued behind a held one start in the
        # order their frames arrived, none overtakes it, and every answer
        # is right
        server, front, host, port = make_server(rows=50_000,
                                                result_chunk_rows=4_096)
        started = record_statements(server.database)
        held = hold_the_executor(server)
        holder = tcp(host, port)
        stream = holder.execute_stream("SELECT i FROM big WHERE i >= 0")
        assert stream.fetchone() == (0,)
        connections = [tcp(host, port) for _ in range(8)]
        results, errors = {}, []

        def worker(connection, low):
            try:
                results[low] = connection.execute(
                    f"SELECT COUNT(*) FROM big WHERE i >= {low}").scalar()
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = []
        try:
            for i, connection in enumerate(connections):
                threads.append(threading.Thread(target=worker,
                                                args=(connection, i * 1000)))
                threads[-1].start()
                assert wait_until(lambda: len(front._run_queue) == i + 1)
            assert started == ["SELECT i FROM big WHERE i >= 0"]
        finally:
            held.set()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert results == {i * 1000: 50_000 - i * 1000 for i in range(8)}
        assert started[1:] == [f"SELECT COUNT(*) FROM big WHERE i >= {i * 1000}"
                               for i in range(8)]
        assert len(stream.fetchall()) == 50_000 - 1
        for connection in (holder, *connections):
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


    def test_a_query_waits_for_a_slot_then_is_refused_past_its_patience(self):
        server, front, host, port = make_server(
            limits=ServerLimits(max_concurrent_queries=1, max_queue_depth=2,
                                max_queue_wait=0.3))
        connection = tcp(host, port, retry_policy=None)
        connection.retry_policy = None
        assert server.admission.try_acquire() is None  # hog the only slot
        started = time.monotonic()
        with pytest.raises(ServerBusyError) as refused:
            connection.execute("SELECT 1")
        assert refused.value.code == ERR_SATURATED
        assert time.monotonic() - started >= 0.3
        # a slot freed within the patience lets the waiting query run
        release = threading.Timer(0.1, server.admission.release)
        release.start()
        try:
            assert connection.execute("SELECT 2").scalar() == 2
        finally:
            release.join(timeout=5)
        assert server.counters["queries_rejected"].value == 1
        assert server.admission.active == 0
        connection.close()
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


class TestOneExecutor:
    """Exact checks of the scheduler: one statement executes at a time, a
    result that fits the socket buffer never wakes the loop, and a stalled
    reader parks instead of holding anyone up."""

    def test_at_most_one_statement_executes_at_a_time(self):
        server, front, host, port = make_server(rows=1_000)
        database = server.database
        lock = threading.Lock()
        executing, peak = [0], [0]
        execute_stream = database.execute_stream

        def counted(sql, **kwargs):
            with lock:
                executing[0] += 1
                peak[0] = max(peak[0], executing[0])
            try:
                time.sleep(0.01)  # a window for a second statement to enter
                return execute_stream(sql, **kwargs)
            finally:
                with lock:
                    executing[0] -= 1

        database.execute_stream = counted
        connections = [tcp(host, port) for _ in range(4)]
        answers, errors = [], []

        def client(connection, n):
            try:
                for round_ in range(5):
                    answers.append(connection.execute(
                        f"SELECT COUNT(*) + {n * 10 + round_} FROM big").scalar())
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(c, n))
                   for n, c in enumerate(connections)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert sorted(answers) == sorted(1_000 + n * 10 + r
                                         for n in range(4) for r in range(5))
        assert peak[0] == 1
        for connection in connections:
            connection.close()
        front.stop()

    def test_a_result_that_fits_the_socket_buffer_wakes_no_loop(self):
        server, front, host, port = make_server(rows=10_000,
                                                result_chunk_rows=1_000)
        connection = tcp(host, port)
        handle = connection.prepare("point", "SELECT i FROM big WHERE i = ?")
        wakes = [0]
        notify = front._notify

        def counted():
            wakes[0] += 1
            notify()

        front._notify = counted
        # a frame that arrives before the executor has closed the previous
        # statement is queued behind it, which does wake the loop: wait for
        # each statement's end to count only what its own frames cost
        settled = lambda: wait_until(  # noqa: E731
            lambda: not any(conn.busy for conn in list(front._connections)))
        try:
            assert connection.execute("SELECT 1").scalar() == 1
            assert settled()
            assert connection.execute("SELECT COUNT(*) FROM big").scalar() \
                == 10_000
            assert settled()
            assert handle.execute([7]).scalar() == 7
            assert settled()
            # ten chunk frames, every one written by the executor itself
            assert len(connection.execute_stream(
                "SELECT i FROM big WHERE i >= 0").fetchall()) == 10_000
            assert settled()
            assert wakes[0] == 0
        finally:
            front._notify = notify
        connection.close()
        front.stop()

    def test_a_stalled_reader_delays_another_select_by_at_most_one_chunk(self):
        from repro.netproto.chaos import ChaosProxy, FaultSpec

        # as in test_resilience's stalled reader: ~9.6 MB, past what the
        # kernel's loopback buffers absorb, in 4-byte values
        database = Database()
        database.execute("CREATE TABLE big (i INTEGER)")
        database.storage.table("big").columns[0].extend(
            [i * 2_654_435_761 % 2**32 for i in range(2_400_000)])
        server = DatabaseServer(database, result_chunk_rows=8_192,
                                limits=ServerLimits(send_timeout=60.0))
        front = AsyncSocketServer(server, host="127.0.0.1", port=0)
        front.HIGH_WATER = 128 * 1024
        front.LOW_WATER = 32 * 1024
        host, port = front.start_background()
        chunks = [0]

        def count_chunks(point):
            if point == "chunk":
                chunks[0] += 1

        server.fault_hook = count_chunks
        direct = tcp(host, port)
        try:
            with ChaosProxy((host, port),
                            FaultSpec(stall_after_bytes=2_000)) as proxy:
                stalled = tcp(*proxy.address)
                stalled.retry_policy = None

                def stalled_client():
                    try:
                        stalled.execute("SELECT i FROM big WHERE i >= 0")
                    except Exception:  # noqa: BLE001 - cut by the proxy's stop
                        pass

                thread = threading.Thread(target=stalled_client, daemon=True)
                thread.start()
                parked = lambda: [conn for conn in list(front._connections)
                                  if conn.parked_at is not None]
                assert wait_until(lambda: len(parked()) == 1, timeout=15)
                # parked: the generator waits on its connection, no thread
                # runs it, and it keeps its query slot
                assert parked()[0].stream is not None
                assert server.admission.active == 1
                produced = chunks[0]
                waits = server.database.stats_snapshot()[
                    "server.queue_wait_us_count"]
                assert direct.execute("SELECT 1").scalar() == 1
                # the SELECT 1's own chunk is the only one made meanwhile
                assert chunks[0] - produced == 1
                stats = server.database.stats_snapshot()
                assert stats["server.queue_wait_us_count"] == waits + 1
                assert stats["server.stalled_disconnects"] == 0
                assert len(parked()) == 1
            thread.join(timeout=10)  # the proxy's stop cut the stalled read
            assert not thread.is_alive()
            stalled.close()
        finally:
            direct.close()
            front.stop()

    def test_a_long_scan_yields_to_a_point_query(self):
        server, front, host, port = make_server(rows=100_000,
                                                result_chunk_rows=1_000)
        front.poll_interval = 0.05
        started = record_statements(server.database)
        chunks = []  # (statements started so far, statements queued)

        def slow_chunks(point):
            if point == "chunk":
                chunks.append((len(started), len(front._run_queue)))
                time.sleep(0.005)

        server.fault_hook = slow_chunks
        scanner, pointer = tcp(host, port), tcp(host, port)
        rows = []
        reader = threading.Thread(target=lambda: rows.extend(
            scanner.execute_stream("SELECT i FROM big WHERE i >= 0").fetchall()))
        reader.start()
        try:
            # the scan has held the executor past one poll_interval
            assert wait_until(lambda: len(chunks) >= 20)
            assert pointer.execute("SELECT 1").scalar() == 1
        finally:
            reader.join(timeout=30)
        assert not reader.is_alive() and len(rows) == 100_000
        assert started == ["SELECT i FROM big WHERE i >= 0", "SELECT 1"]
        # the SELECT 1 waited through at most one of the scan's chunks, and
        # the scan went on after it (it was not run to its end first)
        before = [queued for seen, queued in chunks if seen == 1]
        assert sum(1 for queued in before if queued) <= 1
        assert len(chunks) - len(before) - 1 >= 10
        for connection in (scanner, pointer):
            connection.close()
        front.stop()

    def test_a_wire_cancel_ends_a_long_statement_while_another_waits(self):
        server, front, host, port = make_server(rows=300_000)
        started = record_statements(server.database)
        held = hold_the_executor(server)
        long_one = tcp(host, port)
        waiter = tcp(host, port)
        try:
            stream = long_one.execute_stream("SELECT i FROM big WHERE i >= 0")
            assert stream.fetchone() is not None
            answer = []
            behind = threading.Thread(target=lambda: answer.append(
                waiter.execute("SELECT COUNT(*) FROM big").scalar()))
            behind.start()
            assert wait_until(lambda: len(front._run_queue) == 1)
            assert not answer and len(started) == 1  # it waits its turn

            def cancel():
                assert long_one.cancel() is True
                held.set()

            canceller = threading.Thread(target=cancel)
            canceller.start()
            canceller.join(timeout=10)
            assert held.is_set()
            with pytest.raises(QueryCancelledError):
                stream.fetchall()
            behind.join(timeout=10)
            assert answer == [300_000]
            assert server.counters["queries_cancelled"].value == 1
            assert server.admission.active == 0
            # the cancelled connection serves its next statement
            assert long_one.execute("SELECT 1").scalar() == 1
        finally:
            held.set()
            long_one.close()
            waiter.close()
            front.stop()

    def test_stress_parking_and_pipelining_lose_no_frame(self):
        # more clients than cores, frequent thread switches, and socket
        # buffers and watermarks small enough that every stream parks and
        # resumes: a lost wake-up or a frame queued as its statement ends
        # would hang a client (5 s timeout) or leave a count behind
        import socket

        from repro.netproto.wire import decode_message, encode_message, read_frame

        database = Database()
        database.execute("CREATE TABLE big (k INTEGER, i INTEGER)")
        keys, values = database.storage.table("big").columns
        keys.extend(range(20_000))
        # spanning 32 bits: 4 bytes a value on the wire, 80 KB a stream
        values.extend(k * 2_654_435_761 % 2**32 for k in range(20_000))
        server = DatabaseServer(database, result_chunk_rows=1_000)
        front = AsyncSocketServer(server, host="127.0.0.1", port=0)
        front.HIGH_WATER = 8 * 1024
        front.LOW_WATER = 2 * 1024
        host, port = front.start_background()
        requeued = [0]
        schedule = front._schedule

        def counted(conn):
            requeued[0] += 1
            schedule(conn)

        front._schedule = counted
        connected = threading.Barrier(7, timeout=10)
        errors = []

        def client(n):
            try:
                connection = tcp(host, port, timeout=5.0)
                connected.wait()  # the server's send buffers shrink now
                connected.wait()
                for round_ in range(8):
                    low = (n * 8 + round_) * 100
                    rows = connection.execute_stream(
                        f"SELECT i FROM big WHERE k >= {low}").fetchall()
                    assert rows == [(k * 2_654_435_761 % 2**32,)
                                    for k in range(low, 20_000)]
                    # two pipelined frames behind one another
                    stream = connection._transport._stream
                    for value in (low, low + 1):
                        stream.write(encode_message({"type": "query",
                                                     "sql": f"SELECT {value}",
                                                     "options": {}}))
                    stream.flush()
                    replies = [decode_message(read_frame(stream))
                               for _ in range(4)]
                    assert [r["type"] for r in replies] == \
                        ["result", "result_chunk"] * 2
                connection.close()
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(n,))
                       for n in range(6)]
            for t in threads:
                t.start()
            connected.wait()
            for conn in list(front._connections):
                conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            connected.wait()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[:3]
        assert wait_until(lambda: server.active_sessions == 0)
        assert server.admission.active == 0
        assert front._inflight == 0 and not front._run_queue
        assert requeued[0] >= 6 * 8  # every stream parked and resumed
        front.stop()
