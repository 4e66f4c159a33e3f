"""Chaos suite: fault injection against the live TCP server.

Asserts the resilience invariants: the server never leaks a session, never
wedges its worker pool, answers garbage with a structured error (or a clean
close), and the durable store always recovers after a crash — even one in
the middle of a result stream.
"""

import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.errors import (
    ConnectionLostError,
    ExecutionError,
    ProtocolError,
    ReproError,
    ServerBusyError,
    WireFormatError,
)
from repro.netproto.chaos import ChaosProxy, FaultSpec, FaultyTransport
from repro.netproto.client import Connection, ConnectionInfo
from repro.netproto.messages import PROTOCOL_VERSION
from repro.netproto.server import (
    AsyncSocketServer,
    DatabaseServer,
    InProcessTransport,
    ServerLimits,
)
from repro.netproto.wire import read_frame
from repro.sqldb.database import Database


ROWS = 200_000
CHUNK_ROWS = 4_096  # small chunks -> many frames -> faults land mid-stream


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# the one-value parameter only keeps the ``[async]`` test ids these cases
# have had since they also ran against the (deleted) threaded front end
@pytest.fixture(params=["async"])
def chaos_server():
    """A TCP server over a big table, with small result chunks."""
    database = Database()
    database.execute("CREATE TABLE big (i INTEGER)")
    column = database.storage.table("big").columns[0]
    column.extend(range(ROWS))
    server = DatabaseServer(database, result_chunk_rows=CHUNK_ROWS)
    socket_server = AsyncSocketServer(server, host="127.0.0.1", port=0)
    host, port = socket_server.start_background()
    yield server, host, port
    socket_server.stop()


def tcp_connection(host: str, port: int) -> Connection:
    connection = Connection.connect_tcp(ConnectionInfo(host=host, port=port))
    connection.retry_policy = None  # chaos tests assert the *first* failure
    return connection


def abrupt_close(sock: socket.socket) -> None:
    """Simulate a client vanishing: force the FIN out now.

    A plain ``close()`` defers the real close while ``makefile`` objects
    still reference the socket, so the server would never see EOF.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


class TestProxyFaults:
    def test_kill_mid_stream_raises_not_hangs(self, chaos_server):
        server, host, port = chaos_server
        with ChaosProxy((host, port),
                        FaultSpec(kill_after_bytes=8_000)) as proxy:
            proxy_host, proxy_port = proxy.address
            connection = tcp_connection(proxy_host, proxy_port)
            started = time.monotonic()
            with pytest.raises((ProtocolError, OSError)):
                connection.execute("SELECT i FROM big WHERE i >= 0").fetchall()
            assert time.monotonic() - started < 30.0
            assert proxy.connections_killed == 1
        assert wait_until(lambda: server.active_sessions == 0)
        assert server.admission.active == 0

    def test_corrupted_frame_magic_detected(self, chaos_server):
        server, host, port = chaos_server
        # offset 0 lands on the first downstream frame's magic byte
        with ChaosProxy((host, port), FaultSpec(corrupt_at=0)) as proxy:
            proxy_host, proxy_port = proxy.address
            with pytest.raises((WireFormatError, OSError)):
                tcp_connection(*proxy.address)
        assert wait_until(lambda: server.active_sessions == 0)

    def test_chopped_and_delayed_stream_still_correct(self, chaos_server):
        server, host, port = chaos_server
        # brutal fragmentation (7-byte writes) and per-read delays must not
        # corrupt the stream, only slow it down
        database = server.database
        with ChaosProxy((host, port),
                        FaultSpec(chop=7, delay=0.001)) as proxy:
            connection = tcp_connection(*proxy.address)
            assert connection.execute(
                "SELECT COUNT(*) FROM big WHERE i < 500").scalar() == 500
            connection.close()
        assert wait_until(lambda: server.active_sessions == 0)

    def test_kill_storm_leaks_nothing(self, chaos_server):
        server, host, port = chaos_server
        for kill_at in (50, 300, 1_000, 3_000, 9_000, 20_000):
            with ChaosProxy((host, port),
                            FaultSpec(kill_after_bytes=kill_at)) as proxy:
                try:
                    connection = tcp_connection(*proxy.address)
                    connection.execute("SELECT i FROM big WHERE i >= 0")
                except (ReproError, OSError):
                    pass
        assert wait_until(lambda: server.active_sessions == 0)
        assert server.admission.active == 0
        # the worker pool is alive: a parallel scan still answers
        survivor = tcp_connection(host, port)
        assert survivor.execute("SELECT SUM(i) FROM big WHERE i < 100") \
            .scalar() == sum(range(100))
        survivor.close()


class TestHostileBytes:
    def test_http_garbage_gets_error_frame_then_close(self, chaos_server):
        server, host, port = chaos_server
        raw = socket.create_connection((host, port), timeout=5)
        stream = raw.makefile("rwb")
        stream.write(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        stream.flush()
        # the server answers with a structured error frame, then hangs up
        reply = read_frame(stream)
        assert b"wire_format" in reply or b"magic" in reply
        with pytest.raises((ProtocolError, OSError)):
            read_frame(stream)
        raw.close()
        assert wait_until(lambda: server.counters["wire_errors"].value >= 1)
        assert wait_until(lambda: server.active_sessions == 0)

    def test_hostile_length_prefix_rejected_not_allocated(self, chaos_server):
        server, host, port = chaos_server
        raw = socket.create_connection((host, port), timeout=5)
        stream = raw.makefile("rwb")
        stream.write(b"dU\x7f\xff\xff\xff")  # 2 GiB length prefix
        stream.flush()
        reply = read_frame(stream)
        assert b"exceeds" in reply
        raw.close()
        assert wait_until(lambda: server.active_sessions == 0)
        # and the server still serves well-formed clients
        connection = tcp_connection(host, port)
        assert connection.execute("SELECT 1").scalar() == 1
        connection.close()



class TestClientDisconnects:
    def test_disconnect_mid_result_stream_frees_session(self, chaos_server):
        server, host, port = chaos_server
        connection = tcp_connection(host, port)
        stream = connection.execute_stream("SELECT i FROM big WHERE i >= 0")
        assert stream.fetchone() is not None
        # vanish without a close message, mid-stream
        abrupt_close(connection._transport._socket)
        assert wait_until(lambda: server.active_sessions == 0, timeout=10.0)
        assert wait_until(lambda: server.counters["client_disconnects"].value >= 1,
                          timeout=10.0)
        assert server.admission.active == 0
        # no thread is wedged: the next client gets real answers
        survivor = tcp_connection(host, port)
        assert survivor.execute("SELECT COUNT(*) FROM big").scalar() == ROWS
        survivor.close()

    def test_disconnect_between_queries_is_clean(self, chaos_server):
        server, host, port = chaos_server
        connection = tcp_connection(host, port)
        assert connection.execute("SELECT 1").scalar() == 1
        errors_before = server.counters["errors"].value
        abrupt_close(connection._transport._socket)
        assert wait_until(lambda: server.active_sessions == 0)
        assert server.counters["errors"].value == errors_before  # silent, not an error

    def test_idle_connection_reaped(self):
        database = Database()
        database.execute("CREATE TABLE t (i INTEGER)")
        server = DatabaseServer(database,
                                limits=ServerLimits(idle_timeout=0.2))
        socket_server = AsyncSocketServer(server, host="127.0.0.1", port=0)
        host, port = socket_server.start_background()
        try:
            connection = tcp_connection(host, port)
            assert connection.execute("SELECT 1").scalar() == 1
            assert wait_until(lambda: server.counters["idle_disconnects"].value >= 1,
                              timeout=5.0)
            assert wait_until(lambda: server.active_sessions == 0)
        finally:
            socket_server.stop()


class TestServerFaultHook:
    def test_fault_at_query_start_releases_slot(self, chaos_server):
        server, host, port = chaos_server

        def explode(point: str) -> None:
            if point == "query_start":
                raise ExecutionError("injected failure at query start")

        server.fault_hook = explode
        try:
            connection = tcp_connection(host, port)
            with pytest.raises(ExecutionError, match="injected"):
                connection.execute("SELECT 1")
            assert server.admission.active == 0
        finally:
            server.fault_hook = None
        assert connection.execute("SELECT 1").scalar() == 1
        connection.close()

    def test_fault_mid_chunk_stream_becomes_error_frame(self, chaos_server):
        server, host, port = chaos_server
        seen = {"chunks": 0}

        def explode(point: str) -> None:
            if point == "chunk":
                seen["chunks"] += 1
                if seen["chunks"] == 3:
                    raise ExecutionError("injected mid-stream failure")

        server.fault_hook = explode
        try:
            connection = tcp_connection(host, port)
            with pytest.raises(ExecutionError, match="mid-stream"):
                connection.execute("SELECT i FROM big WHERE i >= 0").fetchall()
            assert server.admission.active == 0
            # terminal error frame: the connection survives
            server.fault_hook = None
            assert connection.execute("SELECT 1").scalar() == 1
            connection.close()
        finally:
            server.fault_hook = None

    def test_transport_fault_injection_counts(self):
        database = Database()
        database.execute("CREATE TABLE t (i INTEGER)")
        server = DatabaseServer(database)
        faulty = FaultyTransport(InProcessTransport(server), fail_send_at=1)
        with pytest.raises(ConnectionLostError):
            faulty.send({"type": "hello"})
        assert faulty.faults_fired == 1
        faulty.heal()
        assert faulty.exchange({"type": "hello", "username": "monetdb",
                                "protocol_version": PROTOCOL_VERSION})[
            "type"] == "challenge"
        faulty.close()
        assert server.active_sessions == 0


class TestCrashDuringStream:
    """Kill the server process mid-stream; the client must fail fast and the
    durable store must recover on restart."""

    @pytest.fixture()
    def durable_path(self, tmp_path):
        path = tmp_path / "crash.db"
        database = Database(name="demo", path=str(path))
        database.execute("CREATE TABLE big (i INTEGER)")
        for start in range(0, 50_000, 10_000):
            values = ", ".join(f"({i})" for i in range(start, start + 10_000))
            database.execute(f"INSERT INTO big VALUES {values}")
        database.close()
        return path

    def start_server(self, durable_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.netproto.server",
             "--db", str(durable_path), "--port", "0",
             "--chunk-rows", str(CHUNK_ROWS)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env)
        # first line: human banner "server listening on host:port ..."
        banner = proc.stdout.readline()
        assert "listening" in banner, banner
        address = banner.split("listening on ", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        return proc, host, int(port)

    def test_server_crash_mid_stream_then_recovery(self, durable_path):
        proc, host, port = self.start_server(durable_path)
        try:
            connection = tcp_connection(host, port)
            # 24 DOUBLE columns of sevenths: ≈ 8.9 MB of chunks whatever
            # the wire codec (no decimal or integer section to narrow), more
            # than the socket buffers hold, so the server cannot have sent
            # everything before it is killed.  A fixed 64 KiB receive buffer
            # keeps that true where receive autotuning may grow to tens of
            # MB (a 0.3 s pause before the kill let it absorb all 8.9 MB)
            connection._transport._socket.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
            stream = connection.execute_stream(
                f"SELECT {', '.join(['i / 7.0'] * 24)} FROM big WHERE i >= 0")
            assert stream.fetchone() is not None  # streaming has begun
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            started = time.monotonic()
            with pytest.raises((ProtocolError, OSError)):
                stream.fetchall()
            # a clear, prompt connection error — not a hang
            assert time.monotonic() - started < 30.0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
        # the durable store recovers everything that was committed
        reopened = Database(name="demo", path=str(durable_path))
        assert reopened.execute("SELECT COUNT(*) FROM big").scalar() == 50_000
        assert reopened.execute("SELECT SUM(i) FROM big").scalar() \
            == sum(range(50_000))
        reopened.close()

    def test_graceful_stop_drains_inflight_queries(self):
        database = Database()
        database.execute("CREATE TABLE big (i INTEGER)")
        database.storage.table("big").columns[0].extend(range(ROWS))
        server = DatabaseServer(database, result_chunk_rows=CHUNK_ROWS)
        socket_server = AsyncSocketServer(server, host="127.0.0.1", port=0)
        host, port = socket_server.start_background()
        connection = tcp_connection(host, port)
        stream = connection.execute_stream("SELECT i FROM big WHERE i >= 0")
        assert stream.fetchone() is not None
        # stop() drains: the straggler is cancelled, nothing deadlocks
        socket_server.stop(drain_timeout=0.2)
        assert server.admission.active == 0
        with pytest.raises((ReproError, OSError)):
            stream.fetchall()
            connection.execute("SELECT 1")
