"""Tests for the resilience layer: timeouts, cancellation, admission
control, client retry/backoff, and the structured error taxonomy."""

import socket
import threading
import time

import pytest

from repro.errors import (
    ConnectionLostError,
    ExecutionError,
    ProtocolError,
    QueryCancelledError,
    QueryTimeoutError,
    ServerBusyError,
    WireFormatError,
)
from repro.netproto.chaos import FaultyTransport
from repro.netproto.client import (
    Connection,
    ConnectionInfo,
    RetryPolicy,
    is_idempotent_statement,
)
from repro.netproto.messages import (
    ERR_SATURATED,
    ERR_SESSION_LIMIT,
    ERR_SHUTTING_DOWN,
    ERR_TIMEOUT,
    MSG_CANCEL,
    PROTOCOL_VERSION,
    error_message_for,
    exception_for_error,
)
from repro.netproto.server import (
    AdmissionController,
    AsyncSocketServer,
    DatabaseServer,
    InProcessTransport,
    ServerLimits,
)
from repro.netproto.wire import decode_message, encode_frame, encode_message, read_frame
from repro.sqldb.context import QueryContext
from repro.sqldb.database import Database


BIG_ROWS = 300_000


def make_big_database(rows: int = BIG_ROWS) -> Database:
    """A database with a table large enough to split into many morsels."""
    database = Database()
    database.execute("CREATE TABLE big (i INTEGER)")
    column = database.storage.table("big").columns[0]
    column.extend(range(rows))
    column.invalidate_cache() if hasattr(column, "invalidate_cache") else None
    return database


@pytest.fixture(scope="module")
def big_database() -> Database:
    return make_big_database()


# --------------------------------------------------------------------------- #
# QueryContext
# --------------------------------------------------------------------------- #
class TestQueryContext:
    def test_no_limits_never_raises(self):
        context = QueryContext()
        context.check()
        assert context.remaining() is None
        assert not context.expired

    def test_timeout_expires(self):
        context = QueryContext(timeout=0.0)
        assert context.expired
        with pytest.raises(QueryTimeoutError):
            context.check()

    def test_cancel_wins_with_reason(self):
        context = QueryContext(timeout=1000.0)
        context.cancel("operator pressed stop")
        with pytest.raises(QueryCancelledError, match="operator pressed stop"):
            context.check()

    def test_resolve_combines_context_and_timeout(self):
        base = QueryContext()
        resolved = QueryContext.resolve(base, 0.0)
        assert resolved is base  # tightened in place
        with pytest.raises(QueryTimeoutError):
            resolved.check()

    def test_resolve_from_nothing(self):
        assert QueryContext.resolve(None, None) is None
        context = QueryContext.resolve(None, 5.0)
        assert context is not None and context.remaining() > 0


# --------------------------------------------------------------------------- #
# statement timeouts through the whole stack
# --------------------------------------------------------------------------- #
class TestTimeouts:
    def test_embedded_timeout_aborts_scan(self, big_database):
        with pytest.raises(QueryTimeoutError):
            big_database.execute("SELECT SUM(i * i) FROM big", timeout=0.0)

    def test_embedded_timeout_leaves_database_usable(self, big_database):
        with pytest.raises(QueryTimeoutError):
            big_database.execute("SELECT SUM(i * i) FROM big", timeout=0.0)
        assert big_database.execute("SELECT COUNT(*) FROM big").scalar() \
            == BIG_ROWS

    def test_timeout_aborts_promptly(self):
        # acceptance: a ~1M-row scan with a short timeout stops within a
        # couple of morsel budgets, not after finishing the whole scan (the
        # whole scan takes ~0.09 s warm on a fast host, so 0.1 s raced it)
        database = make_big_database(rows=1_000_000)
        started = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            database.execute(
                "SELECT SUM(i * i * i) FROM big WHERE i % 3 <> 1",
                timeout=0.02)
        assert time.monotonic() - started < 5.0

    def test_client_requested_timeout_over_wire(self, big_database):
        server = DatabaseServer(big_database)
        connection = Connection.connect_in_process(server)
        with pytest.raises(QueryTimeoutError):
            connection.execute("SELECT SUM(i * i) FROM big", timeout=0.0)
        assert server.counters["queries_timed_out"].value == 1
        # the error frame is terminal: the connection survives
        assert connection.execute("SELECT 1").scalar() == 1
        connection.close()

    def test_server_side_statement_timeout_cap(self, big_database):
        server = DatabaseServer(
            big_database, limits=ServerLimits(statement_timeout=0.0))
        connection = Connection.connect_in_process(server)
        # client asked for a generous timeout; the server cap still wins
        with pytest.raises(QueryTimeoutError):
            connection.execute("SELECT SUM(i * i) FROM big", timeout=60.0)
        connection.close()

    def test_bad_timeout_option_rejected(self, big_database):
        server = DatabaseServer(big_database)
        connection = Connection.connect_in_process(server)
        with pytest.raises(ProtocolError):
            connection.execute("SELECT 1", timeout=-1.0)
        connection.close()


# --------------------------------------------------------------------------- #
# cancellation
# --------------------------------------------------------------------------- #
class TestCancellation:
    def test_login_issues_cancel_credentials(self, big_database):
        server = DatabaseServer(big_database)
        connection = Connection.connect_in_process(server)
        assert connection.session_id is not None
        assert connection.cancel_key
        connection.close()

    def test_cancel_mid_stream(self, big_database):
        server = DatabaseServer(big_database)
        connection = Connection.connect_in_process(server)
        stream = connection.execute_stream("SELECT i FROM big WHERE i >= 0")
        assert stream.fetchone() is not None  # first chunk arrived
        assert connection.cancel() is True
        with pytest.raises(QueryCancelledError):
            while stream.fetchone() is not None:
                pass
        assert server.counters["queries_cancelled"].value == 1
        # the terminal error frame leaves the connection usable
        assert connection.execute("SELECT COUNT(*) FROM big").scalar() \
            == BIG_ROWS
        connection.close()

    def test_cancel_with_no_active_query(self, big_database):
        server = DatabaseServer(big_database)
        connection = Connection.connect_in_process(server)
        assert connection.cancel() is False
        connection.close()

    def test_cancel_wrong_key_is_a_silent_miss(self, big_database):
        server = DatabaseServer(big_database)
        connection = Connection.connect_in_process(server)
        stream = connection.execute_stream("SELECT i FROM big WHERE i >= 0")
        assert stream.fetchone() is not None
        intruder = InProcessTransport(server)
        reply = intruder.exchange({
            "type": MSG_CANCEL,
            "session_id": connection.session_id,
            "cancel_key": "not-the-key",
        })
        assert reply == {"type": "cancelled", "found": False}
        intruder.close()
        # the query is unaffected
        assert stream.fetchall()
        connection.close()

    def test_cancel_from_another_thread_over_tcp(self):
        database = make_big_database()
        server = DatabaseServer(database)

        # Hold chunk production open after the first chunk until the cancel
        # has landed; otherwise the server can push the whole result into
        # socket buffers and finish before the canceller thread runs.
        cancel_sent = threading.Event()
        chunks_seen = [0]

        def hold_after_first(point: str) -> None:
            if point == "chunk":
                chunks_seen[0] += 1
                if chunks_seen[0] > 1:
                    cancel_sent.wait(timeout=10)

        server.fault_hook = hold_after_first
        socket_server = AsyncSocketServer(server, host="127.0.0.1", port=0)
        host, port = socket_server.start_background()
        try:
            connection = Connection.connect_tcp(
                ConnectionInfo(host=host, port=port))
            stream = connection.execute_stream("SELECT i FROM big WHERE i >= 0")
            assert stream.fetchone() is not None
            outcome: dict = {}

            def canceller() -> None:
                outcome["found"] = connection.cancel()
                cancel_sent.set()

            thread = threading.Thread(target=canceller)
            thread.start()
            thread.join(timeout=10)
            assert outcome.get("found") is True
            with pytest.raises(QueryCancelledError):
                stream.fetchall()
            connection.close()
        finally:
            socket_server.stop()


# --------------------------------------------------------------------------- #
# admission control
# --------------------------------------------------------------------------- #
class TestAdmissionControl:
    def test_saturation_rejects_with_retryable_error(self, big_database):
        limits = ServerLimits(max_concurrent_queries=1, max_queue_depth=0,
                              max_queue_wait=0.0)
        server = DatabaseServer(big_database, limits=limits)
        connection = Connection.connect_in_process(server, retry_policy=None)
        connection.retry_policy = None
        assert server.admission.try_acquire() is None  # hog the only slot
        try:
            with pytest.raises(ServerBusyError) as excinfo:
                connection.execute("SELECT 1")
            assert excinfo.value.retryable
            assert excinfo.value.code == ERR_SATURATED
            assert server.counters["queries_rejected"].value == 1
        finally:
            server.admission.release()
        assert connection.execute("SELECT 1").scalar() == 1
        connection.close()

    def test_queued_query_runs_when_slot_frees(self, big_database):
        limits = ServerLimits(max_concurrent_queries=1, max_queue_depth=4,
                              max_queue_wait=10.0)
        server = DatabaseServer(big_database, limits=limits)
        connection = Connection.connect_in_process(server)
        assert server.admission.try_acquire() is None
        release_timer = threading.Timer(0.1, server.admission.release)
        release_timer.start()
        try:
            assert connection.execute("SELECT 1").scalar() == 1
        finally:
            release_timer.cancel()
        assert server.counters["queries_rejected"].value == 0
        connection.close()

    def test_queue_wait_expiry_rejects(self, big_database):
        limits = ServerLimits(max_concurrent_queries=1, max_queue_depth=4,
                              max_queue_wait=0.05)
        server = DatabaseServer(big_database, limits=limits)
        connection = Connection.connect_in_process(server, retry_policy=None)
        connection.retry_policy = None
        assert server.admission.try_acquire() is None
        try:
            with pytest.raises(ServerBusyError):
                connection.execute("SELECT 1")
        finally:
            server.admission.release()
        connection.close()

    def test_slot_released_after_streamed_result(self, big_database):
        server = DatabaseServer(big_database)
        connection = Connection.connect_in_process(server)
        connection.execute("SELECT i FROM big WHERE i < 100")
        assert server.admission.active == 0
        connection.close()

    def test_slot_released_after_error(self, big_database):
        server = DatabaseServer(big_database)
        connection = Connection.connect_in_process(server)
        with pytest.raises(ExecutionError):
            connection.execute("SELECT * FROM no_such_table")
        assert server.admission.active == 0
        connection.close()

    def test_session_limit(self, big_database):
        server = DatabaseServer(big_database,
                                limits=ServerLimits(max_sessions=1))
        first = Connection.connect_in_process(server)
        with pytest.raises(ServerBusyError) as excinfo:
            Connection.connect_in_process(server)
        assert excinfo.value.code == ERR_SESSION_LIMIT
        first.close()
        # closing the first session frees the slot
        second = Connection.connect_in_process(server)
        second.close()

    def test_shutdown_drains_and_rejects(self, big_database):
        server = DatabaseServer(big_database)
        connection = Connection.connect_in_process(server, retry_policy=None)
        connection.retry_policy = None
        server.begin_shutdown()
        with pytest.raises(ServerBusyError) as excinfo:
            connection.execute("SELECT 1")
        assert excinfo.value.code == ERR_SHUTTING_DOWN
        assert server.drain(timeout=1.0) is True
        connection.close()

    def test_drain_cancels_stragglers(self, big_database):
        server = DatabaseServer(big_database)
        connection = Connection.connect_in_process(server)
        stream = connection.execute_stream("SELECT i FROM big WHERE i >= 0")
        assert stream.fetchone() is not None  # query now holds a slot
        assert server.drain(timeout=0.05) in (True, False)
        with pytest.raises(QueryCancelledError):
            stream.fetchall()
        assert server.admission.active == 0
        connection.close()


class TestAdmissionControllerUnit:
    def test_acquire_release_counts(self):
        controller = AdmissionController(ServerLimits(max_concurrent_queries=2))
        assert controller.try_acquire() is None
        assert controller.try_acquire() is None
        assert controller.active == 2
        controller.release()
        assert controller.active == 1
        controller.release()
        assert controller.wait_idle(0.1) is True

    def test_queue_depth_bound(self):
        limits = ServerLimits(max_concurrent_queries=1, max_queue_depth=0,
                              max_queue_wait=5.0)
        controller = AdmissionController(limits)
        assert controller.try_acquire() is None
        # queue full (depth 0): rejected immediately despite the long wait
        started = time.monotonic()
        assert controller.try_acquire() == ERR_SATURATED
        assert time.monotonic() - started < 1.0

    def test_drain_wakes_waiters(self):
        limits = ServerLimits(max_concurrent_queries=1, max_queue_depth=4,
                              max_queue_wait=30.0)
        controller = AdmissionController(limits)
        assert controller.try_acquire() is None
        results = []
        thread = threading.Thread(
            target=lambda: results.append(controller.try_acquire()))
        thread.start()
        time.sleep(0.05)
        controller.begin_drain()
        thread.join(timeout=5)
        assert results == [ERR_SHUTTING_DOWN]


# --------------------------------------------------------------------------- #
# client retry / backoff / reconnect
# --------------------------------------------------------------------------- #
class TestClientRetry:
    def test_select_retried_until_slot_frees(self, big_database):
        limits = ServerLimits(max_concurrent_queries=1, max_queue_depth=0,
                              max_queue_wait=0.0)
        server = DatabaseServer(big_database, limits=limits)
        policy = RetryPolicy(max_attempts=8, base_delay=0.02, jitter=0.0)
        connection = Connection.connect_in_process(server, retry_policy=policy)
        assert server.admission.try_acquire() is None
        release_timer = threading.Timer(0.1, server.admission.release)
        release_timer.start()
        try:
            assert connection.execute("SELECT 1").scalar() == 1
        finally:
            release_timer.cancel()
        assert connection.stats.retries >= 1
        connection.close()

    def test_write_not_retried_on_saturation(self, big_database):
        limits = ServerLimits(max_concurrent_queries=1, max_queue_depth=0,
                              max_queue_wait=0.0)
        server = DatabaseServer(big_database, limits=limits)
        connection = Connection.connect_in_process(server)
        assert server.admission.try_acquire() is None
        try:
            with pytest.raises(ServerBusyError):
                connection.execute("INSERT INTO big VALUES (1)")
            assert connection.stats.retries == 0
        finally:
            server.admission.release()
        connection.close()

    def test_retries_exhausted_surfaces_error(self, big_database):
        limits = ServerLimits(max_concurrent_queries=1, max_queue_depth=0,
                              max_queue_wait=0.0)
        server = DatabaseServer(big_database, limits=limits)
        policy = RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0)
        connection = Connection.connect_in_process(server, retry_policy=policy)
        assert server.admission.try_acquire() is None
        try:
            with pytest.raises(ServerBusyError):
                connection.execute("SELECT 1")
        finally:
            server.admission.release()
        assert connection.stats.retries == 1
        connection.close()

    def test_reconnect_after_connection_loss(self, big_database):
        server = DatabaseServer(big_database)
        faulty = FaultyTransport(InProcessTransport(server))
        info = ConnectionInfo(database=server.database.name)
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)
        connection = Connection(faulty, info, retry_policy=policy)
        connection._transport_factory = lambda: InProcessTransport(server)
        connection.login()
        # the login consumed some receives; fail the next one
        faulty.fail_receive_at = faulty.receives + 1
        assert connection.execute("SELECT 1").scalar() == 1
        assert connection.stats.reconnects == 1
        assert connection.stats.retries == 1
        connection.close()

    def test_lost_connection_write_not_retried(self, big_database):
        server = DatabaseServer(big_database)
        faulty = FaultyTransport(InProcessTransport(server))
        info = ConnectionInfo(database=server.database.name)
        connection = Connection(faulty, info)
        connection._transport_factory = lambda: InProcessTransport(server)
        connection.login()
        faulty.fail_receive_at = faulty.receives + 1
        with pytest.raises(ConnectionLostError):
            connection.execute("INSERT INTO big VALUES (1)")
        connection.close()

    def test_backoff_delays_grow_and_jitter_shrinks(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=1.0,
                             jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(10) == pytest.approx(1.0)  # capped
        jittered = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=1.0,
                               jitter=0.5)
        for attempt in range(5):
            assert 0 < jittered.delay(attempt) <= policy.delay(attempt)

    def test_idempotency_classifier(self):
        assert is_idempotent_statement("SELECT 1")
        assert is_idempotent_statement("  select * from t")
        assert is_idempotent_statement("(SELECT 1)")
        assert is_idempotent_statement("EXPLAIN SELECT 1")
        assert not is_idempotent_statement("INSERT INTO t VALUES (1)")
        assert not is_idempotent_statement("UPDATE t SET i = 1")
        assert not is_idempotent_statement("DELETE FROM t")
        assert not is_idempotent_statement("CREATE TABLE x (i INTEGER)")
        assert not is_idempotent_statement("")


# --------------------------------------------------------------------------- #
# error taxonomy over the wire
# --------------------------------------------------------------------------- #
class TestErrorTaxonomy:
    def test_roundtrip_preserves_type_and_retryability(self):
        for exc, retryable in [
            (QueryTimeoutError("too slow"), False),
            (QueryCancelledError("stopped"), False),
            (ServerBusyError("full"), True),
            (ProtocolError("bad"), False),
            (WireFormatError("garbled"), False),
        ]:
            frame = error_message_for(exc)
            assert frame["retryable"] is retryable
            revived = exception_for_error(frame)
            assert type(revived) is type(exc)
            assert revived.retryable is retryable

    @pytest.mark.parametrize("code", [{"code": "from_the_future"}, {}],
                             ids=["unknown", "missing"])
    def test_unknown_code_falls_back_to_execution_error(self, code):
        revived = exception_for_error({"type": "error", "message": "boom", **code})
        assert type(revived) is ExecutionError and not revived.retryable

    @pytest.mark.parametrize("field", ["session_id", "cancel_key"])
    def test_a_login_reply_without_cancel_credentials_is_refused(self, field):
        transport = InProcessTransport(DatabaseServer())
        receive = transport.receive
        transport.receive = lambda: {k: v for k, v in receive().items() if k != field}
        with pytest.raises(ProtocolError, match="cancellation credentials"):
            Connection(transport, ConnectionInfo()).login()

    def test_timeout_code_on_the_wire(self, big_database):
        server = DatabaseServer(big_database)
        transport = InProcessTransport(server)
        connection = Connection(transport,
                                ConnectionInfo(database="demo"))
        connection._transport_factory = None
        connection.login()
        transport.send({"type": "query", "sql": "SELECT SUM(i * i) FROM big",
                        "options": {"timeout": 0.0}})
        reply = transport.receive()
        # streamed servers put the error in the terminal frame
        while reply.get("type") not in ("error",):
            reply = transport.receive()
        assert reply["code"] == ERR_TIMEOUT
        assert reply["retryable"] is False
        connection.close()


# --------------------------------------------------------------------------- #
# malformed input handling
# --------------------------------------------------------------------------- #
class TestMalformedFrames:
    @pytest.mark.parametrize("payload", [
        b"\xde\xad\xbe\xef",                                # no value at all
        b"L\0\0\0\0",                                      # not a dict
        b"M\0\0\0\x01S\0\0\0\x04typeS\0\0\0\x02\xff\xfe",  # text not UTF-8
        b"M\0\0\0\x01L\0\0\0\0N",                          # a list as a key
        b"L\0\0\0\x01" * 5_000 + b"N",                     # 5,000 nested lists
    ], ids=["garbage", "list", "not_utf8", "list_key", "deep"])
    def test_an_undecodable_first_frame_is_answered_and_serving_goes_on(
            self, big_database, payload):
        server = DatabaseServer(big_database)
        front = AsyncSocketServer(server, host="127.0.0.1", port=0)
        host, port = front.start_background()
        try:
            with socket.create_connection((host, port), timeout=5.0) as sock:
                stream = sock.makefile("rwb")
                stream.write(encode_frame(payload))
                stream.flush()
                assert decode_message(read_frame(stream))["code"] == "wire_format"
                stream.write(encode_message({"type": "hello", "username": "monetdb",
                                             "protocol_version": PROTOCOL_VERSION}))
                stream.flush()
                assert decode_message(read_frame(stream))["type"] == "challenge"
            assert front._thread.is_alive()
            assert server.counters["wire_errors"].value == 1
            connection = Connection.connect_tcp(
                ConnectionInfo(host=host, port=port), timeout=5.0)
            assert connection.execute("SELECT 1").scalar() == 1
            connection.close()
        finally:
            front.stop()


# --------------------------------------------------------------------------- #
# session accounting
# --------------------------------------------------------------------------- #
class TestSessionLifecycle:
    def test_close_session_is_idempotent(self, big_database):
        server = DatabaseServer(big_database)
        transport = InProcessTransport(server)
        assert server.active_sessions == 1
        transport.close()
        transport.close()
        assert server.active_sessions == 0
        assert server.counters["sessions_closed"].value == 1

    def test_closing_session_cancels_its_query(self, big_database):
        server = DatabaseServer(big_database)
        connection = Connection.connect_in_process(server)
        stream = connection.execute_stream("SELECT i FROM big WHERE i >= 0")
        assert stream.fetchone() is not None
        server.close_session(connection._transport.session)
        assert server.admission.active == 0
        assert server.active_sessions == 0


# --------------------------------------------------------------------------- #
# stalled readers: eager slot release vs. backpressure
# --------------------------------------------------------------------------- #
class TestStalledReader:
    def test_stalled_reader_cannot_pin_execution_slot(self):
        """A client that stops reading mid-stream must be disconnected after
        ``send_timeout`` and its execution slot freed — backpressure pauses
        the query, but never past the admission controller's patience."""
        from repro.netproto.chaos import ChaosProxy, FaultSpec

        # ~9.6 MB on the wire: the result must overrun HIGH_WATER plus what
        # the kernel's socket buffers absorb (a few MB on loopback).  ``i``
        # is a multiplicative hash of the row number spanning all 32 bits, so
        # the default codec ships each 8,192-row chunk in 4 bytes a value;
        # values spanning fewer bits would be bit-packed into less, and
        # consecutive ids would ship as a stride
        database = make_big_database(rows=0)
        database.storage.table("big").columns[0].extend(
            [i * 2_654_435_761 % 2**32 for i in range(2_400_000)])
        limits = ServerLimits(max_concurrent_queries=1, max_queue_depth=0,
                              send_timeout=0.5)
        server = DatabaseServer(database, result_chunk_rows=8_192,
                                limits=limits)
        front = AsyncSocketServer(server, host="127.0.0.1", port=0)
        # lower the watermarks so backpressure engages without multi-MB
        # results (kernel socket buffers still absorb a few hundred KB)
        front.HIGH_WATER = 128 * 1024
        front.LOW_WATER = 32 * 1024
        host, port = front.start_background()
        try:
            # the proxy relays the handshake, then stops reading from the
            # server: from the server's view the client went quiet mid-stream
            with ChaosProxy((host, port),
                            FaultSpec(stall_after_bytes=2_000)) as proxy:
                failure = []

                def stalled_client():
                    connection = Connection.connect_tcp(
                        ConnectionInfo(host=proxy.address[0],
                                       port=proxy.address[1]))
                    connection.retry_policy = None
                    try:
                        connection.execute("SELECT i FROM big WHERE i >= 0")
                    except Exception as exc:  # noqa: BLE001
                        failure.append(exc)

                thread = threading.Thread(target=stalled_client, daemon=True)
                thread.start()

                deadline = time.monotonic() + 15
                while time.monotonic() < deadline:
                    if server.counters["stalled_disconnects"].value >= 1:
                        break
                    time.sleep(0.05)
                assert server.counters["stalled_disconnects"].value >= 1
                # the slot must be free well before any admission timeout:
                # a direct (well-behaved) client runs immediately
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline and server.admission.active:
                    time.sleep(0.05)
                assert server.admission.active == 0
                survivor = Connection.connect_tcp(
                    ConnectionInfo(host=host, port=port))
                assert survivor.execute(
                    "SELECT COUNT(*) FROM big WHERE i >= 0").scalar() == 2_400_000
                survivor.close()
        finally:
            front.stop()


# --------------------------------------------------------------------------- #
# a statement that dies with a non-ReproError is answered, not met with silence
# --------------------------------------------------------------------------- #
class TestInternalErrors:
    """Over TCP an unanswered statement costs the client its full socket
    timeouts, so every exception out of a statement becomes an error frame.
    The 5 s client timeout makes a regression fail in seconds."""

    @pytest.fixture()
    def served(self):
        database = Database()
        database.execute("CREATE TABLE t (a INTEGER, s STRING)")
        database.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL)")
        server = DatabaseServer(database)
        front = AsyncSocketServer(server, host="127.0.0.1", port=0)
        host, port = front.start_background()
        connection = Connection.connect_tcp(
            ConnectionInfo(host=host, port=port), timeout=5.0)
        connection.retry_policy = None
        try:
            yield server, connection
        finally:
            connection.close()
            front.stop()
            database.close()

    def _fails_promptly(self, connection, sql, match):
        started = time.monotonic()
        with pytest.raises(ExecutionError, match=match) as raised:
            connection.execute(sql)
        assert time.monotonic() - started < 1.0
        assert raised.value.retryable is False
        return raised.value

    def _still_serving(self, server, connection):
        assert connection.execute("SELECT COUNT(*) FROM t").scalar() == 3
        assert server.admission.active == 0
        assert server.active_sessions == 1

    def test_value_error_in_expression_is_an_error_frame(self, served):
        server, connection = served
        self._fails_promptly(connection, "SELECT -s FROM t", "invalid operands")
        assert server.counters["internal_errors"].value == 0  # an ExecutionError by now
        self._still_serving(server, connection)

    @pytest.mark.parametrize("sql, message", [
        ("SELECT 1e", "^malformed number '1e'$"),
        ("SELECT a FROM t WHERE a < 1.2.3", "^malformed number '1.2.3'$"),
        ("INSERT INTO t VALUES (4, 'z') (5, 'w')",
         r"^unexpected token '\(' after statement$"),
    ])
    def test_a_typo_is_a_parse_error_frame(self, served, sql, message, capsys):
        server, connection = served
        self._fails_promptly(connection, sql, message)
        assert server.counters["internal_errors"].value == 0
        assert server.counters["errors"].value == 1
        assert "Traceback" not in capsys.readouterr().err
        self._still_serving(server, connection)

    @pytest.mark.parametrize("point", ["query_start", "chunk"])
    def test_injected_runtime_error(self, served, point, capsys):
        server, connection = served

        def explode(at: str) -> None:
            if at == point:
                raise RuntimeError("boom")

        server.fault_hook = explode
        # the client learns the type; the text and the traceback stay on
        # the server's stderr
        self._fails_promptly(connection, "SELECT a, s FROM t",
                             "internal error: RuntimeError$")
        server.fault_hook = None
        logged = capsys.readouterr().err
        assert "Traceback" in logged and "RuntimeError: boom" in logged
        assert server.counters["internal_errors"].value == 1
        assert server.counters["errors"].value == 1
        self._still_serving(server, connection)
        stats = dict(connection.execute("SHOW STATS").fetchall())
        assert stats["server.internal_errors"] == 1

    def test_in_process_transport_answers_too(self):
        server = DatabaseServer(Database())
        server.fault_hook = lambda at: (_ for _ in ()).throw(KeyError(at))
        connection = Connection.connect_in_process(server)
        with pytest.raises(ExecutionError, match="internal error: KeyError"):
            connection.execute("SELECT 1")
        assert server.admission.active == 0
        connection.close()
