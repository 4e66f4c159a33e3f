"""Fault injection for the wire protocol — the chaos side of resilience.

Two complementary tools drive the chaos test suite:

* :class:`ChaosProxy` — a real TCP proxy that sits between a client and a
  :class:`~repro.netproto.server.AsyncSocketServer` and injects *byte-level*
  faults into the relayed stream: kill the connection after N bytes (a
  mid-frame drop), flip a byte at a fixed offset (corruption), chop writes
  into tiny partial sends, or delay every chunk.  Faults are keyed on byte
  counts, not timers, so every failure is deterministic and reproducible.

* :class:`FaultyTransport` — an in-process transport wrapper that injects
  *call-level* faults (raise on the Nth send/receive, hand the client a
  garbage reply) without any sockets, for tests that need tight control
  over exactly which protocol step fails.

Neither is imported by production code paths; the server's own
``fault_hook`` (:class:`~repro.netproto.server.DatabaseServer`) covers
server-side injection at named points.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Any

from ..errors import ConnectionLostError

__all__ = ["ChaosProxy", "FaultSpec", "FaultyTransport"]


@dataclass
class FaultSpec:
    """What the proxy does to the *server → client* byte stream.

    All offsets count downstream (server-to-client) payload bytes since the
    connection opened, so a fault lands on the same frame every run.
    """

    #: Abruptly close both directions once this many bytes were relayed
    #: downstream (``None`` disables).  Landing mid-frame is the point.
    kill_after_bytes: int | None = None
    #: XOR the byte at this downstream offset with 0xFF (``None`` disables).
    corrupt_at: int | None = None
    #: Relay downstream in slices of at most this many bytes (partial
    #: writes; ``None`` relays whole reads).
    chop: int | None = None
    #: Sleep this long before relaying each downstream read (slow network).
    delay: float = 0.0
    #: Stop reading from the server once this many downstream bytes were
    #: relayed (``None`` disables).  The connection stays open but no more
    #: bytes move — a client that stopped reading mid-stream.  Keyed on
    #: bytes so the handshake passes and the stall lands in the result.
    stall_after_bytes: int | None = None


class ChaosProxy:
    """A TCP proxy that injects :class:`FaultSpec` faults per connection.

    Each accepted client connection gets its own upstream connection and its
    own fault byte-counters, so a multi-connection test sees the same fault
    on every connection rather than a shared global budget.
    """

    def __init__(self, upstream: tuple[str, int], spec: FaultSpec | None = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.upstream = upstream
        self.spec = spec or FaultSpec()
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self._running = False
        self._accept_thread: threading.Thread | None = None
        self._threads: list[threading.Thread] = []
        self._conns: list[socket.socket] = []
        self._lock = threading.Lock()
        self.connections_handled = 0
        self.connections_killed = 0

    @property
    def address(self) -> tuple[str, int]:
        addr = self._listener.getsockname()
        return addr[0], addr[1]

    def start(self) -> tuple[str, int]:
        self._running = True
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               daemon=True)
        self._accept_thread.start()
        return self.address

    def stop(self) -> None:
        self._running = False
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None
        with self._lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            _close_quietly(conn)
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads.clear()
        self._listener.close()

    def __enter__(self) -> "ChaosProxy":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while self._running:
            try:
                client, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                server = socket.create_connection(self.upstream, timeout=10)
            except OSError:
                _close_quietly(client)
                continue
            self.connections_handled += 1
            with self._lock:
                self._conns.extend((client, server))
            state = _ConnectionState(self, client, server)
            up = threading.Thread(target=state.relay_upstream, daemon=True)
            down = threading.Thread(target=state.relay_downstream, daemon=True)
            self._threads.extend((up, down))
            up.start()
            down.start()


class _ConnectionState:
    """Per-connection relay with its own downstream fault counters."""

    def __init__(self, proxy: ChaosProxy, client: socket.socket,
                 server: socket.socket) -> None:
        self.proxy = proxy
        self.spec = proxy.spec
        self.client = client
        self.server = server
        self.downstream_bytes = 0

    def relay_upstream(self) -> None:
        """client → server, unmodified."""
        _pump(self.client, self.server)

    def relay_downstream(self) -> None:
        """server → client, with faults applied."""
        spec = self.spec
        try:
            while True:
                if spec.stall_after_bytes is not None and \
                        self.downstream_bytes >= spec.stall_after_bytes:
                    # stop reading but keep the connection open: the server
                    # sees a reader that simply went quiet
                    while self.proxy._running:
                        time.sleep(0.05)
                    break
                data = self.server.recv(65536)
                if not data:
                    break
                if spec.delay:
                    time.sleep(spec.delay)
                data = self._apply_corruption(data)
                if not self._send_with_kill(data):
                    return
        except OSError:
            pass
        finally:
            self._kill()

    # -- fault application --------------------------------------------- #
    def _apply_corruption(self, data: bytes) -> bytes:
        offset = self.spec.corrupt_at
        if offset is not None and \
                self.downstream_bytes <= offset < self.downstream_bytes + len(data):
            local = offset - self.downstream_bytes
            data = data[:local] + bytes([data[local] ^ 0xFF]) + data[local + 1:]
        return data

    def _send_with_kill(self, data: bytes) -> bool:
        """Relay ``data`` downstream; returns False once the kill fired."""
        spec = self.spec
        view = memoryview(data)
        while view:
            slice_len = len(view) if spec.chop is None else min(spec.chop, len(view))
            if spec.kill_after_bytes is not None:
                budget = spec.kill_after_bytes - self.downstream_bytes
                if budget <= 0:
                    self.proxy.connections_killed += 1
                    self._kill()
                    return False
                slice_len = min(slice_len, budget)
            try:
                sent = self.client.send(view[:slice_len])
            except OSError:
                self._kill()
                return False
            self.downstream_bytes += sent
            view = view[sent:]
        return True

    def _kill(self) -> None:
        _close_quietly(self.client)
        _close_quietly(self.server)


def _pump(source: socket.socket, sink: socket.socket) -> None:
    try:
        while True:
            data = source.recv(65536)
            if not data:
                break
            sink.sendall(data)
    except OSError:
        pass
    finally:
        _close_quietly(source)
        _close_quietly(sink)


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class FaultyTransport:
    """Wraps a transport, injecting faults at programmable call counts.

    ``fail_receive_at=3`` makes the 3rd ``receive`` raise
    :class:`~repro.errors.ConnectionLostError` (and every later call too —
    a dead connection stays dead until ``heal()``); ``garbage_receive_at``
    instead substitutes a nonsense reply exactly once.  Counts are
    1-indexed across the transport's lifetime.
    """

    def __init__(self, inner: Any, *,
                 fail_send_at: int | None = None,
                 fail_receive_at: int | None = None,
                 garbage_receive_at: int | None = None) -> None:
        self.inner = inner
        self.fail_send_at = fail_send_at
        self.fail_receive_at = fail_receive_at
        self.garbage_receive_at = garbage_receive_at
        self.sends = 0
        self.receives = 0
        self.faults_fired = 0

    @property
    def closed(self) -> bool:
        return self.inner.closed

    def heal(self) -> None:
        """Clear every pending fault; subsequent calls pass through."""
        self.fail_send_at = None
        self.fail_receive_at = None
        self.garbage_receive_at = None

    def send(self, message: dict[str, Any]) -> None:
        self.sends += 1
        if self.fail_send_at is not None and self.sends >= self.fail_send_at:
            self.faults_fired += 1
            raise ConnectionLostError("injected send failure")
        self.inner.send(message)

    def receive(self) -> dict[str, Any]:
        self.receives += 1
        if self.fail_receive_at is not None \
                and self.receives >= self.fail_receive_at:
            self.faults_fired += 1
            raise ConnectionLostError("injected receive failure")
        reply = self.inner.receive()
        if self.garbage_receive_at == self.receives:
            self.faults_fired += 1
            return {"type": "garbage", "noise": "\x00\xff not a real reply"}
        return reply

    def exchange(self, message: dict[str, Any]) -> dict[str, Any]:
        self.send(message)
        return self.receive()

    def close(self) -> None:
        self.inner.close()
