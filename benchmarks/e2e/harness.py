"""Shared pieces of the end-to-end benchmark: trace spans, the closed-loop
driver, the server child, process accounting and the layer probes that every
workload uses (columnar / compression / encryption micro-timings).

Nothing here knows a workload; the three ``wl_*.py`` files do.  Importing this
module starts nothing and opens nothing — ``run.py`` owns the lifecycle.
"""

from __future__ import annotations

import ctypes
import gc
import itertools
import json
import os
import pickle
import platform
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Everything a run writes (work directories, traces, result files) lives
#: here, inside the checkout and named in the root ``.gitignore``.
WORK = ROOT / ".bench_e2e"



def load_contract() -> dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


SERVER_START_DEADLINE_S = 30.0
#: Closed-loop clients run at least this many ops, so a traced run always
#: holds one untraced and one traced op even at ``--smoke`` lengths.
MIN_OPS_PER_CLIENT = 2
#: Timing metrics are computed per window and the median window is reported.
WINDOWS = 10
#: CPU milliseconds :func:`host_canary_ms` takes on this box when the host is
#: in its fast state.  Timings are reported as if the host always ran at that
#: speed (see :func:`windowed_timings`); the constant only fixes the scale.
CANARY_REFERENCE_MS = 1.9
#: Client 0 runs the canary between ops, at most this often.
CANARY_EVERY_S = 0.1
#: Canary readings taken on each side of one timed set-up.
SETUP_CANARY_READINGS = 10


# --------------------------------------------------------------------------- #
# trace spans
# --------------------------------------------------------------------------- #
class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict[str, Any]) -> None:
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> dict[str, Any]:
        stack = self.tracer._stack()
        record = self.record
        if stack:
            record["parent"] = stack[-1]["id"]
            if record["op"] is None:
                record["op"] = stack[-1]["op"]
        stack.append(record)
        record["start"] = time.perf_counter()
        return record

    def __exit__(self, *exc_info: Any) -> None:
        self.record["end"] = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(self.record)


class Tracer:
    """In-memory span recorder.  A span has a name (``<layer>.<call>``), start,
    end, the span that caused it and the id of the op it belongs to; nothing
    is written until :func:`write_trace`.  ``Tracer(enabled=False)`` hands out
    one shared no-op span, so the untraced and the traced run execute the
    same workload code."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op: str | None = None) -> Any:
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, {"id": next(self._ids), "name": name, "parent": None,
                            "op": op, "start": 0.0, "end": 0.0})


NULL_TRACER = Tracer(enabled=False)


def span_ms(span: dict[str, Any]) -> float:
    return (span["end"] - span["start"]) * 1e3


def self_times_ms(spans: list[dict[str, Any]]) -> dict[int, float]:
    """A span's self time: its duration minus what its child spans cover."""
    own = {span["id"]: span_ms(span) for span in spans}
    for span in spans:
        if span["parent"] is not None and span["parent"] in own:
            own[span["parent"]] -= span_ms(span)
    return own


def summarise_spans(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: how often it ran, median duration and median self time."""
    own = self_times_ms(spans)
    by_name: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append((span_ms(span), own[span["id"]]))
    return {
        name: {"count": len(pairs),
               "p50_ms": median([total for total, _ in pairs]),
               "self_p50_ms": median([self_ms for _, self_ms in pairs]),
               "total_ms": sum(total for total, _ in pairs)}
        for name, pairs in sorted(by_name.items())
    }


def span_p50_ms(spans: list[dict[str, Any]], name: str) -> float:
    """Median duration of the spans called ``name`` (0.0 when none ran)."""
    return median([span_ms(span) for span in spans if span["name"] == name])


def attributed_share(spans: list[dict[str, Any]]) -> float:
    """Share of traced op time covered by the ops' child spans — what is left
    is the harness's own glue between calls into the layers."""
    roots = {span["id"]: span_ms(span) for span in spans if span["name"] == "op"}
    covered = sum(span_ms(span) for span in spans if span["parent"] in roots)
    total = sum(roots.values())
    return covered / total if total else 0.0


# --------------------------------------------------------------------------- #
# small numeric helpers
# --------------------------------------------------------------------------- #
def median(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def timed_ms(function: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """Median wall milliseconds of ``function()`` over ``repeats`` calls, and
    the last return value."""
    samples = []
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = function()
        samples.append((time.perf_counter() - started) * 1e3)
    return median(samples), value


def close_to(actual: Any, expected: float, *, rel: float = 1e-9,
             abs_tol: float = 1e-6) -> bool:
    if actual is None:
        return False
    return abs(float(actual) - expected) <= max(abs_tol, rel * abs(expected))


# --------------------------------------------------------------------------- #
# cleanup registry
# --------------------------------------------------------------------------- #
class Cleanup:
    """Stops children and removes work directories exactly once, from
    ``finally`` and from ``atexit`` — whichever comes first."""

    def __init__(self) -> None:
        self._children: list[ServerChild] = []
        self._directories: list[Path] = []

    def add_child(self, child: "ServerChild") -> None:
        self._children.append(child)

    def add_directory(self, path: Path) -> None:
        self._directories.append(path)

    def run(self) -> None:
        while self._children:
            self._children.pop().stop()
        while self._directories:
            shutil.rmtree(self._directories.pop(), ignore_errors=True)


def install_sigterm_exit() -> None:
    """SIGTERM unwinds through ``finally`` like Ctrl-C does."""
    def on_sigterm(signum: int, frame: Any) -> None:
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_sigterm)


# --------------------------------------------------------------------------- #
# the server child
# --------------------------------------------------------------------------- #
def _die_with_parent() -> None:  # pragma: no cover - runs in the forked child
    """Ask the kernel to SIGKILL the child if the harness itself is killed."""
    pr_set_pdeathsig = 1
    try:
        ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, signal.SIGKILL)
    except (OSError, AttributeError):
        pass


class ServerChild:
    """``python -m repro.netproto.server --db <file>`` in its shipped defaults.

    stdout goes to a file, unbuffered: a piped stdout is block-buffered and
    would hide the ``server listening on host:port`` line until exit, and a
    pipe nobody drains could stall the child.  The child leads its own process
    group so one signal reaches everything it may have started.
    """

    def __init__(self, db_path: Path, cleanup: Cleanup) -> None:
        self.db_path = db_path
        self.log_path = db_path.with_suffix(".server.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.netproto.server",
                 "--db", str(db_path)],
                stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=env, cwd=str(ROOT), start_new_session=True,
                preexec_fn=_die_with_parent)
        cleanup.add_child(self)
        self.host, self.port = self._wait_for_address()

    def _wait_for_address(self) -> tuple[str, int]:
        deadline = time.monotonic() + SERVER_START_DEADLINE_S
        marker = "server listening on "
        while time.monotonic() < deadline:
            text = self.log_path.read_text(errors="replace")
            for line in text.splitlines():
                if line.startswith(marker) and " " in line[len(marker):]:
                    host, _, port = line[len(marker):].split(" ", 1)[0].rpartition(":")
                    return host, int(port)
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(
            "server child did not report its port within "
            f"{SERVER_START_DEADLINE_S:.0f}s; its output was:\n"
            + self.log_path.read_text(errors="replace")[-2000:])

    def stop(self) -> None:
        """Terminate the child's process group and wait until it has ended."""
        if self.process.poll() is None:
            for signum in (signal.SIGTERM, signal.SIGKILL):
                try:
                    os.killpg(self.process.pid, signum)
                except ProcessLookupError:
                    break
                try:
                    self.process.wait(timeout=5.0)
                    break
                except subprocess.TimeoutExpired:
                    continue
        self.process.wait()

    def cpu_seconds(self) -> float:
        """user+sys CPU of the child so far, from ``/proc/<pid>/stat``."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def wal_bytes(self) -> int:
        """Current size of the child's write-ahead log (appends are flushed to
        the OS before a statement is acknowledged, so the size is current)."""
        wal = Path(str(self.db_path) + ".wal")
        return wal.stat().st_size if wal.exists() else 0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict[str, Any]:
    """What a result is only comparable within."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=5.0, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "load_1min_at_start": os.getloadavg()[0],
        "timings": "sandbox timings: reads come from the page cache and fsync "
                   "is cheap; not a device's latencies",
    }


# --------------------------------------------------------------------------- #
# the closed loop
# --------------------------------------------------------------------------- #
class Workload:
    """What ``run.py`` needs from a workload.  ``clients`` closed-loop clients
    each wait for their reply before sending the next op."""

    name = ""
    clients = 1
    #: what one op is, for the result file
    op_definition = ""

    def setup(self, seed: int, workdir: Path, cleanup: Cleanup, smoke: bool) -> None:
        """Everything before the first timed op, warm-up ops included."""
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def inputs(self, client: int, index: int) -> Any:
        """Untimed: the op's inputs, a function of (seed, client, index)."""
        raise NotImplementedError

    def op(self, client: int, index: int, inputs: Any, tracer: Tracer) -> Any:
        """Timed: one op, calling only the program's public functions."""
        raise NotImplementedError

    def after_op(self, client: int, index: int, inputs: Any, output: Any) -> Any:
        """Untimed: reset state the op changed (``output`` is None when the op
        raised) and return what :meth:`check` needs, kept small."""
        return output

    def check(self, client: int, index: int, inputs: Any, kept: Any) -> bool:
        """After the loop: does the op's output match the oracle?"""
        raise NotImplementedError

    def io_bytes(self, kept: Any) -> tuple[int, int]:
        """(wire bytes received, bytes written to image + WAL) of one op."""
        raise NotImplementedError

    def server_child(self) -> ServerChild | None:
        return None

    def layer_metrics(self, records: list["OpRecord"], tracer: Tracer,
                      smoke: bool) -> dict[str, float]:
        """Traced run only: this workload's per-layer metrics, from the ops'
        spans and counters and from probes run now, after the loop."""
        raise NotImplementedError


@dataclass(slots=True)
class OpRecord:
    client: int
    index: int
    traced: bool
    started_s: float = 0.0    # since the loop began
    latency_s: float = 0.0
    cpu_s: float = 0.0        # this client thread's CPU during the op
    child_cpu_s: float = 0.0  # the server child's cumulative CPU after the op
    canary_ms: float = 0.0    # host canary read after the op; 0 = not read
    inputs: Any = None
    kept: Any = None
    error: str | None = None
    ok: bool = False


def warm_up(workload: Workload, ops_per_client: int) -> None:
    """Run untimed ops (negative indices, so their inputs are never reused by
    the loop) through the same hooks as the loop, oracle included."""
    for client in range(workload.clients):
        for index in range(-ops_per_client, 0):
            inputs = workload.inputs(client, index)
            kept = workload.after_op(
                client, index, inputs, workload.op(client, index, inputs, NULL_TRACER))
            if not workload.check(client, index, inputs, kept):
                raise RuntimeError(f"{workload.name}: warm-up op failed the oracle")


def kept_p50(records: list[OpRecord], key: str) -> float:
    """Median over the correct ops of one counter their outputs carry."""
    return median([float(record.kept[key]) for record in records if record.ok])


def _client_loop(workload: Workload, client: int, origin: float, seconds: float,
                 tracer: Tracer, records: list[OpRecord]) -> None:
    deadline = origin + seconds
    child = workload.server_child()
    next_canary = 0.0
    index = 0
    while index < MIN_OPS_PER_CLIENT or time.perf_counter() < deadline:
        # odd ops are traced, so tracing overhead is read off neighbours
        traced = tracer.enabled and index % 2 == 1
        record = OpRecord(client, index, traced)
        record.inputs = workload.inputs(client, index)
        op_tracer = tracer if traced else NULL_TRACER
        output = None
        cpu_started = time.thread_time()
        started = time.perf_counter()
        try:
            with op_tracer.span("op", op=f"c{client}-{index}"):
                output = workload.op(client, index, record.inputs, op_tracer)
        except Exception as exc:  # noqa: BLE001 - a failed op is a result, not a crash
            record.error = f"{type(exc).__name__}: {exc}"
        record.latency_s = time.perf_counter() - started
        record.cpu_s = time.thread_time() - cpu_started
        record.started_s = started - origin
        if child is not None:
            record.child_cpu_s = child.cpu_seconds()
        record.kept = workload.after_op(client, index, record.inputs, output)
        if client == 0 and time.perf_counter() >= next_canary:
            record.canary_ms = host_canary_ms()
            next_canary = time.perf_counter() + CANARY_EVERY_S
        records.append(record)
        index += 1
        if workload.clients == 1:
            gc.collect()  # between ops, so no op pays for its neighbour's garbage


def host_canary_ms() -> float:
    """CPU milliseconds of a fixed kernel (dict and list churn, NumPy
    arithmetic and a sort, a pickle round trip): a reading of how fast the
    host is running right now.  It is taken in thread CPU time, so waiting
    for a core does not count, only the speed of the core does."""
    started = time.thread_time()
    table = {}
    for number in range(2500):
        table[number] = [number, str(number)]
    total = 0
    for value in table.values():
        total += len(value[1])
    array = np.arange(30000, dtype=np.float64)
    total += float((array * array).sum()) + float(np.sort(array[::-1])[0])
    pickle.loads(pickle.dumps(list(table.values())))
    return (time.thread_time() - started) * 1e3


def host_speed_factor(canary_ms: list[float]) -> float:
    """What a timing taken next to these canary readings is multiplied by to
    read as if the host ran at its reference speed."""
    return CANARY_REFERENCE_MS / median(canary_ms) if canary_ms else 1.0


def run_closed_loop(workload: Workload, seconds: float,
                    tracer: Tracer) -> list[OpRecord]:
    """Run ``workload.clients`` closed-loop clients for ``seconds`` and check
    every op against the oracle afterwards."""
    records: list[OpRecord] = []
    if workload.clients == 1:
        _client_loop(workload, 0, time.perf_counter(), seconds, tracer, records)
    else:
        per_client: list[list[OpRecord]] = [[] for _ in range(workload.clients)]
        origin = time.perf_counter()
        threads = [
            threading.Thread(target=_client_loop, name=f"client-{client}",
                             args=(workload, client, origin, seconds, tracer,
                                   per_client[client]))
            for client in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for client_records in per_client:
            records.extend(client_records)
    for record in records:
        if record.error is None:
            try:
                record.ok = bool(workload.check(record.client, record.index,
                                                record.inputs, record.kept))
            except Exception as exc:  # noqa: BLE001 - a malformed output fails the oracle
                record.error = f"oracle: {type(exc).__name__}: {exc}"
            if not record.ok and record.error is None:
                record.error = "oracle mismatch"
    return records


def windowed_timings(records: list[OpRecord], seconds: float, clients: int,
                     child_cpu_before: float) -> tuple[dict[str, float], dict[str, float]]:
    """The run's timing metrics, as ``(at reference host speed, as clocked)``.

    This host changes speed under us: a fixed CPU-bound kernel runs up to
    1.5x slower in phases that last from a second to several minutes, and
    every workload here slows by the same factor (CPU time included, so it is
    the cores, not the scheduler).  Two things keep that out of the numbers:

    * the loop is cut into ``WINDOWS`` equal spans of time (an op belongs to
      the window it started in), each metric is computed per window and the
      median window is reported, so a stall shorter than half the run does
      not move it;
    * each window's timings are scaled by ``CANARY_REFERENCE_MS`` over the
      median canary reading of that window, so they read as if the host ran
      at its reference speed throughout.
    """
    width = seconds / WINDOWS
    windows: list[list[OpRecord]] = [[] for _ in range(WINDOWS)]
    for record in records:
        windows[min(int(record.started_s / width), WINDOWS - 1)].append(record)
    whole_run = [record.canary_ms for record in records if record.canary_ms]
    names = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_op")
    scaled: dict[str, list[float]] = {name: [] for name in names}
    clocked: dict[str, list[float]] = {name: [] for name in names}
    child_cpu_mark = child_cpu_before
    for window in windows:
        if not window:
            continue
        child_cpu_end = max(record.child_cpu_s for record in window)
        cpu_s = sum(record.cpu_s for record in window) \
            + max(child_cpu_end - child_cpu_mark, 0.0)
        child_cpu_mark = max(child_cpu_end, child_cpu_mark)
        latencies_ms = [record.latency_s * 1e3 for record in window if record.ok]
        if not latencies_ms:
            continue
        rate = 0.0
        for client in range(clients):
            mine = [record for record in window if record.client == client]
            busy = sum(record.latency_s for record in mine)
            if busy:
                rate += sum(record.ok for record in mine) / busy
        factor = host_speed_factor(
            [record.canary_ms for record in window if record.canary_ms] or whole_run)
        values = {"ops_per_s": rate,
                  "latency_p50_ms": percentile(latencies_ms, 50),
                  "latency_p90_ms": percentile(latencies_ms, 90),
                  "cpu_ms_per_op": cpu_s * 1e3 / len(window)}
        for name, value in values.items():
            clocked[name].append(value)
            scaled[name].append(value / factor if name == "ops_per_s"
                                else value * factor)
    return ({name: median(values) for name, values in scaled.items()},
            {name: median(values) for name, values in clocked.items()})


# --------------------------------------------------------------------------- #
# layer probes shared by the workloads
# --------------------------------------------------------------------------- #
def columnar_probe(result: Any, repeats: int) -> dict[str, float]:
    """Encode / decode / materialise one result as a wire chunk (the same
    codec the image file's segments use) and report cost per MB of blob."""
    from repro.netproto.columnar import (
        columns_from_chunks, decode_chunk, encode_result_chunk)

    encode_ms, (blob, _) = timed_ms(
        lambda: encode_result_chunk(result, allow_dict=True), repeats)
    decode_ms, (row_count, columns) = timed_ms(lambda: decode_chunk(blob), repeats)

    def materialise() -> None:
        _, fresh = decode_chunk(blob)  # lazy columns cache; decode time is taken off
        for position, column in enumerate(fresh):
            columns_from_chunks(position, column.name, column.sql_type,
                                [fresh], row_count).to_numpy()

    materialise_ms, _ = timed_ms(materialise, repeats)
    megabytes = len(blob) / 1e6
    return {
        "netproto.columnar.encode_ms_per_mb": encode_ms / megabytes,
        "netproto.columnar.decode_ms_per_mb": decode_ms / megabytes,
        "netproto.columnar.materialise_ms_per_mb":
            max(materialise_ms - decode_ms, 0.0) / megabytes,
        "netproto.columnar.bytes_per_row": len(blob) / max(row_count, 1),
    }


def codec_probe(payload: bytes, password: str, repeats: int) -> dict[str, float]:
    """Compression and encryption cost per MB of ``payload``."""
    from repro.netproto import compression, encryption

    megabytes = len(payload) / 1e6
    compress_ms, packed = timed_ms(lambda: compression.compress(payload), repeats)
    decompress_ms, _ = timed_ms(lambda: compression.decompress(packed), repeats)
    encrypt_ms, sealed = timed_ms(lambda: encryption.encrypt(packed, password), repeats)
    decrypt_ms, _ = timed_ms(lambda: encryption.decrypt(sealed, password), repeats)
    packed_megabytes = len(packed) / 1e6
    return {
        "netproto.compression.compress_ms_per_mb": compress_ms / megabytes,
        "netproto.compression.decompress_ms_per_mb": decompress_ms / megabytes,
        "netproto.compression.ratio": len(payload) / max(len(packed), 1),
        "netproto.encryption.encrypt_ms_per_mb": encrypt_ms / packed_megabytes,
        "netproto.encryption.decrypt_ms_per_mb": decrypt_ms / packed_megabytes,
    }


def write_trace(path: Path, workload: str, seed: int, tracer: Tracer,
                metrics: dict[str, float]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = min((span["start"] for span in tracer.spans), default=0.0)
    spans = [dict(span, start=span["start"] - origin, end=span["end"] - origin)
             for span in sorted(tracer.spans, key=lambda item: item["id"])]
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "unit": "seconds since the first span",
        "layers": summarise_spans(tracer.spans),
        "per_layer_metrics": metrics,
        "spans": spans,
    }, indent=1))
