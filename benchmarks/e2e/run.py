#!/usr/bin/env python3
"""End-to-end benchmark of this repository — the command in ``BENCHMARK.json``.

    python3 benchmarks/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs one workload as a closed loop for ``--seconds``, checks every op against
an oracle and prints one JSON object as the last line of stdout: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(a separate, traced run; see README.md).  ``set``, ``compare`` and
``selfcheck`` as the first argument are handled by ``compare.py``.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

import harness
from harness import ROOT

SETUP_REPEATS = 3


def build_workload(name: str):
    from wl_devudf import TRANSFER, DevUDFLoop
    from wl_durable import DurableCycle
    from wl_sql_serve import SqlServe

    if name in TRANSFER:
        return DevUDFLoop(name)
    return {"sql_serve": SqlServe, "durable_cycle": DurableCycle}[name]()


def run(args: argparse.Namespace) -> dict:
    contract = harness.load_contract()
    units = {metric["name"]: metric["unit"]
             for metric in contract["end_to_end"] + contract["per_layer"]}
    environment = harness.environment()
    cleanup = harness.Cleanup()
    atexit.register(cleanup.run)
    harness.install_sigterm_exit()
    workdir = harness.WORK / f"run-{os.getpid()}"
    cleanup.add_directory(workdir)
    workload = build_workload(args.workload)
    tracer = harness.Tracer(enabled=bool(args.trace))
    try:
        # set-up is timed several times and the median reported, so one slow
        # start of the server child does not read as a set-up regression; a
        # traced run does not report set-up time and sets up once
        setup_seconds = []
        repeats = 1 if args.smoke or args.trace else SETUP_REPEATS

        def read_canary() -> list[float]:
            return [harness.host_canary_ms()
                    for _ in range(harness.SETUP_CANARY_READINGS)]

        for attempt in range(repeats):
            attempt_dir = workdir / f"setup-{attempt}"
            attempt_dir.mkdir(parents=True)
            canary_ms = read_canary()
            started = time.perf_counter()
            workload.setup(args.seed, attempt_dir, cleanup, args.smoke)
            clocked = time.perf_counter() - started
            factor = harness.host_speed_factor(canary_ms + read_canary())
            setup_seconds.append({"clocked_s": clocked, "setup_s": clocked * factor})
            if attempt + 1 < repeats:
                workload.teardown()
                # a Database is cyclic garbage: without this, peak RSS would
                # count as many loaded copies as the collector happened to leave
                gc.collect()
        gc.collect()
        gc.freeze()  # set-up garbage is not the timed ops' to collect

        child = workload.server_child()
        child_cpu_before = child.cpu_seconds() if child else 0.0
        records = harness.run_closed_loop(workload, args.seconds, tracer)
        peak_rss_mb = harness.self_peak_rss_mb() + (child.peak_rss_mb() if child else 0.0)

        attempted = len(records)
        good = [record for record in records if record.ok]
        failed = attempted - len(good)
        detail = {
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke,
            "loop": f"closed loop, {workload.clients} client(s)",
            "op": workload.op_definition,
            "environment": environment,
            "attempted": attempted, "failed": failed,
            "errors": sorted({record.error for record in records if record.error})[:5],
            "setup_seconds": setup_seconds,
        }

        if args.trace:
            values = workload.layer_metrics(records, tracer, args.smoke)
            values.update(_bench_layer_metrics(workload, records, tracer))
            declared = [metric["name"] for metric in contract["per_layer"]]
            unknown = sorted(set(values) - set(declared))
            if unknown:
                raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
            # a layer that is not on this workload's path reports 0
            metrics = {name: float(values.get(name, 0.0)) for name in declared}
            trace_path = harness.WORK / f"trace_{workload.name}.json"
            harness.write_trace(trace_path, workload.name, args.seed, tracer, metrics)
            detail["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            metrics = _end_to_end_metrics(workload, records, good, args.seconds,
                                          setup_seconds, child_cpu_before,
                                          peak_rss_mb, detail)
            detail["latency_samples"] = len(good)
            detail["ops_client_started_s_latency_ms_canary_ms"] = [
                [record.client, round(record.started_s, 4),
                 round(record.latency_s * 1e3, 3), round(record.canary_ms, 4)]
                for record in good]
        workload.teardown()
    finally:
        cleanup.run()

    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    detail["result"] = result
    out = Path(args.out) if args.out else \
        harness.WORK / f"result_{workload.name}_trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(detail, indent=1))
    return result


def _end_to_end_metrics(workload, records, good, seconds, setup_seconds,
                        child_cpu_before, peak_rss_mb, detail) -> dict[str, float]:
    timings, clocked = harness.windowed_timings(records, seconds, workload.clients,
                                                child_cpu_before)
    detail["as_clocked"] = clocked
    io_bytes = [sum(workload.io_bytes(record.kept)) for record in good]
    return {
        "setup_s": statistics.median(item["setup_s"] for item in setup_seconds),
        "ops_per_s": timings["ops_per_s"],
        "latency_p50_ms": timings["latency_p50_ms"],
        "latency_p90_ms": timings["latency_p90_ms"],
        "cpu_ms_per_op": timings["cpu_ms_per_op"],
        "peak_rss_mb": peak_rss_mb,
        "io_bytes_per_op": statistics.fmean(io_bytes) if io_bytes else 0.0,
    }


def _bench_layer_metrics(workload, records, tracer) -> dict[str, float]:
    good = [record for record in records if record.ok]
    traced = [record.latency_s for record in good if record.traced]
    untraced = [record.latency_s for record in good if not record.traced]
    wire, disk = zip(*(workload.io_bytes(record.kept) for record in good)) \
        if good else ((0,), (0,))
    return {
        "bench.trace_overhead_ratio":
            harness.median(traced) / harness.median(untraced) if untraced else 0.0,
        "bench.attributed_share": harness.attributed_share(tracer.spans),
        "bench.host_canary_ms": harness.median(
            [record.canary_ms for record in records if record.canary_ms]),
        "netproto.client.wire_bytes_per_op": statistics.fmean(wire),
        "sqldb.persist.disk_bytes_per_op": statistics.fmean(disk),
    }


def main(argv: list[str]) -> int:
    if argv and argv[0] in ("set", "compare", "selfcheck"):
        import compare

        return compare.main(argv)
    workloads = [workload["name"] for workload in harness.load_contract()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny tables and one set-up: checks the harness, "
                             "measures nothing worth keeping")
    parser.add_argument("--out", default=None,
                        help="where to write the detailed result "
                             "(default: .bench_e2e/result_<workload>_trace<t>.json)")
    args = parser.parse_args(argv)
    if not (harness.SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {harness.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))  # the workloads import the program
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
