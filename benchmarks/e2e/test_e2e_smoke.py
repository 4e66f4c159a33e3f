"""Smoke test of the end-to-end benchmark (collected by the tier-1 run).

Runs the command of ``BENCHMARK.json`` the way the driver does — a fresh
process per run — at ``--smoke`` sizes: all four workloads untraced and one
traced.  It checks the harness (metric names, units, the oracle, span
structure, child and temp-directory lifecycle), not performance.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_e2e"
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def run_benchmark(*arguments: str, cwd: Path = ROOT,
                  script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *arguments], cwd=str(cwd),
                          capture_output=True, text=True, timeout=150)


def run_workload(workload: str, trace: int) -> dict:
    done = run_benchmark("--workload", workload, "--seed", "7", "--seconds", "0.3",
                         "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])


def surviving_server_children() -> list[str]:
    survivors = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            text = cmdline.read_bytes().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue  # the process ended while we were looking
        if "repro.netproto.server" in text and str(WORK) in text:
            survivors.append(text)
    return survivors


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run_workload(workload, trace=0)
    assert_metrics(result, CONTRACT["end_to_end"])
    for name, emitted in result["metrics"].items():
        assert emitted["value"] > 0, f"{name} must never be 0"
    assert not surviving_server_children()
    assert not list(WORK.glob("run-*")), "a work directory was left behind"


def test_traced_run_emits_every_per_layer_metric_and_a_sound_trace():
    result = run_workload("devudf_sampled", trace=1)
    assert_metrics(result, CONTRACT["per_layer"])
    assert result["metrics"]["bench.trace_overhead_ratio"]["value"] > 0
    assert result["metrics"]["core.extract.rows_extracted"]["value"] == 400

    trace = json.loads((WORK / "trace_devudf_sampled.json").read_text())
    spans = {span["id"]: span for span in trace["spans"]}
    assert len(spans) == len(trace["spans"]) > 0
    roots = [span for span in spans.values() if span["name"] == "op"]
    assert roots and all(span["parent"] is None for span in roots)
    for span in spans.values():
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]  # every parent resolves
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert span["op"] == parent["op"]
    assert "core.debugger.debug_udf" in trace["layers"]
    assert not surviving_server_children()


def test_refuses_to_run_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("--workload", "durable_cycle", "--seed", "1", "--seconds",
                         "0.3", "--trace", "0", cwd=tmp_path,
                         script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()


def _run_set(latency_ms: list[float], failed: int = 0) -> dict:
    metrics = {metric["name"]: {"value": 1.0, "unit": metric["unit"]}
               for metric in CONTRACT["end_to_end"]}
    runs = []
    for seed, value in enumerate(latency_ms):
        run_metrics = dict(metrics, latency_p50_ms={"value": value, "unit": "ms"})
        runs.append({"workload": "sql_serve", "seed": seed, "wall_s": 1.0,
                     "result": {"correct": not failed, "attempted": 100,
                                "failed": failed, "metrics": run_metrics}})
    return {"seconds": 1, "smoke": True, "runs": runs}


P50_BOUND = next(metric["bound"] for metric in CONTRACT["end_to_end"]
                 if metric["name"] == "latency_p50_ms")
BASE = [100.0, 101.0, 99.0, 100.0]


def _scaled(factor: float) -> list[float]:
    return [value * factor for value in BASE]


@pytest.mark.parametrize("new, failed, verdict, exit_code", [
    (BASE, 0, "same", 0),
    (_scaled(1 + P50_BOUND + 0.1), 0, "worse", 1),
    (_scaled(1 - P50_BOUND), 0, "better", 0),
    # run-to-run spread wider than the bound: cannot be told apart
    ([100.0, 100.0 * (1 + 3 * P50_BOUND), 100.0 / (1 + 3 * P50_BOUND), 100.0],
     0, "unresolved", 0),
    (BASE, 1, "same", 1),  # nothing slower, but the failed share rose
])
def test_compare_verdicts(tmp_path, new, failed, verdict, exit_code):
    (tmp_path / "base.json").write_text(json.dumps(_run_set(BASE)))
    (tmp_path / "new.json").write_text(json.dumps(_run_set(new, failed)))
    done = run_benchmark("compare", str(tmp_path / "base.json"),
                         str(tmp_path / "new.json"))
    assert done.returncode == exit_code, done.stdout + done.stderr
    row = next(line for line in done.stdout.splitlines()
               if line.startswith("sql_serve") and "latency_p50_ms" in line)
    assert row.split()[-1] == verdict
