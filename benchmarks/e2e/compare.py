"""Sets of runs, and the rule that compares two of them.

    python3 benchmarks/e2e/run.py set --out base.json [--runs 10] [--workloads a,b]
    python3 benchmarks/e2e/run.py compare base.json new.json
    python3 benchmarks/e2e/run.py selfcheck [--runs 1]

``set`` runs every workload ``--runs`` times, each run a fresh process with
its own seed — exactly as the driver does — and prints the run-to-run spread of
every end-to-end metric (quartile distance as a share of the median) beside
its bound.  ``compare`` prints one row per workload x end-to-end metric and
exits non-zero on any ``worse`` or any rise in the share of failed ops.
``selfcheck`` makes two sets on the current tree and compares them: two sets
of runs of the same code have to agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import HERE, ROOT, WORK, load_contract

RUN_TIMEOUT_S = 180.0


# --------------------------------------------------------------------------- #
# making a set of runs
# --------------------------------------------------------------------------- #
def run_set(workloads: list[str], runs: int, seconds: float, first_seed: int,
            smoke: bool) -> dict:
    results = []
    for workload in workloads:
        for seed in range(first_seed, first_seed + runs):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            if smoke:
                command.append("--smoke")
            started = time.perf_counter()
            done = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                                  text=True, timeout=RUN_TIMEOUT_S)
            wall = time.perf_counter() - started
            if done.returncode != 0:
                raise RuntimeError(f"{' '.join(command)} exited "
                                   f"{done.returncode}:\n{done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            results.append({"workload": workload, "seed": seed, "wall_s": wall,
                            "result": result})
            print(f"  {workload} seed={seed} wall={wall:.1f}s "
                  f"ops={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
    return {"seconds": seconds, "smoke": smoke, "runs": results}


def _values(run_set_: dict, workload: str, metric: str) -> list[float]:
    return [run["result"]["metrics"][metric]["value"] for run in run_set_["runs"]
            if run["workload"] == workload]


def _workloads(run_set_: dict) -> list[str]:
    return list(dict.fromkeys(run["workload"] for run in run_set_["runs"]))


def spread(values: list[float]) -> float | None:
    """Distance between the first and third quartile as a share of the median;
    unknown (None) for fewer than two runs."""
    if len(values) < 2:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else None


def failed_share(run_set_: dict, workload: str) -> float:
    runs = [run["result"] for run in run_set_["runs"] if run["workload"] == workload]
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def print_spreads(run_set_: dict) -> None:
    print(f"{'workload':<16}{'metric':<18}{'median':>14}{'spread':>9}{'bound':>8}"
          "  spread <= bound/3")
    metrics = load_contract()["end_to_end"]
    for workload in _workloads(run_set_):
        for metric in metrics:
            values = _values(run_set_, workload, metric["name"])
            share = spread(values)
            verdict = "n/a" if share is None else \
                ("yes" if share <= metric["bound"] / 3 else "NO")
            print(f"{workload:<16}{metric['name']:<18}"
                  f"{statistics.median(values):>14.4f}"
                  f"{'n/a' if share is None else f'{share:.2%}':>9}"
                  f"{metric['bound']:>8.0%}  {verdict}")


# --------------------------------------------------------------------------- #
# comparing two sets
# --------------------------------------------------------------------------- #
def verdict_for(base: list[float], new: list[float], better: str,
                bound: float) -> tuple[str, float, float | None]:
    """``(verdict, new/base, widest spread)`` for one metric on one workload.

    ``worse``: the new median is worse than the base median by more than the
    bound.  ``unresolved``: the run-to-run spread of either side is wider than
    the bound, so neither ``same`` nor ``worse`` can be told.  ``better``: the
    new median is better by more than the base's own spread.
    """
    base_median, new_median = statistics.median(base), statistics.median(new)
    ratio = new_median / base_median if base_median else float("inf")
    worsening = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    spreads = [share for share in (spread(base), spread(new)) if share is not None]
    widest = max(spreads) if spreads else None
    if widest is not None and widest > bound:
        return "unresolved", ratio, widest
    if worsening > bound:
        return "worse", ratio, widest
    if -worsening > max(spread(base) or 0.0, 1e-12):
        return "better", ratio, widest
    return "same", ratio, widest


def compare_sets(base: dict, new: dict) -> int:
    bad = 0
    metrics = load_contract()["end_to_end"]
    print(f"{'workload':<16}{'metric':<18}{'base':>14}{'new':>14}"
          f"{'new/base':>10}{'bound':>7}{'spread':>9}  verdict")
    for workload in _workloads(base):
        if workload not in _workloads(new):
            print(f"{workload:<16}missing from the new set")
            bad += 1
            continue
        for metric in metrics:
            base_values = _values(base, workload, metric["name"])
            new_values = _values(new, workload, metric["name"])
            verdict, ratio, widest = verdict_for(
                base_values, new_values, metric["better"], metric["bound"])
            bad += verdict == "worse"
            print(f"{workload:<16}{metric['name']:<18}"
                  f"{statistics.median(base_values):>14.4f}"
                  f"{statistics.median(new_values):>14.4f}{ratio:>10.4f}"
                  f"{metric['bound']:>7.0%}"
                  f"{'n/a' if widest is None else f'{widest:.2%}':>9}  {verdict}")
        base_failed, new_failed = failed_share(base, workload), failed_share(new, workload)
        rose = new_failed > base_failed
        bad += rose
        print(f"{workload:<16}{'failed_share':<18}{base_failed:>14.4f}"
              f"{new_failed:>14.4f}{'':>10}{'0':>7}{'':>9}  "
              f"{'worse' if rose else 'same'}")
    print("ratios are new/base of the medians; spread is the wider side's "
          "quartile distance over its median")
    return 1 if bad else 0


# --------------------------------------------------------------------------- #
# command line
# --------------------------------------------------------------------------- #
def main(argv: list[str]) -> int:
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for command in ("set", "selfcheck"):
        sub = commands.add_parser(command)
        sub.add_argument("--runs", type=int, default=10 if command == "set" else 1)
        sub.add_argument("--seconds", type=float, default=contract["run_seconds"])
        sub.add_argument("--first-seed", type=int, default=1)
        sub.add_argument("--workloads", default=",".join(names))
        sub.add_argument("--smoke", action="store_true")
        if command == "set":
            sub.add_argument("--out", required=True)
    sub = commands.add_parser("compare")
    sub.add_argument("base")
    sub.add_argument("new")
    args = parser.parse_args(argv)

    if args.command == "compare":
        return compare_sets(json.loads(Path(args.base).read_text()),
                            json.loads(Path(args.new).read_text()))
    workloads = [name for name in args.workloads.split(",") if name]
    if args.command == "set":
        made = run_set(workloads, args.runs, args.seconds, args.first_seed, args.smoke)
        Path(args.out).write_text(json.dumps(made, indent=1))
        print_spreads(made)
        return 0
    # selfcheck: the second set uses other seeds, as the driver's second set does
    sets = []
    for offset in (0, args.runs):
        sets.append(run_set(workloads, args.runs, args.seconds,
                            args.first_seed + offset, args.smoke))
    WORK.mkdir(exist_ok=True)
    for label, made in zip(("base", "new"), sets):
        (WORK / f"selfcheck_{label}.json").write_text(json.dumps(made, indent=1))
    return compare_sets(*sets)
