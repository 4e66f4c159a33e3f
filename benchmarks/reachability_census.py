#!/usr/bin/env python3
"""Reachability census: the ``src/`` definitions no user path reaches.

    python3 benchmarks/reachability_census.py

Runs every user path of the repository with a profile hook that records each
``src/`` code object entered, in every process and thread:

* the four end-to-end workloads at ``--smoke --trace 1`` (the server child
  included: the harness forwards ``PYTHONPATH``, so the generated
  ``sitecustomize.py`` loads there too and dumps on SIGTERM),
* ``examples/*.py``,
* every CLI verb, against a demo server,
* the paper benchmarks, ``benchmarks/test_bench_*.py``.

A function or method is a *candidate* when no path entered it and no ``src/``
code names it: an ``__init__`` re-export or an ``__all__`` entry is not a
use, and the ``_eval_<Node>`` methods, found by ``getattr``, are never
candidates.  Every candidate must either go or appear in ARCHITECTURE.md's
"Kept without a product caller" table with the user-facing API it serves.
The script prints the candidates and exits 1 if one is not in that table.
"""

from __future__ import annotations

import ast
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
KEEP_HEADING = "Kept without a product caller"
#: methods looked up by name: ``ExpressionEvaluator`` dispatches on the node type
DISPATCH_PREFIXES = ("_eval_",)
E2E_WORKLOADS = ("devudf_full", "devudf_sampled", "sql_serve", "durable_cycle")
STEP_TIMEOUT_S = 600

SITECUSTOMIZE = '''\
"""Generated by reachability_census.py: records every src/ code object entered."""
import atexit, json, os, signal, sys, threading, time

_SRC = {src!r}
_OUT = {out!r}
_START = time.time_ns()
_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    entered = sorted({{(code.co_filename, code.co_firstlineno) for code in list(_seen)
                      if code.co_filename.startswith(_SRC)}})
    path = os.path.join(_OUT, f"{{os.getpid()}}-{{_START}}.json")
    with open(path, "w") as handle:
        json.dump(entered, handle)


def _dump_and_die(signum, frame):
    _dump()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


sys.setprofile(_profile)
threading.setprofile(_profile)
atexit.register(_dump)
signal.signal(signal.SIGTERM, _dump_and_die)
'''


@dataclass(frozen=True)
class Definition:
    """One ``def`` in ``src/``: where it starts, as its code object reports it."""

    path: Path
    module: str  # dotted, relative to the package root
    first_line: int  # the first decorator's line, like ``co_firstlineno``
    last_line: int
    name: str
    qualname: str

    @property
    def label(self) -> str:
        return f"{self.module}.{self.qualname}"

    @property
    def lines(self) -> int:
        return self.last_line - self.first_line + 1


# --------------------------------------------------------------------------- #
# the static pass
# --------------------------------------------------------------------------- #
def definitions(root: Path) -> list[Definition]:
    """Every function and method under ``root``, nested ones included."""
    found: list[Definition] = []

    def visit(node: ast.AST, path: Path, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                found.append(Definition(path, module, first, child.end_lineno,
                                        child.name, qualname))
                visit(child, path, module, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, module, prefix + child.name + ".")
            else:
                visit(child, path, module, prefix)

    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        visit(ast.parse(path.read_text(), str(path)), path,
              module.removesuffix(".__init__"), "")
    return found


def referenced_names(root: Path) -> set[str]:
    """Every name ``src/`` code uses, apart from re-exports and ``__all__``."""
    names: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        reexports = path.name == "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and not reexports:
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("getattr", "hasattr", "setattr")
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                names.add(str(node.args[1].value))
    return names


def kept_labels(architecture: Path) -> set[str]:
    """The first cell of each row under the "Kept without a product caller" heading."""
    labels: set[str] = set()
    inside = False
    for line in architecture.read_text().splitlines():
        if line.startswith("#"):
            inside = KEEP_HEADING in line
        elif inside and line.startswith("|"):
            match = re.match(r"\|\s*`([^`]+)`", line)
            if match:
                labels.add(match.group(1))
    return labels


def candidates(root: Path, entered: set[tuple[str, int]]) -> list[Definition]:
    used = referenced_names(root)
    return [definition for definition in definitions(root)
            if (str(definition.path), definition.first_line) not in entered
            and definition.name not in used
            and not definition.name.startswith(DISPATCH_PREFIXES)
            and not (definition.name.startswith("__") and definition.name.endswith("__"))]


# --------------------------------------------------------------------------- #
# the user paths
# --------------------------------------------------------------------------- #
def _run(label: str, command: list[str], env: dict[str, str], cwd: Path,
         expect: str | None = None) -> None:
    started = time.perf_counter()
    completed = subprocess.run(command, env=env, cwd=cwd, capture_output=True, text=True,
                               timeout=STEP_TIMEOUT_S, stdin=subprocess.DEVNULL)
    print(f"  {label}: exit {completed.returncode} in {time.perf_counter() - started:.1f}s",
          file=sys.stderr)
    if completed.returncode != 0 or (expect is not None and expect not in completed.stdout):
        raise RuntimeError(f"user path {label!r} failed:\n"
                           f"{completed.stdout[-2000:]}\n{completed.stderr[-2000:]}")


def _e2e(env: dict[str, str], work: Path) -> None:
    for workload in E2E_WORKLOADS:
        _run(f"e2e {workload}", [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
                                 "--seed", "1", "--seconds", "1", "--smoke", "--trace", "1"],
             env, ROOT, expect='"correct": true')


def _examples(env: dict[str, str], work: Path) -> None:
    for script in sorted((ROOT / "examples").glob("*.py")):
        _run(f"example {script.name}", [sys.executable, str(script)], env, work)


def _cli(env: dict[str, str], work: Path) -> None:
    cli = [sys.executable, "-m", "repro.cli"]
    log = work / "demo-server.log"
    with open(log, "w") as handle:
        server = subprocess.Popen(
            cli + ["demo-server", "--csv-dir", str(work / "csv"), "--db", str(work / "demo.db"),
                   "--block"],
            env=env, cwd=work, stdout=handle, stderr=subprocess.STDOUT)
    try:
        deadline = time.monotonic() + 60
        while not (match := re.search(r"listening on ([\d.]+):(\d+)", log.read_text())):
            if server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"demo-server did not start:\n{log.read_text()[-2000:]}")
            time.sleep(0.05)
        host, port = match.groups()
        project = ["--project", str(work / "cli_project")]
        verbs = [
            ["configure", *project, "--host", host, "--port", port, "--database", "demo",
             "--username", "monetdb", "--password", "monetdb",
             "--debug-query", "SELECT mean_deviation(i) FROM numbers"],
            ["list", *project],
            ["import", *project, "mean_deviation"],
            ["debug", *project, "--udf", "mean_deviation", "--breakpoint-text", "distance",
             "--watch", "distance"],
            ["debug", *project, "--udf", "mean_deviation", "--run-only"],
            ["export", *project, "mean_deviation"],
            ["history", *project],
            ["table1"],
        ]
        for verb in verbs:
            _run(f"cli {verb[0]}", cli + verb, env, work)
    finally:
        server.send_signal(signal.SIGINT)  # Ctrl-C: the clean, checkpointing stop
        server.wait(timeout=STEP_TIMEOUT_S)


def _paper_benchmarks(env: dict[str, str], work: Path) -> None:
    benches = sorted(str(path) for path in (ROOT / "benchmarks").glob("test_bench_*.py"))
    _run("benchmarks/test_bench_*.py",
         [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
          "--benchmark-disable", *benches], env, ROOT)


USER_PATHS = (_e2e, _examples, _cli, _paper_benchmarks)


def tracing_env(work: Path, package: Path = PACKAGE) -> dict[str, str]:
    """The environment under which every Python process records the code
    objects under ``package`` it enters, into ``work / "entered"``."""
    site, out, tmp = work / "site", work / "entered", work / "tmp"
    for directory in (site, out, tmp):
        directory.mkdir()
    (site / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(src=str(package) + os.sep, out=str(out)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(site), str(SRC)]
                                        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(tmp)  # what the examples and workloads leave behind goes with ``work``
    return env


def entered_code(work: Path) -> set[tuple[str, int]]:
    """(file, first line) of every code object the traced processes entered."""
    entered: set[tuple[str, int]] = set()
    for dump in (work / "entered").glob("*.json"):
        entered.update((path, line) for path, line in json.loads(dump.read_text()))
    return entered


def trace_user_paths(work: Path) -> set[tuple[str, int]]:
    env = tracing_env(work)
    for user_path in USER_PATHS:
        user_path(env, work)
    return entered_code(work)


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reachability_census_") as work:
        entered = trace_user_paths(Path(work))
    found = candidates(PACKAGE, entered)
    kept = kept_labels(ROOT / "ARCHITECTURE.md")
    unlisted = [definition for definition in found if definition.label not in kept]
    print(f"{len(definitions(PACKAGE))} definitions in src/, {len(entered)} code objects "
          f"entered by a user path, {len(found)} candidates "
          f"({sum(d.lines for d in found)} lines), {len(found) - len(unlisted)} of them kept "
          f"in ARCHITECTURE.md ({time.perf_counter() - started:.0f}s)")
    for definition in found:
        status = "UNLISTED" if definition in unlisted else "kept"
        print(f"  {status:8} {definition.label}  "
              f"({definition.path.relative_to(ROOT)}:{definition.first_line}, "
              f"{definition.lines} lines)")
    for label in sorted(kept - {definition.label for definition in found}):
        print(f"  stale    {label}: listed in ARCHITECTURE.md but no longer a candidate")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
