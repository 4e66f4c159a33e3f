"""Local execution of transformed UDF files.

Running the generated file (Listing 2) executes the UDF "locally on the
developers' machine instead of remotely inside the database server" (§2.1).
The runner executes a generated file in-process — which is what allows the
interactive debugger to attach — captures its printed output, the value the
trailing call produced, and any exception with its location.
"""

from __future__ import annotations

import contextlib
import io
import os
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import CodeType
from typing import Any, Callable

from ..errors import DebugSessionError


@dataclass
class RunResult:
    """What happened when a generated UDF file was executed locally."""

    path: Path
    completed: bool
    result: Any = None
    stdout: str = ""
    exception: BaseException | None = None
    exception_type: str | None = None
    exception_message: str | None = None
    exception_line: int | None = None
    traceback_text: str = ""
    globals: dict[str, Any] = field(default_factory=dict, repr=False)

    @property
    def failed(self) -> bool:
        return not self.completed


@contextlib.contextmanager
def _working_directory(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


#: Name of the variable the generated trailing call assigns its result to.
RESULT_VARIABLE = "__devudf_result__"


def execute_script(script: Path, working_directory: str | Path | None = None, *,
                   extra_globals: dict[str, Any] | None = None,
                   build: Callable[[str, str, dict[str, Any]], CodeType] | None = None,
                   run: Callable[[CodeType, dict[str, Any]], None] = exec) -> RunResult:
    """Read, compile and execute one generated file: the path Run and Debug share.

    ``build(source, filename, namespace)`` returns the code to execute (the
    debugger compiles its breakpoints in there) and ``run(code, namespace)``
    executes it (the debugger installs its tracer around that).  A
    :class:`DebugSessionError` from either is the caller's and propagates;
    everything else the script raises is reported in the result.
    """
    if not script.exists():
        raise DebugSessionError(f"script {script} does not exist")
    filename = str(script)
    namespace: dict[str, Any] = {"__name__": "__main__", "__file__": filename,
                                 **(extra_globals or {})}
    source = script.read_text(encoding="utf-8")
    try:
        code = build(source, filename, namespace) if build \
            else compile(source, filename, "exec")
    except SyntaxError as exc:
        return RunResult(
            path=script, completed=False, exception=exc,
            exception_type="SyntaxError", exception_message=str(exc),
            exception_line=exc.lineno, traceback_text=traceback.format_exc(),
        )
    stdout = io.StringIO()
    try:
        with _working_directory(Path(working_directory or script.parent)), \
                contextlib.redirect_stdout(stdout):
            run(code, namespace)  # noqa: S102 - running the generated UDF is the feature
    except DebugSessionError:
        raise
    except BaseException as exc:  # noqa: BLE001 - reported to the developer
        return RunResult(
            path=script, completed=False, stdout=stdout.getvalue(),
            exception=exc, exception_type=type(exc).__name__,
            exception_message=str(exc), exception_line=_exception_line(exc, filename),
            traceback_text=traceback.format_exc(), globals=namespace,
        )
    return RunResult(
        path=script, completed=True, result=namespace.get(RESULT_VARIABLE),
        stdout=stdout.getvalue(), globals=namespace,
    )


class LocalUDFRunner:
    """Executes generated UDF files in-process (the plain 'Run' action)."""

    def run_file(self, path: str | Path, *, working_directory: str | Path | None = None,
                 extra_globals: dict[str, Any] | None = None) -> RunResult:
        """Execute one generated file and capture the outcome."""
        return execute_script(Path(path), working_directory, extra_globals=extra_globals)


def _exception_line(exc: BaseException, script_path: str) -> int | None:
    """The last line number inside the script where the exception passed through."""
    line = None
    for frame, lineno in traceback.walk_tb(exc.__traceback__):
        if frame.f_code.co_filename == script_path:
            line = lineno
    return line
