"""The interactive debugger (the paper's central IDE feature).

"IDEs are also attractive because they facilitate the usage of sophisticated
interactive debugging techniques, such as stepping through the code line by
line and pausing code execution.  However, these techniques cannot be used in
conjunction with UDFs because the RDBMS must be in control of the code flow
while the UDF is being executed." (§1)

Because devUDF executes the transformed UDF *locally*, the IDE's debugger can
attach.  The reproduction implements a scriptable interactive debugger as one
purpose-built :func:`sys.settrace` tracer (the hook pydevd and :mod:`bdb` also
build on): breakpoints, step over / into / out, pause-and-inspect locals,
watch expressions, and a recorded trace — everything the demo scenarios need
to locate their bugs.  Its cost follows the stops, not the lines executed:
only frames of the debugged file whose code holds a breakpoint see line
events, and a line that is no breakpoint costs one set lookup.
"""

from __future__ import annotations

import contextlib
import io
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import CodeType, FrameType
from typing import Any, Callable

from ..errors import DebugSessionError
from .runner import _exception_line, _working_directory

#: Commands a controller may issue at a stop (subset of the pydevd/PyCharm set).
STEP_INTO = "step"
STEP_OVER = "next"
STEP_OUT = "return"
CONTINUE = "continue"
QUIT = "quit"

_VALID_COMMANDS = {STEP_INTO, STEP_OVER, STEP_OUT, CONTINUE, QUIT}


@dataclass(frozen=True)
class Breakpoint:
    """A source breakpoint (file is implied: the debugged script)."""

    line: int
    condition: str | None = None


@dataclass
class StopPoint:
    """One pause of the debugger: where we are and what is visible."""

    index: int
    line: int
    function: str
    event: str  # "line" | "call" | "return" | "exception"
    locals: dict[str, Any] = field(default_factory=dict)
    watches: dict[str, Any] = field(default_factory=dict)
    is_breakpoint: bool = False

    def local(self, name: str, default: Any = None) -> Any:
        return self.locals.get(name, default)


@dataclass
class DebugOutcome:
    """The result of one debug session."""

    completed: bool
    result: Any = None
    stops: list[StopPoint] = field(default_factory=list)
    exception_type: str | None = None
    exception_message: str | None = None
    exception_line: int | None = None
    stdout: str = ""
    quit_requested: bool = False

    @property
    def breakpoint_stops(self) -> list[StopPoint]:
        return [stop for stop in self.stops if stop.is_breakpoint]

    def stops_at_line(self, line: int) -> list[StopPoint]:
        return [stop for stop in self.stops if stop.line == line]


#: A controller decides what to do at each stop.  It receives the stop and the
#: session and returns one of the command strings above.
Controller = Callable[[StopPoint, "DebugSession"], str]


def run_to_completion_controller(stop: StopPoint, session: "DebugSession") -> str:
    """Default controller: continue after every stop (breakpoints only pause)."""
    return CONTINUE


class ScriptedController:
    """Replays a fixed list of commands, then continues."""

    def __init__(self, commands: list[str]) -> None:
        unknown = [c for c in commands if c not in _VALID_COMMANDS]
        if unknown:
            raise DebugSessionError(f"unknown debugger commands: {unknown}")
        self.commands = list(commands)
        self._position = 0

    def __call__(self, stop: StopPoint, session: "DebugSession") -> str:
        if self._position < len(self.commands):
            command = self.commands[self._position]
            self._position += 1
            return command
        return CONTINUE


class StepUntilController:
    """Keeps stepping while ``predicate(stop)`` is False; stops the session once True.

    This is the programmatic equivalent of a developer stepping through the
    loop in Scenario A until they see the variable go wrong.
    """

    def __init__(self, predicate: Callable[[StopPoint], bool], *,
                 step_command: str = STEP_OVER, max_steps: int = 100000) -> None:
        self.predicate = predicate
        self.step_command = step_command
        self.max_steps = max_steps
        self.steps_taken = 0
        self.matched_stop: StopPoint | None = None

    def __call__(self, stop: StopPoint, session: "DebugSession") -> str:
        if self.predicate(stop):
            self.matched_stop = stop
            return QUIT
        self.steps_taken += 1
        if self.steps_taken >= self.max_steps:
            return QUIT
        return self.step_command


class _QuitSession(BaseException):
    """Raised by the tracer to unwind the debugged script after ``QUIT``."""


class DebugSession:
    """A scriptable interactive debug session over one generated UDF file."""

    RESULT_VARIABLE = "__devudf_result__"
    #: Local variables are snapshotted at each stop; values larger than this
    #: (in repr length) are replaced by a summary to keep traces small.
    MAX_VALUE_REPR = 2000

    def __init__(self, script_path: str | Path, *,
                 breakpoints: list[Breakpoint | int] | None = None,
                 controller: Controller | None = None,
                 watches: dict[str, str] | None = None,
                 working_directory: str | Path | None = None,
                 max_stops: int = 200000) -> None:
        self.script_path = Path(script_path)
        if not self.script_path.exists():
            raise DebugSessionError(f"script {self.script_path} does not exist")
        self.breakpoints = [
            bp if isinstance(bp, Breakpoint) else Breakpoint(line=int(bp))
            for bp in (breakpoints or [])
        ]
        self.controller: Controller = controller or run_to_completion_controller
        self.watches = dict(watches or {})
        self.working_directory = Path(working_directory) if working_directory \
            else self.script_path.parent
        self.max_stops = max_stops
        self._canonical_path = str(self.script_path.resolve())

    # ------------------------------------------------------------------ #
    # the tracer
    # ------------------------------------------------------------------ #
    def _make_tracer(self) -> Callable[[FrameType, str, Any], Any]:
        """Build the one trace function, installed globally and on the script's frames.

        A closure, because it runs once per traced line: a bound method would
        be re-created for every ``return`` of itself.
        """
        break_lines, break_codes = self._conditions, self._break_codes
        script = self._canonical_path

        def trace(frame: FrameType, event: str, arg: Any) -> Any:
            if event == "line":
                if frame.f_lineno in break_lines or self._stepping:
                    self._on_line(frame)
            elif event == "call":
                code = frame.f_code
                if code.co_filename != script:
                    return None
                if code not in break_codes and not (
                        self._stepping and self._stop_frame is None):
                    return None  # _pause arms it if a step comes back here
            elif event == "return":
                if self._stepping and (self._stops_in(frame)
                                       or frame is self._return_frame):
                    self._pause(frame, "return", False)
                if frame is self._stop_frame:
                    self._stop_frame = None  # stepped off the end: stop in the caller
            elif event == "exception":
                if self._stepping and self._stops_in(frame):
                    self._exception = (arg[0].__name__, str(arg[1]), frame.f_lineno)
            return trace

        return trace

    def _stops_in(self, frame: FrameType) -> bool:
        """While stepping: is ``frame`` one the current step command stops in?"""
        return self._stop_frame is None or frame is self._stop_frame

    def _on_line(self, frame: FrameType) -> None:
        is_breakpoint = False
        for condition in self._conditions.get(frame.f_lineno, ()):
            try:
                is_breakpoint = condition is None or bool(
                    eval(condition, frame.f_globals, frame.f_locals))  # noqa: S307
            except Exception:  # noqa: BLE001 - a broken condition stops, as in pdb
                is_breakpoint = True
            if is_breakpoint:
                break
        if is_breakpoint or (self._stepping and self._stops_in(frame)):
            self._pause(frame, "line", is_breakpoint)

    def _pause(self, frame: FrameType, event: str, is_breakpoint: bool) -> None:
        """Record a stop, ask the controller what to do and enter that mode."""
        command = QUIT
        if len(self._stops) < self.max_stops:
            stop = StopPoint(
                index=len(self._stops),
                line=frame.f_lineno,
                function=frame.f_code.co_name,
                event=event,
                locals=self._snapshot_locals(frame),
                watches=self._evaluate_watches(frame),
                is_breakpoint=is_breakpoint,
            )
            self._stops.append(stop)
            command = self.controller(stop, self)
            if command not in _VALID_COMMANDS:
                raise DebugSessionError(f"controller returned unknown command {command!r}")
        if command == QUIT:
            self._quit_requested = True
            raise _QuitSession
        self._stepping = command != CONTINUE
        self._stop_frame = self._return_frame = None  # STEP_INTO: stop in any frame
        if command == STEP_OVER:
            self._stop_frame = frame
        elif command == STEP_OUT:
            self._stop_frame, self._return_frame = frame.f_back, frame
        # Arm the script's live frames for the new mode: every line while
        # stepping, otherwise only code that holds a breakpoint.
        trace = frame.f_trace
        while frame is not None:
            if frame.f_code.co_filename == self._canonical_path:
                frame.f_trace = trace
                frame.f_trace_lines = self._stepping or frame.f_code in self._break_codes
            frame = frame.f_back

    def _snapshot_locals(self, frame: FrameType) -> dict[str, Any]:
        snapshot: dict[str, Any] = {}
        for name, value in frame.f_locals.items():
            if name.startswith("__") and name.endswith("__"):
                continue
            if isinstance(value, (int, float, str, bool, bytes, type(None))):
                snapshot[name] = value
            else:
                text = repr(value)
                if len(text) > self.MAX_VALUE_REPR:
                    text = text[: self.MAX_VALUE_REPR] + "...<truncated>"
                snapshot[name] = text
        return snapshot

    def _evaluate_watches(self, frame: FrameType) -> dict[str, Any]:
        results: dict[str, Any] = {}
        for label, expression in self.watches.items():
            try:
                results[label] = eval(expression, frame.f_globals, frame.f_locals)  # noqa: S307
            except Exception as exc:  # noqa: BLE001 - watch errors are data
                results[label] = f"<error: {type(exc).__name__}: {exc}>"
        return results

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #
    def _set_breakpoints(self, code: CodeType) -> None:
        """Index this session's breakpoints against the compiled script."""
        self._conditions: dict[int, list[str | None]] = {}
        for breakpoint_spec in self.breakpoints:
            self._conditions.setdefault(breakpoint_spec.line, []) \
                .append(breakpoint_spec.condition)
        self._break_codes: set[CodeType] = set()
        executable: set[int] = set()
        pending = [code]  # the module and every function/comprehension nested in it
        while pending:
            nested = pending.pop()
            pending += [c for c in nested.co_consts if isinstance(c, CodeType)]
            lines = {line for _, _, line in nested.co_lines() if line}
            executable |= lines
            if not lines.isdisjoint(self._conditions):
                self._break_codes.add(nested)
        for line in self._conditions:
            if line not in executable:
                raise DebugSessionError(
                    f"cannot set breakpoint: line {line} of {self.script_path} "
                    "is not an executable line"
                )

    def run(self) -> DebugOutcome:
        """Run the script under the debugger and return the recorded outcome."""
        source = self.script_path.read_text(encoding="utf-8")
        code = compile(source, self._canonical_path, "exec")
        namespace: dict[str, Any] = {"__name__": "__main__",
                                     "__file__": self._canonical_path}
        self._set_breakpoints(code)
        self._stops: list[StopPoint] = []
        self._quit_requested = False
        self._exception: tuple[str, str, int | None] | None = None
        # When there are no breakpoints, start in stepping mode so the
        # controller is consulted from the first line (that is what a
        # developer pressing "Step Into" on the Debug action gets).
        self._stepping = not self.breakpoints
        #: while stepping: the only frame to stop in (None: any), and the
        #: frame whose return ends a step-out
        self._stop_frame: FrameType | None = None
        self._return_frame: FrameType | None = None

        stdout = io.StringIO()
        previous_trace = sys.gettrace()
        exception: BaseException | None = None
        with _working_directory(self.working_directory), contextlib.redirect_stdout(stdout):
            sys.settrace(self._make_tracer())
            try:
                exec(code, namespace)  # noqa: S102 - debugging the UDF is the feature
            except _QuitSession:
                pass
            except DebugSessionError:
                raise
            except BaseException as exc:  # noqa: BLE001 - reported in the outcome
                exception = exc
            finally:
                sys.settrace(previous_trace)
                self._stop_frame = self._return_frame = None

        outcome = DebugOutcome(
            completed=exception is None and not self._quit_requested,
            result=namespace.get(self.RESULT_VARIABLE),
            stops=self._stops,
            stdout=stdout.getvalue(),
            quit_requested=self._quit_requested,
        )
        if exception is not None:
            outcome.exception_type = type(exception).__name__
            outcome.exception_message = str(exception)
            outcome.exception_line = _exception_line(exception, self._canonical_path)
        elif self._exception is not None and not outcome.completed:
            outcome.exception_type, outcome.exception_message, outcome.exception_line = \
                self._exception
        return outcome


def debug_file(script_path: str | Path, *, breakpoints: list[int] | None = None,
               watches: dict[str, str] | None = None,
               controller: Controller | None = None,
               working_directory: str | Path | None = None) -> DebugOutcome:
    """Convenience wrapper: build a session and run it."""
    session = DebugSession(
        script_path,
        breakpoints=list(breakpoints or []),
        watches=watches,
        controller=controller,
        working_directory=working_directory,
    )
    return session.run()
