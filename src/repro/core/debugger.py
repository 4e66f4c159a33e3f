"""The interactive debugger (the paper's central IDE feature).

"IDEs are also attractive because they facilitate the usage of sophisticated
interactive debugging techniques, such as stepping through the code line by
line and pausing code execution.  However, these techniques cannot be used in
conjunction with UDFs because the RDBMS must be in control of the code flow
while the UDF is being executed." (§1)

Because devUDF executes the transformed UDF *locally*, the IDE's debugger can
attach.  The reproduction implements a scriptable interactive debugger:
breakpoints, step over / into / out, pause-and-inspect locals, watch
expressions, and a recorded trace — everything the demo scenarios need to
locate their bugs.  Its cost follows the stops, not the lines executed:

* A breakpoint is *compiled into the script*.  The script is parsed once and a
  call to the session's hook is inserted in front of the breakpoint's
  statement, same ``lineno`` (what PyCharm's frame-evaluation debugger does to
  the code object).  ``Continue`` then runs the script with no trace function
  installed at all; the hook evaluates the condition and handles the stop.
* Stepping, and the breakpoint lines a call cannot stand for because their line
  event fires more than once per statement (see :func:`_hook_sites`), use one
  purpose-built :func:`sys.settrace` tracer (the hook pydevd and :mod:`bdb`
  also build on), installed only while one of them needs it.  It sees line
  events only in frames the developer is stepping through and in code objects
  that hold such a line, where a line that is no breakpoint costs one set
  lookup.

Both paths decide a stop in :meth:`DebugSession._on_line` and record it in
:meth:`DebugSession._pause`, so a stop looks the same whichever reached it.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import CodeType, FrameType
from typing import Any, Callable, Iterator

import numpy as np

from ..errors import DebugSessionError
from .runner import RESULT_VARIABLE, execute_script

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


#: The global the instrumented script calls at a compiled-in breakpoint (the
#: session lengthens it until the script's text does not spell it).
HOOK_NAME = "__devudf_break__"

#: Statements whose line event fires exactly once per execution when their
#: header sits on one line: a hook call in front of one is that line event.
_FIRES_ONCE = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.Return,
               ast.Delete, ast.Pass, ast.Break, ast.Continue, ast.Raise, ast.Assert,
               ast.Import, ast.ImportFrom, ast.If, ast.FunctionDef,
               ast.AsyncFunctionDef)
_NESTED_SCOPES = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_BLOCK_FIELDS = ("body", "orelse", "finalbody", "handlers", "cases")


def _header_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Every node of a statement (or handler / case) outside its nested blocks."""
    for name, value in ast.iter_fields(node):
        if name not in _BLOCK_FIELDS:
            for child in value if isinstance(value, list) else (value,):
                if isinstance(child, ast.AST):
                    yield from ast.walk(child)


def _hook_sites(tree: ast.Module, lines: set[int]
                ) -> dict[int, tuple[list[ast.stmt], ast.stmt]]:
    """Choose the breakpoint lines a hook call compiled into the script can serve.

    Returns ``{line: (block, statement)}``: the hook goes into ``block`` in
    front of ``statement``, the first code on ``line``.  A line stays on line
    events when its event can fire more or less often than a call there would
    run: a loop / ``with`` / ``try`` / ``match`` / ``class`` header, ``except``
    or ``case`` clause or a decorated definition (the line is revisited); a
    header spanning lines (each is entered and re-entered); a lambda or
    comprehension (another frame, or a loop, on the same line); a definition
    whose body shares its line; and statements that must stay first or
    generate no code (``from __future__``, docstrings, bare annotations,
    ``global`` / ``nonlocal``).
    """
    sites: dict[int, tuple[list[ast.stmt], ast.stmt]] = {}
    revisited: set[int] = set()

    def visit(block: list[Any], node: Any) -> None:
        if isinstance(node, ast.stmt) and not any(
                node.lineno <= line <= node.end_lineno for line in lines):
            return  # no breakpoint on it or in it (a decorator line starts no statement)
        header = [n for n in _header_nodes(node) if hasattr(n, "lineno")]
        first = min(n.lineno for n in (node, *header) if hasattr(n, "lineno"))
        last = max([first] + [n.end_lineno for n in header])  # not the node's: its blocks
        once = (isinstance(node, _FIRES_ONCE) and first == last
                and not any(isinstance(n, _NESTED_SCOPES) for n in header)
                and not getattr(node, "decorator_list", None)
                and not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and node.body[0].lineno == first)
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
                and not (isinstance(node, ast.AnnAssign) and node.value is None))
        if not once:
            revisited.update(range(first, last + 1))
        elif first in lines:
            sites.setdefault(first, (block, node))
        for name in _BLOCK_FIELDS:
            nested = getattr(node, name, None)
            if isinstance(nested, list):  # ``Lambda.body`` / ``IfExp.body`` are expressions
                for child in nested:
                    visit(nested, child)

    for statement in tree.body:
        visit(tree.body, statement)
    return {line: site for line, site in sites.items() if line not in revisited}


class DebugSession:
    """A scriptable interactive debug session over one generated UDF file."""

    #: Local variables are snapshotted at each stop; values larger than this
    #: (in repr length) are replaced by a summary to keep traces small.
    MAX_VALUE_REPR = 2000
    #: An array with more elements than this is shown as its first and last
    #: three (NumPy's own default is 1,000, which overruns MAX_VALUE_REPR).
    MAX_ARRAY_ITEMS = 64

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
        event_lines, break_codes = self._event_lines, self._break_codes
        conditions, script = self._conditions, self._canonical_path

        def trace(frame: FrameType, event: str, arg: Any) -> Any:
            if event == "line":
                if frame.f_lineno in event_lines:
                    self._on_line(frame)
                elif self._stepping:
                    # a compiled-in line reached by a step: its hook call is
                    # the next thing this frame runs and must not stop again
                    self._line_seen = frame if frame.f_lineno in conditions else None
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

    def _make_hook(self) -> Callable[[], None]:
        """Build the call compiled in front of every statement :func:`_hook_sites` chose.

        It is that line's line event for a frame the tracer is not stepping
        through.  The stop is handled with tracing suspended, as a stop inside
        a trace function implicitly is: printing one array for the snapshot
        makes thousands of Python calls, each a ``call`` event otherwise.
        """
        trace, event_lines = self._trace, self._event_lines

        def hook() -> None:
            frame = sys._getframe(1)
            if self._line_seen is frame:
                self._line_seen = None
            elif not self._busy:
                sys.settrace(None)
                self._on_line(frame)
                # not reached when the stop raises, see _busy; a stop that
                # turned into a step needs the tracer from here on
                sys.settrace(trace if self._stepping or event_lines else None)

        return hook

    def _stops_in(self, frame: FrameType) -> bool:
        """While stepping: is ``frame`` one the current step command stops in?"""
        return self._stop_frame is None or frame is self._stop_frame

    def _on_line(self, frame: FrameType) -> None:
        self._busy = True
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
        self._busy = False

    def _pause(self, frame: FrameType, event: str, is_breakpoint: bool) -> None:
        """Record a stop, ask the controller what to do and enter that mode."""
        self._busy = True
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
        while frame is not None:
            if frame.f_code.co_filename == self._canonical_path:
                frame.f_trace = self._trace
                frame.f_trace_lines = self._stepping or frame.f_code in self._break_codes
            frame = frame.f_back
        self._busy = False

    def _snapshot_locals(self, frame: FrameType) -> dict[str, Any]:
        snapshot: dict[str, Any] = {}
        # an array, bare or inside a container, prints summarised past
        # MAX_ARRAY_ITEMS: a stop costs what it shows, not what the column holds
        with np.printoptions(threshold=self.MAX_ARRAY_ITEMS):
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
    def _build(self, source: str, filename: str, namespace: dict[str, Any]) -> CodeType:
        """Compile the script with this session's breakpoints and index the rest.

        Breakpoint lines :func:`_hook_sites` accepts become calls to the
        session's hook in front of their statement, same ``lineno``; the
        others stay on line events, delivered to the code objects that hold
        them (``_break_codes``).
        """
        tree = ast.parse(source, filename)
        self._conditions: dict[int, list[str | None]] = {}
        for breakpoint_spec in self.breakpoints:
            self._conditions.setdefault(breakpoint_spec.line, []) \
                .append(breakpoint_spec.condition)
        hook_name = HOOK_NAME
        while hook_name in source:
            hook_name += "_"
        sites = _hook_sites(tree, set(self._conditions))
        for line, (block, statement) in sites.items():
            call = ast.Expr(ast.Call(ast.Name(hook_name, ast.Load()), [], []),
                            lineno=line, col_offset=statement.col_offset,
                            end_lineno=line, end_col_offset=statement.col_offset)
            block.insert(block.index(statement), ast.fix_missing_locations(call))
        code = compile(tree, filename, "exec")

        self._event_lines = self._conditions.keys() - sites.keys()
        self._break_codes: set[CodeType] = set()
        executable: set[int] = set()
        pending = [code]  # the module and every function/comprehension nested in it
        while pending:
            nested = pending.pop()
            pending += [c for c in nested.co_consts if isinstance(c, CodeType)]
            lines = {line for _, _, line in nested.co_lines() if line}
            executable |= lines
            if not lines.isdisjoint(self._event_lines):
                self._break_codes.add(nested)
        for line in self._conditions:
            if line not in executable:
                raise DebugSessionError(
                    f"cannot set breakpoint: line {line} of {self.script_path} "
                    "is not an executable line"
                )
        self._trace = self._make_tracer()
        namespace[hook_name] = self._make_hook()
        return code

    def _run_traced(self, code: CodeType, namespace: dict[str, Any]) -> None:
        previous_trace = sys.gettrace()
        # a global trace function slows every line of the script: install it
        # only for stepping or a breakpoint left to line events
        sys.settrace(self._trace if self._stepping or self._event_lines else None)
        try:
            exec(code, namespace)  # noqa: S102 - debugging the UDF is the feature
        finally:
            sys.settrace(previous_trace)
            self._stop_frame = self._return_frame = self._line_seen = None

    def run(self) -> DebugOutcome:
        """Run the script under the debugger and return the recorded outcome."""
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
        #: the frame whose compiled-in line the tracer has just handled
        self._line_seen: FrameType | None = None
        #: a stop is being decided or shown: a hook reached from a condition,
        #: a watch or a ``__repr__`` does nothing.  Left set when the stop
        #: raises (``QUIT``) - the session is over, as tracing is when a
        #: trace function raises.
        self._busy = False

        ran = execute_script(Path(self._canonical_path), self.working_directory,
                             build=self._build, run=self._run_traced)
        failure = None if isinstance(ran.exception, _QuitSession) else ran.exception
        outcome = DebugOutcome(
            completed=failure is None and not self._quit_requested,
            result=ran.globals.get(RESULT_VARIABLE),
            stops=self._stops,
            stdout=ran.stdout,
            quit_requested=self._quit_requested,
        )
        if failure is not None:  # a script that does not compile included
            outcome.exception_type = ran.exception_type
            outcome.exception_message = ran.exception_message
            outcome.exception_line = ran.exception_line
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
