"""Breakpoints compiled into the script: placement, edge cases and cost guards.

``test_debugger.py`` and ``test_debugger_tracer.py`` pin what a session
reports; this file pins *how* a breakpoint is reached — a call to the
session's hook in front of the statement where that is the same thing as the
line event, the line event everywhere else — and that the number of tracer
callbacks no longer depends on the rows a UDF loops over.
"""

import ast
import sys

import numpy as np
import pytest
from test_debugger_tracer import trace_of, write_script

import repro.core.debugger as debugger
from repro.core.debugger import (
    CONTINUE,
    HOOK_NAME,
    QUIT,
    STEP_INTO,
    STEP_OUT,
    STEP_OVER,
    Breakpoint,
    DebugSession,
    ScriptedController,
    debug_file,
)
from repro.core.runner import LocalUDFRunner


#: One line of every kind the placement rule names; the comment says where its
#: breakpoint lives.  ``tests/core/test_debugger_differential.py`` runs it too.
KINDS_SCRIPT = """\
from __future__ import annotations      # event: must stay first
import contextlib                       # hook
class Box:                              # event: the class body re-enters the line
    "doc"                               # event: a docstring generates no code
    size = 2                            # hook
    def __repr__(self):                 # hook
        text = "Box"                    # hook
        return text                     # hook
def deco(f): return f                   # event: the body shares the def's line
@deco                                   # event: a decorator line
def helper(x,                           # event: decorated, and the header spans lines
           y=1):                        # event
    "doc"                               # not executable
    global counter                      # not executable
    counter = x; extra = y              # hook: one stop for both statements
    if x > 1: x -= 1                    # hook: one stop for the test and the body
    z: int                              # not executable
    w: int = x                          # hook
    return w                            # hook
def gen(n):                             # hook
    for i in range(n): yield i          # event: a loop header shares the line
    total = yield n                     # hook
    return                              # hook
counter = 0                             # hook
box = Box()                             # hook
values = [helper(v) for v in (1, 2, 3)]  # event: a comprehension loops on the line
double = lambda v: v * 2                # event: the lambda's frame runs on the line
for v in values: counter += double(v)   # event: loop header
while counter > 3:                      # event: loop header
    counter -= 1                        # hook
    if counter == 5:                    # hook
        continue                        # hook
    elif counter == 4: break            # hook
else:                                   # not executable
    counter = -1                        # hook (never reached)
try:                                    # event
    with contextlib.nullcontext() as c:  # event: revisited to call __exit__
        x = max(1,                      # event: the statement spans lines
                2); y = 2               # event: ... and another starts on its last
    1 / 0                               # hook
except KeyError: pass                   # event: the clause is tested on this line
except ZeroDivisionError as e:          # event
    err = 1                             # hook
finally: done = True                    # hook
def early():                            # hook
    try:                                # event
        return 1                        # hook
    finally:                            # not executable
        cleanup = 1                     # hook
def inwith():                           # hook
    with contextlib.nullcontext():      # event
        return 2                        # hook
early(); inwith()                       # hook
g = gen(2)                              # hook
items = list(g)                         # hook
match counter:                          # event
    case 4: m = "four"                  # event: the pattern is tested on this line
    case _:                             # event
        m = "other"                     # hook
a = 1; b = 2                            # hook
def oneline(q): return q + 1            # event: the body shares the def's line
oneline(1); oneline(2)                  # hook
assert a, "msg"                         # hook
del b                                   # hook
pass                                    # hook
print("out", a)                         # hook
__devudf_result__ = (counter, values, items, m)  # hook
"""


def kinds_lines(marker: str) -> list[int]:
    return [number for number, line in enumerate(KINDS_SCRIPT.splitlines(), start=1)
            if f"# {marker}" in line]


class TestPlacement:
    def test_every_kind_of_line_is_placed_as_documented(self):
        tree = ast.parse(KINDS_SCRIPT)
        every_line = set(range(1, len(KINDS_SCRIPT.splitlines()) + 1))
        assert sorted(debugger._hook_sites(tree, every_line)) == kinds_lines("hook")

    def test_lines_marked_not_executable_are_still_rejected(self, tmp_path):
        script = write_script(tmp_path, KINDS_SCRIPT)
        for line in kinds_lines("not executable"):
            with pytest.raises(debugger.DebugSessionError,
                               match=f"line {line} of .* is not an executable line"):
                DebugSession(script, breakpoints=[line]).run()

    def test_a_hook_line_leaves_the_line_event_path(self, tmp_path):
        script = write_script(tmp_path, KINDS_SCRIPT)
        session = DebugSession(script, breakpoints=kinds_lines("hook"))
        assert session.run().completed
        assert session._event_lines == set() and session._break_codes == set()
        session = DebugSession(script, breakpoints=kinds_lines("event"))
        session.run()
        assert session._event_lines == set(kinds_lines("event"))


class TestEdgeCases:
    def test_first_statement_after_a_future_import(self, tmp_path):
        script = write_script(tmp_path, """\
            from __future__ import annotations
            def f(x: Undefined) -> Undefined:
                return x
            __devudf_result__ = f(3)
        """)
        outcome = debug_file(script, breakpoints=[2, 3])
        assert outcome.completed and outcome.result == 3  # the annotations stayed lazy
        assert trace_of(outcome) == [(2, "<module>", "line", True), (3, "f", "line", True)]

    def test_two_statements_on_one_line_stop_once(self, tmp_path):
        script = write_script(tmp_path, """\
            x = 0
            a = 1; b = 2
            if a: y = 1
            __devudf_result__ = a + b + y
        """)
        outcome = debug_file(script, breakpoints=[2, 3])
        assert outcome.result == 4
        assert [stop.line for stop in outcome.stops] == [2, 3]
        assert "a" not in outcome.stops[0].locals  # stopped in front of the line

    def test_one_line_loop_still_stops_every_iteration(self, tmp_path):
        script = write_script(tmp_path, """\
            total = 0
            xs = [1, 2, 3]
            for i in xs: total += i
            __devudf_result__ = total
        """)
        outcome = debug_file(script, breakpoints=[3])
        assert outcome.result == 6
        totals = [stop.local("total") for stop in outcome.stops]
        assert totals[:3] == [0, 1, 3] and totals[3:] in ([], [6])

    def test_step_from_a_compiled_in_stop_lands_on_the_next_line(self, tmp_path):
        script = write_script(tmp_path, """\
            a = 1
            b = 2
            c = 3
            __devudf_result__ = a + b + c
        """)
        outcome = debug_file(script, breakpoints=[2],
                             controller=ScriptedController([STEP_OVER, STEP_INTO, CONTINUE]))
        assert trace_of(outcome) == [(2, "<module>", "line", True),
                                     (3, "<module>", "line", False),
                                     (4, "<module>", "line", False)]

    def test_compiled_in_line_reached_by_a_step_stops_once(self, tmp_path):
        script = write_script(tmp_path, """\
            a = 1
            b = 2
            c = 3
            __devudf_result__ = a + b + c
        """)
        outcome = debug_file(script, breakpoints=[1, 2, 3],
                             controller=ScriptedController([STEP_OVER, CONTINUE, CONTINUE]))
        # line 2 is reached by the step and continued from: its hook must not
        # stop a second time
        assert trace_of(outcome) == [(1, "<module>", "line", True),
                                     (2, "<module>", "line", True),
                                     (3, "<module>", "line", True)]

    def test_exception_on_a_compiled_in_line_reads_as_under_run_file(self, tmp_path):
        script = write_script(tmp_path, """\
            import traceback
            def f(values):
                total = 0
                total += values["missing"] + 1
                return total
            try:
                f({})
            except KeyError:
                __devudf_result__ = traceback.format_exc()
            f({})
        """)
        plain = LocalUDFRunner().run_file(script)
        outcome = debug_file(script, breakpoints=[4, 7, 10])
        assert [stop.line for stop in outcome.stops] == [7, 4, 10, 4]
        assert (outcome.exception_type, outcome.exception_line) == ("KeyError", 4)
        assert (plain.exception_type, plain.exception_line) == ("KeyError", 4)
        # the traceback the script itself sees: same frames, lines and carets
        seen_by_the_script = plain.globals["__devudf_result__"]
        assert outcome.result == seen_by_the_script
        assert 'values["missing"]' in seen_by_the_script and HOOK_NAME not in outcome.result

    def test_script_that_assigns_the_hook_name(self, tmp_path):
        script = write_script(tmp_path, f"""\
            {HOOK_NAME} = None
            def f():
                {HOOK_NAME}_ = 1
                return {HOOK_NAME}_
            __devudf_result__ = f()
        """)
        outcome = debug_file(script, breakpoints=[1, 3, 4, 5])
        assert outcome.completed and outcome.result == 1
        assert [stop.line for stop in outcome.stops] == [1, 5, 3, 4]

    def test_swallowed_quit_ends_the_session(self, tmp_path):
        script = write_script(tmp_path, """\
            done = []
            for i in range(3):
                try:
                    done.append(i)
                except BaseException:
                    pass
            __devudf_result__ = done
        """)
        outcome = debug_file(script, breakpoints=[4], controller=ScriptedController([QUIT]))
        assert len(outcome.stops) == 1 and outcome.quit_requested and not outcome.completed


class TestArraySnapshot:
    @pytest.mark.parametrize("rows", [10, 400, 16000])
    def test_array_text_is_bounded_and_never_cut(self, tmp_path, rows):
        script = write_script(tmp_path, f"""\
            import numpy
            column = numpy.arange({rows}, dtype=numpy.int64) * 977
            halves = column / 2
            __devudf_result__ = len(column)
        """)
        stop = debug_file(script, breakpoints=[4]).stops[0]
        for name in ("column", "halves"):
            text = stop.local(name)
            assert text.startswith("array([") and text.endswith(")")
            assert len(text) <= DebugSession.MAX_VALUE_REPR and "<truncated>" not in text
        column = np.arange(rows, dtype=np.int64) * 977
        if rows == 10:
            assert stop.local("column") == repr(column)
        else:  # first and last three, as NumPy summarises (the layout is NumPy's)
            with np.printoptions(threshold=DebugSession.MAX_ARRAY_ITEMS):
                assert stop.local("column") == repr(column)
            assert "1954, ..., " in stop.local("column")
            assert str(column[-1]) in stop.local("column")

    def test_print_options_are_restored(self, tmp_path):
        script = write_script(tmp_path, "import numpy\nxs = numpy.arange(500)\nx = 1\n")
        before = np.get_printoptions()
        debug_file(script, breakpoints=[3])
        assert np.get_printoptions() == before


LOOP_TEMPLATE = """\
    class Shown:
        def __repr__(self):
            label = "shown"
            return label
    shown = Shown()
    def work(n):
        total = 0
        for i in range(n):
            total += i
            total -= 1
        return total
    before = 1
    __devudf_result__ = work({n})
    after = 2
"""


STEP_SCRIPT = """\
    import sys
    def f(x):
        y = x + 1
        return y
    seen = [sys.gettrace()]
    a = f(1)
    seen.append(sys.gettrace())
    b = f(a)
    __devudf_result__ = seen
"""


class TestCostFollowsBreakpoints:
    """Work-counting guards: tracer callbacks do not follow the rows looped over."""

    @staticmethod
    def tracer_calls(session):
        """Run ``session`` with its tracer wrapped; returns (outcome, events seen)."""
        events: list[tuple[str, str, int]] = []
        real_settrace = sys.settrace

        def counting_settrace(function):
            if function is None:
                return real_settrace(None)

            def counted(frame, event, arg):
                events.append((event, frame.f_code.co_name, frame.f_lineno))
                local = function(frame, event, arg)
                return counted if local is not None else None

            return real_settrace(counted)

        sys.settrace = counting_settrace
        try:
            outcome = session.run()
        finally:
            sys.settrace = real_settrace
        return outcome, events

    def test_breakpoints_outside_a_loop_cost_the_same_at_any_row_count(self, tmp_path):
        calls = {}
        for n in (100, 10000):
            script = write_script(tmp_path, LOOP_TEMPLATE.format(n=n), f"loop_{n}.py")
            outcome, events = self.tracer_calls(DebugSession(script, breakpoints=[7, 11]))
            assert [stop.line for stop in outcome.stops] == [7, 11]
            assert outcome.result == sum(range(n)) - n
            calls[n] = len(events)
            assert not [event for event in events if event[0] == "line"]
        assert calls[100] == calls[10000]

    def test_never_true_condition_in_the_loop_body_needs_no_line_event(self, tmp_path):
        script = write_script(tmp_path, LOOP_TEMPLATE.format(n=500))
        session = DebugSession(script, breakpoints=[Breakpoint(9, condition="i < 0")])
        outcome, events = self.tracer_calls(session)
        assert outcome.completed and outcome.stops == []
        assert not [event for event in events if event[0] == "line"]

    @pytest.mark.parametrize("commands", [[CONTINUE] * 3, [STEP_OVER] * 3])
    def test_showing_a_value_neither_traces_nor_stops_in_its_repr(self, tmp_path, commands):
        script = write_script(tmp_path, LOOP_TEMPLATE.format(n=3))
        # breakpoints inside __repr__ too: a snapshot or a watch must not stop there
        session = DebugSession(script, breakpoints=[3, 4, 12, 14],
                               watches={"shown": "repr(shown)"},
                               controller=ScriptedController(commands))
        outcome, events = self.tracer_calls(session)
        assert [stop.line for stop in outcome.stops][:1] == [12]
        assert all(stop.function != "__repr__" for stop in outcome.stops)
        assert all(stop.watches["shown"] == "shown" for stop in outcome.stops)
        assert all("shown" in stop.locals["shown"] for stop in outcome.stops)
        assert not [event for event in events if event[1] == "__repr__"]

    def test_a_continue_only_session_installs_no_trace_function(self, tmp_path):
        """On 3.11 a global trace function slows every line, even one that
        declines every event; with every breakpoint compiled in nothing needs it."""
        script = write_script(tmp_path, STEP_SCRIPT)
        outcome = debug_file(script, breakpoints=[3, 6])
        assert [stop.line for stop in outcome.stops] == [6, 3, 3]
        assert outcome.result == [None, None]

    def test_a_line_event_breakpoint_still_installs_it(self, tmp_path):
        script = write_script(tmp_path, STEP_SCRIPT.replace("    y = x + 1",
                                                            "    for y in [x + 1]: pass"))
        outcome = debug_file(script, breakpoints=[3])
        assert [stop.line for stop in outcome.stops] == [3, 3, 3, 3]
        assert None not in outcome.result

    @pytest.mark.parametrize("line,command,stops", [
        (3, STEP_INTO, [(3, "f", "line", True), (4, "f", "line", False),
                        (4, "f", "return", False), (3, "f", "line", True)]),
        (3, STEP_OVER, [(3, "f", "line", True), (4, "f", "line", False),
                        (4, "f", "return", False), (3, "f", "line", True)]),
        (3, STEP_OUT, [(3, "f", "line", True), (4, "f", "return", False),
                       (7, "<module>", "line", False), (3, "f", "line", True)]),
        (6, STEP_INTO, [(6, "<module>", "line", True), (3, "f", "line", False),
                        (4, "f", "line", False)]),
        (6, STEP_OVER, [(6, "<module>", "line", True), (7, "<module>", "line", False),
                        (8, "<module>", "line", False)]),
        (6, STEP_OUT, [(6, "<module>", "line", True), (9, "<module>", "return", False)]),
    ])
    def test_steps_from_a_compiled_in_stop_install_it(self, tmp_path, line, command,
                                                       stops):
        """The stops are those the session made while its tracer was installed
        from the start (recorded before it was not)."""
        script = write_script(tmp_path, STEP_SCRIPT)
        outcome = debug_file(script, breakpoints=[line],
                             controller=ScriptedController([command, command, CONTINUE]))
        assert trace_of(outcome) == stops and outcome.completed

    @pytest.mark.parametrize("line", [9, 8])  # compiled in / on line events
    def test_trace_function_is_restored_after_quit(self, tmp_path, line):
        script = write_script(tmp_path, LOOP_TEMPLATE.format(n=3))

        def sentinel(frame, event, arg):
            return None

        sys.settrace(sentinel)
        try:
            outcome = debug_file(script, breakpoints=[line],
                                 controller=ScriptedController([QUIT]))
            restored = sys.gettrace()
        finally:
            sys.settrace(None)
        assert outcome.quit_requested and len(outcome.stops) == 1
        assert restored is sentinel
