"""Regression and guard tests for the purpose-built ``sys.settrace`` tracer.

The behavioural cases were pinned against the former ``bdb`` engine (a fuzz
of 1,500 random breakpoint sets and command sequences gave identical stop
traces); the structural guards keep the per-line dispatch from creeping back.
"""

import sys
import textwrap

import pytest

from repro.core.debugger import (
    CONTINUE,
    QUIT,
    STEP_INTO,
    STEP_OUT,
    Breakpoint,
    DebugSession,
    ScriptedController,
    debug_file,
)
from repro.errors import DebugSessionError


def write_script(tmp_path, text: str, name: str = "script.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


LOOP_SCRIPT = """\
    total = 0
    values = [3, 1, 4, 1, 5]
    for value in values:
        total = total + value
    __devudf_result__ = total
"""

FUNCTION_SCRIPT = """\
    def helper(x):
        doubled = x * 2
        return doubled

    def main(values):
        out = []
        for value in values:
            out.append(helper(value))
        return out

    __devudf_result__ = main([1, 2, 3])
"""


def trace_of(outcome):
    return [(stop.line, stop.function, stop.event, stop.is_breakpoint)
            for stop in outcome.stops]


class TestSessionIsolation:
    def test_breakpoints_do_not_leak_between_sessions_on_one_file(self, tmp_path):
        script = write_script(tmp_path, LOOP_SCRIPT)
        first = DebugSession(script, breakpoints=[4]).run()
        second = DebugSession(script, breakpoints=[5]).run()
        assert {stop.line for stop in first.stops} == {4}
        assert [stop.line for stop in second.stops] == [5]

    def test_breakpoints_do_not_leak_between_files(self, tmp_path):
        one = write_script(tmp_path, LOOP_SCRIPT, "one.py")
        two = write_script(tmp_path, LOOP_SCRIPT, "two.py")
        DebugSession(one, breakpoints=[4]).run()
        outcome = DebugSession(two, breakpoints=[1]).run()
        assert [stop.line for stop in outcome.stops] == [1]

    def test_second_run_equals_a_fresh_session(self, tmp_path):
        script = write_script(tmp_path, LOOP_SCRIPT)
        session = DebugSession(script, breakpoints=[4])
        first = session.run()
        second = session.run()
        fresh = DebugSession(script, breakpoints=[4]).run()
        assert len(first.stops) == 5  # not appended to by the second run
        assert second == fresh

    def test_quit_is_not_inherited_by_the_next_run(self, tmp_path):
        script = write_script(tmp_path, LOOP_SCRIPT)
        session = DebugSession(script, breakpoints=[4],
                               controller=ScriptedController([QUIT]))
        first = session.run()
        assert first.quit_requested and not first.completed
        second = session.run()  # the scripted controller is exhausted: continues
        assert second.completed and not second.quit_requested
        assert second.result == 14

    def test_previous_trace_function_is_restored(self, tmp_path):
        script = write_script(tmp_path, LOOP_SCRIPT)
        before = sys.gettrace()
        debug_file(script, breakpoints=[4], controller=ScriptedController([QUIT]))
        assert sys.gettrace() is before


class TestBreakpointValidation:
    @pytest.mark.parametrize("line", [2, 3, 6])
    def test_breakpoint_on_non_executable_line_rejected(self, tmp_path, line):
        script = write_script(tmp_path, """\
            x = 1

            # a comment
            def f():
                y = x
                # comment inside a function
                return y
            __devudf_result__ = f()
        """)
        with pytest.raises(DebugSessionError, match=f"line {line} "):
            DebugSession(script, breakpoints=[line]).run()

    def test_breakpoint_on_def_line_and_body_accepted(self, tmp_path):
        script = write_script(tmp_path, FUNCTION_SCRIPT)
        outcome = debug_file(script, breakpoints=[1, 2])
        assert [stop.line for stop in outcome.stops] == [1, 2, 2, 2]


class TestBreakpointPlacement:
    def test_for_header_fires_every_iteration(self, tmp_path):
        script = write_script(tmp_path, LOOP_SCRIPT)
        outcome = debug_file(script, breakpoints=[3])
        # entering the loop, then every jump back to the header (CPython 3.11
        # also reports the last one, which finds the iterator exhausted)
        assert outcome.completed and outcome.result == 14
        assert {stop.line for stop in outcome.stops} == {3}
        totals = [stop.local("total") for stop in outcome.stops]
        assert totals[:5] == [0, 3, 4, 8, 9] and totals[5:] in ([], [14])

    def test_breakpoint_in_nested_function(self, tmp_path):
        script = write_script(tmp_path, """\
            def outer(values):
                def inner(v):
                    w = v + 1
                    return w
                return [inner(v) for v in values]
            __devudf_result__ = outer([1, 2, 3])
        """)
        outcome = debug_file(script, breakpoints=[3])
        assert outcome.result == [2, 3, 4]
        assert trace_of(outcome) == [(3, "inner", "line", True)] * 3
        assert [stop.local("v") for stop in outcome.stops] == [1, 2, 3]

    def test_conditional_breakpoint_in_long_loop(self, tmp_path):
        script = write_script(tmp_path, """\
            total = 0
            for i in range(10000):
                total += i
            __devudf_result__ = total
        """)
        session = DebugSession(script, breakpoints=[Breakpoint(3, condition="i == 9998")])
        outcome = session.run()
        assert outcome.completed and outcome.result == sum(range(10000))
        assert [stop.local("i") for stop in outcome.stops] == [9998]

    def test_broken_condition_stops(self, tmp_path):
        script = write_script(tmp_path, LOOP_SCRIPT)
        outcome = DebugSession(script, breakpoints=[Breakpoint(5, "undefined > 1")]).run()
        assert [stop.line for stop in outcome.breakpoint_stops] == [5]


class TestSteppingStateMachine:
    def test_step_into_step_out_continue(self, tmp_path):
        script = write_script(tmp_path, FUNCTION_SCRIPT)
        controller = ScriptedController([STEP_INTO, STEP_OUT, CONTINUE])
        outcome = DebugSession(script, breakpoints=[Breakpoint(8, "value == 1")],
                               controller=controller).run()
        assert outcome.completed and outcome.result == [2, 4, 6]
        assert trace_of(outcome) == [
            (8, "main", "line", True),       # at the call site
            (2, "helper", "line", False),    # stepped into the helper
            (3, "helper", "return", False),  # stepped out: paused on its return
        ]

    def test_step_out_then_keeps_stepping_in_the_caller(self, tmp_path):
        script = write_script(tmp_path, FUNCTION_SCRIPT)
        controller = ScriptedController([STEP_OUT, STEP_INTO, STEP_INTO, CONTINUE])
        outcome = DebugSession(script, breakpoints=[Breakpoint(2, "x == 3")],
                               controller=controller).run()
        assert trace_of(outcome) == [
            (2, "helper", "line", True),
            (3, "helper", "return", False),
            (7, "main", "line", False),      # the caller was untraced until now
            (9, "main", "line", False),
        ]

    def test_exception_in_helper_while_continuing(self, tmp_path):
        script = write_script(tmp_path, """\
            def helper(x):
                return 1 / x

            def main():
                total = 0
                for x in (2, 1, 0):
                    total += helper(x)
                return total

            __devudf_result__ = main()
        """)
        outcome = debug_file(script, breakpoints=[5])
        assert [stop.line for stop in outcome.stops] == [5]
        assert not outcome.completed and not outcome.quit_requested
        assert outcome.exception_type == "ZeroDivisionError"
        assert outcome.exception_line == 2


PROBE_SCRIPT = """\
    import sys

    seen = {}

    def helper(tag):
        frame = sys._getframe()
        seen[tag] = (frame.f_trace is not None, frame.f_trace_lines)
        return tag

    def main():
        helper("before")
        marker = 1
        helper("after")
        return marker

    main()
    __devudf_result__ = seen
"""


class TestCostFollowsBreakpoints:
    """Structural guards: no Python callback per line where nothing can stop."""

    @staticmethod
    def traced_lines(seen, tag):
        has_tracer, trace_lines = seen[tag]
        return has_tracer and trace_lines

    def test_helper_without_breakpoint_runs_without_line_events(self, tmp_path):
        script = write_script(tmp_path, PROBE_SCRIPT)
        outcome = debug_file(script, breakpoints=[12])
        assert [stop.line for stop in outcome.stops] == [12]
        assert not self.traced_lines(outcome.result, "before")
        assert not self.traced_lines(outcome.result, "after")

    def test_line_events_follow_the_stepping_mode(self, tmp_path):
        script = write_script(tmp_path, PROBE_SCRIPT)
        # step into helper("after"): it is traced line by line while stepping
        controller = ScriptedController([STEP_INTO] * 4 + [CONTINUE])
        outcome = debug_file(script, breakpoints=[12], controller=controller)
        assert not self.traced_lines(outcome.result, "before")
        assert self.traced_lines(outcome.result, "after")

    def test_module_frame_is_untraced_until_stepped_into(self, tmp_path):
        script = write_script(tmp_path, """\
            import sys

            def peek():
                caller = sys._getframe(1)
                return caller.f_trace is not None and caller.f_trace_lines

            def work():
                return 1

            before = peek()
            work()
            __devudf_result__ = (before, peek())
        """)
        assert debug_file(script, breakpoints=[8]).result == (False, False)
        stepped = debug_file(script, breakpoints=[8],
                             controller=ScriptedController([STEP_OUT] + [STEP_INTO] * 4))
        assert stepped.result == (False, True)

    def test_no_bdb_in_the_debugger(self):
        import repro.core.debugger as debugger

        assert not hasattr(debugger, "bdb")
        assert not hasattr(debugger.DebugOutcome(completed=True), "lines_executed")
