"""Generated differential test: compiled-in breakpoints = line-event breakpoints.

Random breakpoint sets (conditional or not, on every kind of line) and random
command sequences must give the same ``DebugOutcome`` whether
``debugger._hook_sites`` places hook calls or — patched here to choose no line
— leaves every breakpoint to the tracer's line events.  That one function is
the seam; the session has no option for it.
"""

import re
import textwrap
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_debugger_compiled import KINDS_SCRIPT
from test_debugger_tracer import FUNCTION_SCRIPT, LOOP_SCRIPT

import repro.core.debugger as debugger
from repro.core.debugger import (
    CONTINUE,
    QUIT,
    STEP_INTO,
    STEP_OUT,
    STEP_OVER,
    Breakpoint,
    DebugSession,
    ScriptedController,
)
from repro.core.plugin import DevUDFPlugin
from repro.core.project import DevUDFProject
from repro.core.settings import DevUDFSettings
from repro.errors import DebugSessionError
from repro.netproto.server import DatabaseServer
from repro.workloads.scenarios import ScenarioA, ScenarioB

RAISING_SCRIPT = """\
    def helper(x):
        if x == 0:
            raise ValueError("zero")
        return 1 / x

    def main():
        total = 0
        for x in (2, 1, 0):
            try:
                total += helper(x)
            except ValueError as exc:
                total = -1
                raise
        return total

    __devudf_result__ = main()
"""

CONDITIONS = [None, None, "True", "False", "undefined_name", "x == 1", "i == 1",
              "counter > 2", "len(dir()) > 4"]
WATCHES = [{}, {"names": "sorted(n for n in dir() if not n.startswith('_'))[:3]"},
           {"helped": "helper(3)", "shown": "repr(box)"}]


@pytest.fixture(scope="module")
def scripts(tmp_path_factory):
    """(path, executable lines, line count) of every script: hand-written ones, then
    the files the plugin generates for the corpus's two scenario UDFs (with their
    input.bin)."""
    root = tmp_path_factory.mktemp("differential")
    paths = []
    for index, text in enumerate([KINDS_SCRIPT, RAISING_SCRIPT, LOOP_SCRIPT,
                                  FUNCTION_SCRIPT]):
        path = root / f"script_{index}.py"
        path.write_text(textwrap.dedent(text))
        paths.append(path)
    for scenario in (ScenarioA(root / "csv_a", n_files=2, rows_per_file=4),
                     ScenarioB(root / "csv_b", n_files=2, rows_per_file=3)):
        server = DatabaseServer()
        scenario.setup(server)
        plugin = DevUDFPlugin(DevUDFProject(root / scenario.name),
                              DevUDFSettings(debug_query=scenario.debug_query),
                              server=server)
        paths.append(plugin.prepare_debug(scenario.udf_name).script_path)
        plugin.close()
    return [(path, executable_lines(path), len(path.read_text().splitlines()))
            for path in paths]


def executable_lines(path) -> list[int]:
    lines, pending = set(), [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        pending += [const for const in code.co_consts if hasattr(const, "co_lines")]
        lines.update(line for _, _, line in code.co_lines() if line)
    return sorted(lines)


def run(path, breakpoints, commands, watches):
    try:
        outcome = DebugSession(path, breakpoints=breakpoints, watches=watches,
                               controller=ScriptedController(commands),
                               max_stops=150).run()
    except DebugSessionError as exc:  # a non-executable line: same refusal either way
        return f"refused: {exc}"
    # every stop's line, function, event, is_breakpoint, locals and watches, and
    # the result / stdout / exception fields; object addresses differ per run
    return re.sub(r"0x[0-9a-f]+", "0x", repr(outcome))


def test_compiled_in_and_line_event_placement_agree(scripts):
    placed, left = set(), set()  # (script, line) served by a hook / by line events
    choose = debugger._hook_sites

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(script=st.integers(0, len(scripts) - 1),
           breakpoints=st.lists(st.tuples(st.integers(0, 119),
                                          st.sampled_from(CONDITIONS),
                                          st.sampled_from([True] * 9 + [False])),
                                max_size=4),
           commands=st.lists(st.sampled_from([CONTINUE, CONTINUE, STEP_OVER, STEP_INTO,
                                              STEP_OUT, QUIT]), max_size=10),
           watches=st.sampled_from(WATCHES))
    def check(script, breakpoints, commands, watches):
        path, executable, line_count = scripts[script]
        specs = [Breakpoint(executable[number % len(executable)] if valid
                            else 1 + number % line_count, condition)
                 for number, condition, valid in breakpoints]

        def recording(tree, lines):
            sites = choose(tree, lines)
            placed.update((script, line) for line in sites)
            left.update((script, line) for line in lines - sites.keys())
            return sites

        with mock.patch.object(debugger, "_hook_sites", recording):
            compiled_in = run(path, specs, commands, watches)
        with mock.patch.object(debugger, "_hook_sites", lambda tree, lines: {}):
            line_events = run(path, specs, commands, watches)
        assert compiled_in == line_events

    check()
    # the comparison compared something: both placements were exercised widely
    assert len(placed) >= 60 and len(left) >= 30, (len(placed), len(left))
