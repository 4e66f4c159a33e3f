"""Tests for local (non-debug) execution of generated UDF files."""

import pickle
import textwrap

import pytest

from repro.core.debugger import debug_file
from repro.core.runner import LocalUDFRunner
from repro.errors import DebugSessionError


@pytest.fixture()
def runner() -> LocalUDFRunner:
    return LocalUDFRunner()


def write_script(tmp_path, text: str, name: str = "udf_file.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


class TestRunFile:
    def test_successful_run_returns_result_variable(self, runner, tmp_path):
        script = write_script(tmp_path, """\
            def f(x):
                return x * 2
            __devudf_result__ = f(21)
            print('computed', __devudf_result__)
        """)
        outcome = runner.run_file(script)
        assert outcome.completed
        assert outcome.result == 42
        assert "computed 42" in outcome.stdout

    def test_input_bin_loaded_relative_to_working_directory(self, runner, tmp_path):
        with open(tmp_path / "input.bin", "wb") as handle:
            pickle.dump({"values": [1, 2, 3]}, handle)
        script = write_script(tmp_path, """\
            import pickle
            input_parameters = pickle.load(open('./input.bin', 'rb'))
            __devudf_result__ = sum(input_parameters['values'])
        """)
        outcome = runner.run_file(script)
        assert outcome.completed and outcome.result == 6

    def test_exception_reports_line_and_type(self, runner, tmp_path):
        script = write_script(tmp_path, """\
            a = 1
            b = {}
            c = b['missing']
        """)
        outcome = runner.run_file(script)
        assert outcome.failed
        assert outcome.exception_type == "KeyError"
        assert outcome.exception_line == 3
        assert "KeyError" in outcome.traceback_text

    def test_syntax_error_reported(self, runner, tmp_path):
        script = write_script(tmp_path, "def broken(:\n    pass\n")
        outcome = runner.run_file(script)
        assert outcome.failed
        assert outcome.exception_type == "SyntaxError"

    def test_debug_reports_a_syntax_error_as_run_does(self, runner, tmp_path):
        script = write_script(tmp_path, "x = 1\ndef broken(:\n    pass\n")
        plain = runner.run_file(script)
        outcome = debug_file(script, breakpoints=[1])
        assert not outcome.completed and outcome.stops == []
        assert outcome.exception_type == plain.exception_type == "SyntaxError"
        assert outcome.exception_line == plain.exception_line == 2
        assert outcome.exception_message == plain.exception_message

    def test_missing_script_raises(self, runner, tmp_path):
        with pytest.raises(DebugSessionError):
            runner.run_file(tmp_path / "absent.py")

    def test_extra_globals_injected(self, runner, tmp_path):
        script = write_script(tmp_path, "__devudf_result__ = INJECTED + 1\n")
        outcome = runner.run_file(script, extra_globals={"INJECTED": 10})
        assert outcome.result == 11

    def test_working_directory_restored_after_run(self, runner, tmp_path):
        import os

        before = os.getcwd()
        script = write_script(tmp_path, "__devudf_result__ = 1\n")
        runner.run_file(script)
        assert os.getcwd() == before

    def test_working_directory_restored_after_failure(self, runner, tmp_path):
        import os

        before = os.getcwd()
        script = write_script(tmp_path, "raise RuntimeError('x')\n")
        runner.run_file(script)
        assert os.getcwd() == before
