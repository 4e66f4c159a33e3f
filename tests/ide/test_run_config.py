"""Tests for run configurations and the subprocess runner."""

import pytest

from repro.errors import ProjectError
from repro.ide.run_config import RunConfiguration, RunManager


@pytest.fixture()
def manager() -> RunManager:
    return RunManager()


def write_script(tmp_path, name: str, body: str):
    path = tmp_path / name
    path.write_text(body)
    return path


class TestConfigurations:
    def test_add_and_get(self, manager, tmp_path):
        config = RunConfiguration("demo", tmp_path / "script.py")
        manager.add(config)
        assert manager.get("demo") is config
        with pytest.raises(ProjectError):
            manager.get("other")

    def test_working_directory_defaults_to_script_parent(self, tmp_path):
        config = RunConfiguration("demo", tmp_path / "sub" / "script.py")
        assert config.resolved_working_directory == tmp_path / "sub"


class TestRunning:
    def test_successful_run_captures_stdout(self, manager, tmp_path):
        script = write_script(tmp_path, "ok.py", "print('hello from udf')\n")
        manager.add(RunConfiguration("ok", script))
        outcome = manager.run("ok")
        assert outcome.exit_code == 0 and outcome.exception is None
        assert "hello from udf" in outcome.stdout
        assert manager.history[-1] is outcome

    def test_failing_run_reports_exit_code_and_stderr(self, manager, tmp_path):
        script = write_script(tmp_path, "fail.py", "raise SystemExit(3)\n")
        manager.add(RunConfiguration("fail", script))
        outcome = manager.run("fail")
        assert outcome.exit_code == 3

    def test_exception_traceback_in_stderr(self, manager, tmp_path):
        script = write_script(tmp_path, "boom.py", "raise ValueError('boom')\n")
        manager.add(RunConfiguration("boom", script))
        outcome = manager.run("boom")
        assert "ValueError" in outcome.stderr

    def test_arguments_and_environment(self, manager, tmp_path):
        script = write_script(
            tmp_path, "args.py",
            "import os, sys\nprint(sys.argv[1], os.environ.get('DEVUDF_FLAG'))\n")
        manager.add(RunConfiguration("args", script, arguments=["alpha"],
                                     environment={"DEVUDF_FLAG": "on"}))
        outcome = manager.run("args")
        assert "alpha on" in outcome.stdout

    def test_missing_script_raises(self, manager, tmp_path):
        manager.add(RunConfiguration("missing", tmp_path / "absent.py"))
        with pytest.raises(ProjectError):
            manager.run("missing")
