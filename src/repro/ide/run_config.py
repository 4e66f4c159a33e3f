"""Run / debug configurations.

Running an imported UDF under the IDE's debugger is done "by running the
project as they would run a normal PyCharm project (using the 'Debug'
command)" (paper §2.1).  A run configuration names the script to execute, its
working directory, and whether to attach the interactive debugger.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import ProjectError


@dataclass
class RunConfiguration:
    """What to run and how (the PyCharm 'Run/Debug Configuration' dialog)."""

    name: str
    script_path: Path
    working_directory: Path | None = None
    environment: dict[str, str] = field(default_factory=dict)
    arguments: list[str] = field(default_factory=list)
    use_debugger: bool = False

    def __post_init__(self) -> None:
        self.script_path = Path(self.script_path)
        if self.working_directory is not None:
            self.working_directory = Path(self.working_directory)

    @property
    def resolved_working_directory(self) -> Path:
        return self.working_directory or self.script_path.parent


@dataclass
class RunOutcome:
    """What happened when a configuration was run."""

    configuration: RunConfiguration
    exit_code: int
    stdout: str = ""
    stderr: str = ""
    exception: str | None = None


class RunManager:
    """Stores configurations and runs them as subprocesses (plain 'Run').

    Debug runs do not go through a subprocess — the interactive debugger in
    :mod:`repro.core.debugger` executes the script in-process so breakpoints
    and stepping can be driven programmatically.
    """

    def __init__(self) -> None:
        self.configurations: dict[str, RunConfiguration] = {}
        self.history: list[RunOutcome] = []

    def add(self, configuration: RunConfiguration) -> RunConfiguration:
        self.configurations[configuration.name] = configuration
        return configuration

    def get(self, name: str) -> RunConfiguration:
        try:
            return self.configurations[name]
        except KeyError:
            raise ProjectError(f"unknown run configuration {name!r}") from None

    def run(self, name: str, *, timeout: float = 60.0,
            extra_env: dict[str, str] | None = None) -> RunOutcome:
        """Run a configuration as ``python script.py`` and capture its output."""
        configuration = self.get(name)
        if not configuration.script_path.exists():
            raise ProjectError(f"script {configuration.script_path} does not exist")
        env: dict[str, str] = {}
        env.update(configuration.environment)
        if extra_env:
            env.update(extra_env)
        import os

        full_env = dict(os.environ)
        full_env.update(env)
        try:
            completed = subprocess.run(
                [sys.executable, str(configuration.script_path), *configuration.arguments],
                cwd=str(configuration.resolved_working_directory),
                capture_output=True,
                text=True,
                timeout=timeout,
                env=full_env,
                check=False,
            )
            outcome = RunOutcome(
                configuration=configuration,
                exit_code=completed.returncode,
                stdout=completed.stdout,
                stderr=completed.stderr,
            )
        except subprocess.TimeoutExpired as exc:
            outcome = RunOutcome(
                configuration=configuration,
                exit_code=-1,
                stdout=exc.stdout or "" if isinstance(exc.stdout, str) else "",
                stderr=exc.stderr or "" if isinstance(exc.stderr, str) else "",
                exception=f"timeout after {timeout}s",
            )
        self.history.append(outcome)
        return outcome
