"""Tests of the reachability census's two halves on a tiny package: the static
pass (what counts as a name reference) and the profile hook (what a traced
process records, also when it dies of SIGTERM or runs a thread)."""

from __future__ import annotations

import importlib.util
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("reachability_census",
                                               HERE / "reachability_census.py")
census = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


def write_package(root: Path, files: dict[str, str]) -> Path:
    package = root / "pkg"
    for name, text in files.items():
        path = package / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return package


@pytest.fixture()
def package(tmp_path) -> Path:
    return write_package(tmp_path, {
        "__init__.py": """
            from .mod import only_reexported, used
            __all__ = ["only_reexported", "used", "in_all_only"]
        """,
        "mod.py": """
            import functools

            __all__ = ["in_all_only"]

            def used():
                return helper()

            def helper():
                return 1

            def only_reexported():
                return 2

            def in_all_only():
                return 3

            def by_getattr():
                return 4

            VALUE = used()

            class Node:
                @functools.cache
                def decorated(self):
                    return 5

                def __repr__(self):
                    return "Node"

                def _eval_Literal(self):
                    return getattr(self, "by_getattr")
        """,
    })


class TestStaticPass:
    def test_definitions_carry_module_qualname_and_decorator_line(self, package):
        found = {d.label: d for d in census.definitions(package)}
        assert set(found) == {"mod.used", "mod.helper", "mod.only_reexported",
                              "mod.in_all_only", "mod.by_getattr", "mod.Node.decorated",
                              "mod.Node.__repr__", "mod.Node._eval_Literal"}
        decorated = found["mod.Node.decorated"]
        lines = decorated.path.read_text().splitlines()
        assert lines[decorated.first_line - 1].strip() == "@functools.cache"
        assert decorated.lines == 3

    def test_reexports_and_all_are_not_references(self, package):
        names = census.referenced_names(package)
        assert {"used", "helper", "by_getattr", "functools"} <= names
        assert not {"only_reexported", "in_all_only", "decorated"} & names

    def test_candidates_are_unentered_and_unnamed(self, package):
        labels = {d.label for d in census.candidates(package, entered=set())}
        # __repr__ (a dunder) and _eval_Literal (dispatched by name) never are
        assert labels == {"mod.only_reexported", "mod.in_all_only", "mod.Node.decorated"}
        decorated = next(d for d in census.definitions(package) if d.name == "decorated")
        entered = {(str(decorated.path), decorated.first_line)}
        assert "mod.Node.decorated" not in {d.label for d in census.candidates(package, entered)}

    def test_nested_and_async_definitions_are_counted(self, tmp_path):
        package = write_package(tmp_path, {"__init__.py": "", "mod.py": """
            async def fetch():
                return 1

            def outer():
                def inner():
                    return 2
                return inner

            class Holder:
                class Inner:
                    def method(self):
                        return 3
        """})
        labels = {d.label for d in census.definitions(package)}
        assert labels == {"mod.fetch", "mod.outer", "mod.outer.<locals>.inner",
                          "mod.Holder.Inner.method"}
        # ``inner`` is named by ``return inner``; nothing names the other three
        assert {d.label for d in census.candidates(package, entered=set())} == {
            "mod.fetch", "mod.outer", "mod.Holder.Inner.method"}

    @pytest.mark.parametrize("call", ["getattr(obj, 'target')", "hasattr(obj, 'target')",
                                      "setattr(obj, 'target', None)"],
                             ids=["getattr", "hasattr", "setattr"])
    def test_a_constant_attribute_name_is_a_reference(self, tmp_path, call):
        package = write_package(tmp_path, {"__init__.py": "", "mod.py": f"""
            def target():
                return 1

            def dynamic(obj, name):
                {call}
                return getattr(obj, name)
        """})
        assert "target" in census.referenced_names(package)
        # a name only known at run time references nothing
        assert [d.name for d in census.candidates(package, entered=set())] == ["dynamic"]

    def test_kept_table_names_only_definitions_that_exist(self):
        """A row for a definition that was deleted or renamed is stale."""
        labels = {d.label for d in census.definitions(census.PACKAGE)}
        kept = census.kept_labels(census.ROOT / "ARCHITECTURE.md")
        assert kept
        assert kept <= labels

    def test_kept_labels_read_only_their_table(self, tmp_path):
        architecture = tmp_path / "ARCHITECTURE.md"
        architecture.write_text(textwrap.dedent(f"""\
            ## Elsewhere

            | `not.this` | a table under another heading |

            ## {census.KEEP_HEADING}

            | definition | user-facing API it serves |
            |---|---|
            | `mod.in_all_only` | a public helper |
            | `mod.Node.decorated` | another |

            ## After
            | `nor.this` | x |
        """))
        assert census.kept_labels(architecture) == {"mod.in_all_only", "mod.Node.decorated"}


class TestProfileHook:
    def run_traced(self, tmp_path, package: Path, script: str,
                   stop: signal.Signals | None = None) -> set[str]:
        work = tmp_path / "work"
        work.mkdir()
        env = census.tracing_env(work, package)
        env["PYTHONPATH"] += os.pathsep + str(package.parent)
        process = subprocess.Popen([sys.executable, "-c", textwrap.dedent(script)], env=env,
                                   stdout=subprocess.PIPE, text=True)
        if stop is not None:
            assert process.stdout.readline().strip() == "ready"
            process.send_signal(stop)
        process.communicate(timeout=60)
        by_line = {(str(d.path), d.first_line): d.name for d in census.definitions(package)}
        return {by_line[key] for key in census.entered_code(work) if key in by_line}

    @pytest.fixture()
    def traced_package(self, tmp_path) -> Path:
        return write_package(tmp_path, {
            "__init__.py": "",
            "work.py": """
                def main_thread():
                    return 1

                def in_a_thread():
                    return 2

                def never():
                    return 3
            """,
        })

    def test_main_thread_and_threads_are_recorded_at_exit(self, tmp_path, traced_package):
        entered = self.run_traced(tmp_path, traced_package, """
            import threading
            from pkg import work
            work.main_thread()
            thread = threading.Thread(target=work.in_a_thread)
            thread.start()
            thread.join()
        """)
        assert entered == {"main_thread", "in_a_thread"}

    def test_tracing_env_puts_the_hook_first_and_keeps_the_path(self, tmp_path, monkeypatch,
                                                                traced_package):
        monkeypatch.setenv("PYTHONPATH", "/already/there")
        env = census.tracing_env(tmp_path, traced_package)
        entries = env["PYTHONPATH"].split(os.pathsep)
        assert entries == [str(tmp_path / "site"), str(census.SRC), "/already/there"]
        hook = (tmp_path / "site" / "sitecustomize.py").read_text()
        assert repr(str(traced_package) + os.sep) in hook
        assert env["TMPDIR"] == str(tmp_path / "tmp")

    def test_entered_code_merges_the_dumps_of_every_process(self, tmp_path):
        (tmp_path / "entered").mkdir()
        (tmp_path / "entered" / "1-1.json").write_text('[["a.py", 1], ["a.py", 5]]')
        (tmp_path / "entered" / "2-1.json").write_text('[["a.py", 5], ["b.py", 2]]')
        assert census.entered_code(tmp_path) == {("a.py", 1), ("a.py", 5), ("b.py", 2)}

    def test_sigterm_dumps_before_the_process_dies(self, tmp_path, traced_package):
        entered = self.run_traced(tmp_path, traced_package, """
            import time
            from pkg import work
            work.main_thread()
            print("ready", flush=True)
            time.sleep(60)
            work.never()
        """, stop=signal.SIGTERM)
        assert entered == {"main_thread"}
