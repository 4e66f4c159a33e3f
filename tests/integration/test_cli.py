"""Tests for the ``devudf`` command-line interface."""

import json

import pytest

from repro.cli import main
from repro.netproto.server import AsyncSocketServer
from repro.workloads.udf_corpus import demo_server


@pytest.fixture()
def running_server(tmp_path):
    server, setup = demo_server(str(tmp_path / "csv"), buggy_mean_deviation=True,
                                with_extras=True, n_files=3, rows_per_file=10)
    socket_server = AsyncSocketServer(server, host="127.0.0.1", port=0)
    host, port = socket_server.start_background()
    yield server, setup, host, port
    socket_server.stop()


@pytest.fixture()
def configured_project(running_server, tmp_path):
    _, _, host, port = running_server
    project_dir = str(tmp_path / "cli_project")
    code = main([
        "configure", "--project", project_dir,
        "--host", host, "--port", str(port), "--database", "demo",
        "--username", "monetdb", "--password", "monetdb",
        "--debug-query", "SELECT mean_deviation(i) FROM numbers",
    ])
    assert code == 0
    return project_dir


class TestConfigure:
    def test_configure_writes_settings(self, configured_project):
        settings_file = f"{configured_project}/.devudf/settings.json"
        payload = json.loads(open(settings_file).read())
        assert payload["database"] == "demo"
        assert payload["debug_query"].startswith("SELECT mean_deviation")

    def test_configure_transfer_options(self, configured_project, capsys):
        code = main(["configure", "--project", configured_project,
                     "--compression", "zlib", "--encrypt", "--sample-size", "50"])
        assert code == 0
        assert "compression=zlib" in capsys.readouterr().out

    def test_unconfigured_project_rejected(self, tmp_path, capsys):
        code = main(["list", "--project", str(tmp_path / "nowhere")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestListImportExport:
    def test_list(self, configured_project, capsys):
        assert main(["list", "--project", configured_project]) == 0
        out = capsys.readouterr().out
        assert "mean_deviation" in out and "add_one" in out

    def test_import_and_export(self, configured_project, running_server, capsys):
        assert main(["import", "--project", configured_project, "mean_deviation"]) == 0
        assert "imported mean_deviation" in capsys.readouterr().out
        assert main(["export", "--project", configured_project, "mean_deviation"]) == 0
        assert "exported mean_deviation" in capsys.readouterr().out

    def test_import_all(self, configured_project, capsys):
        assert main(["import", "--project", configured_project]) == 0
        out = capsys.readouterr().out
        assert "mean_deviation" in out and "add_one" in out

    def test_history_after_import(self, configured_project, capsys):
        main(["import", "--project", configured_project, "mean_deviation"])
        capsys.readouterr()
        assert main(["history", "--project", configured_project]) == 0
        assert "Import UDFs" in capsys.readouterr().out


class TestDebugCommand:
    def test_debug_run_only(self, configured_project, capsys):
        code = main(["debug", "--project", configured_project, "--run-only"])
        assert code == 0
        out = capsys.readouterr().out
        assert "debug target: mean_deviation" in out
        assert "local run succeeded" in out

    def test_debug_with_breakpoint_text_and_watch(self, configured_project, capsys):
        code = main([
            "debug", "--project", configured_project,
            "--breakpoint-text", "distance += column[i] - mean",
            "--watch", "distance",
            "--max-stops", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "debug session finished" in out
        assert "distance" in out


class TestStandaloneCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Eclipse" in out and "PyCharm" in out and "IDE share" in out

    def test_demo_server_command(self, tmp_path, capsys):
        code = main(["demo-server", "--csv-dir", str(tmp_path / "cli_csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "demo server listening" in out
        assert "CSV workload" in out

    def test_demo_server_command_durable(self, tmp_path, capsys):
        db_path = tmp_path / "demo.db"
        code = main(["demo-server", "--csv-dir", str(tmp_path / "cli_csv"),
                     "--db", str(db_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "durable" in out
        # shutdown auto-checkpointed: the demo corpus survives on disk
        assert db_path.exists()
        from repro.sqldb.database import Database

        recovered = Database(path=db_path)
        assert recovered.row_count("numbers") > 0
        assert recovered.has_function("mean_deviation")
        recovered.close()
        # a second launch over the same file serves the recovered state
        # without re-ingesting the CSVs
        rows_before = recovered.row_count("numbers")
        code = main(["demo-server", "--csv-dir", str(tmp_path / "cli_csv"),
                     "--db", str(db_path)])
        assert code == 0
        recheck = Database(path=db_path)
        assert recheck.row_count("numbers") == rows_before
        recheck.close()
