"""Failure-injection tests: the plugin must fail loudly and recoverably.

A tooling system earns its keep in the unhappy paths: the server rejecting a
broken UDF on export, a UDF that crashes server-side during extraction, a
corrupted local input blob, a connection that disappears mid-workflow.  These
tests pin down that every such failure surfaces as a typed error (or a
per-item failure report) and never silently corrupts the project state.
"""

import pytest

from repro.core.plugin import DevUDFPlugin
from repro.core.project import DevUDFProject
from repro.core.settings import DevUDFSettings
from repro.core.transfer import read_input_blob
from repro.errors import (
    DebugSessionError,
    ExecutionError,
    ExtractionError,
    UDFError,
)
from repro.netproto.server import DatabaseServer
from repro.sqldb.database import Database
from repro.workloads.udf_corpus import MEAN_DEVIATION_BUGGY_BODY, mean_deviation_create_sql


@pytest.fixture()
def demo_server() -> DatabaseServer:
    database = Database()
    database.execute("CREATE TABLE numbers (i INTEGER)")
    database.execute("INSERT INTO numbers VALUES (1), (2), (3)")
    database.execute(mean_deviation_create_sql(MEAN_DEVIATION_BUGGY_BODY))
    return DatabaseServer(database)


@pytest.fixture()
def plugin(demo_server, tmp_path) -> DevUDFPlugin:
    settings = DevUDFSettings(debug_query="SELECT mean_deviation(i) FROM numbers")
    instance = DevUDFPlugin(DevUDFProject(tmp_path / "proj"), settings, server=demo_server)
    yield instance
    instance.close()


class TestServerSideFailures:
    def test_crashing_udf_surfaces_during_extraction_of_its_loopback(self, demo_server,
                                                                      tmp_path):
        """A nested UDF whose loopback data query fails reports the SQL error."""
        database = demo_server.database
        database.execute(
            "CREATE FUNCTION outer_crasher(n INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {\n"
            "    res = _conn.execute('SELECT missing_column FROM numbers')\n"
            "    return 1.0\n}")
        settings = DevUDFSettings(debug_query="SELECT outer_crasher(1)")
        plugin = DevUDFPlugin(DevUDFProject(tmp_path / "crash"), settings,
                              server=demo_server)
        try:
            with pytest.raises(ExecutionError):
                plugin.prepare_debug("outer_crasher")
        finally:
            plugin.close()

    def test_udf_error_on_server_is_reported_not_hidden(self, plugin, demo_server):
        demo_server.database.execute(
            "CREATE OR REPLACE FUNCTION exploder(x INTEGER) RETURNS INTEGER "
            "LANGUAGE PYTHON { raise RuntimeError('boom inside the server') }")
        with pytest.raises((ExecutionError, UDFError), match="boom|exploder"):
            plugin.execute_sql("SELECT exploder(i) FROM numbers")

    def test_export_of_syntactically_broken_edit_fails_per_udf(self, plugin):
        plugin.import_udfs(["mean_deviation"])
        buffer = plugin.project.open_udf("mean_deviation")
        buffer.set_text(buffer.text.replace("def mean_deviation",
                                            "def mean_deviation(((("))
        buffer.save()
        report = plugin.export_udfs(["mean_deviation"])
        assert not report.ok
        assert "mean_deviation" in report.failed
        # the server still has the original, working definition
        assert plugin.execute_sql("SELECT mean_deviation(i) FROM numbers") is not None

    def test_server_restart_breaks_connection_but_plugin_reconnects(self, plugin,
                                                                    demo_server):
        plugin.connect()
        plugin.disconnect()
        # a new connection is created transparently on the next action
        assert plugin.execute_sql("SELECT 1").scalar() == 1


class TestLocalFailures:
    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_corrupted_input_blob_is_detected(self, plugin, damage):
        preparation = plugin.prepare_debug("mean_deviation")
        blob = preparation.input_path.read_bytes()
        preparation.input_path.write_bytes(
            b"definitely not a pickle" if damage == "garbage" else blob[:len(blob) // 2])
        with pytest.raises(ExtractionError):
            read_input_blob(preparation.input_path)
        local = plugin.run_udf_locally(preparation=preparation)
        assert local.failed
        assert local.exception_type in ("UnpicklingError", "EOFError", "PickleError",
                                        "Exception", "TypeError")

    def test_deleted_generated_file_reported(self, plugin):
        preparation = plugin.prepare_debug("mean_deviation")
        preparation.script_path.unlink()
        with pytest.raises(DebugSessionError):
            plugin.debug_udf(preparation=preparation)

    def test_debugging_a_udf_with_runtime_error_reports_line(self, demo_server, tmp_path):
        demo_server.database.execute(
            "CREATE FUNCTION divide_all(x INTEGER, d INTEGER) RETURNS DOUBLE "
            "LANGUAGE PYTHON { return x / d }")
        settings = DevUDFSettings(debug_query="SELECT divide_all(i, 0) FROM numbers")
        plugin = DevUDFPlugin(DevUDFProject(tmp_path / "diverr"), settings,
                              server=demo_server)
        try:
            preparation = plugin.prepare_debug("divide_all")
            local = plugin.run_udf_locally(preparation=preparation)
            # numpy turns integer-array / 0 into a warning, so force a scalar path
            if local.completed:
                pytest.skip("platform treats array division by zero as inf")
            assert local.exception_line is not None
        finally:
            plugin.close()

    def test_missing_udf_target_rejected(self, plugin):
        with pytest.raises(ExtractionError):
            plugin.prepare_debug("does_not_exist",
                                 debug_query="SELECT does_not_exist(i) FROM numbers")


class TestProjectStateIntegrity:
    def test_failed_export_does_not_lose_history(self, plugin):
        plugin.import_udfs(["mean_deviation"])
        commits_before = len(plugin.project.history())
        buffer = plugin.project.open_udf("mean_deviation")
        buffer.set_text("# metadata destroyed\n")
        buffer.save()
        plugin.export_udfs(["mean_deviation"])
        assert len(plugin.project.history()) >= commits_before

    def test_reimport_overwrites_broken_local_copy(self, plugin):
        plugin.import_udfs(["mean_deviation"])
        buffer = plugin.project.open_udf("mean_deviation")
        buffer.set_text("completely broken")
        buffer.save()
        plugin.import_udfs(["mean_deviation"])
        assert "def mean_deviation" in plugin.project.udf_source("mean_deviation")
