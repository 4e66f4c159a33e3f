"""Tests for the DevUDFPlugin facade (Figure 1 + the Debug command)."""

import pytest

from repro.core.plugin import DevUDFPlugin
from repro.core.project import DevUDFProject
from repro.core.settings import DevUDFSettings
from repro.errors import ExtractionError, SettingsError
from repro.netproto.server import DatabaseServer
from repro.sqldb.database import Database
from repro.workloads.udf_corpus import (
    MEAN_DEVIATION_BUGGY_BODY,
    mean_deviation_create_sql,
    setup_classifier_database,
    setup_mixed_catalog,
)


@pytest.fixture()
def demo_server() -> DatabaseServer:
    database = Database()
    database.execute("CREATE TABLE numbers (i INTEGER)")
    for value in (1, 2, 3, 4, 10):
        database.execute(f"INSERT INTO numbers VALUES ({value})")
    database.execute(mean_deviation_create_sql(MEAN_DEVIATION_BUGGY_BODY))
    setup_mixed_catalog(database)
    return DatabaseServer(database)


@pytest.fixture()
def plugin(demo_server, tmp_path) -> DevUDFPlugin:
    settings = DevUDFSettings(debug_query="SELECT mean_deviation(i) FROM numbers")
    instance = DevUDFPlugin(DevUDFProject(tmp_path / "proj"), settings, server=demo_server)
    yield instance
    instance.close()


class TestMenuContribution:
    def test_figure1_menu_structure(self, plugin):
        """The main menu gains a 'UDF Development' entry with the three actions."""
        assert plugin.SUBMENU_LABEL in plugin.menu.labels()
        group = plugin.menu.menu(plugin.SUBMENU_LABEL)
        assert group.action_labels() == ["Settings", "Import UDFs", "Export UDFs"]

    def test_actions_are_invokable(self, plugin):
        action = plugin.menu.menu(plugin.SUBMENU_LABEL).action(plugin.ACTION_IMPORT)
        report = action.invoke(["mean_deviation"])
        assert report.imported_names == ["mean_deviation"]
        assert action.invocations == 1

    def test_settings_action_updates_and_persists(self, plugin):
        group = plugin.menu.menu(plugin.SUBMENU_LABEL)
        group.action(plugin.ACTION_SETTINGS).invoke(port=49999)
        assert plugin.settings.port == 49999
        assert plugin.project.load_settings().port == 49999

    def test_unknown_setting_rejected(self, plugin):
        with pytest.raises(SettingsError):
            plugin.configure(flux_capacitor=True)

    def test_transfer_settings_via_configure(self, plugin):
        plugin.configure(use_compression=True, use_sampling=True, sample_size=3)
        assert plugin.settings.transfer.use_compression
        assert plugin.settings.transfer.sample_size == 3


class TestConnection:
    def test_connect_reuses_connection(self, plugin):
        first = plugin.connect()
        second = plugin.connect()
        assert first is second

    def test_configure_invalidates_connection(self, plugin):
        first = plugin.connect()
        plugin.configure(database="demo")
        second = plugin.connect()
        assert first is not second

    def test_execute_sql(self, plugin):
        assert plugin.execute_sql("SELECT COUNT(*) FROM numbers").scalar() == 5


class TestDebugTargetDiscovery:
    def test_target_found_from_debug_query(self, plugin):
        assert plugin.find_debug_target() == "mean_deviation"

    def test_explicit_query_overrides_settings(self, plugin):
        assert plugin.find_debug_target("SELECT add_one(i) FROM numbers") == "add_one"

    def test_no_udf_in_query_rejected(self, plugin):
        with pytest.raises(ExtractionError):
            plugin.find_debug_target("SELECT i FROM numbers")

    @pytest.mark.parametrize("query", [
        "SELECT i FROM numbers WHERE 'add_one(i)' <> ''",
        "SELECT i /* add_one(i) */ FROM numbers -- add_one(i)",
    ], ids=["literal", "comments"])
    def test_a_call_in_a_literal_or_comment_is_no_target(self, plugin, query):
        with pytest.raises(ExtractionError):
            plugin.find_debug_target(query)

    def test_the_call_outside_a_literal_is_the_target(self, plugin):
        assert plugin.find_debug_target(
            "SELECT 'mean_deviation(i)', add_one(i) FROM numbers") == "add_one"

    def test_missing_query_rejected(self, plugin):
        plugin.settings.debug_query = ""
        with pytest.raises(SettingsError):
            plugin.find_debug_target()


class TestPrepareDebug:
    def test_preparation_artifacts(self, plugin):
        preparation = plugin.prepare_debug()
        assert preparation.udf_name == "mean_deviation"
        assert preparation.script_path.exists()
        assert preparation.input_path.exists()
        assert preparation.imported_now == ["mean_deviation"]
        assert preparation.inputs.rows_extracted == 5
        assert preparation.blob_stats.stored_bytes > 0

    def test_prepare_uses_already_imported_file(self, plugin):
        plugin.import_udfs(["mean_deviation"])
        preparation = plugin.prepare_debug()
        assert preparation.imported_now == []

    def test_prepare_requires_debug_query(self, plugin):
        plugin.settings.debug_query = "   "
        with pytest.raises(SettingsError):
            plugin.prepare_debug()

    def test_prepare_with_sampling(self, plugin):
        plugin.configure(use_sampling=True, sample_size=2)
        preparation = plugin.prepare_debug()
        assert len(preparation.inputs.parameters["column"]) == 2


class TestRunAndDebug:
    def test_run_udf_locally_matches_server(self, plugin):
        preparation = plugin.prepare_debug()
        local = plugin.run_udf_locally(preparation=preparation)
        server_value = plugin.execute_sql(plugin.settings.debug_query).scalar()
        assert local.completed
        assert local.result == pytest.approx(server_value)

    def test_debug_with_breakpoints_and_watches(self, plugin):
        preparation = plugin.prepare_debug()
        source = plugin.project.udf_source("mean_deviation")
        line = next(number for number, text in enumerate(source.splitlines(), 1)
                    if "distance += column[i] - mean" in text)
        outcome = plugin.debug_udf(preparation=preparation, breakpoints=[line],
                                   watches={"distance": "distance"})
        assert outcome.completed
        assert len(outcome.breakpoint_stops) == 5
        assert any(isinstance(stop.watches["distance"], (int, float))
                   and stop.watches["distance"] < 0
                   for stop in outcome.breakpoint_stops)

    def test_file_that_does_not_compile_fails_run_and_debug_alike(self, plugin):
        preparation = plugin.prepare_debug()
        source = preparation.script_path.read_text()
        preparation.script_path.write_text(source.replace("mean = 0\n", "mean = (0\n", 1))
        local = plugin.run_udf_locally(preparation=preparation)
        outcome = plugin.debug_udf(preparation=preparation, breakpoints=[1])
        assert not local.completed and not outcome.completed
        assert local.exception_type == outcome.exception_type == "SyntaxError"
        assert local.exception_line == outcome.exception_line is not None

    def test_nested_udf_debugging_end_to_end(self, tmp_path):
        database = Database()
        setup_classifier_database(database, n_rows=40)
        server = DatabaseServer(database)
        settings = DevUDFSettings(debug_query="SELECT * FROM find_best_classifier(2)")
        plugin = DevUDFPlugin(DevUDFProject(tmp_path / "nested"), settings, server=server)
        try:
            preparation = plugin.prepare_debug()
            assert preparation.udf_name == "find_best_classifier"
            local = plugin.run_udf_locally(preparation=preparation)
            assert local.completed
            server_row = plugin.execute_sql(settings.debug_query).fetchone()
            assert local.result["n_estimators"] == server_row[1]
            assert local.result["correct"] == server_row[2]
        finally:
            plugin.close()

    def test_a_nested_call_takes_its_literals_as_written(self, tmp_path):
        database = Database()
        database.execute("CREATE TABLE labels (s STRING, n INTEGER)")
        database.execute("INSERT INTO labels VALUES ('A', 1), ('a', 2)")
        database.execute(
            "CREATE FUNCTION tag(s STRING, n INTEGER) RETURNS TABLE(tag STRING) "
            "LANGUAGE PYTHON {\n"
            "    first = lambda v: numpy.asarray(v).ravel()[0]\n"
            "    return {'tag': [str(first(s)) + '|' + str(int(first(n)))]}\n};")
        database.execute(
            "CREATE FUNCTION tagged(k INTEGER) "
            "RETURNS TABLE(tag STRING, upper INTEGER, lower INTEGER) "
            "LANGUAGE PYTHON {\n"
            "    tags = _conn.execute(\"SELECT * FROM tag('Up,(x', 2)\")\n"
            "    upper = _conn.execute(\"SELECT n FROM labels WHERE s = 'A'\")\n"
            "    lower = _conn.execute(\"SELECT n FROM labels WHERE s = 'a'\")\n"
            "    return {'tag': [str(tags['tag'][0])], 'upper': [int(upper['n'][0])],\n"
            "            'lower': [int(lower['n'][0])]}\n};")
        server = DatabaseServer(database)
        settings = DevUDFSettings(debug_query="SELECT * FROM tagged(1)")
        plugin = DevUDFPlugin(DevUDFProject(tmp_path / "literals"), settings,
                              server=server)
        try:
            server_row = plugin.execute_sql(settings.debug_query).fetchone()
            assert server_row == ("Up,(x|2", 1, 2)
            local = plugin.run_udf_locally(preparation=plugin.prepare_debug())
            assert local.completed, local.exception_type
            assert (local.result["tag"][0], local.result["upper"][0],
                    local.result["lower"][0]) == server_row
        finally:
            plugin.close()

    def test_context_manager_closes_connection(self, demo_server, tmp_path):
        settings = DevUDFSettings(debug_query="SELECT mean_deviation(i) FROM numbers")
        with DevUDFPlugin(DevUDFProject(tmp_path / "ctx"), settings,
                          server=demo_server) as plugin:
            plugin.connect()
        assert plugin._connection is None or plugin._connection.closed
