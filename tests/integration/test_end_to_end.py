"""End-to-end integration tests spanning all subsystems.

These reproduce the paper's demo outline (§2.5) over a *real TCP connection*:
server with CSV data and buggy UDFs -> plugin connects -> import -> local
debug -> fix -> export -> verify, for both scenarios and for the nested
classifier example.
"""

import contextlib
import io

import pytest

from repro.core.plugin import DevUDFPlugin
from repro.core.project import DevUDFProject
from repro.core.settings import DevUDFSettings
from repro.netproto.server import AsyncSocketServer
from repro.workloads.scenarios import ScenarioA
from repro.workloads.udf_corpus import demo_server, setup_classifier_database


@pytest.fixture()
def tcp_demo(tmp_path):
    """A demo server (buggy mean_deviation + extras + classifier) over TCP."""
    server, setup = demo_server(str(tmp_path / "csv"), buggy_mean_deviation=True,
                                with_extras=True, n_files=4, rows_per_file=25)
    setup_classifier_database(server.database, n_rows=40)
    socket_server = AsyncSocketServer(server, host="127.0.0.1", port=0)
    host, port = socket_server.start_background()
    yield server, setup, host, port, tmp_path
    socket_server.stop()


class TestScenarioAOverTCP:
    def test_full_demo_walkthrough(self, tcp_demo):
        server, setup, host, port, tmp_path = tcp_demo
        reference = setup.workload.mean_deviation()
        settings = DevUDFSettings(
            host=host, port=port, database="demo",
            username="monetdb", password="monetdb",
            debug_query="SELECT mean_deviation(i) FROM numbers",
        )
        project = DevUDFProject(tmp_path / "ide_project")
        plugin = DevUDFPlugin(project, settings)
        try:
            # the buggy UDF gives the wrong answer on the server
            wrong = plugin.execute_sql(settings.debug_query).scalar()
            assert abs(wrong - reference) > 1.0

            # import -> extract -> debug -> the bug is visible
            plugin.import_udfs(["mean_deviation"])
            preparation = plugin.prepare_debug("mean_deviation")
            source = project.udf_source("mean_deviation")
            line = next(number for number, text in enumerate(source.splitlines(), 1)
                        if "distance += column[i] - mean" in text)
            outcome = plugin.debug_udf(preparation=preparation, breakpoints=[line],
                                       watches={"distance": "distance"})
            assert any(isinstance(s.watches["distance"], (int, float))
                       and s.watches["distance"] < 0 for s in outcome.breakpoint_stops)

            # fix, verify locally, export, verify remotely
            buffer = project.open_udf("mean_deviation")
            buffer.set_text(buffer.text.replace("distance += column[i] - mean",
                                                "distance += abs(column[i] - mean)"))
            buffer.save()
            local = plugin.run_udf_locally(preparation=preparation)
            assert local.result == pytest.approx(reference)
            plugin.export_udfs(["mean_deviation"])
            fixed = plugin.execute_sql(settings.debug_query).scalar()
            assert fixed == pytest.approx(reference)

            # the whole history is in version control
            messages = [commit.message for commit in project.history()]
            assert any("Import" in message for message in messages)
            assert any("Export" in message for message in messages)
        finally:
            plugin.close()

    def test_transfer_options_affect_extraction_only_not_results(self, tcp_demo):
        _, setup, host, port, tmp_path = tcp_demo
        settings = DevUDFSettings(
            host=host, port=port, database="demo",
            username="monetdb", password="monetdb",
            debug_query="SELECT mean_deviation(i) FROM numbers",
        )
        project = DevUDFProject(tmp_path / "transfer_project")
        plugin = DevUDFPlugin(project, settings)
        try:
            plugin.import_udfs(["mean_deviation"])
            plain = plugin.prepare_debug("mean_deviation")
            plugin.configure(use_compression=True, use_encryption=True)
            protected = plugin.prepare_debug("mean_deviation")
            assert protected.inputs.rows_extracted == plain.inputs.rows_extracted
            assert protected.inputs.wire_bytes != plain.inputs.wire_bytes
            local = plugin.run_udf_locally(preparation=protected)
            assert local.completed
        finally:
            plugin.close()


class TestNestedClassifierOverTCP:
    def test_nested_udf_local_run_matches_server(self, tcp_demo):
        server, _, host, port, tmp_path = tcp_demo
        settings = DevUDFSettings(
            host=host, port=port, database="demo",
            username="monetdb", password="monetdb",
            debug_query="SELECT * FROM find_best_classifier(2)",
        )
        project = DevUDFProject(tmp_path / "nested_project")
        plugin = DevUDFPlugin(project, settings)
        try:
            report = plugin.import_udfs(["find_best_classifier"])
            assert report.imported[0].nested_udfs == ["train_rnforest"]
            preparation = plugin.prepare_debug("find_best_classifier")
            local = plugin.run_udf_locally(preparation=preparation)
            assert local.completed
            server_row = plugin.execute_sql(settings.debug_query).fetchone()
            assert local.result["n_estimators"] == server_row[1]
            assert local.result["correct"] == server_row[2]
        finally:
            plugin.close()


class TestMultiUserDevelopment:
    def test_two_developers_share_one_server(self, tcp_demo):
        """Cooperative development: two projects against the same server."""
        server, setup, host, port, tmp_path = tcp_demo
        server.registry.add_user("alice", "alicepw", database="demo")
        server.registry.add_user("bob", "bobpw", database="demo")

        def make_plugin(user, password, directory):
            settings = DevUDFSettings(
                host=host, port=port, database="demo", username=user, password=password,
                debug_query="SELECT mean_deviation(i) FROM numbers")
            return DevUDFPlugin(DevUDFProject(tmp_path / directory), settings)

        alice = make_plugin("alice", "alicepw", "alice_project")
        bob = make_plugin("bob", "bobpw", "bob_project")
        try:
            alice.import_udfs(["mean_deviation"])
            buffer = alice.project.open_udf("mean_deviation")
            buffer.set_text(buffer.text.replace("distance += column[i] - mean",
                                                "distance += abs(column[i] - mean)"))
            buffer.save()
            alice.export_udfs(["mean_deviation"])

            # Bob imports after Alice's fix and sees the corrected body
            bob.import_udfs(["mean_deviation"])
            assert "abs(column[i] - mean)" in bob.project.udf_source("mean_deviation")
        finally:
            alice.close()
            bob.close()


class TestWorkflowComparisonSmoke:
    def test_scenario_a_comparison_runs_quickly(self, tmp_path):
        from repro.core.workflow import compare_workflows
        from repro.workloads.scenarios import make_scenario_a

        with contextlib.redirect_stdout(io.StringIO()):
            comparison = compare_workflows(
                make_scenario_a(tmp_path / "wf", n_files=2, rows_per_file=5),
                project_root=tmp_path / "projects")
        assert comparison.devudf_wins


class TestScenarioObjectsAgainstInProcessServer:
    def test_scenario_a_reference_stable_across_instances(self, tmp_path):
        first = ScenarioA(tmp_path / "csv", n_files=3, rows_per_file=10, seed=21)
        second = ScenarioA(tmp_path / "csv2", n_files=3, rows_per_file=10, seed=21)
        from repro.netproto.server import DatabaseServer

        server_a, server_b = DatabaseServer(), DatabaseServer()
        first.setup(server_a)
        second.setup(server_b)
        assert first.reference_value() == pytest.approx(second.reference_value())
