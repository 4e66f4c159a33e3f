"""Tests for the traditional-vs-devUDF workflow simulators (the C4 machinery)."""

import contextlib
import io

import pytest

from repro.core.workflow import (
    DeveloperCostModel,
    DevUDFWorkflow,
    TraditionalWorkflow,
    WorkflowMetrics,
    compare_workflows,
)
from repro.netproto.server import DatabaseServer
from repro.workloads.scenarios import ScenarioA, ScenarioB, make_scenario_a, make_scenario_b


@pytest.fixture()
def scenario_a(tmp_path) -> ScenarioA:
    return ScenarioA(tmp_path / "csv_a", n_files=3, rows_per_file=10)


@pytest.fixture()
def scenario_b(tmp_path) -> ScenarioB:
    return ScenarioB(tmp_path / "csv_b", n_files=3, rows_per_file=10)


def run_quietly(callable_, *args, **kwargs):
    """Suppress the print-debugging output the instrumented UDFs produce."""
    with contextlib.redirect_stdout(io.StringIO()):
        return callable_(*args, **kwargs)


class TestTraditionalWorkflow:
    def test_scenario_a_metrics(self, scenario_a):
        server = DatabaseServer()
        scenario_a.setup(server)
        metrics = run_quietly(TraditionalWorkflow().run, scenario_a, server)
        assert metrics.workflow == "traditional"
        assert metrics.bug_found
        assert metrics.final_result_correct
        # initial run + 3 print rounds + the fix
        assert metrics.full_query_executions == 5
        assert metrics.udf_recreations == 4
        assert metrics.manual_transformations == 4
        assert metrics.developer_iterations == 5
        assert metrics.server_round_trips >= metrics.full_query_executions

    def test_scenario_b_metrics(self, scenario_b):
        server = DatabaseServer()
        scenario_b.setup(server)
        metrics = run_quietly(TraditionalWorkflow().run, scenario_b, server)
        assert metrics.bug_found and metrics.final_result_correct
        assert metrics.udf_recreations == 3


class TestDevUDFWorkflow:
    def test_scenario_a_metrics(self, scenario_a, tmp_path):
        server = DatabaseServer()
        scenario_a.setup(server)
        metrics = run_quietly(DevUDFWorkflow(tmp_path / "projects").run, scenario_a, server)
        assert metrics.workflow == "devudf"
        assert metrics.bug_found
        assert metrics.final_result_correct
        assert metrics.debug_sessions == 1
        assert metrics.local_runs == 1
        assert metrics.full_query_executions == 1
        assert metrics.udf_recreations == 1  # only the export
        assert metrics.manual_transformations == 0

    def test_scenario_b_metrics(self, scenario_b, tmp_path):
        server = DatabaseServer()
        scenario_b.setup(server)
        metrics = run_quietly(DevUDFWorkflow(tmp_path / "projects").run, scenario_b, server)
        assert metrics.bug_found and metrics.final_result_correct
        assert metrics.manual_transformations == 0


class TestComparison:
    @pytest.mark.parametrize("factory_maker", [make_scenario_a, make_scenario_b])
    def test_devudf_wins_on_both_scenarios(self, factory_maker, tmp_path):
        """The paper's headline claim, made checkable (C4)."""
        comparison = run_quietly(
            compare_workflows, factory_maker(tmp_path / "wf"),
            project_root=tmp_path / "projects")
        assert comparison.devudf_wins
        assert comparison.devudf.full_query_executions < \
            comparison.traditional.full_query_executions
        assert comparison.devudf.udf_recreations < comparison.traditional.udf_recreations
        assert comparison.iteration_reduction >= 1.0
        assert comparison.devudf.estimated_developer_seconds < \
            comparison.traditional.estimated_developer_seconds


class TestCostModel:
    def test_estimate_components(self):
        model = DeveloperCostModel(
            seconds_per_edit_iteration=10, seconds_per_manual_transformation=5,
            seconds_per_server_round_trip=1, seconds_per_debug_session=20,
            wire_bandwidth_bytes_per_second=100)
        metrics = WorkflowMetrics(
            workflow="x", scenario="s", developer_iterations=3,
            manual_transformations=2, server_round_trips=4, debug_sessions=1,
            wire_bytes=200)
        assert model.estimate(metrics) == pytest.approx(30 + 10 + 4 + 20 + 2)

    def test_manual_transformation_cost_penalises_traditional_only(self, tmp_path):
        comparison = run_quietly(
            compare_workflows, make_scenario_a(tmp_path / "wf"),
            project_root=tmp_path / "projects")
        assert comparison.traditional.manual_transformations > 0
        assert comparison.devudf.manual_transformations == 0
