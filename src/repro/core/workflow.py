"""Workflow simulators: traditional UDF development vs devUDF (the headline claim).

The paper's introduction and demo outline (§1, §2.5) contrast two workflows:

* **Traditional**: write the UDF in a text editor, ``CREATE FUNCTION`` it into
  the database, run the SQL query, and — when it misbehaves — fall back to
  print debugging: instrument the body, re-create the function, re-run the
  query, repeat until the bug is found, then fix and re-run once more.
* **devUDF**: import the UDF into the IDE, extract its input data once, debug
  it locally with breakpoints/stepping/watches, fix it in place, verify
  locally, and export the fixed function back.

The paper never quantifies "faster and easier", so the reproduction
operationalises it: both workflows are driven programmatically over the same
buggy scenario and the simulator counts developer iterations, server round
trips, UDF re-creations, bytes moved, and (optionally) an estimated developer
time from a simple cost model.  The C4 benchmark reports these side by side.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import DevUDFError
from ..netproto.server import DatabaseServer
from .debugger import Breakpoint, Controller, DebugOutcome
from .plugin import DevUDFPlugin
from .project import DevUDFProject
from .runner import LocalUDFRunner
from .settings import DevUDFSettings


# --------------------------------------------------------------------------- #
# scenario interface (implemented by repro.workloads.scenarios)
# --------------------------------------------------------------------------- #
class DebuggingScenario(ABC):
    """A buggy-UDF scenario both workflows are driven over."""

    #: short identifier ("scenario_a", "scenario_b", ...)
    name: str = "scenario"
    #: the UDF under development
    udf_name: str = ""
    #: the SQL query that executes the UDF (the settings' debug query)
    debug_query: str = ""

    @abstractmethod
    def setup(self, server: DatabaseServer) -> None:
        """Create tables, load data, and create the *buggy* UDF on the server."""

    @abstractmethod
    def reference_value(self) -> Any:
        """The correct result the developer compares against (§2.5)."""

    @abstractmethod
    def is_correct(self, value: Any) -> bool:
        """Whether a query result matches the reference."""

    @abstractmethod
    def fixed_create_sql(self) -> str:
        """CREATE OR REPLACE FUNCTION with the corrected body."""

    @abstractmethod
    def instrumented_create_sql(self, round_index: int) -> str:
        """The body the developer would try in print-debugging round ``round_index``."""

    @abstractmethod
    def print_debug_rounds(self) -> int:
        """How many print-instrumentation rounds the traditional workflow needs."""

    # -- devUDF side ------------------------------------------------------- #
    @abstractmethod
    def apply_fix_to_source(self, source: str) -> str:
        """Apply the fix to the imported (generated) file's source text."""

    @abstractmethod
    def debugger_breakpoints(self, source: str) -> list[int | Breakpoint]:
        """Breakpoint line numbers in the generated file."""

    def debugger_watches(self) -> dict[str, str]:
        return {}

    def debugger_controller(self) -> Controller | None:
        return None

    @abstractmethod
    def bug_visible_in_debugger(self, outcome: DebugOutcome) -> bool:
        """Whether the recorded debug session exposes the bug."""

    def extract_result_value(self, query_result: Any) -> Any:
        """Pull the comparable value out of the debug query's result."""
        try:
            return query_result.scalar()
        except Exception:  # noqa: BLE001 - scenario-specific results may differ
            return query_result.fetchall()


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
@dataclass
class DeveloperCostModel:
    """Crude per-action developer costs used to estimate end-to-end time.

    These are knobs, not measurements: the benchmark reports both the raw
    counts and the modelled time so the comparison's *shape* is transparent.
    """

    seconds_per_edit_iteration: float = 45.0
    #: manually converting Python code into a CREATE FUNCTION statement and
    #: back — the pain point §1 calls out; devUDF automates it away.
    seconds_per_manual_transformation: float = 30.0
    seconds_per_server_round_trip: float = 0.5
    seconds_per_debug_session: float = 60.0
    wire_bandwidth_bytes_per_second: float = 10e6  # 10 MB/s, a modest office link

    def estimate(self, metrics: "WorkflowMetrics") -> float:
        return (
            metrics.developer_iterations * self.seconds_per_edit_iteration
            + metrics.manual_transformations * self.seconds_per_manual_transformation
            + metrics.server_round_trips * self.seconds_per_server_round_trip
            + metrics.debug_sessions * self.seconds_per_debug_session
            + metrics.wire_bytes / self.wire_bandwidth_bytes_per_second
        )


@dataclass
class WorkflowMetrics:
    """What one workflow run cost and whether it succeeded."""

    workflow: str
    scenario: str
    developer_iterations: int = 0
    server_round_trips: int = 0
    udf_recreations: int = 0
    #: UDF re-creations that required the developer to hand-convert code
    #: between Python and SQL (always zero for devUDF, which automates it).
    manual_transformations: int = 0
    full_query_executions: int = 0
    debug_sessions: int = 0
    local_runs: int = 0
    wire_bytes: int = 0
    rows_transferred: int = 0
    elapsed_seconds: float = 0.0
    estimated_developer_seconds: float = 0.0
    bug_found: bool = False
    final_result_correct: bool = False
    notes: list[str] = field(default_factory=list)

    def as_row(self) -> dict[str, Any]:
        return {
            "workflow": self.workflow,
            "scenario": self.scenario,
            "iterations": self.developer_iterations,
            "round_trips": self.server_round_trips,
            "udf_recreations": self.udf_recreations,
            "manual_transformations": self.manual_transformations,
            "query_executions": self.full_query_executions,
            "debug_sessions": self.debug_sessions,
            "wire_bytes": self.wire_bytes,
            "estimated_developer_seconds": round(self.estimated_developer_seconds, 1),
            "bug_found": self.bug_found,
            "final_result_correct": self.final_result_correct,
        }


# --------------------------------------------------------------------------- #
# the traditional workflow (§1: text editor + CREATE FUNCTION + print debugging)
# --------------------------------------------------------------------------- #
class TraditionalWorkflow:
    """Simulates the edit / CREATE FUNCTION / re-run / print-debug loop."""

    def __init__(self, cost_model: DeveloperCostModel | None = None) -> None:
        self.cost_model = cost_model or DeveloperCostModel()

    def run(self, scenario: DebuggingScenario, server: DatabaseServer) -> WorkflowMetrics:
        from ..netproto.client import Connection

        metrics = WorkflowMetrics(workflow="traditional", scenario=scenario.name)
        start = time.perf_counter()
        connection = Connection.connect_in_process(server)
        try:
            # 1. run the query, observe the wrong result
            result = connection.execute(scenario.debug_query)
            metrics.full_query_executions += 1
            metrics.developer_iterations += 1
            value = scenario.extract_result_value(result)
            if scenario.is_correct(value):
                metrics.notes.append("initial result already correct (unexpected)")

            # 2. print-debugging rounds: instrument, re-create, re-run
            for round_index in range(scenario.print_debug_rounds()):
                connection.execute(scenario.instrumented_create_sql(round_index))
                metrics.udf_recreations += 1
                connection.execute(scenario.debug_query)
                metrics.full_query_executions += 1
                metrics.developer_iterations += 1
            metrics.bug_found = True

            # 3. the fix: re-create the corrected UDF and re-run the query
            connection.execute(scenario.fixed_create_sql())
            metrics.udf_recreations += 1
            result = connection.execute(scenario.debug_query)
            metrics.full_query_executions += 1
            metrics.developer_iterations += 1
            metrics.final_result_correct = scenario.is_correct(
                scenario.extract_result_value(result))

            metrics.manual_transformations = metrics.udf_recreations
            metrics.server_round_trips = connection.stats.queries
            metrics.wire_bytes = connection.stats.wire_bytes_received
            metrics.rows_transferred = connection.stats.rows_received
        finally:
            connection.close()
        metrics.elapsed_seconds = time.perf_counter() - start
        metrics.estimated_developer_seconds = self.cost_model.estimate(metrics)
        return metrics


# --------------------------------------------------------------------------- #
# the devUDF workflow (§2: import, debug locally, fix, export)
# --------------------------------------------------------------------------- #
class DevUDFWorkflow:
    """Simulates the IDE-integrated workflow the plugin enables."""

    def __init__(self, project_root: str | Path,
                 cost_model: DeveloperCostModel | None = None,
                 settings: DevUDFSettings | None = None) -> None:
        self.project_root = Path(project_root)
        self.cost_model = cost_model or DeveloperCostModel()
        self.settings = settings

    def run(self, scenario: DebuggingScenario, server: DatabaseServer) -> WorkflowMetrics:
        metrics = WorkflowMetrics(workflow="devudf", scenario=scenario.name)
        start = time.perf_counter()

        settings = self.settings or DevUDFSettings()
        settings.debug_query = scenario.debug_query
        project = DevUDFProject(self.project_root / scenario.name)
        plugin = DevUDFPlugin(project, settings, server=server)
        statements_before = server.database.statements_executed
        try:
            connection = plugin.connect()

            # 1. import the UDF into the IDE project (Figure 3a)
            plugin.import_udfs([scenario.udf_name])
            metrics.developer_iterations += 1

            # 2. extract the input data and debug locally (one debug session)
            preparation = plugin.prepare_debug(scenario.udf_name)
            source = project.udf_source(scenario.udf_name)
            outcome = plugin.debug_udf(
                scenario.udf_name,
                preparation=preparation,
                breakpoints=scenario.debugger_breakpoints(source),
                watches=scenario.debugger_watches(),
                controller=scenario.debugger_controller(),
            )
            metrics.debug_sessions += 1
            metrics.developer_iterations += 1
            metrics.bug_found = scenario.bug_visible_in_debugger(outcome)
            metrics.rows_transferred = preparation.inputs.rows_extracted

            # 3. fix the UDF in the editor and verify locally (no server involved)
            buffer = project.open_udf(scenario.udf_name)
            buffer.set_text(scenario.apply_fix_to_source(buffer.text))
            buffer.save()
            runner = LocalUDFRunner()
            local = runner.run_file(preparation.script_path,
                                    working_directory=preparation.script_path.parent)
            metrics.local_runs += 1
            metrics.developer_iterations += 1
            if not local.completed:
                metrics.notes.append(
                    f"local verification failed: {local.exception_type}: "
                    f"{local.exception_message}"
                )

            # 4. export the fixed UDF back (Figure 3b) and confirm on the server
            plugin.export_udfs([scenario.udf_name])
            result = connection.execute(scenario.debug_query)
            metrics.full_query_executions += 1
            metrics.developer_iterations += 1
            metrics.final_result_correct = scenario.is_correct(
                scenario.extract_result_value(result))
            from .extract import EXTRACT_FUNCTION_PREFIX

            # this run's statements: the newest entries of the engine's log
            issued = server.database.statements_executed - statements_before
            log = list(server.database.query_log)
            metrics.udf_recreations = sum(
                1 for sql in log[max(0, len(log) - issued):]
                if sql.lstrip().upper().startswith("CREATE")
                and scenario.udf_name in sql
                and EXTRACT_FUNCTION_PREFIX not in sql
            )
            metrics.manual_transformations = 0
            metrics.server_round_trips = connection.stats.queries
            metrics.wire_bytes = connection.stats.wire_bytes_received
        finally:
            plugin.close()
        metrics.elapsed_seconds = time.perf_counter() - start
        metrics.estimated_developer_seconds = self.cost_model.estimate(metrics)
        return metrics


# --------------------------------------------------------------------------- #
# side-by-side comparison (what the C4 benchmark prints)
# --------------------------------------------------------------------------- #
@dataclass
class WorkflowComparison:
    """The two workflows' metrics for one scenario."""

    scenario: str
    traditional: WorkflowMetrics
    devudf: WorkflowMetrics

    @property
    def round_trip_reduction(self) -> float:
        if self.devudf.server_round_trips == 0:
            return float("inf")
        return self.traditional.server_round_trips / self.devudf.server_round_trips

    @property
    def iteration_reduction(self) -> float:
        if self.devudf.developer_iterations == 0:
            return float("inf")
        return self.traditional.developer_iterations / self.devudf.developer_iterations

    @property
    def devudf_wins(self) -> bool:
        """The paper's qualitative claim, made checkable."""
        return (
            self.devudf.final_result_correct
            and self.devudf.bug_found
            and self.devudf.full_query_executions <= self.traditional.full_query_executions
            and self.devudf.udf_recreations <= self.traditional.udf_recreations
        )


def compare_workflows(scenario_factory, *, project_root: str | Path,
                      cost_model: DeveloperCostModel | None = None,
                      settings: DevUDFSettings | None = None) -> WorkflowComparison:
    """Run both workflows on fresh servers built by ``scenario_factory``.

    ``scenario_factory`` must return a new :class:`DebuggingScenario` each
    call; each workflow gets its own scenario instance and its own server so
    neither can observe the other's side effects.
    """
    traditional_scenario = scenario_factory()
    traditional_server = DatabaseServer()
    traditional_scenario.setup(traditional_server)
    traditional = TraditionalWorkflow(cost_model).run(traditional_scenario,
                                                      traditional_server)

    devudf_scenario = scenario_factory()
    devudf_server = DatabaseServer()
    devudf_scenario.setup(devudf_server)
    devudf = DevUDFWorkflow(project_root, cost_model, settings).run(
        devudf_scenario, devudf_server)

    if traditional.scenario != devudf.scenario:
        raise DevUDFError("scenario factory returned differing scenarios")
    return WorkflowComparison(scenario=traditional.scenario,
                              traditional=traditional, devudf=devudf)
