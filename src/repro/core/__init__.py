"""``repro.core`` — the devUDF plugin: the paper's primary contribution.

The sub-modules map one-to-one onto the paper's sections:

* :mod:`settings` — the Settings dialog (Figure 2).
* :mod:`plugin` — the menu contribution and the facade (Figure 1).
* :mod:`importer` / :mod:`exporter` — Import/Export UDFs (Figure 3).
* :mod:`transform` — the Listing 1 -> Listing 2 code transformations (§2.2).
* :mod:`nested` — nested UDF discovery and handling (§2.3).
* :mod:`extract` — debug-query rewriting and input-data extraction (§2.2).
* :mod:`transfer` — the local ``input.bin`` blob (Listing 2).
* :mod:`debugger` / :mod:`runner` — local interactive debugging (§1, §2.1).
* :mod:`vcs` / :mod:`project` — files in the IDE project, under version control (§1).
* :mod:`rowstore` — the tuple-at-a-time extension (§2.4).
* :mod:`workflow` — traditional vs devUDF workflow simulators (§1, §2.5, §3).
* :mod:`surveys` — Table 1.
"""

from .debugger import (
    Breakpoint,
    CONTINUE,
    DebugOutcome,
    DebugSession,
    QUIT,
    STEP_INTO,
    STEP_OUT,
    STEP_OVER,
    ScriptedController,
    StepUntilController,
    StopPoint,
    debug_file,
)
from .exporter import ExportReport, ExportedUDF, UDFExporter
from .extract import (
    EXTRACT_FUNCTION_PREFIX,
    ExtractedInputs,
    ExtractionPlan,
    ExtractQueryRewriter,
    InputExtractor,
    ParameterSource,
)
from .importer import ImportReport, ImportedUDF, UDFImporter
from .nested import (
    LoopbackQuery,
    analyse_loopback_queries,
    find_loopback_queries,
    find_nested_udf_names,
    normalize_query,
)
from .plugin import DebugPreparation, DevUDFPlugin
from .project import DevUDFProject, UDFFileEntry
from .rowstore import ProcessingModelResult, ProcessingModelSimulator, results_equivalent
from .runner import LocalUDFRunner, RunResult
from .settings import DataTransferSettings, DevUDFSettings
from .surveys import TABLE_1, ide_vs_text_editor_share, pycharm_rank, table_rows
from .transfer import InputBlobStats, build_input_parameters, read_input_blob, write_input_blob
from .transform import (
    TransformedUDF,
    UDFCodeTransformer,
    extract_function_body,
    normalise_body,
    strip_catalog_braces,
)
from .vcs import Commit, MiniVCS
from .workflow import (
    DebuggingScenario,
    DeveloperCostModel,
    DevUDFWorkflow,
    TraditionalWorkflow,
    WorkflowComparison,
    WorkflowMetrics,
    compare_workflows,
)

__all__ = [
    "Breakpoint",
    "CONTINUE",
    "Commit",
    "DataTransferSettings",
    "DebugOutcome",
    "DebugPreparation",
    "DebugSession",
    "DebuggingScenario",
    "DeveloperCostModel",
    "DevUDFPlugin",
    "DevUDFProject",
    "DevUDFSettings",
    "DevUDFWorkflow",
    "EXTRACT_FUNCTION_PREFIX",
    "ExportReport",
    "ExportedUDF",
    "ExtractedInputs",
    "ExtractionPlan",
    "ExtractQueryRewriter",
    "ImportReport",
    "ImportedUDF",
    "InputBlobStats",
    "InputExtractor",
    "LocalUDFRunner",
    "LoopbackQuery",
    "MiniVCS",
    "ParameterSource",
    "ProcessingModelResult",
    "ProcessingModelSimulator",
    "QUIT",
    "RunResult",
    "STEP_INTO",
    "STEP_OUT",
    "STEP_OVER",
    "ScriptedController",
    "StepUntilController",
    "StopPoint",
    "TABLE_1",
    "TraditionalWorkflow",
    "TransformedUDF",
    "UDFCodeTransformer",
    "UDFExporter",
    "UDFFileEntry",
    "UDFImporter",
    "WorkflowComparison",
    "WorkflowMetrics",
    "analyse_loopback_queries",
    "build_input_parameters",
    "compare_workflows",
    "debug_file",
    "extract_function_body",
    "find_loopback_queries",
    "find_nested_udf_names",
    "ide_vs_text_editor_share",
    "normalise_body",
    "normalize_query",
    "pycharm_rank",
    "read_input_blob",
    "results_equivalent",
    "strip_catalog_braces",
    "table_rows",
    "write_input_blob",
]
