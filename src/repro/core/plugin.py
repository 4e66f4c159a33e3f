"""The devUDF plugin facade.

This is the entry point that ties the pieces together the way the PyCharm
plugin does (paper §2):

* it contributes the "UDF Development" submenu with its three actions —
  Settings, Import UDFs, Export UDFs (Figure 1),
* it connects to the database with the configured client parameters (Figure 2),
* Import / Export move UDFs between the server catalog and project files
  (Figure 3),
* the Debug command extracts the UDF's input data (honouring the transfer
  options), writes the local ``input.bin``, and runs the transformed file under
  the interactive debugger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import DevUDFError, ExtractionError, SettingsError, SQLError
from ..ide.actions import Action, MainMenu
from ..netproto.client import Connection, ConnectionInfo
from ..netproto.server import DatabaseServer
from ..sqldb.result import QueryResult
from .debugger import Breakpoint, Controller, DebugOutcome, DebugSession
from .exporter import ExportReport, UDFExporter
from .extract import ExtractedInputs, ExtractionPlan, ExtractQueryRewriter, InputExtractor
from .importer import ImportReport, UDFImporter
from .nested import find_called_functions
from .project import DevUDFProject
from .runner import LocalUDFRunner, RunResult
from .settings import DevUDFSettings
from .transfer import InputBlobStats, write_input_blob


@dataclass
class DebugPreparation:
    """Everything produced while preparing a local debug run."""

    udf_name: str
    script_path: Path
    input_path: Path
    plan: ExtractionPlan
    inputs: ExtractedInputs
    blob_stats: InputBlobStats
    imported_now: list[str] = field(default_factory=list)

    @property
    def warnings(self) -> list[str]:
        return list(self.inputs.warnings)


class DevUDFPlugin:
    """The devUDF plugin: settings, import, export, local debugging."""

    SUBMENU_LABEL = "UDF Development"
    ACTION_SETTINGS = "devudf.settings"
    ACTION_IMPORT = "devudf.import_udfs"
    ACTION_EXPORT = "devudf.export_udfs"

    def __init__(self, project: DevUDFProject | str | Path,
                 settings: DevUDFSettings | None = None, *,
                 server: DatabaseServer | None = None,
                 menu: MainMenu | None = None) -> None:
        self.project = project if isinstance(project, DevUDFProject) \
            else DevUDFProject(project)
        if settings is None and self.project.has_settings():
            settings = self.project.load_settings()
        self.settings = settings or DevUDFSettings()
        #: When a server object is provided the plugin connects in-process
        #: (the common configuration for tests/benchmarks); otherwise it opens
        #: a TCP connection to settings.host:settings.port.
        self.server = server
        self.menu = menu or MainMenu()
        self._connection: Connection | None = None
        self.install_menu(self.menu)

    # ------------------------------------------------------------------ #
    # Figure 1: the menu contribution
    # ------------------------------------------------------------------ #
    def install_menu(self, menu: MainMenu) -> None:
        """Register the "UDF Development" submenu and its three actions."""
        group = menu.menu(self.SUBMENU_LABEL)
        if not group.actions:
            group.add_action(Action(self.ACTION_SETTINGS, "Settings",
                                    callback=self.configure,
                                    description="Configure the database connection, "
                                                "debug query and transfer options"))
            group.add_action(Action(self.ACTION_IMPORT, "Import UDFs",
                                    callback=self.import_udfs,
                                    description="Import UDFs stored in the database "
                                                "into the IDE project"))
            group.add_action(Action(self.ACTION_EXPORT, "Export UDFs",
                                    callback=self.export_udfs,
                                    description="Export (modified) UDFs back to the "
                                                "database server"))

    # ------------------------------------------------------------------ #
    # Figure 2: settings
    # ------------------------------------------------------------------ #
    def configure(self, **kwargs: Any) -> DevUDFSettings:
        """Update settings fields (the Settings dialog's OK button)."""
        transfer_fields = self.settings.transfer.as_dict()
        for key, value in kwargs.items():
            if hasattr(self.settings, key) and key != "transfer":
                setattr(self.settings, key, value)
            elif key in transfer_fields:
                setattr(self.settings.transfer, key, value)
            else:
                raise SettingsError(f"unknown setting {key!r}")
        self.settings.validate_connection()
        self.settings.transfer.validate()
        self.project.save_settings(self.settings)
        # settings changes invalidate the cached connection
        self.disconnect()
        return self.settings

    # ------------------------------------------------------------------ #
    # connection management
    # ------------------------------------------------------------------ #
    def connect(self) -> Connection:
        """Open (or reuse) the client connection described by the settings."""
        if self._connection is not None and not self._connection.closed:
            return self._connection
        self.settings.validate_connection()
        info: ConnectionInfo = self.settings.connection_info()
        if self.server is not None:
            self._connection = Connection.connect_in_process(self.server, info)
        else:
            self._connection = Connection.connect_tcp(info)
        return self._connection

    def disconnect(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def execute_sql(self, sql: str) -> QueryResult:
        """Run an arbitrary query on the server (used by examples and tests)."""
        return self.connect().execute(
            sql, options=self.settings.transfer.transfer_options()
        )

    # ------------------------------------------------------------------ #
    # Figure 3: import / export
    # ------------------------------------------------------------------ #
    def list_server_udfs(self) -> list[str]:
        importer = UDFImporter(self.connect(), self.project)
        return importer.list_available()

    def import_udfs(self, names: list[str] | None = None) -> ImportReport:
        importer = UDFImporter(self.connect(), self.project)
        return importer.import_udfs(names)

    def export_udfs(self, names: list[str] | None = None, *,
                    include_nested: bool = True) -> ExportReport:
        exporter = UDFExporter(self.connect(), self.project)
        return exporter.export_udfs(names, include_nested=include_nested)

    # ------------------------------------------------------------------ #
    # the Debug command (§2.1-2.3)
    # ------------------------------------------------------------------ #
    def find_debug_target(self, debug_query: str | None = None) -> str:
        """Which UDF does the configured debug query execute?"""
        query = (debug_query or self.settings.debug_query).strip()
        if not query:
            raise SettingsError("no debug query configured in the settings")
        importer = UDFImporter(self.connect(), self.project)
        signatures = importer.fetch_signatures()
        for name in find_called_functions(query):
            if name in signatures:
                return signatures[name].name
        raise ExtractionError(
            f"the debug query does not call any Python UDF known to the server: {query!r}"
        )

    def prepare_debug(self, udf_name: str | None = None, *,
                      debug_query: str | None = None) -> DebugPreparation:
        """Extract the UDF's input data and materialise the local debug files."""
        self.settings.validate_connection()
        query = (debug_query or self.settings.debug_query).strip()
        if not query:
            raise SettingsError(
                "no debug query configured: the SQL query which executes the "
                "to-be-debugged UDF must be specified in the Settings menu"
            )
        self.settings.transfer.validate()
        connection = self.connect()
        # A catalog snapshot read before this call may be behind the server,
        # so what the first attempt makes of one is provisional: if it fails,
        # or a reply shows the catalog moved under it, a second attempt — the
        # last — reads the catalog again, re-plans and re-extracts.
        provisional = connection.cached_catalog() is not None
        try:
            prepared = self._plan_and_extract(connection, query, udf_name)
        except (SQLError, DevUDFError):
            if not provisional:
                raise
            connection.cache_catalog(None)  # keep nothing: read it again
            prepared = None
        if prepared is None or (connection.catalog_version is not None
                                and connection.cached_catalog() is None):
            prepared = self._plan_and_extract(connection, query, udf_name)
        target, plan, inputs = prepared

        imported_now: list[str] = []
        if not self.project.has_udf(target):
            imported_now = self.import_udfs([target]).imported_names

        entry = self.project.entry_for(target)
        script_path = self.project.root / entry.relative_path
        input_path = script_path.parent / "input.bin"
        blob_stats = write_input_blob(inputs, input_path)
        return DebugPreparation(
            udf_name=target,
            script_path=script_path,
            input_path=input_path,
            plan=plan,
            inputs=inputs,
            blob_stats=blob_stats,
            imported_now=imported_now,
        )

    def _plan_and_extract(self, connection: Connection, query: str,
                          udf_name: str | None
                          ) -> tuple[str, ExtractionPlan, ExtractedInputs]:
        signatures = UDFImporter(connection, self.project).fetch_signatures()
        target = udf_name or self.find_debug_target(query)
        if target.lower() not in signatures:
            raise ExtractionError(f"UDF {target!r} does not exist on the server")
        plan = ExtractQueryRewriter(signatures, self.settings.transfer).plan(
            query, target)
        extractor = InputExtractor(connection, signatures, self.settings.transfer)
        return target, plan, extractor.extract(plan)

    def debug_udf(self, udf_name: str | None = None, *,
                  debug_query: str | None = None,
                  breakpoints: list[int | Breakpoint] | None = None,
                  watches: dict[str, str] | None = None,
                  controller: Controller | None = None,
                  preparation: DebugPreparation | None = None) -> DebugOutcome:
        """Run the UDF locally under the interactive debugger."""
        preparation = preparation or self.prepare_debug(udf_name, debug_query=debug_query)
        session = DebugSession(
            preparation.script_path,
            breakpoints=breakpoints or [],
            watches=watches,
            controller=controller,
            working_directory=preparation.script_path.parent,
        )
        return session.run()

    def run_udf_locally(self, udf_name: str | None = None, *,
                        debug_query: str | None = None,
                        preparation: DebugPreparation | None = None) -> RunResult:
        """Plain local Run of the transformed UDF (no debugger attached)."""
        preparation = preparation or self.prepare_debug(udf_name, debug_query=debug_query)
        runner = LocalUDFRunner()
        return runner.run_file(preparation.script_path,
                               working_directory=preparation.script_path.parent)

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        self.disconnect()

    def __enter__(self) -> "DevUDFPlugin":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
