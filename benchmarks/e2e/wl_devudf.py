"""``devudf_full`` and ``devudf_sampled``: the paper's loop, end to end.

One op is what a developer does between pressing *Debug* and seeing the fixed
UDF answer on the server: fresh project -> connect -> Import UDFs -> extract
the UDF's inputs over the wire (with the transfer options of paper §2.1-2.2)
-> ``input.bin`` -> debug with two breakpoints and two watches -> apply the
``abs()`` fix -> plain local run -> Export UDFs -> confirm query.

The two workloads share every line of code and differ only in the transfer
settings: ``devudf_full`` ships the whole column compressed and encrypted, so
codec and debugger cost dominate; ``devudf_sampled`` ships 400 rows in the
clear, so fixed round trips, rewriting and the in-server UDF call dominate.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Any

import numpy as np

import harness
from harness import Cleanup, ServerChild, Tracer, Workload, close_to, timed_ms

from repro.core.extract import ExtractQueryRewriter, InputExtractor
from repro.core.importer import UDFImporter
from repro.core.plugin import DevUDFPlugin
from repro.core.project import DevUDFProject
from repro.core.runner import LocalUDFRunner
from repro.core.settings import DataTransferSettings, DevUDFSettings
from repro.core.transfer import read_input_blob, write_input_blob
from repro.netproto.client import Connection, ConnectionInfo
from repro.netproto.columnar import encode_result_chunk
from repro.netproto.sampling import SampleSpec, sample_columns
from repro.sqldb.database import Database
from repro.workloads.udf_corpus import (
    MEAN_DEVIATION_FIXED_BODY,
    mean_deviation_create_sql,
)

UDF = "mean_deviation"
DEBUG_QUERY = "SELECT mean_deviation(i) FROM numbers"
BUGGY_LINE = "distance += column[i] - mean"
FIXED_LINE = "distance += abs(column[i] - mean)"
FIRST_BODY_LINE = "mean = 0"
RETURN_LINE = "return deviation"
WARMUP_OPS = 2

TRANSFER = {
    "devudf_full": {"use_compression": True, "use_encryption": True},
    "devudf_sampled": {"use_sampling": True, "sample_size": 400},
}


def mean_abs_deviation(values: np.ndarray) -> float:
    """The NumPy reference for Listing 4's (fixed) ``mean_deviation``."""
    values = np.asarray(values, dtype=np.float64)
    return float(np.abs(values - values.mean()).mean())


class DevUDFLoop(Workload):
    clients = 1
    op_definition = ("fresh project, connect, import, prepare_debug, debug_udf "
                     "(2 breakpoints, 2 watches), apply fix, local run, export, "
                     "confirm query, close")

    def __init__(self, name: str) -> None:
        self.name = name
        self.transfer = TRANSFER[name]

    # ------------------------------------------------------------------ #
    # setup / teardown
    # ------------------------------------------------------------------ #
    def setup(self, seed: int, workdir: Path, cleanup: Cleanup, smoke: bool) -> None:
        self.workdir = workdir
        self.rows = 1_000 if smoke else 16_000
        rng = np.random.default_rng(seed)
        self.column = rng.integers(0, 100_000, self.rows)
        self.reference = mean_abs_deviation(self.column)

        db_path = workdir / "devudf.db"
        database = Database(path=db_path)
        self._load(database)
        database.close()  # checkpoints: the child starts from the image alone

        self.child = ServerChild(db_path, cleanup)
        self.info = ConnectionInfo(host=self.child.host, port=self.child.port)
        #: resets the server between ops; never part of a timed region
        self.admin = Connection.connect_tcp(self.info)
        harness.warm_up(self, WARMUP_OPS)

    def _load(self, database: Database) -> None:
        database.execute("CREATE TABLE numbers (i INTEGER)")
        database.storage.table("numbers").column("i").extend(self.column.tolist())
        database.execute(mean_deviation_create_sql())

    def teardown(self) -> None:
        self.admin.close()
        self.child.stop()

    def server_child(self) -> ServerChild:
        return self.child

    # ------------------------------------------------------------------ #
    # one op
    # ------------------------------------------------------------------ #
    def _settings(self) -> DevUDFSettings:
        return DevUDFSettings(
            host=self.child.host, port=self.child.port, debug_query=DEBUG_QUERY,
            transfer=DataTransferSettings(**self.transfer))

    def inputs(self, client: int, index: int) -> Path:
        return self.workdir / f"project_{index}"

    def op(self, client: int, index: int, project_dir: Path,
           tracer: Tracer) -> dict[str, Any]:
        wal_before = self.child.wal_bytes()
        with tracer.span("core.project.create"):
            project = DevUDFProject(project_dir)
            plugin = DevUDFPlugin(project, self._settings())
        try:
            with tracer.span("netproto.client.connect"):
                connection = plugin.connect()
            with tracer.span("core.importer.import_udfs"):
                imported = plugin.import_udfs([UDF])
            with tracer.span("core.plugin.prepare_debug"):
                preparation = plugin.prepare_debug(UDF)
            with tracer.span("ide.editor.find_lines"):
                buffer = project.open_udf(UDF)
                breakpoints = [buffer.find_line(FIRST_BODY_LINE),
                               buffer.find_line(RETURN_LINE)]
            with tracer.span("core.debugger.debug_udf"):
                outcome = plugin.debug_udf(
                    preparation=preparation, breakpoints=breakpoints,
                    watches={"distance": "distance", "mean": "mean"})
            with tracer.span("ide.editor.apply_fix"):
                buffer.set_text(buffer.text.replace(BUGGY_LINE, FIXED_LINE))
                buffer.save()
            with tracer.span("core.runner.run_file"):
                local = LocalUDFRunner().run_file(preparation.script_path)
            with tracer.span("core.exporter.export_udfs"):
                exported = plugin.export_udfs([UDF])
            with tracer.span("sqldb.udf.confirm_query"):
                confirmed = plugin.execute_sql(DEBUG_QUERY).scalar()
            stats = connection.stats
        finally:
            with tracer.span("netproto.client.close"):
                plugin.close()
        stops = outcome.breakpoint_stops
        return {
            "imported": imported.imported_names,
            "breakpoints": breakpoints,
            "stop_lines": [stop.line for stop in stops],
            "watched_mean": stops[-1].watches.get("mean") if stops else None,
            "debug_completed": outcome.completed,
            "extracted": preparation.inputs.parameters.get("column"),
            "rows_extracted": preparation.inputs.rows_extracted,
            "extract_wire_bytes": preparation.inputs.wire_bytes,
            "queries_issued": len(preparation.inputs.queries_issued),
            "blob_bytes": preparation.blob_stats.stored_bytes,
            "local_completed": local.completed,
            "local_result": local.result,
            "export_ok": exported.ok,
            "exported": exported.exported_names,
            "confirmed": confirmed,
            "round_trips": stats.queries,
            "wire_bytes": stats.wire_bytes_received,
            "disk_bytes": self.child.wal_bytes() - wal_before,
        }

    def after_op(self, client: int, index: int, project_dir: Path,
                 output: dict[str, Any] | None) -> dict[str, Any] | None:
        self.admin.execute(mean_deviation_create_sql(or_replace=True))
        shutil.rmtree(project_dir, ignore_errors=True)
        if output is None:
            return None
        extracted = np.asarray(output.pop("extracted"))
        expected_rows = min(self.transfer.get("sample_size", self.rows), self.rows)
        # the extracted column must be the generated one (or drawn from it);
        # the local run is then checked against the reference on those rows
        output["extracted_ok"] = bool(
            len(extracted) == expected_rows
            and (np.array_equal(extracted, self.column)
                 if expected_rows == self.rows
                 else np.isin(extracted, self.column).all()))
        output["extracted_mean"] = float(extracted.mean())
        output["local_reference"] = mean_abs_deviation(extracted)
        return output

    def check(self, client: int, index: int, project_dir: Path,
              kept: dict[str, Any] | None) -> bool:
        return bool(
            kept is not None
            and kept["imported"] == [UDF]
            and kept["stop_lines"] == kept["breakpoints"]
            and kept["debug_completed"]
            and close_to(kept["watched_mean"], kept["extracted_mean"])
            and kept["extracted_ok"]
            and kept["local_completed"]
            and close_to(kept["local_result"], kept["local_reference"])
            and kept["export_ok"] and kept["exported"] == [UDF]
            and close_to(kept["confirmed"], self.reference))

    def io_bytes(self, kept: dict[str, Any]) -> tuple[int, int]:
        return kept["wire_bytes"], kept["disk_bytes"]

    # ------------------------------------------------------------------ #
    # per-layer metrics (traced run)
    # ------------------------------------------------------------------ #
    def layer_metrics(self, records: list[harness.OpRecord], tracer: Tracer,
                      smoke: bool) -> dict[str, float]:
        repeats = 3 if smoke else 9

        def op_p50(name: str) -> float:
            return harness.span_p50_ms(tracer.spans, name)

        def kept_p50(key: str) -> float:
            return harness.kept_p50(records, key)

        debug_ms = op_p50("core.debugger.debug_udf")
        run_ms = op_p50("core.runner.run_file")
        metrics = {
            "core.importer.import_ms": op_p50("core.importer.import_udfs"),
            "core.exporter.export_ms": op_p50("core.exporter.export_udfs"),
            "core.plugin.round_trips": kept_p50("round_trips"),
            "core.extract.rows_extracted": kept_p50("rows_extracted"),
            "core.extract.wire_bytes": kept_p50("extract_wire_bytes"),
            "core.extract.queries_issued": kept_p50("queries_issued"),
            "core.transfer.blob_bytes": kept_p50("blob_bytes"),
            "core.debugger.debug_ms": debug_ms,
            "core.runner.run_ms": run_ms,
            "core.debugger.trace_overhead_ratio": debug_ms / run_ms if run_ms else 0.0,
            "netproto.client.connect_ms": op_p50("netproto.client.connect"),
        }

        # The public prepare_debug() hides the rewrite, the extraction and the
        # blob write, so the probes below repeat each through its own public
        # call, on a connection of their own, after the loop.
        with tracer.span("probes", op="probes"):
            metrics.update(self._probe_extract_path(tracer, repeats))
        return metrics

    def _probe_extract_path(self, tracer: Tracer, repeats: int) -> dict[str, float]:
        transfer = DataTransferSettings(**self.transfer)
        options = transfer.transfer_options()
        probe_dir = self.workdir / "probe_project"
        connection = Connection.connect_tcp(self.info)
        try:
            importer = UDFImporter(connection, DevUDFProject(probe_dir))
            signatures = importer.fetch_signatures()
            rewriter = ExtractQueryRewriter(signatures, transfer)
            with tracer.span("core.extract.plan"):
                plan_ms, plan = timed_ms(lambda: rewriter.plan(DEBUG_QUERY, UDF), repeats)
            extractor = InputExtractor(connection, signatures, transfer)
            with tracer.span("core.extract.extract"):
                extract_ms, inputs = timed_ms(lambda: extractor.extract(plan), repeats)
            blob_path = probe_dir / "input.bin"
            with tracer.span("core.transfer.write_blob"):
                write_ms, _ = timed_ms(lambda: write_input_blob(inputs, blob_path), repeats)
            with tracer.span("core.transfer.read_blob"):
                read_ms, _ = timed_ms(lambda: read_input_blob(blob_path), repeats)
            with tracer.span("netproto.client.roundtrip"):
                roundtrip_ms, _ = timed_ms(
                    lambda: connection.execute("SELECT 1").scalar(), repeats)

            first_chunk, drain = [], []
            for _ in range(repeats):
                with tracer.span("netproto.client.first_chunk") as first:
                    stream = connection.execute_stream(plan.extraction_query,
                                                       options=options)
                    stream.fetchone()
                with tracer.span("netproto.client.drain") as rest:
                    stream.result()
                first_chunk.append(harness.span_ms(first))
                drain.append(harness.span_ms(rest))

            with tracer.span("sqldb.udf.confirm_query.tcp"):
                confirm_tcp_ms, _ = timed_ms(
                    lambda: connection.execute(DEBUG_QUERY, options=options).scalar(),
                    repeats)
        finally:
            connection.close()
            shutil.rmtree(probe_dir, ignore_errors=True)

        # an identically built in-process database splits engine from wire
        twin = Database()
        self._load(twin)
        twin.execute(mean_deviation_create_sql(MEAN_DEVIATION_FIXED_BODY,
                                               or_replace=True))
        twin.execute(plan.extract_function_sql)
        with tracer.span("sqldb.udf.confirm_query.in_process"):
            confirm_ms, _ = timed_ms(lambda: twin.execute(DEBUG_QUERY).scalar(), repeats)
        with tracer.span("sqldb.udf.extract_query.in_process"):
            extract_query_ms, extracted = timed_ms(
                lambda: twin.execute(plan.extraction_query), repeats)

        metrics = {
            "core.extract.plan_ms": plan_ms,
            "core.extract.extract_ms": extract_ms,
            "core.transfer.write_blob_ms": write_ms,
            "core.transfer.read_blob_ms": read_ms,
            "netproto.client.roundtrip_ms": roundtrip_ms,
            "netproto.client.first_chunk_ms": harness.median(first_chunk),
            "netproto.client.drain_ms": harness.median(drain),
            "netproto.server.wire_overhead_ms": confirm_tcp_ms - confirm_ms,
            "sqldb.udf.query_ms": confirm_ms,
            "sqldb.udf.extract_query_ms": extract_query_ms,
        }
        metrics.update(harness.columnar_probe(extracted, repeats))
        if transfer.use_compression or transfer.use_encryption:
            chunk, _ = encode_result_chunk(extracted)
            metrics.update(harness.codec_probe(chunk, self.info.password, repeats))
        if transfer.use_sampling:
            spec = SampleSpec(size=transfer.sample_size, seed=transfer.sample_seed)
            values = self.column.tolist()
            with tracer.span("netproto.sampling.sample_columns"):
                metrics["netproto.sampling.sample_ms"], _ = timed_ms(
                    lambda: sample_columns({"column": values}, spec), repeats)
        return metrics
