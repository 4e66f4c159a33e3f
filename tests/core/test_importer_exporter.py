"""Tests for Import UDFs / Export UDFs (Figure 3) round trips."""

import pytest

from repro.core.exporter import UDFExporter
from repro.core.importer import UDFImporter
from repro.core.project import DevUDFProject
from repro.core.transform import normalise_body
from repro.errors import ExportUDFError, ImportUDFError
from repro.netproto.client import Connection
from repro.netproto.server import DatabaseServer
from repro.sqldb.database import Database
from repro.workloads.udf_corpus import (
    MEAN_DEVIATION_BUGGY_BODY,
    load_numbers_create_sql,
    mean_deviation_create_sql,
    setup_classifier_database,
    setup_mixed_catalog,
)


@pytest.fixture()
def rich_server() -> DatabaseServer:
    database = Database()
    database.execute("CREATE TABLE numbers (i INTEGER)")
    database.execute("INSERT INTO numbers VALUES (1), (2), (3)")
    database.execute(mean_deviation_create_sql(MEAN_DEVIATION_BUGGY_BODY))
    database.execute(load_numbers_create_sql())
    setup_mixed_catalog(database)
    return DatabaseServer(database)


@pytest.fixture()
def connection(rich_server) -> Connection:
    conn = Connection.connect_in_process(rich_server)
    yield conn
    conn.close()


@pytest.fixture()
def project(tmp_path) -> DevUDFProject:
    return DevUDFProject(tmp_path / "project")


@pytest.fixture()
def importer(connection, project) -> UDFImporter:
    return UDFImporter(connection, project)


@pytest.fixture()
def exporter(connection, project) -> UDFExporter:
    return UDFExporter(connection, project)


class TestCatalogIntrospection:
    def test_fetch_signatures_reads_meta_tables(self, importer):
        signatures = importer.fetch_signatures()
        assert "mean_deviation" in signatures
        assert "loadnumbers" in signatures
        signature = signatures["mean_deviation"]
        assert signature.parameter_names == ["column"]
        assert normalise_body(signature.body) == normalise_body(MEAN_DEVIATION_BUGGY_BODY)

    def test_table_function_signature(self, importer):
        signature = importer.fetch_signatures()["loadnumbers"]
        assert signature.returns_table
        assert [c.name for c in signature.return_columns] == ["i"]

    def test_list_available_sorted(self, importer):
        names = importer.list_available()
        assert names == sorted(names)
        assert "mean_deviation" in names and "add_one" in names

    def test_internal_extract_functions_hidden(self, importer, connection):
        connection.execute(
            "CREATE FUNCTION devudf_extract_something(x INTEGER) RETURNS TABLE(x INTEGER) "
            "LANGUAGE PYTHON { return {'x': x} }")
        assert "devudf_extract_something" not in importer.list_available()


class TestImport:
    def test_import_selected(self, importer, project):
        report = importer.import_udfs(["mean_deviation"])
        assert report.imported_names == ["mean_deviation"]
        assert "add_one" in report.skipped
        assert project.has_udf("mean_deviation")
        assert project.ide_project.exists("udfs/mean_deviation.py")

    def test_import_all(self, importer, project):
        report = importer.import_udfs(None)
        assert set(report.imported_names) == set(report.available)
        assert len(project.imported_udfs()) == len(report.available)

    def test_import_unknown_udf(self, importer):
        with pytest.raises(ImportUDFError):
            importer.import_udfs(["does_not_exist"])

    def test_imported_file_is_runnable_python(self, importer, project):
        importer.import_udfs(["mean_deviation"])
        source = project.udf_source("mean_deviation")
        compile(source, "<imported>", "exec")
        assert "def mean_deviation(column, _conn=None):" in source

    def test_import_records_vcs_commit(self, importer, project):
        importer.import_udfs(["mean_deviation"])
        assert len(project.history()) == 1

    def test_import_counts_catalog_queries(self, importer):
        report = importer.import_udfs(["mean_deviation"])
        # one statement joins sys.functions to sys.args (it was one per table)
        assert report.queries_issued == 1


class TestImportNested:
    def test_nested_udf_bundled(self, tmp_path):
        database = Database()
        setup_classifier_database(database, n_rows=30)
        server = DatabaseServer(database)
        connection = Connection.connect_in_process(server)
        project = DevUDFProject(tmp_path / "nested_project")
        importer = UDFImporter(connection, project)
        report = importer.import_udfs(["find_best_classifier"])
        assert report.imported[0].nested_udfs == ["train_rnforest"]
        source = project.udf_source("find_best_classifier")
        assert "def train_rnforest" in source
        assert "_DevUDFLocalConnection" in source
        connection.close()


class TestExport:
    def test_round_trip_unchanged(self, importer, exporter, rich_server):
        importer.import_udfs(["mean_deviation"])
        before = rich_server.database.catalog.get("mean_deviation").signature.body
        report = exporter.export_udfs(["mean_deviation"])
        assert report.ok
        after = rich_server.database.catalog.get("mean_deviation").signature.body
        assert normalise_body(before) == normalise_body(after)

    def test_edited_udf_changes_server_behaviour(self, importer, exporter, project,
                                                 connection):
        importer.import_udfs(["add_one"])
        buffer = project.open_udf("add_one")
        buffer.set_text(buffer.text.replace("return i + 1", "return i + 1000"))
        buffer.save()
        exporter.export_udfs(["add_one"])
        assert connection.execute("SELECT add_one(1)").scalar() == 1001

    def test_export_without_import_fails(self, exporter):
        report = exporter.export_udfs(["mean_deviation"])
        assert not report.ok
        assert "mean_deviation" in report.failed
        with pytest.raises(ExportUDFError):
            exporter.export_udfs(None)  # nothing imported at all

    def test_export_all_imported(self, importer, exporter):
        importer.import_udfs(["mean_deviation", "add_one"])
        report = exporter.export_udfs(None)
        assert set(report.exported_names) == {"mean_deviation", "add_one"}

    def test_export_reports_failures_per_udf(self, importer, exporter, project):
        importer.import_udfs(["add_one"])
        buffer = project.open_udf("add_one")
        buffer.set_text("# devudf metadata destroyed\n")
        buffer.save()
        report = exporter.export_udfs(["add_one"])
        assert not report.ok
        assert "add_one" in report.failed

    def test_export_statement_is_create_or_replace(self, importer, exporter):
        importer.import_udfs(["mean_deviation"])
        report = exporter.export_udfs(["mean_deviation"])
        assert report.exported[0].create_statement.startswith(
            "CREATE OR REPLACE FUNCTION mean_deviation")

    def test_export_nested_udfs_included(self, tmp_path):
        database = Database()
        setup_classifier_database(database, n_rows=30)
        server = DatabaseServer(database)
        connection = Connection.connect_in_process(server)
        project = DevUDFProject(tmp_path / "nested_export")
        importer = UDFImporter(connection, project)
        exporter = UDFExporter(connection, project)
        importer.import_udfs(["find_best_classifier"])
        report = exporter.export_udfs(["find_best_classifier"])
        assert set(report.exported_names) == {"find_best_classifier", "train_rnforest"}
        nested_flags = {e.name: e.was_nested for e in report.exported}
        assert nested_flags["train_rnforest"] is True
        connection.close()


class TestFullDevelopmentCycle:
    def test_fix_scenario_a_through_import_export(self, importer, exporter, project,
                                                  connection):
        """The complete §2.5 loop: import, fix the bug, export, correct result."""
        importer.import_udfs(["mean_deviation"])
        buffer = project.open_udf("mean_deviation")
        buffer.set_text(buffer.text.replace("distance += column[i] - mean",
                                            "distance += abs(column[i] - mean)"))
        buffer.save()
        exporter.export_udfs(["mean_deviation"])
        value = connection.execute("SELECT mean_deviation(i) FROM numbers").scalar()
        assert value == pytest.approx(2.0 / 3.0, rel=1e-9)
