"""Tests for the UDF corpus: the paper's listings really run on the engine."""

import numpy as np
import pytest

from repro.netproto.client import Connection
from repro.sqldb.database import Database
from repro.workloads.udf_corpus import (
    EXTRA_UDFS_SQL,
    LOAD_NUMBERS_BUGGY_BODY,
    LOAD_NUMBERS_FIXED_BODY,
    MEAN_DEVIATION_BUGGY_BODY,
    MEAN_DEVIATION_FIXED_BODY,
    demo_server,
    load_numbers_create_sql,
    mean_deviation_create_sql,
    setup_classifier_database,
    setup_mixed_catalog,
    setup_numbers_database,
)


def reference_mean_deviation(values) -> float:
    """What the fixed Listing 4 UDF must answer (paper §2.5)."""
    array = np.asarray(values, dtype=float)
    return float(np.mean(np.abs(array - array.mean())))


class TestMeanDeviation:
    @pytest.fixture()
    def db(self, tmp_path) -> Database:
        database = Database()
        setup_numbers_database(database, str(tmp_path / "csv"), n_files=3,
                               rows_per_file=20)
        return database

    def test_fixed_udf_matches_reference(self, db):
        db.execute(mean_deviation_create_sql(MEAN_DEVIATION_FIXED_BODY))
        values = db.execute("SELECT i FROM numbers").column("i").values
        result = db.execute("SELECT mean_deviation(i) FROM numbers").scalar()
        assert result == pytest.approx(reference_mean_deviation(values))

    def test_buggy_udf_is_wrong_but_runs(self, db):
        """Listing 4: syntactically correct, logically incorrect (§2.5)."""
        db.execute(mean_deviation_create_sql(MEAN_DEVIATION_BUGGY_BODY))
        values = db.execute("SELECT i FROM numbers").column("i").values
        result = db.execute("SELECT mean_deviation(i) FROM numbers").scalar()
        reference = reference_mean_deviation(values)
        assert abs(result) < 1e-6  # sums of signed deviations cancel out
        assert abs(result - reference) > 1.0


class TestLoadNumbers:
    def test_buggy_loader_skips_last_file(self, tmp_path):
        database = Database()
        setup = setup_numbers_database(database, str(tmp_path / "csv"), n_files=4,
                                       rows_per_file=10, load_with="none")
        database.execute(load_numbers_create_sql(LOAD_NUMBERS_BUGGY_BODY))
        result = database.execute(
            f"SELECT COUNT(*) FROM loadNumbers('{setup.csv_directory}')")
        assert result.scalar() == setup.workload.rows_excluding_last_file

    def test_fixed_loader_reads_everything(self, tmp_path):
        database = Database()
        setup = setup_numbers_database(database, str(tmp_path / "csv"), n_files=4,
                                       rows_per_file=10, load_with="none")
        database.execute(load_numbers_create_sql(LOAD_NUMBERS_FIXED_BODY))
        result = database.execute(
            f"SELECT * FROM loadNumbers('{setup.csv_directory}')")
        assert sorted(r[0] for r in result.rows()) == sorted(setup.workload.all_values)

    def test_loader_composes_with_mean_deviation(self, tmp_path):
        """The demo's end goal: mean deviation over the loaded CSV directory."""
        database = Database()
        setup = setup_numbers_database(database, str(tmp_path / "csv"), n_files=3,
                                       rows_per_file=15, load_with="none")
        database.execute(load_numbers_create_sql(LOAD_NUMBERS_FIXED_BODY))
        database.execute(mean_deviation_create_sql(MEAN_DEVIATION_FIXED_BODY))
        result = database.execute(
            f"SELECT mean_deviation(i) FROM loadNumbers('{setup.csv_directory}')")
        assert result.scalar() == pytest.approx(setup.workload.mean_deviation())


class TestClassifierUDFs:
    @pytest.fixture()
    def db(self) -> Database:
        database = Database()
        setup_classifier_database(database, n_rows=50, seed=3)
        return database

    def test_tables_created(self, db):
        assert db.row_count("trainingset") + db.row_count("testingset") == 50
        assert db.has_function("train_rnforest")
        assert db.has_function("find_best_classifier")

    def test_train_rnforest_returns_pickled_model(self, db):
        import binascii
        import pickle

        result = db.execute(
            "SELECT * FROM train_rnforest((SELECT f0, f1, label FROM trainingset), 3)")
        row = result.fetchone()
        model = pickle.loads(binascii.unhexlify(row[0]))
        assert row[1] == 3
        assert model.n_estimators == 3

    def test_find_best_classifier_sweeps_estimators(self, db):
        result = db.execute("SELECT * FROM find_best_classifier(3)")
        clf_hex, best_n, correct = result.fetchone()
        assert 1 <= best_n <= 3
        assert correct > 0
        assert db.udf_runtime.invocation_counts["train_rnforest"] == 3

    def test_best_classifier_beats_chance(self, db):
        _, _, correct = db.execute("SELECT * FROM find_best_classifier(2)").fetchone()
        test_rows = db.row_count("testingset")
        assert correct / test_rows > 0.6


class TestMixedCatalog:
    def test_extra_udfs_register_and_run(self):
        database = Database()
        database.execute("CREATE TABLE t (i INTEGER, x DOUBLE)")
        database.execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 6.0)")
        created = setup_mixed_catalog(database)
        assert set(created) == set(EXTRA_UDFS_SQL)
        assert database.execute("SELECT add_one(i) FROM t").fetchall() == [(2,), (3,), (4,)]
        assert database.execute("SELECT total_sum(i) FROM t").scalar() == 6.0
        stats = database.execute("SELECT * FROM column_stats((SELECT x FROM t))")
        assert ("max", 6.0) in stats.fetchall()
        series = database.execute("SELECT COUNT(*) FROM generate_series_py(7)")
        assert series.scalar() == 7

    def test_setup_is_idempotent(self):
        database = Database()
        setup_mixed_catalog(database)
        setup_mixed_catalog(database)  # second call must not raise


class TestDemoServer:
    def test_demo_server_end_to_end(self, tmp_path):
        server, setup = demo_server(str(tmp_path / "csv"), buggy_mean_deviation=False,
                                    with_extras=True)
        connection = Connection.connect_in_process(server)
        value = connection.execute("SELECT mean_deviation(i) FROM numbers").scalar()
        assert value == pytest.approx(setup.workload.mean_deviation())
        assert "add_one" in server.database.function_names()
        connection.close()

    def test_demo_server_with_classifier(self, tmp_path):
        server, _ = demo_server(str(tmp_path / "csv"), with_classifier=True,
                                n_files=2, rows_per_file=5)
        assert server.database.has_function("find_best_classifier")
        assert server.database.row_count("trainingset") > 0
