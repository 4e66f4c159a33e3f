"""Tests for the CSV workload generator (the demo's data, §2.5)."""

import numpy as np
import pytest

from repro.workloads.csvgen import generate_csv_directory


class TestGeneration:
    def test_files_and_rows(self, tmp_path):
        workload = generate_csv_directory(tmp_path / "csv", n_files=4, rows_per_file=15)
        assert len(workload.files) == 4
        assert workload.total_rows == 60
        assert all(path.exists() for path in workload.files)

    def test_single_integer_column(self, tmp_path):
        workload = generate_csv_directory(tmp_path / "csv", n_files=2, rows_per_file=5)
        for path in workload.files:
            for line in path.read_text().splitlines():
                int(line)  # must parse as an integer

    def test_deterministic_with_seed(self, tmp_path):
        a = generate_csv_directory(tmp_path / "a", seed=5)
        b = generate_csv_directory(tmp_path / "b", seed=5)
        assert a.all_values == b.all_values

    def test_value_range_respected(self, tmp_path):
        workload = generate_csv_directory(tmp_path / "csv", low=10, high=20)
        assert all(10 <= value <= 20 for value in workload.all_values)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            generate_csv_directory(tmp_path / "x", n_files=0)
        with pytest.raises(ValueError):
            generate_csv_directory(tmp_path / "y", rows_per_file=0)


class TestReferenceStatistics:
    def test_mean_deviation_matches_numpy(self, tmp_path):
        workload = generate_csv_directory(tmp_path / "csv", n_files=3, rows_per_file=50)
        values = np.asarray(workload.all_values, dtype=float)
        expected = float(np.mean(np.abs(values - values.mean())))
        assert workload.mean_deviation() == pytest.approx(expected)

    def test_rows_excluding_last_file(self, tmp_path):
        workload = generate_csv_directory(tmp_path / "csv", n_files=4, rows_per_file=10)
        assert workload.rows_excluding_last_file == 30

    def test_deviation_excluding_last_file_differs(self, tmp_path):
        """Scenario B's observable symptom: dropping a file changes the statistic."""
        workload = generate_csv_directory(tmp_path / "csv", n_files=5, rows_per_file=30,
                                          seed=3)
        assert workload.mean_deviation() != pytest.approx(
            workload.mean_deviation_excluding_last_file(), abs=1e-12)
