"""CSV workload generation for the demo (paper §2.5).

"In our demonstration we will ingest several CSV files, located in one
directory, with one column of integers, our final goal is to create a UDF
that calculates the mean deviation of said column."

The generator writes such a directory deterministically (seeded), and the
reference helpers compute the correct mean deviation the demo compares
against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class CSVWorkload:
    """A generated directory of one-column integer CSV files."""

    directory: Path
    files: list[Path] = field(default_factory=list)
    values_per_file: list[list[int]] = field(default_factory=list)

    @property
    def all_values(self) -> list[int]:
        return [value for values in self.values_per_file for value in values]

    @property
    def total_rows(self) -> int:
        return sum(len(values) for values in self.values_per_file)

    @property
    def rows_excluding_last_file(self) -> int:
        """What the buggy Listing 5 loader would ingest (it skips the last file)."""
        if not self.values_per_file:
            return 0
        return self.total_rows - len(self.values_per_file[-1])

    def mean(self) -> float:
        values = self.all_values
        return float(np.mean(values)) if values else 0.0

    def mean_deviation(self) -> float:
        """The correct mean (absolute) deviation of all values."""
        values = np.asarray(self.all_values, dtype=float)
        if len(values) == 0:
            return 0.0
        return float(np.mean(np.abs(values - values.mean())))

    def mean_deviation_excluding_last_file(self) -> float:
        """The value the correct UDF computes over the buggy loader's output."""
        values: list[int] = []
        for file_values in self.values_per_file[:-1]:
            values.extend(file_values)
        if not values:
            return 0.0
        array = np.asarray(values, dtype=float)
        return float(np.mean(np.abs(array - array.mean())))


def generate_csv_directory(directory: str | Path, *, n_files: int = 5,
                           rows_per_file: int = 20, low: int = 0, high: int = 100,
                           seed: int = 7) -> CSVWorkload:
    """Write ``n_files`` one-column integer CSV files into ``directory``."""
    if n_files < 1:
        raise ValueError("need at least one CSV file")
    if rows_per_file < 1:
        raise ValueError("need at least one row per file")
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    workload = CSVWorkload(directory=target)
    for index in range(n_files):
        values = [rng.randint(low, high) for _ in range(rows_per_file)]
        path = target / f"numbers_{index:03d}.csv"
        path.write_text("\n".join(str(v) for v in values) + "\n", encoding="utf-8")
        workload.files.append(path)
        workload.values_per_file.append(values)
    return workload
