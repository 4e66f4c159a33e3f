"""CSV ingestion (``COPY INTO``) and export helpers.

The demo (§2.5) ingests "several CSV files, located in one directory, with one
column of integers"; the buggy data loader of Scenario B (Listing 5) operates
on exactly such a directory.  These helpers provide the correct loading path
used by the engine and by the reference implementations.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..errors import ExecutionError
from .storage import Table
from .types import SQLType


def _parse_cell(text: str, sql_type: SQLType) -> Any:
    """Parse a CSV cell according to the target column type ('' -> NULL)."""
    stripped = text.strip()
    if stripped == "" or stripped.upper() == "NULL":
        return None
    if sql_type.is_integer:
        return int(stripped)
    if sql_type.is_floating:
        return float(stripped)
    if sql_type is SQLType.BOOLEAN:
        return stripped.lower() in ("true", "t", "1")
    return stripped


def load_csv_into_table(table: Table, path: str | os.PathLike[str], *,
                        delimiter: str = ",", header: bool = False) -> int:
    """Load one CSV file into ``table``; returns the number of rows loaded."""
    file_path = Path(path)
    if not file_path.exists():
        raise ExecutionError(f"COPY INTO: file {file_path} does not exist")
    rows: list[list[Any]] = []
    column_types = [column.sql_type for column in table.columns]
    with open(file_path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        for row_index, row in enumerate(reader):
            if header and row_index == 0:
                continue
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(column_types):
                raise ExecutionError(
                    f"COPY INTO {table.name!r}: row {row_index + 1} has {len(row)} "
                    f"fields, expected {len(column_types)}"
                )
            rows.append([_parse_cell(cell, sql_type)
                         for cell, sql_type in zip(row, column_types)])
    return table.insert_rows(rows)


def load_csv_directory_into_table(table: Table, directory: str | os.PathLike[str], *,
                                  delimiter: str = ",", header: bool = False,
                                  pattern: str = "*.csv") -> int:
    """Load every CSV file in a directory (sorted by name) into ``table``.

    This is the *correct* loader the demo compares the buggy Listing 5 loader
    against: it must not skip any file.
    """
    dir_path = Path(directory)
    if not dir_path.is_dir():
        raise ExecutionError(f"{dir_path} is not a directory")
    total = 0
    for file_path in sorted(dir_path.glob(pattern)):
        total += load_csv_into_table(table, file_path, delimiter=delimiter, header=header)
    return total


def write_csv(path: str | os.PathLike[str], column_names: Sequence[str],
              rows: Iterable[Sequence[Any]], *, delimiter: str = ",",
              header: bool = False) -> int:
    """Write rows to a CSV file; returns the number of data rows written."""
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        if header:
            writer.writerow(list(column_names))
        for row in rows:
            # NULLs are written as the literal NULL so single-column rows do
            # not degrade to blank lines (which the loader skips).
            writer.writerow(["NULL" if value is None else value for value in row])
            count += 1
    return count
