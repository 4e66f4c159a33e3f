"""Tuple-at-a-time execution (paper §2.4, "Extending to Other Databases").

MonetDB calls a Python UDF once with entire columns (operator-at-a-time).
Row stores such as Postgres or MySQL call the UDF once per input row
(tuple-at-a-time); the paper notes that "the tuple-at-a-time execution method
can be simulated by issuing a loop over the input tuples".  This module
implements exactly that simulation so the C5 benchmark can compare the two
processing models on the same UDF and the same data: identical results, very
different invocation counts (and therefore overhead).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..errors import ExecutionError
from ..sqldb.database import Database
from ..sqldb.schema import FunctionSignature
from ..sqldb.storage import column_to_numpy
from ..sqldb.types import SQLType


@dataclass
class ProcessingModelResult:
    """Outcome of executing a UDF under one processing model."""

    model: str  # "operator-at-a-time" | "tuple-at-a-time"
    values: list[Any] = field(default_factory=list)
    invocations: int = 0
    rows: int = 0
    elapsed_seconds: float = 0.0

    @property
    def invocations_per_row(self) -> float:
        return self.invocations / self.rows if self.rows else 0.0


class ProcessingModelSimulator:
    """Runs a scalar Python UDF under both processing models."""

    def __init__(self, database: Database) -> None:
        self.database = database

    def _signature(self, udf_name: str) -> FunctionSignature:
        return self.database.catalog.get(udf_name).signature

    def _input_columns(self, table: str, columns: Sequence[str]) -> list[list[Any]]:
        stored = self.database.storage.table(table)
        return [stored.column(name).to_list() for name in columns]

    # ------------------------------------------------------------------ #
    # operator-at-a-time (the MonetDB/Python model)
    # ------------------------------------------------------------------ #
    def run_operator_at_a_time(self, udf_name: str, table: str,
                               columns: Sequence[str]) -> ProcessingModelResult:
        """One invocation with whole numpy columns, as MonetDB does.

        The columns are read-only views of the storage layer's own arrays, so
        every run is a zero-copy handoff with nothing converted per call.
        """
        signature = self._signature(udf_name)
        self._check_arity(signature, columns)
        stored = self.database.storage.table(table)
        rows = stored.row_count
        # views, not the published arrays themselves: the buffers behind them
        # are frozen, so a UDF cannot flip its input writable
        arrays = [stored.column(name).to_numpy().view() for name in columns]
        before = self.database.udf_runtime.invocation_counts.get(udf_name.lower(), 0)
        start = time.perf_counter()
        raw = self.database.udf_runtime.invoke(signature, arrays)
        elapsed = time.perf_counter() - start
        after = self.database.udf_runtime.invocation_counts.get(udf_name.lower(), 0)
        values = _normalise_output(raw)
        return ProcessingModelResult(
            model="operator-at-a-time", values=values,
            invocations=after - before, rows=rows, elapsed_seconds=elapsed,
        )

    # ------------------------------------------------------------------ #
    # tuple-at-a-time (the Postgres/MySQL model, simulated)
    # ------------------------------------------------------------------ #
    def run_tuple_at_a_time(self, udf_name: str, table: str,
                            columns: Sequence[str]) -> ProcessingModelResult:
        """One invocation per row, each receiving length-1 arrays."""
        signature = self._signature(udf_name)
        self._check_arity(signature, columns)
        inputs = self._input_columns(table, columns)
        rows = len(inputs[0]) if inputs else 0
        types = [self._column_type(table, name) for name in columns]
        before = self.database.udf_runtime.invocation_counts.get(udf_name.lower(), 0)
        values: list[Any] = []
        start = time.perf_counter()
        for row_index in range(rows):
            row_arrays = [
                column_to_numpy([column[row_index]], sql_type)
                for column, sql_type in zip(inputs, types)
            ]
            raw = self.database.udf_runtime.invoke(signature, row_arrays)
            row_values = _normalise_output(raw)
            values.append(row_values[0] if len(row_values) == 1 else row_values)
        elapsed = time.perf_counter() - start
        after = self.database.udf_runtime.invocation_counts.get(udf_name.lower(), 0)
        return ProcessingModelResult(
            model="tuple-at-a-time", values=values,
            invocations=after - before, rows=rows, elapsed_seconds=elapsed,
        )

    # ------------------------------------------------------------------ #
    # comparison
    # ------------------------------------------------------------------ #
    def compare(self, udf_name: str, table: str, columns: Sequence[str]
                ) -> dict[str, ProcessingModelResult]:
        """Run both models and return their results keyed by model name."""
        operator = self.run_operator_at_a_time(udf_name, table, columns)
        per_tuple = self.run_tuple_at_a_time(udf_name, table, columns)
        return {"operator-at-a-time": operator, "tuple-at-a-time": per_tuple}

    def _check_arity(self, signature: FunctionSignature, columns: Sequence[str]) -> None:
        if len(columns) != len(signature.parameters):
            raise ExecutionError(
                f"UDF {signature.name!r} expects {len(signature.parameters)} columns, "
                f"got {len(columns)}"
            )

    def _column_type(self, table: str, column: str) -> SQLType:
        return self.database.storage.table(table).column(column).sql_type


def _normalise_output(raw: Any) -> list[Any]:
    if isinstance(raw, np.ndarray):
        return raw.tolist()
    if isinstance(raw, np.generic):
        return [raw.item()]
    if isinstance(raw, (list, tuple)):
        return list(raw)
    return [raw]


def results_equivalent(first: ProcessingModelResult, second: ProcessingModelResult, *,
                       tolerance: float = 1e-9) -> bool:
    """Whether two processing-model runs produced the same values.

    Element-wise row UDFs produce the same list under both models; aggregate
    UDFs (one value per column) cannot be compared this way and return False.
    """
    if len(first.values) != len(second.values):
        return False
    for a, b in zip(first.values, second.values):
        if isinstance(a, float) or isinstance(b, float):
            if abs(float(a) - float(b)) > tolerance:
                return False
        elif a != b:
            return False
    return True
