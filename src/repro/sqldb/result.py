"""Query results returned by the engine and shipped over the client protocol."""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .storage import column_to_numpy, values_to_arrays
from .types import SQLType, infer_sql_type
from .vector import Vector


class ResultColumn:
    """One column of a query result.

    A typed column is backed by one :class:`Vector` (typed values + validity
    mask + optional string dictionary — what the executor produced or the
    columnar wire decoder received, zero-copy); everything else by a plain
    Python value list; a lazy column by a loader that yields either on first
    touch.  Consumers observe plain Python values: ``values`` materialises
    lazily, so a client that only ever re-exports the buffers (or hands them
    to numpy code) never pays for Python object creation — the lazy-decode
    half of the columnar protocol.
    """

    __slots__ = ("name", "sql_type", "_values", "_vector", "_loader", "_length")

    def __init__(self, name: str, sql_type: SQLType,
                 values: Sequence[Any] | np.ndarray | Vector | None = None) -> None:
        self.name = name
        self.sql_type = sql_type
        self._values: list[Any] | None = None
        self._vector: Vector | None = None
        self._loader: Callable[[], Vector | list[Any]] | None = None
        self._length: int | None = None
        if isinstance(values, Vector):
            self._vector = values
        elif isinstance(values, np.ndarray):
            # a BLOB column's object array (an array is never typed column
            # data); it may hide numpy scalars or Nones: normalise now
            self._values = values.tolist()
        elif values is None:
            self._values = []
        elif isinstance(values, list):
            self._values = values
        else:
            self._values = list(values)

    # ------------------------------------------------------------------ #
    # lazy constructor (columnar wire path)
    # ------------------------------------------------------------------ #
    @classmethod
    def lazy(cls, name: str, sql_type: SQLType, length: int,
             loader: Callable[[], Vector | list[Any]]) -> "ResultColumn":
        """Build a column whose backing is produced on first use.

        ``loader`` returns a :class:`Vector` or a value list (``None`` =
        NULL); it runs at most once.
        """
        column = cls(name, sql_type, None)
        column._values = None
        column._loader = loader
        column._length = length
        return column

    def _load(self) -> None:
        if self._loader is not None:
            loaded = self._loader()
            self._loader = None
            if isinstance(loaded, Vector):
                self._vector = loaded
            else:
                self._values = loaded

    @property
    def values(self) -> list[Any]:
        """Plain Python values (materialised lazily from the vector)."""
        if self._values is None:
            self._load()
            if self._values is None:
                self._values = self._vector.to_list()
        return self._values

    def value_at(self, index: int) -> Any:
        """One row's Python value; the value list only if it exists."""
        vector = None if self._values is not None else self.vector()
        return self.values[index] if vector is None else vector[index]

    def vector(self) -> Vector | None:
        """The backing :class:`Vector` — every typed column has one — or
        ``None`` for a list-backed column (loads a lazy column first)."""
        self._load()
        return self._vector

    def dict_vector(self) -> Vector | None:
        """The backing vector if it is dictionary-encoded (wire fast path)."""
        vector = self.vector()
        return vector if vector is not None and vector.is_dict else None

    def batch_values(self) -> Any:
        """The backing for re-use as executor batch data: the vector, else a
        copy of the value list."""
        vector = self.vector()
        return vector if vector is not None else list(self.values)

    def buffer_arrays(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Export as a ``(data, null mask)`` pair for the columnar wire format.

        Zero-copy when the column is vector-backed; may raise
        ``OverflowError``/``TypeError`` for values a typed buffer cannot hold
        (the wire encoder falls back to the object codec in that case).
        """
        vector = self.vector()
        if vector is not None:
            return vector.buffer_arrays()
        return values_to_arrays(self._values, self.sql_type)

    def to_numpy(self) -> np.ndarray:
        vector = self.vector()
        if vector is not None:
            return vector.to_numpy()
        return column_to_numpy(self._values, self.sql_type)

    def __len__(self) -> int:
        if self._values is not None:
            return len(self._values)
        if self._vector is not None:
            return len(self._vector)
        if self._length is not None:
            return self._length
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultColumn):
            return NotImplemented
        return (self.name == other.name and self.sql_type == other.sql_type
                and self.values == other.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = "values" if self._values is not None else (
            "vector" if self._vector is not None else "lazy")
        return (f"ResultColumn({self.name!r}, {self.sql_type}, "
                f"len={len(self)}, backing={backing})")


class QueryResult:
    """A columnar query result.

    Provides both columnar access (``column(name)``, ``to_dict()``) — the
    natural shape for the devUDF data-extraction path — and row access
    (``rows()``, ``fetchall()``) for the client-protocol/DB-API style use.
    """

    def __init__(self, columns: Sequence[ResultColumn] | None = None,
                 *, affected_rows: int = 0, statement_type: str = "SELECT") -> None:
        self.columns: list[ResultColumn] = list(columns or [])
        self.affected_rows = affected_rows
        self.statement_type = statement_type

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, *, affected_rows: int = 0, statement_type: str = "DDL") -> "QueryResult":
        return cls([], affected_rows=affected_rows, statement_type=statement_type)

    @classmethod
    def from_dict(cls, data: dict[str, Sequence[Any]],
                  types: dict[str, SQLType] | None = None) -> "QueryResult":
        columns = []
        for name, values in data.items():
            values = list(values)
            if types and name in types:
                sql_type = types[name]
            else:
                sample = next((v for v in values if v is not None), None)
                sql_type = infer_sql_type(sample) if sample is not None else SQLType.STRING
            columns.append(ResultColumn(name, sql_type, values))
        return cls(columns)

    # ------------------------------------------------------------------ #
    # shape
    # ------------------------------------------------------------------ #
    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def column_count(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return self.row_count

    def __bool__(self) -> bool:
        return True

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def column(self, name: str) -> ResultColumn:
        lowered = name.lower()
        for column in self.columns:
            if column.name.lower() == lowered:
                return column
        raise KeyError(name)

    def __getitem__(self, name: str) -> list[Any]:
        return self.column(name).values

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """The rows, transposed once from the columns' value lists."""
        return zip(*(column.values for column in self.columns))

    def fetchall(self) -> list[tuple[Any, ...]]:
        return list(self.rows())

    def fetchone(self) -> tuple[Any, ...] | None:
        """The first row, read from each column's backing without building
        its value list."""
        return tuple(column.value_at(0) for column in self.columns) \
            if self.row_count else None

    def scalar(self) -> Any:
        """The single value of a 1x1 result (convenience for tests)."""
        if self.row_count != 1 or self.column_count != 1:
            raise ValueError(
                f"scalar() requires a 1x1 result, got {self.row_count}x{self.column_count}"
            )
        return self.columns[0].value_at(0)

    def to_dict(self) -> dict[str, list[Any]]:
        return {column.name: list(column.values) for column in self.columns}

    def to_numpy_dict(self) -> dict[str, np.ndarray]:
        return {column.name: column.to_numpy() for column in self.columns}

    # ------------------------------------------------------------------ #
    # rendering (used by the CLI and the demo walkthrough)
    # ------------------------------------------------------------------ #
    def format_table(self, *, max_rows: int | None = 50, max_width: int = 40) -> str:
        """Render as an ASCII table, in the spirit of the mclient output in Listing 1."""
        names = self.column_names
        if not names:
            return f"({self.statement_type}: {self.affected_rows} rows affected)"
        rows = self.fetchall()
        truncated = False
        if max_rows is not None and len(rows) > max_rows:
            rows = rows[:max_rows]
            truncated = True

        def fmt(value: Any) -> str:
            text = "NULL" if value is None else str(value)
            if len(text) > max_width:
                text = text[: max_width - 3] + "..."
            return text

        table = [names] + [[fmt(v) for v in row] for row in rows]
        widths = [max(len(row[i]) for row in table) for i in range(len(names))]
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        lines = [sep]
        lines.append("| " + " | ".join(n.ljust(w) for n, w in zip(names, widths)) + " |")
        lines.append(sep.replace("-", "="))
        for row in table[1:]:
            lines.append("| " + " | ".join(v.ljust(w) for v, w in zip(row, widths)) + " |")
        lines.append(sep)
        if truncated:
            lines.append(f"... ({self.row_count} rows total)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QueryResult(columns={self.column_names}, rows={self.row_count}, "
                f"affected={self.affected_rows})")
