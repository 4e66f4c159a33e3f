"""Columnar storage engine: the stored representation *is* the scan.

Tables are stored column-at-a-time (MonetDB's BAT layout, simplified) and a
:class:`Column` holds exactly what a query scans, a wire chunk ships and an
image segment stores, so nothing is converted and nothing is kept in step:

* numeric / boolean columns: a typed array, plus a boolean validity mask
  (``True`` = NULL) from the first NULL on;
* STRING columns: ``int64`` codes into a sorted dictionary of the distinct
  strings (code order is string order), plus the mask;
* BLOB columns: an object array holding ``None`` for NULL.

The arrays are buffers with spare capacity behind the ``n`` live rows.  A
scan is a :class:`repro.sqldb.vector.Vector` over the read-only views
``[0:n)`` of those buffers (a BLOB column: the view of its object array) —
built once per mutation and shared by every reader and, through
:meth:`Column.to_numpy`, every UDF (MonetDB/Python's zero-copy handoff: a
NULL-free numeric column's ``Vector.data`` is handed over as it is stored).
No mutation disturbs a view already handed out: an append writes only the
new rows, into the spare capacity (amortised growth), so published rows
never move; UPDATE, DELETE and a dictionary merge publish *new* arrays; a
rollback only shortens ``n`` and TRUNCATE starts fresh buffers.  A view is
therefore a stable snapshot for as long as a (streaming) reader holds it.

The mask — never the ``NULL_FILL`` placeholder kept in the data buffer at
masked rows (for strings: the code of ``""``) — is the only source of truth
for NULLs, so values equal to a placeholder (``""``, ``0``, ``False``)
round-trip intact.  The list converters below the column serve the
list-backed :class:`~repro.sqldb.result.ResultColumn`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..errors import CatalogError, CorruptionError, ExecutionError, TypeMismatchError
from .schema import ColumnDef, TableSchema
from .types import NUMPY_DTYPES, SQLType, coerce_value
from .vector import NULL_FILL, Vector, as_value_list, slice_column_values

_NULL = type(None)
#: Python types ``np.array(values, dtype)`` converts exactly like
#: :func:`coerce_value`; a batch holding only these skips the per-value loop.
_NATIVE_TYPES = {
    SQLType.INTEGER: {int, bool, _NULL}, SQLType.BIGINT: {int, bool, _NULL},
    SQLType.DOUBLE: {float, int, bool, _NULL}, SQLType.REAL: {float, int, bool, _NULL},
    SQLType.BOOLEAN: {bool, _NULL}, SQLType.STRING: {str, _NULL},
    SQLType.BLOB: {bytes, _NULL},
}


def _object_array(values: Sequence[Any]) -> np.ndarray:
    """A 1-D object array of ``values`` (``np.array`` would unpack sequences)."""
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


class Column:
    """One stored column: typed buffers with spare capacity behind ``[0:n)``."""

    def __init__(self, definition: ColumnDef) -> None:
        self.definition = definition
        self.name = definition.name
        self.sql_type = definition.sql_type
        self.truncate()  # empty buffers and the first (empty) scan

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    # scans: O(1), the views the last mutation published
    # ------------------------------------------------------------------ #
    def scan_values(self) -> Any:
        """The batch representation the executor scans.

        Every typed column is a :class:`Vector` — ``mask`` is ``None`` while
        the column holds no NULL, ``dictionary`` is set for STRING; a BLOB
        column is an object array holding ``None`` for NULL.  Both are
        read-only views of the stored buffers and stay a snapshot of the
        state they were published for as long as they are held.
        """
        return self._scan

    def scan_vector(self, start: int, stop: int) -> Any:
        """A zero-copy row-range slice of :meth:`scan_values` (morsel scans)."""
        return slice_column_values(self._scan, start, stop)

    def to_numpy(self) -> np.ndarray:
        """The UDF input format (read-only): the stored typed array, or an
        object array holding ``None`` for NULL-bearing / string columns (a
        BLOB column's scan already is one)."""
        scan = self._scan
        return scan.to_numpy() if isinstance(scan, Vector) else scan

    def to_list(self, start: int = 0, stop: int | None = None) -> list[Any]:
        """Rows ``[start, stop)`` as Python values (``None`` = NULL)."""
        return as_value_list(
            self.scan_vector(start, self._size if stop is None else stop))

    @property
    def values(self) -> list[Any]:
        """A materialised Python copy of the column (tests and debugging)."""
        return self.to_list()

    # ------------------------------------------------------------------ #
    # mutation: each one ends by publishing a new scan; none moves or
    # rewrites rows an earlier scan can see
    # ------------------------------------------------------------------ #
    def append(self, value: Any) -> None:
        self.extend([value])

    def extend(self, values: Iterable[Any]) -> None:
        self.append_batch(*self.coerce_batch(values))

    def coerce_batch(self, values: Iterable[Any]
                     ) -> tuple[np.ndarray, np.ndarray | None]:
        """Coerce ``values`` to this column's ``(data, null mask)`` pair.

        Touches nothing stored, so callers coerce every column of a
        statement before writing any (a bad value fails it whole).  STRING
        data are the strings themselves; BLOB data keep ``None``, unmasked.
        """
        sql_type = self.sql_type
        values = values if isinstance(values, list) else list(values)
        if not set(map(type, values)) <= _NATIVE_TYPES[sql_type]:
            values = [coerce_value(value, sql_type) for value in values]
        if sql_type is SQLType.BLOB:
            return _object_array(values), None
        try:
            return values_to_arrays(values, sql_type)
        except OverflowError as exc:
            raise TypeMismatchError(
                f"value out of range for {sql_type}: {exc}") from exc

    def append_batch(self, data: np.ndarray, mask: np.ndarray | None = None,
                     dictionary: np.ndarray | None = None) -> None:
        """Append a coerced batch: only the new rows are written.

        With ``dictionary`` (sorted, distinct) ``data`` are codes into it —
        the shape an image segment decodes to.
        """
        if self._dictionary is not None:
            data = self._encode(data, dictionary)
        start, stop = self._size, self._size + len(data)
        self._data = _writable(self._data, start, stop)
        self._data[start:stop] = data
        if self._mask is not None:
            self._mask = _writable(self._mask, start, stop)
        elif mask is not None:
            self._mask = np.zeros(len(self._data), dtype=bool)
        if self._mask is not None:
            self._mask[start:stop] = False if mask is None else mask
        self._size = stop
        self._publish()

    def assign_rows(self, indices: np.ndarray, data: np.ndarray,
                    mask: np.ndarray | None = None) -> None:
        """Set row ``indices[i]`` to ``data[i]`` on a copy of the column, so
        a scan published earlier keeps reading the old values."""
        if self._dictionary is not None:
            data = self._encode(data)
        size = self._size
        self._data = self._data[:size].copy()
        self._data[indices] = data
        if mask is not None or self._mask is not None:
            nulls = np.zeros(size, dtype=bool) if self._mask is None \
                else self._mask[:size].copy()
            nulls[indices] = False if mask is None else mask
            self._mask = nulls
        self._publish()

    def keep_rows(self, keep: np.ndarray) -> None:
        """Compress the column to the rows where ``keep`` is True."""
        size = self._size
        self._data = self._data[:size][keep]
        if self._mask is not None:
            self._mask = self._mask[:size][keep]
        self._size = len(self._data)
        self._publish()

    def truncate(self, size: int = 0) -> None:
        """Drop the rows past ``size``.

        A non-zero ``size`` only resets the length — the rollback of a
        failed statement, whose rows no reader was ever handed, so their
        slots may be overwritten.  Emptying the column starts fresh buffers:
        a streaming reader may still hold views of the old ones.
        """
        if size == 0:
            is_string = self.sql_type is SQLType.STRING
            self._data = np.empty(
                0, dtype="int64" if is_string else NUMPY_DTYPES[self.sql_type])
            self._mask: np.ndarray | None = None
            #: STRING only: the sorted distinct strings ``_data`` holds codes of.
            self._dictionary = np.empty(0, dtype=object) if is_string else None
        self._size = size
        self._publish()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _publish(self) -> None:
        """Build the read-only scan of rows ``[0:n)`` once per mutation."""
        size = self._size
        if self._dictionary is not None \
                and len(self._dictionary) > 2 * size + 16:
            # mostly strings only deleted, overwritten or rolled-back rows used
            self._data, self._dictionary = compact_dictionary(
                self._data[:size], self._dictionary)
        views = []
        for buffer in (self._data, self._mask):
            if buffer is not None:
                # frozen except while an append fills its spare capacity, so
                # no view of it — a UDF's input — can be flipped writable
                buffer.flags.writeable = False
                buffer = buffer if size == len(buffer) else buffer[:size]
            views.append(buffer)
        if self.sql_type is SQLType.BLOB:
            self._scan = views[0]  # Python tier: the object array itself
            return
        self._scan = Vector(*views, self._dictionary, self.sql_type)
        if self._scan.mask is None:
            self._mask = None  # the last NULL row is gone

    def _encode(self, data: np.ndarray,
                dictionary: np.ndarray | None = None) -> np.ndarray:
        """Dictionary codes for a batch of strings (or of foreign codes)."""
        if dictionary is not None:
            return self._intern(dictionary)[data]
        strings = data.tolist()
        distinct = sorted(set(strings))
        lookup = dict(zip(distinct,
                          self._intern(_object_array(distinct)).tolist()))
        return np.fromiter(map(lookup.__getitem__, strings),
                           dtype=np.int64, count=len(strings))

    def _intern(self, distinct: np.ndarray) -> np.ndarray:
        """Codes of the sorted, distinct strings ``distinct``.

        Strings the dictionary lacks are merged in at their sorted position
        (code order stays string order) and the stored codes are remapped
        onto a new array — earlier scans keep their codes *and* the
        dictionary those index.
        """
        dictionary = self._dictionary
        slots = np.searchsorted(dictionary, distinct)
        fresh = np.ones(len(distinct), dtype=bool)
        inside = slots < len(dictionary)
        fresh[inside] = dictionary[slots[inside]] != distinct[inside]
        if fresh.any():
            gaps = slots[fresh]
            self._dictionary = np.insert(dictionary, gaps, distinct[fresh])
            old = np.arange(len(dictionary))
            shifted = old + np.searchsorted(gaps, old, side="right")
            self._data = shifted[self._data[:self._size]]
            # every string moves up by the fresh ones sorting before it
            slots = slots + np.cumsum(fresh) - fresh
        return slots


def _writable(buffer: np.ndarray, used: int, need: int) -> np.ndarray:
    """``buffer`` ready to take rows ``[used:need)``: unfrozen if they fit,
    else a copy with room (geometric growth by an eighth, as a ``list``
    over-allocates: amortised O(1) per row for little idle memory; a first
    batch fits exactly)."""
    if need <= len(buffer):
        buffer.flags.writeable = True
        return buffer
    grown = np.empty(max(need, len(buffer) * 9 // 8), dtype=buffer.dtype)
    grown[:used] = buffer[:used]
    return grown


def compact_dictionary(codes: np.ndarray, dictionary: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Drop the dictionary entries no code references (order preserved)."""
    used = np.bincount(codes, minlength=len(dictionary)) > 0
    if used.all():
        return codes, dictionary
    return (np.cumsum(used) - 1)[codes], dictionary[used]


def column_to_numpy(values: Sequence[Any], sql_type: SQLType) -> np.ndarray:
    """Convert a list of SQL values to the numpy array handed to UDFs.

    Columns containing NULLs fall back to an object array so that ``None``
    survives the conversion (MonetDB uses masked arrays; an object array keeps
    the reproduction dependency-light while preserving the observable
    behaviour that UDFs can see missing values).
    """
    dtype = NUMPY_DTYPES[sql_type]
    if any(value is None for value in values):
        return np.array(list(values), dtype="object")
    if dtype == "object":
        array = np.empty(len(values), dtype="object")
        for index, value in enumerate(values):
            array[index] = value
        return array
    return np.array(list(values), dtype=dtype)


def values_to_arrays(values: Sequence[Any],
                     sql_type: SQLType) -> tuple[np.ndarray, np.ndarray | None]:
    """Export a value list as ``(data array, null mask)`` buffer pair.

    This is the wire-export shape: a contiguous typed data array with NULL
    positions filled by a placeholder, plus a boolean mask that is ``None``
    when the column has no NULLs.  The inverse is :func:`arrays_to_values`.
    """
    dtype = NUMPY_DTYPES[sql_type]
    mask: np.ndarray | None = None
    if None in values:
        mask = np.array([value is None for value in values], dtype=bool)
        fill = NULL_FILL[sql_type]
        values = [fill if value is None else value for value in values]
    if dtype == "object":
        return _object_array(values), mask
    return np.array(values, dtype=dtype), mask


def arrays_to_values(data: np.ndarray | Sequence[Any],
                     mask: np.ndarray | None = None) -> list[Any]:
    """Import a ``(data, mask)`` buffer pair back into a plain value list."""
    values = data.tolist() if isinstance(data, np.ndarray) else list(data)
    if mask is not None:
        for index in np.flatnonzero(mask):
            values[index] = None
    return values


@dataclass(frozen=True)
class QuarantinedRange:
    """A row range whose on-disk segment failed its checksum.

    Created by the salvage loader (``Database(path=..., salvage=True)``):
    the range's rows are NULL placeholders, not data, so any access to the
    table raises a structured :class:`~repro.errors.CorruptionError` until
    the operator discards the damage (TRUNCATE or DROP TABLE).
    """

    table: str
    start_row: int
    stop_row: int
    offset: int
    reason: str

    def as_dict(self) -> dict[str, Any]:
        return {"table": self.table, "start_row": self.start_row,
                "stop_row": self.stop_row, "offset": self.offset,
                "reason": self.reason}


class Table:
    """A stored table: a schema plus one :class:`Column` per schema column."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.columns: list[Column] = [Column(col) for col in schema.columns]
        #: Row ranges sealed by the salvage loader; non-empty quarantine
        #: blocks every read and row-rewriting mutation (see
        #: :meth:`check_readable`).  Appends are still allowed — they land
        #: after the damaged range — and TRUNCATE/DROP clear it.
        self.quarantined: list[QuarantinedRange] = []

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def column_names(self) -> list[str]:
        return self.schema.column_names

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column(self, name: str) -> Column:
        return self.columns[self.schema.column_index(name)]

    # ------------------------------------------------------------------ #
    # quarantine (salvage mode)
    # ------------------------------------------------------------------ #
    def quarantine(self, entry: QuarantinedRange) -> None:
        """Seal a row range whose backing segment failed its checksum."""
        self.quarantined.append(entry)

    def check_readable(self) -> None:
        """Raise :class:`CorruptionError` when quarantined rows exist.

        Called by every scan and row-rewriting mutation path: quarantined
        rows are NULL placeholders, and serving (or rewriting) them as data
        would silently launder the corruption into query results.
        """
        if not self.quarantined:
            return
        first = self.quarantined[0]
        ranges = ", ".join(f"{entry.start_row}..{entry.stop_row}"
                           for entry in self.quarantined)
        raise CorruptionError(
            f"table {self.name!r} has quarantined row ranges [{ranges}] "
            f"from corrupt on-disk segments (first: {first.reason}); "
            "restore from backup, or TRUNCATE/DROP the table to discard",
            table=self.name,
            row_range=(first.start_row, first.stop_row),
            offset=first.offset)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def insert_row(self, values: Sequence[Any]) -> None:
        self.insert_rows([values])

    def insert_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append ``rows``, all or none: every column's batch is coerced
        before any column is written, so a bad value in column k cannot leave
        columns 0..k-1 longer than the rest (ragged table)."""
        rows = rows if isinstance(rows, list) else list(rows)
        for row in rows:
            if len(row) != len(self.columns):
                raise ExecutionError(
                    f"INSERT into {self.name!r}: expected {len(self.columns)} values, "
                    f"got {len(row)}"
                )
        batches = [column.coerce_batch(values)
                   for column, values in zip(self.columns, zip(*rows))]
        for column, batch in zip(self.columns, batches):
            column.append_batch(*batch)
        return len(rows)

    def delete_rows(self, keep_mask: Sequence[bool]) -> int:
        """Keep only rows where ``keep_mask`` is True; return rows removed."""
        self.check_readable()
        keep = np.asarray(keep_mask, dtype=bool)
        if len(keep) != self.row_count:
            raise ExecutionError("DELETE mask length mismatch")
        for column in self.columns:
            column.keep_rows(keep)
        return len(keep) - int(np.count_nonzero(keep))

    def update_rows(self, mask: Sequence[bool], assignments: dict[str, Any]) -> int:
        """Apply per-row new values for the columns in ``assignments`` where mask is True."""
        selected = np.flatnonzero(np.asarray(mask, dtype=bool))
        return self.assign_rows(selected, {
            name: _take_values(values, selected)
            for name, values in assignments.items()})

    def assign_rows(self, indices: np.ndarray,
                    assignments: dict[str, Sequence[Any]]) -> int:
        """Set row ``indices[i]`` of each assigned column to its ``values[i]``.

        All values are coerced before any column is touched: a bad value
        must fail the whole statement, not leave some columns updated.
        """
        self.check_readable()
        batches = [(self.column(name), self.column(name).coerce_batch(values))
                   for name, values in assignments.items()]
        for column, batch in batches:
            column.assign_rows(indices, *batch)
        return len(indices)

    def truncate(self) -> None:
        # explicit destruction discards quarantined placeholders with the
        # data, so a salvaged table becomes writable again
        for column in self.columns:
            column.truncate()
        self.quarantined.clear()

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def rows(self) -> Iterator[tuple[Any, ...]]:
        self.check_readable()
        return zip(*[column.to_list() for column in self.columns])

    def to_dict(self) -> dict[str, list[Any]]:
        self.check_readable()
        return {column.name: column.to_list() for column in self.columns}

    def to_numpy_dict(self) -> dict[str, np.ndarray]:
        self.check_readable()
        return {column.name: column.to_numpy() for column in self.columns}


def _take_values(values: Any, indices: np.ndarray) -> list[Any]:
    """Python values of column data (vector, list or BLOB object array) at
    ``indices``."""
    if isinstance(values, Vector):
        return values.take(indices).to_list()
    return [values[index] for index in indices.tolist()]


class Storage:
    """The collection of all stored tables, addressed by (schema, name)."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    @staticmethod
    def _key(name: str) -> str:
        return name.lower()

    def create_table(self, schema: TableSchema, *, if_not_exists: bool = False) -> Table:
        key = self._key(schema.name)
        if key in self._tables:
            if if_not_exists:
                return self._tables[key]
            raise CatalogError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self._tables[key] = table
        return table

    def drop_table(self, name: str, *, if_exists: bool = False) -> None:
        key = self._key(name)
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]

    def has_table(self, name: str) -> bool:
        return self._key(name) in self._tables

    def table(self, name: str) -> Table:
        key = self._key(name)
        try:
            return self._tables[key]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def table_names(self) -> list[str]:
        return sorted(table.name for table in self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)
