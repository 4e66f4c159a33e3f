"""The one typed column representation, from the stored buffer to the client.

A :class:`Vector` is every typed column — what a stored column publishes as
its scan, what an evaluator kernel, a typed UDF result and a table function
return, what a result column is backed by and what a wire chunk decodes to:
a contiguous typed ``data`` array, an optional boolean validity ``mask``
(``True`` marks a SQL NULL; the mask — never a placeholder value in ``data``
— is the *only* source of truth for NULLs), and, for STRING columns, an
optional dictionary encoding: ``data`` holds ``int64`` codes indexing a
sorted unique-value ``dictionary`` table.  A NULL-free numeric column is a
``Vector`` with ``mask=None, dictionary=None`` whose ``data`` *is* the typed
array (for a stored column: the read-only view of the stored buffer), so
wrapping, slicing and the UDF handoff :meth:`Vector.to_numpy` stay O(1).

A non-object ``ndarray`` is therefore never column data: outside a ``Vector``
it is a kernel operand (``Vector.data``), a filter mask or an index array.
The only other column shapes are the Python tier's — a ``list`` of Python
values and the object array a BLOB column stores — which is where every
guard against a typed kernel's limits (int64 overflow, float exactness,
string-vs-number comparison) falls back to.

Because ``np.unique`` produces the dictionary in sorted order, code order
*is* lexicographic string order: equality, ordering comparisons, MIN/MAX and
GROUP BY on strings all run as integer kernels over the codes.  NULL rows
carry an arbitrary code (``-1`` from :meth:`Vector.from_values`, the code of
``""`` in a stored column) — every consumer must (and does) consult ``mask``
instead of inspecting codes or placeholder values, which is what keeps values
equal to a NULL placeholder (``""``, ``0``, ``False``) representable.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from .types import NUMPY_DTYPES, SQLType, python_value

#: Code stored at NULL positions of a dictionary vector (debugging aid only;
#: the validity mask is authoritative).
NULL_CODE = -1

#: Placeholder stored in the data buffer at masked positions (never read back:
#: the validity mask is the only source of truth for NULLs).
NULL_FILL = {
    SQLType.INTEGER: 0,
    SQLType.BIGINT: 0,
    SQLType.DOUBLE: 0.0,
    SQLType.REAL: 0.0,
    SQLType.BOOLEAN: False,
    SQLType.STRING: "",
    SQLType.BLOB: b"",
}


def int_magnitude(values: np.ndarray) -> int:
    """The largest absolute value in an integer array as a Python int (0 when
    empty): what the int64-overflow and float-exactness guards compare."""
    return max(abs(int(values.max())), abs(int(values.min()))) \
        if values.size else 0


#: The SQL type an unlabelled kernel output takes, per dtype kind.
_KIND_TYPES = {"b": SQLType.BOOLEAN, "i": SQLType.BIGINT, "u": SQLType.BIGINT,
               "f": SQLType.DOUBLE}


def typed_vector(data: np.ndarray, mask: np.ndarray | None = None,
                 dictionary: np.ndarray | None = None,
                 sql_type: SQLType | None = None) -> "Vector":
    """A kernel's output array (or dictionary codes) as a vector whose masked
    rows hold the placeholder a value list's NULL is exported with — zero,
    ``NULL_CODE`` under a dictionary — so its buffers are the bytes the
    list's would be.  Unlabelled, it takes the SQL type of its dtype."""
    if mask is not None and mask.any():  # (a mask of no NULL is dropped)
        fill = NULL_CODE if dictionary is not None else 0
        data = np.where(mask, np.array(fill, dtype=data.dtype), data)
    if sql_type is None:
        sql_type = SQLType.STRING if dictionary is not None \
            else _KIND_TYPES[data.dtype.kind]
    return Vector(data, mask, dictionary, sql_type)


def combine_masks(*masks: np.ndarray | None) -> np.ndarray | None:
    """Union several validity masks (None means "no NULLs")."""
    present = [mask for mask in masks if mask is not None]
    if not present:
        return None
    if len(present) == 1:
        return present[0]
    out = present[0] | present[1]
    for mask in present[2:]:
        out = out | mask
    return out


class Vector:
    """One column of data: typed values + validity mask + optional dictionary.

    ``data``
        For plain vectors: a typed value array (``int64``/``float64``/
        ``bool``); entries at masked positions hold an arbitrary placeholder.
        For dictionary vectors: an ``int64`` code array indexing
        ``dictionary`` (``NULL_CODE`` at masked positions).
    ``mask``
        Boolean validity mask, ``True`` = NULL; ``None`` when NULL-free.
    ``dictionary``
        Sorted unique-value table (object ndarray) or ``None``.
    """

    __slots__ = ("data", "mask", "dictionary", "sql_type", "_objects")

    def __init__(self, data: np.ndarray, mask: np.ndarray | None = None,
                 dictionary: np.ndarray | None = None,
                 sql_type: SQLType = SQLType.STRING) -> None:
        self.data = data
        self.mask = mask if mask is not None and mask.any() else None
        self.dictionary = dictionary
        self.sql_type = sql_type
        self._objects: np.ndarray | None = None  # cached UDF-format array

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_values(cls, values: Sequence[Any], sql_type: SQLType) -> "Vector":
        """Build a vector from a plain Python value list (Nones = NULLs)."""
        count = len(values)
        if any(value is None for value in values):
            mask = np.fromiter((value is None for value in values),
                               dtype=bool, count=count)
        else:
            mask = None
        if sql_type is SQLType.STRING:
            fill = NULL_FILL[sql_type]
            table = np.empty(count, dtype=object)
            for index, value in enumerate(values):
                table[index] = fill if value is None else value
            if count:
                dictionary, codes = np.unique(table, return_inverse=True)
                codes = codes.astype(np.int64, copy=False)
            else:
                dictionary = np.empty(0, dtype=object)
                codes = np.empty(0, dtype=np.int64)
            if mask is not None:
                codes[mask] = NULL_CODE
            return cls(codes, mask, dictionary, sql_type)
        dtype = NUMPY_DTYPES[sql_type]
        if mask is None:
            data = np.array(list(values), dtype=dtype)
        else:
            fill = NULL_FILL[sql_type]
            data = np.array([fill if value is None else value
                             for value in values], dtype=dtype)
        return cls(data, mask, None, sql_type)

    @classmethod
    def from_codes(cls, codes: np.ndarray, dictionary: np.ndarray,
                   mask: np.ndarray | None = None,
                   sql_type: SQLType = SQLType.STRING) -> "Vector":
        """Wrap an existing (codes, dictionary, mask) triple."""
        return cls(np.asarray(codes, dtype=np.int64), mask,
                   np.asarray(dictionary, dtype=object), sql_type)

    # ------------------------------------------------------------------ #
    # shape / predicates
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.data)

    @property
    def is_dict(self) -> bool:
        return self.dictionary is not None

    def null_count(self) -> int:
        return int(np.count_nonzero(self.mask)) if self.mask is not None else 0

    # ------------------------------------------------------------------ #
    # element access (Python-tier fallbacks index vectors directly)
    # ------------------------------------------------------------------ #
    def __getitem__(self, index: int) -> Any:
        if self.mask is not None and self.mask[index]:
            return None
        if self.dictionary is not None:
            return self.dictionary[self.data[index]]
        value = self.data[index]
        return value.item() if isinstance(value, np.generic) else value

    def __iter__(self) -> Iterator[Any]:
        return iter(self.to_list())

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #
    def decoded(self) -> np.ndarray:
        """The value array with dictionary codes resolved.

        Masked positions hold placeholders — callers must consult ``mask``.
        """
        if self.dictionary is None:
            return self.data
        if len(self.dictionary):
            codes = self.data if self.mask is None else \
                np.where(self.mask, 0, self.data)
            return self.dictionary[codes]
        return np.full(len(self.data), NULL_FILL[self.sql_type], dtype=object)

    def to_list(self) -> list[Any]:
        """Plain Python values, ``None`` at masked positions."""
        values = self.decoded().tolist()
        if self.mask is not None:
            for index in np.flatnonzero(self.mask):
                values[index] = None
        return values

    def to_numpy(self) -> np.ndarray:
        """The UDF handoff format (matches ``column_to_numpy`` exactly):
        NULL-bearing columns become object arrays holding ``None``; NULL-free
        strings become object arrays; NULL-free numerics stay typed (shared,
        read-only).  The result is cached on the vector.
        """
        if self._objects is None:
            if self.mask is None and self.dictionary is None:
                array = self.data
            elif self.mask is None:
                array = self.decoded().copy()
            else:
                array = np.empty(len(self.data), dtype=object)
                array[:] = self.to_list()
            array.setflags(write=False)
            self._objects = array
        return self._objects

    def buffer_arrays(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Export as the wire-format ``(data array, null mask)`` pair."""
        if self.dictionary is None:
            return self.data, self.mask
        decoded = self.decoded()
        if self.mask is not None:
            decoded = decoded.copy()
            decoded[self.mask] = NULL_FILL[self.sql_type]
        return decoded, self.mask

    # ------------------------------------------------------------------ #
    # row operations
    # ------------------------------------------------------------------ #
    def take(self, indices: Any) -> "Vector":
        """Gather rows at ``indices`` (fancy indexing)."""
        idx = np.asarray(indices, dtype=np.intp)
        mask = self.mask[idx] if self.mask is not None else None
        return Vector(self.data[idx], mask, self.dictionary, self.sql_type)

    def repeat(self, count: int) -> "Vector":
        """A one-row vector's value ``count`` times (constant broadcast)."""
        return self.take(np.zeros(count, dtype=np.intp))

    def slice(self, start: int, stop: int) -> "Vector":
        """A zero-copy view of rows ``[start, stop)``.

        The data and mask are numpy views of this vector's buffers and the
        dictionary is shared, so morsel-sized slices cost O(1) — this is the
        shape row-range scans hand to the morsel loop.
        """
        mask = self.mask[start:stop] if self.mask is not None else None
        return Vector(self.data[start:stop], mask, self.dictionary,
                      self.sql_type)


def slice_column_values(values: Any, start: int, stop: int) -> Any:
    """Row-range slice of column data (zero-copy for arrays and vectors).

    A full-range slice returns the original object, so single-morsel
    execution shares stored scans (and their memoised UDF materialisations)
    exactly like whole-batch execution did.  This is the one slicing rule
    both the storage scan path and the executor batch path use.
    """
    if start == 0 and stop >= len(values):
        return values
    if isinstance(values, Vector):
        return values.slice(start, stop)
    return values[start:stop]


def as_value_list(values: Any) -> list[Any]:
    """A plain Python list of Python values.

    A vector detaches in one pass; a BLOB column's object array already holds
    Python objects; list inputs are sanitised element-wise because
    per-element fallback paths (builtins, UDF results) can leave numpy
    scalars behind.
    """
    if isinstance(values, Vector):
        return values.to_list()
    if isinstance(values, np.ndarray):  # a BLOB column's object array
        return values.tolist()
    return [python_value(value) for value in values]


def concat_values(pieces: Sequence[Any]) -> Any:
    """Concatenate per-morsel / per-chunk column data back into one column.

    Vector pieces of one type sharing one dictionary object stay a vector
    (dictionary-encoded if they were); anything else falls back to one
    Python list.  Single pieces pass through untouched (no copy for an input
    that fits one morsel, or a result that fits one wire chunk).
    """
    pieces = list(pieces)
    if len(pieces) == 1:
        return pieces[0]
    if not pieces:
        return []
    first = pieces[0]
    if all(isinstance(piece, Vector) and piece.dictionary is first.dictionary
           and piece.sql_type is first.sql_type
           and piece.data.dtype == first.data.dtype for piece in pieces):
        data = np.concatenate([piece.data for piece in pieces])
        mask = None
        if any(piece.mask is not None for piece in pieces):
            mask = np.concatenate([
                piece.mask if piece.mask is not None
                else np.zeros(len(piece), dtype=bool) for piece in pieces])
        return Vector(data, mask, first.dictionary, first.sql_type)
    merged: list[Any] = []
    for piece in pieces:
        merged.extend(as_value_list(piece))
    return merged


def remap_to_shared_dictionary(left: Vector, right: Vector
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Translate two dictionary vectors' codes into one shared sorted space.

    Because the shared dictionary is sorted, comparing remapped codes is
    equivalent to comparing the underlying strings (including ordering).
    Masked positions keep arbitrary codes — consult the vectors' masks.
    """
    combined = np.concatenate([left.dictionary, right.dictionary])
    _, inverse = np.unique(combined, return_inverse=True)
    left_map = inverse[:len(left.dictionary)]
    right_map = inverse[len(left.dictionary):]
    left_codes = left.data if left.mask is None else \
        np.where(left.mask, 0, left.data)
    right_codes = right.data if right.mask is None else \
        np.where(right.mask, 0, right.data)
    if len(left_map):
        left_shared = left_map[left_codes]
    else:
        left_shared = np.empty(0, dtype=np.int64)
    if len(right_map):
        right_shared = right_map[right_codes]
    else:
        right_shared = np.empty(0, dtype=np.int64)
    return left_shared, right_shared
