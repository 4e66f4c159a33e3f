"""Unit tests for the unified vector representation (values+mask+dictionary)."""

import numpy as np
import pytest

from repro.sqldb.storage import (
    Column,
    arrays_to_values,
    values_to_arrays,
)
from repro.sqldb.schema import ColumnDef
from repro.sqldb.types import ColumnType, SQLType
from repro.sqldb.vector import (
    NULL_CODE,
    Vector,
    combine_masks,
    remap_to_shared_dictionary,
)


def make_column(sql_type, values):
    column = Column(ColumnDef("c", ColumnType(sql_type)))
    column.extend(values)
    return column


class TestVectorConstruction:
    def test_numeric_null_free_has_no_mask(self):
        vector = Vector.from_values([1, 2, 3], SQLType.INTEGER)
        assert vector.mask is None
        assert vector.dictionary is None
        assert vector.data.dtype == np.int64
        assert vector.to_list() == [1, 2, 3]

    def test_numeric_with_nulls_builds_mask(self):
        vector = Vector.from_values([1, None, 3], SQLType.INTEGER)
        assert vector.mask.tolist() == [False, True, False]
        assert vector.data.dtype == np.int64  # stays typed, no object fallback
        assert vector.to_list() == [1, None, 3]

    def test_strings_are_dictionary_encoded(self):
        vector = Vector.from_values(["b", "a", "b", "a"], SQLType.STRING)
        assert vector.is_dict
        # np.unique sorts: code order is string order
        assert vector.dictionary.tolist() == ["a", "b"]
        assert vector.data.tolist() == [1, 0, 1, 0]
        assert vector.to_list() == ["b", "a", "b", "a"]

    def test_null_strings_carry_null_code_and_mask(self):
        vector = Vector.from_values(["x", None], SQLType.STRING)
        assert vector.data.tolist()[1] == NULL_CODE
        assert vector.mask.tolist() == [False, True]
        assert vector.to_list() == ["x", None]

    def test_empty_column(self):
        vector = Vector.from_values([], SQLType.STRING)
        assert len(vector) == 0
        assert vector.to_list() == []

    def test_all_null_strings(self):
        vector = Vector.from_values([None, None], SQLType.STRING)
        assert vector.to_list() == [None, None]
        assert vector.null_count() == 2


class TestVectorAccess:
    def test_getitem_returns_python_values(self):
        vector = Vector.from_values(["a", None, "b"], SQLType.STRING)
        assert vector[0] == "a"
        assert vector[1] is None
        assert vector[2] == "b"

    def test_iteration_matches_to_list(self):
        vector = Vector.from_values([1.5, None, 2.5], SQLType.DOUBLE)
        assert list(vector) == vector.to_list()

    def test_take_preserves_mask_and_dictionary(self):
        vector = Vector.from_values(["a", None, "b", "a"], SQLType.STRING)
        taken = vector.take([3, 1, 0])
        assert taken.dictionary is vector.dictionary
        assert taken.to_list() == ["a", None, "a"]

    def test_to_numpy_matches_udf_format(self):
        nullable = Vector.from_values([1, None], SQLType.INTEGER)
        array = nullable.to_numpy()
        assert array.dtype == object
        assert array.tolist() == [1, None]
        strings = Vector.from_values(["x", "y"], SQLType.STRING)
        assert strings.to_numpy().dtype == object
        assert strings.to_numpy().tolist() == ["x", "y"]
        plain = Vector.from_values([1, 2], SQLType.INTEGER)
        assert plain.to_numpy().dtype == np.int64
        assert plain.to_numpy() is plain.data  # zero-copy

    def test_to_numpy_is_read_only(self):
        vector = Vector.from_values([1, 2], SQLType.INTEGER)
        with pytest.raises(ValueError):
            vector.to_numpy()[0] = 99


class TestSharedDictionary:
    def test_remap_is_order_preserving(self):
        left = Vector.from_values(["b", "d", "b"], SQLType.STRING)
        right = Vector.from_values(["a", "d", "c"], SQLType.STRING)
        left_codes, right_codes = remap_to_shared_dictionary(left, right)
        # shared sorted space: a<b<c<d — code comparisons == string comparisons
        assert (left_codes[1] > right_codes[2]) == ("d" > "c")
        assert left_codes[1] == right_codes[1]  # both "d"
        assert left_codes[0] == left_codes[2]


class TestCombineMasks:
    def test_combine_masks(self):
        a = np.array([True, False])
        b = np.array([False, True])
        assert combine_masks(None, None) is None
        assert combine_masks(a, None) is a
        assert combine_masks(a, b).tolist() == [True, True]


class TestColumnScanValues:
    def test_null_free_numeric_is_mask_free_vector_over_stored_buffer(self):
        column = make_column(SQLType.INTEGER, [1, 2, 3])
        scanned = column.scan_values()
        assert isinstance(scanned, Vector)
        assert scanned.mask is None and scanned.dictionary is None
        assert scanned.data.dtype == np.int64
        assert not scanned.data.flags.writeable
        assert np.shares_memory(scanned.data, column._data)
        assert scanned.to_numpy() is scanned.data  # the UDF handoff: O(1)

    def test_nullable_numeric_becomes_vector(self):
        column = make_column(SQLType.DOUBLE, [1.0, None])
        scanned = column.scan_values()
        assert isinstance(scanned, Vector)
        assert scanned.data.dtype == np.float64  # no object-array fallback

    def test_string_column_becomes_dictionary_vector(self):
        column = make_column(SQLType.STRING, ["x", "y", "x"])
        scanned = column.scan_values()
        assert isinstance(scanned, Vector)
        assert scanned.is_dict

    def test_scan_cache_invalidated_on_mutation(self):
        column = make_column(SQLType.STRING, ["x"])
        first = column.scan_values()
        assert column.scan_values() is first  # cached
        column.append("y")
        second = column.scan_values()
        assert second is not first
        assert second.to_list() == ["x", "y"]

    def test_mask_appears_with_first_null_and_goes_with_last(self):
        column = make_column(SQLType.INTEGER, [1, 2])
        assert isinstance(column.scan_values(), Vector)
        assert column.scan_values().mask is None
        column.append(None)
        assert column.scan_values().mask.tolist() == [False, False, True]
        column.keep_rows(np.array([True, True, False]))
        assert column.scan_values().mask is None


class TestBufferPairRoundTrip:
    """The mask — not the placeholder — is the source of truth for NULLs."""

    CASES = [
        (SQLType.STRING, ["", None, "x", ""]),
        (SQLType.BLOB, [b"", None, b"y"]),
        (SQLType.INTEGER, [0, None, 5, 0]),
        (SQLType.BOOLEAN, [False, None, True, False]),
        (SQLType.DOUBLE, [0.0, None, 1.5]),
        (SQLType.BIGINT, [0, None, 2**40]),
    ]

    @pytest.mark.parametrize("sql_type,values", CASES)
    def test_sentinel_equal_values_round_trip(self, sql_type, values):
        """Values equal to the NULL placeholder survive the export/import."""
        data, mask = values_to_arrays(values, sql_type)
        assert arrays_to_values(data, mask) == values

    @pytest.mark.parametrize("sql_type,values", CASES)
    def test_vector_round_trip_preserves_sentinels(self, sql_type, values):
        if sql_type is SQLType.BLOB:
            pytest.skip("BLOB columns are not vectorised")
        vector = Vector.from_values(values, sql_type)
        assert vector.to_list() == values
        data, mask = vector.buffer_arrays()
        assert arrays_to_values(data, mask) == values

    def test_no_mask_when_no_nulls(self):
        data, mask = values_to_arrays(["", "x"], SQLType.STRING)
        assert mask is None
        assert arrays_to_values(data, mask) == ["", "x"]
