"""Grouping keys are sorted by counting when they can be, and it shows in
nothing but the time.

``operators.stable_order`` is ``np.argsort(keys, kind="stable")`` computed
as NumPy's radix sort whenever an integer key spans at most 65,536 values.
A stable sort's permutation is unique, so the property below is the whole
proof that every group id, cluster geometry and ``reduceat`` result stays
bit-identical.  The work-counting guards are host-independent: they record
what ``np.argsort`` / ``np.unique`` were handed, never how long they took.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sqldb import Database
from repro.sqldb.operators import grouping_key_array, stable_order
from repro.sqldb.plan import split_morsels
from repro.sqldb.types import SQLType
from repro.sqldb.vector import NULL_CODE, Vector

INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64]
#: ``max - min`` on both sides of the uint8 and uint16 boundaries
EDGE_SPANS = [0, 1, 254, 255, 256, 65_534, 65_535, 65_536, 65_537]


def _keys(dtype, length, low, span, seed):
    """``length`` keys of ``dtype`` in [low, low + span], both ends present
    once there are two keys; ``low`` / ``span`` are clamped to the dtype."""
    info = np.iinfo(dtype)
    low = min(max(low, info.min), info.max)
    span = min(span, info.max - low)
    rng = np.random.default_rng(seed)
    offsets = rng.integers(0, span, length, endpoint=True, dtype=np.uint64)
    # modular arithmetic in uint64, then a wrapping cast: exact for any dtype
    keys = (offsets + np.uint64(low % 2 ** 64)).astype(dtype)
    if length >= 2:
        keys[0], keys[-1] = low, low + span
    return keys


@settings(derandomize=True, max_examples=400, deadline=None)
@given(dtype=st.sampled_from(INTEGER_DTYPES),
       length=st.one_of(st.sampled_from([0, 1, 2, 70_000]),
                        st.integers(0, 300)),
       low=st.one_of(st.sampled_from([NULL_CODE, 0, -300, -2 ** 63, 2 ** 63]),
                     st.integers(-2 ** 63, 2 ** 64 - 1)),
       span=st.one_of(st.sampled_from(EDGE_SPANS),
                      st.integers(0, 2 ** 64 - 1)),
       seed=st.integers(0, 2 ** 32 - 1))
# int64 / uint64 extremes: max - min does not fit the dtype itself
@example(dtype=np.int64, length=70_000, low=-2 ** 63, span=2 ** 64 - 1, seed=1)
@example(dtype=np.uint64, length=70_000, low=0, span=2 ** 64 - 1, seed=2)
@example(dtype=np.int64, length=70_000, low=-2 ** 63, span=65_535, seed=3)
@example(dtype=np.uint64, length=70_000, low=2 ** 64 - 65_536, span=65_535,
         seed=4)
# all-equal keys, and NULL_CODE as the minimum of a code array
@example(dtype=np.int64, length=70_000, low=7, span=0, seed=5)
@example(dtype=np.int64, length=70_000, low=NULL_CODE, span=65_535, seed=6)
@example(dtype=np.int64, length=70_000, low=NULL_CODE, span=65_536, seed=7)
def test_stable_order_is_the_stable_argsort(dtype, length, low, span, seed):
    keys = _keys(dtype, length, low, span, seed)
    order = stable_order(keys)
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    assert order.dtype == np.intp


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32])
@pytest.mark.parametrize("span", EDGE_SPANS)
def test_the_sort_narrows_exactly_when_the_span_fits_16_bits(
        dtype, span, monkeypatch):
    keys = _keys(dtype, 5_000, -40_000 if dtype != np.uint64 else 3, span, 11)
    sorted_dtypes = []
    argsort = np.argsort

    def recording(array, *args, **kwargs):
        sorted_dtypes.append(array.dtype)
        return argsort(array, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording)
    order = stable_order(keys)
    monkeypatch.undo()
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    expected = (np.uint8 if span <= 255 else np.uint16 if span <= 65_535
                else dtype)
    assert sorted_dtypes == [np.dtype(expected)]


# --------------------------------------------------------------------------- #
# grouping_key_array: a small-range key is its own code
# --------------------------------------------------------------------------- #
@pytest.fixture()
def unique_calls(monkeypatch):
    """``np.unique`` calls made coding one key's values (``_dense_code``,
    which ``grouping_key_array`` hands a masked key's valid values)."""
    calls = []
    unique = np.unique

    def counting(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_dense_code":
            calls.append(len(args[0]))
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    return calls


def _masked(values, nulls, sql_type=SQLType.INTEGER):
    return Vector.from_values(
        [None if null else value for value, null in zip(values, nulls)],
        sql_type)


def _reference_codes(vector):
    """The factorisation every masked numeric key took before: dense ranks
    of the valid values from ``np.unique``, NULLs at ``NULL_CODE``."""
    codes = np.full(len(vector), NULL_CODE, dtype=np.int64)
    valid = ~vector.mask
    codes[valid] = np.unique(vector.data[valid], return_inverse=True)[1]
    return codes


@pytest.mark.parametrize("low, span", [(0, 0), (-5, 300), (-2 ** 62, 65_535),
                                       (10 ** 12, 65_534)])
def test_small_range_masked_integers_code_themselves(unique_calls, low, span):
    rng = np.random.default_rng(span)
    values = (low + rng.integers(0, span, 3_000, endpoint=True)).tolist()
    values[:2] = [low, low + span]
    vector = _masked(values, rng.random(3_000) < 0.2)
    codes = grouping_key_array(vector)
    assert unique_calls == []
    reference = _reference_codes(vector)
    # same NULL rows, same order and ties: the same sort, so the same groups
    assert np.array_equal(codes == NULL_CODE, vector.mask)
    assert np.array_equal(stable_order(codes), np.argsort(reference, kind="stable"))


def test_wide_or_float_masked_keys_keep_np_unique(unique_calls):
    nulls = [False, False, True] * 50
    for values, sql_type in (([0, 65_536, 7] * 50, SQLType.INTEGER),
                             ([0.5, 1.5, 7.0] * 50, SQLType.DOUBLE)):
        unique_calls.clear()
        vector = _masked(values, nulls, sql_type)
        codes = grouping_key_array(vector)
        assert unique_calls == [100]
        assert np.array_equal(codes, _reference_codes(vector))


def test_dictionary_keys_never_call_np_unique(unique_calls):
    vector = _masked([f"s{i % 9}" for i in range(400)],
                     [i % 5 == 0 for i in range(400)], SQLType.STRING)
    codes = grouping_key_array(vector)
    assert unique_calls == []
    assert np.array_equal(codes == NULL_CODE, vector.mask)


# --------------------------------------------------------------------------- #
# the executor: what a GROUP BY hands to np.argsort, per morsel
# --------------------------------------------------------------------------- #
ROWS = 20_000


@pytest.fixture(scope="module", params=[7, 65_536],
                ids=lambda morsel_rows: f"morsel{morsel_rows}")
def engine(request):
    db = Database(morsel_rows=request.param)
    db.execute("CREATE TABLE g (k INTEGER, nk INTEGER, s STRING, wide INTEGER, "
               "v DOUBLE)")
    rng = np.random.default_rng(25)
    picks = rng.integers(0, 2 ** 20, ROWS).tolist()
    rows = []
    for i in range(ROWS):
        # every 7-row morsel holds both ends of the 2^20-value range
        wide = (0, 2 ** 20 - 1)[i % 7] if i % 7 < 2 else picks[i]
        rows.append((i % 500, None if i % 11 == 0 else i % 37 - 18,
                     None if i % 13 == 0 else f"n{i % 200:03d}", wide, i * 0.5))
    db.storage.table("g").insert_rows(rows)
    yield db
    db.close()


@pytest.fixture()
def argsorts(monkeypatch):
    """(dtype, length) of every ``np.argsort`` call."""
    calls = []
    argsort = np.argsort

    def recording(array, *args, **kwargs):
        calls.append((np.asarray(array).dtype, len(array)))
        return argsort(array, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording)
    return calls


def _morsel_lengths(engine):
    """The row counts of the table's morsels (what "row-sized" means)."""
    return {stop - start
            for start, stop in split_morsels(ROWS, engine.morsel_rows)}


@pytest.mark.parametrize("key", ["k", "nk", "s"])
def test_a_16_bit_key_sorts_no_wide_row_sized_array(engine, argsorts,
                                                    unique_calls, key):
    rows = engine.execute(
        f"SELECT {key}, COUNT(*), SUM(v) FROM g GROUP BY {key}").fetchall()
    assert len(rows) == {"k": 500, "nk": 38, "s": 201}[key]
    lengths = _morsel_lengths(engine)
    row_sized = [(dtype, n) for dtype, n in argsorts if n in lengths]
    assert row_sized, "the guard must see the key sorts"
    assert all(dtype.itemsize <= 2 for dtype, _ in row_sized), row_sized
    assert unique_calls == []


def test_a_key_spanning_2_to_the_20_still_sorts_by_comparison(engine, argsorts):
    engine.execute("SELECT wide, COUNT(*) FROM g GROUP BY wide").fetchall()
    lengths = _morsel_lengths(engine)
    assert any(dtype.itemsize == 8 and n in lengths for dtype, n in argsorts)
