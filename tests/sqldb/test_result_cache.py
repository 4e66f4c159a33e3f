"""The result cache admits new results on probation.

A ``put`` enters the probation segment, which holds at most ``max_bytes //
8`` estimated bytes (oldest out first, the newest always kept); a ``get`` that
hits promotes its entry to the protected segment.  So a flood of results
nobody asks for twice costs an eighth of the budget and cannot push out a
result that is asked for again.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqldb import Database
from repro.sqldb.cache import ResultCache, estimate_result_bytes
from repro.sqldb.result import QueryResult, ResultColumn
from repro.sqldb.types import SQLType

BUDGET = 64 * 1024


def _result(rows):
    return QueryResult([ResultColumn("a", SQLType.INTEGER, list(range(rows)))],
                       statement_type="SELECT")


def _check(cache):
    """The invariants that hold after every operation."""
    probation = cache._probation.values()
    protected = cache._protected.values()
    assert cache.probation_bytes == sum(entry.nbytes for entry in probation)
    assert cache.used_bytes == cache.probation_bytes + sum(
        entry.nbytes for entry in protected)
    assert cache.used_bytes <= cache.max_bytes
    if len(cache._probation) > 1:
        assert cache.probation_bytes <= cache.max_bytes // 8
    assert not cache._probation.keys() & cache._protected.keys()
    assert len(cache) == len(cache._probation) + len(cache._protected)


def test_a_flood_of_one_offs_leaves_a_promoted_entry_cached():
    cache = ResultCache(BUDGET)
    cache.put("hot", _result(10))
    assert cache.get("hot") is not None  # promoted
    for serial in range(2_000):
        cache.put(f"once{serial}", _result(serial % 300))
        _check(cache)
    assert cache.get("hot") is not None
    assert cache.probation_bytes <= BUDGET // 8
    assert cache.evictions > 0


def test_the_newest_entry_stays_even_above_the_probation_share():
    cache = ResultCache(BUDGET)
    big = _result(500)
    assert BUDGET // 8 < estimate_result_bytes(big) <= BUDGET // 4
    cache.put("small", _result(1))
    cache.put("big", big)
    assert list(cache._probation) == ["big"]
    assert cache.get("big") is big
    _check(cache)


def test_a_newer_version_empties_both_segments():
    version = [0]
    cache = ResultCache(BUDGET, lambda: version[0])
    for key in ("p1", "p2", "q1", "q2"):
        cache.put(key, _result(3))
    cache.get("q1")
    cache.get("q2")
    assert set(cache._protected) == {"q1", "q2"}
    version[0] += 1
    assert cache.invalidations == 4  # stale from the bump on
    assert cache.get("p1") is None
    assert len(cache) == 0 and cache.used_bytes == cache.probation_bytes == 0
    assert cache.invalidations == 4
    _check(cache)
    cache.put("p1", _result(3))
    version[0] += 1
    cache.put("p2", _result(3))  # a put drops the stale entries as well
    assert list(cache._probation) == ["p2"] and cache.invalidations == 5
    _check(cache)


OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("put"), st.integers(0, 30), st.integers(0, 1_000)),
    st.tuples(st.just("get"), st.integers(0, 30)),
    st.tuples(st.just("bump")),
), max_size=120)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(operations=OPERATIONS, budget=st.sampled_from([1, 4_096, BUDGET]))
def test_the_byte_counts_match_both_segments_after_every_operation(
        operations, budget):
    version = [0]
    cache = ResultCache(budget, lambda: version[0])
    stored = {}
    for operation in operations:
        kind = operation[0]
        if kind == "put":
            _, key, rows = operation
            cache.put(f"k{key}", _result(rows))
            stored[f"k{key}"] = rows
        elif kind == "get":
            found = cache.get(f"k{operation[1]}")
            # a hit answers with what was put under that key since the bump
            assert found is None \
                or found.row_count == stored.get(f"k{operation[1]}")
        else:
            version[0] += 1
            stored = {}
        _check(cache)


def test_a_second_execution_hits():
    db = Database(result_cache_bytes=BUDGET)
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2), (3)")
    assert db.execute("SELECT SUM(a) FROM t WHERE a > 1").scalar() == 5
    for low in range(10):  # one-offs in between, within the probation share
        db.execute(f"SELECT a FROM t WHERE a > {low}")
    hits = db.result_cache.hits
    assert db.execute("SELECT SUM(a) FROM t WHERE a > 1").scalar() == 5
    assert db.result_cache.hits == hits + 1
    db.close()
