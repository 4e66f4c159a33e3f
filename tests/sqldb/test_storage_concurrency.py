"""Thread safety of the storage layer's published scans.

Multi-threaded embedders (and the wire server's statement pool) read a
column's scan while a writer mutates it; every reader must observe (a) the one scan
the last mutation published and (b) a consistent snapshot of that state,
never rows a racing mutation is still writing.
"""

import threading

import numpy as np

from repro.sqldb.schema import ColumnDef
from repro.sqldb.storage import Column
from repro.sqldb.types import ColumnType, SQLType
from repro.sqldb.vector import Vector


def make_column(values, sql_type=SQLType.INTEGER):
    column = Column(ColumnDef("c", ColumnType(sql_type)))
    column.extend(values)
    return column


def hammer(workers, fn):
    start = threading.Barrier(workers)
    errors = []

    def run():
        start.wait()
        try:
            for _ in range(200):
                fn()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors


def test_concurrent_scans_share_one_consistent_cache():
    column = make_column(range(1000))

    seen = set()

    def scan():
        array = column.to_numpy()
        assert len(array) == 1000 and array[-1] == 999
        seen.add(id(array))

    hammer(4, scan)
    assert len(seen) == 1  # one cached build shared by every thread


def test_concurrent_build_and_invalidation_never_leaves_stale_cache():
    column = make_column(range(100))
    stop = threading.Event()

    def mutate():
        while not stop.is_set():
            column.append(1)

    writer = threading.Thread(target=mutate)
    writer.start()
    try:
        for _ in range(300):
            array = column.to_numpy()
            # the array must always be a consistent prefix snapshot
            assert list(array[:100]) == list(range(100))
    finally:
        stop.set()
        writer.join()
    # after the writer stops, a fresh scan sees every append
    assert len(column.to_numpy()) == len(column.values)


def test_concurrent_vector_scans_string_column():
    column = make_column([f"s_{i % 7}" if i % 5 else None
                          for i in range(500)], SQLType.STRING)

    def scan():
        vector = column.scan_values()
        assert isinstance(vector, Vector)
        assert len(vector) == 500
        assert vector[0] is None

    hammer(4, scan)


def test_scan_vector_range_slices_are_zero_copy_views():
    column = make_column(range(100))
    full = column.scan_values()
    part = column.scan_vector(10, 20)
    assert isinstance(part, Vector) and part.mask is None
    assert list(part) == list(range(10, 20))
    assert part.data.base is full.data  # a view, not a copy
    # the full range returns the cached object itself
    assert column.scan_vector(0, 100) is full


def test_scan_vector_slices_share_vector_buffers():
    column = make_column([f"s_{i % 3}" for i in range(30)], SQLType.STRING)
    full = column.scan_values()
    part = column.scan_vector(5, 25)
    assert isinstance(part, Vector)
    assert len(part) == 20
    assert part.dictionary is full.dictionary
    assert part.to_list() == full.to_list()[5:25]


def test_scan_taken_before_an_append_stays_a_snapshot():
    column = make_column(range(10))
    before = column.scan_vector(0, 10)
    column.append(11)
    after = column.scan_vector(0, 11)
    assert before.data.tolist() == list(range(10))  # old snapshot unaffected
    assert after.data.tolist() == list(range(10)) + [11]


def test_parallel_queries_share_scan_caches():
    from repro.sqldb.database import Database

    db = Database(morsel_rows=64)
    db.execute("CREATE TABLE t (k INTEGER, v DOUBLE)")
    table = db.storage.table("t")
    for i in range(1000):
        table.insert_row([i % 10, i * 0.25])
    try:
        expected = db.execute("SELECT k, SUM(v) FROM t GROUP BY k").fetchall()
        results = []

        def query():
            results.append(
                db.execute("SELECT k, SUM(v) FROM t GROUP BY k").fetchall())

        threads = [threading.Thread(target=query) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result == expected for result in results)
    finally:
        db.close()
