"""Work per statement is an exact count, independent of host speed.

Each check here names a regression that used to be caught only by timing a
benchmark run, and sees it on any host instead:

* an ``INSERT ... VALUES`` costs a fixed number of Python calls per row, so a
  scanner taking one character at a time, a parser descending one frame per
  precedence level for every literal, or a literal evaluated as a one-row
  result shows up as a steeper slope between 200 and 800 rows;
* the first read after a durable database opens, and the first after an
  INSERT, cost what a warm read costs plus the same extra calls and memory
  at 20,000 and at 200,000 rows — a column kept as a list with a cache
  rebuilt on the first read would add an O(rows) allocation (one
  ``np.array(list)`` call, so it is the ``tracemalloc`` peak that sees it);
* a GROUP BY over typed columns split into four morsels makes no Python
  call per group or per cell — the partial merge scatters arrays and the
  rows are one transpose — so 500 and 5,000 groups cost the same calls, and
  ``python_value`` is never called;
* an aggregate without GROUP BY builds no row-sized array to find its one
  group (the ``tracemalloc`` peak of ``COUNT(*)`` / ``MAX(k)`` over 200,000
  rows stays under one byte a row);
* every socket the TCP front end accepts has Nagle's algorithm off, so a
  reply's header and first chunk never wait for a delayed ACK.

Calls are counted as the reachability census counts them: ``call`` events
under ``sys.setprofile`` whose code lives in the ``repro`` package.
"""

import collections
import gc
import socket
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.netproto.client import Connection, ConnectionInfo
from repro.netproto.server import AsyncSocketServer, DatabaseServer
from repro.sqldb import Database

PACKAGE = str(Path(repro.__file__).parent)
#: ``durable_cycle``'s table and its read ``Q``
CREATE = "CREATE TABLE ev (id INTEGER, k INTEGER, v DOUBLE, name STRING)"
Q = "SELECT k, COUNT(*), SUM(v), MAX(name) FROM ev GROUP BY k"


def calls_by_function(function) -> collections.Counter:
    """Python-level calls into ``repro`` made while ``function()`` runs, by
    the called function's name."""
    calls: collections.Counter = collections.Counter()

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls[frame.f_code.co_name] += 1

    was_enabled = gc.isenabled()
    gc.disable()  # a collection would run finalisers' calls at random
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return calls


def calls_into_src(function) -> int:
    """Python-level calls into ``repro`` made while ``function()`` runs."""
    return sum(calls_by_function(function).values())


def peak_bytes(function) -> int:
    """The ``tracemalloc`` peak while ``function()`` runs (NumPy buffers
    included), over what was allocated before it started."""
    gc.collect()
    tracemalloc.start()
    try:
        function()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def insert_sql(rows: int, first_id: int) -> str:
    """The INSERT ``durable_cycle`` writes: (id, key, value, 'name') rows."""
    values = ", ".join(f"({first_id + row}, {row % 20}, {float(row % 997)!r}, "
                       f"'e{row % 97:02d}')" for row in range(rows))
    return f"INSERT INTO ev VALUES {values}"


# --------------------------------------------------------------------------- #
# INSERT ... VALUES: calls per row
# --------------------------------------------------------------------------- #
#: 46.0 when written down: a row is 10 tokens and 4 literals
CALLS_PER_ROW = 48


def test_an_insert_costs_the_same_few_calls_for_every_row(tmp_path):
    database = Database(path=tmp_path / "ev.db")
    database.execute(CREATE)
    database.execute(insert_sql(50, 0))  # the table's first WAL record
    calls = {rows: calls_into_src(
        lambda: database.execute(insert_sql(rows, 1_000 * rows)))
        for rows in (200, 800)}
    per_row = (calls[800] - calls[200]) / 600
    # one call per character scanned adds ~27 calls a row, one frame per
    # precedence level for each literal ~24, and a literal evaluated as an
    # expression instead of taken as it is ~12
    assert per_row <= CALLS_PER_ROW, calls
    assert calls[200] <= 200 * CALLS_PER_ROW, calls
    assert database.execute("SELECT COUNT(*) FROM ev").scalar() == 1_050
    database.close()


# --------------------------------------------------------------------------- #
# the first read after open and after a write
# --------------------------------------------------------------------------- #
#: Above the larger table, so either size is one morsel and a warm read
#: makes the same calls at both sizes.
MORSEL_ROWS = 1 << 18
#: Allocator noise between two runs of the same statement; a row-sized
#: array of the narrowest type differs by 180,000 bytes between the sizes.
PEAK_SLACK = 16 * 1024


def _durable_table(path: Path, rows: int) -> None:
    """``ev`` with ``rows`` rows, checkpointed into the image."""
    database = Database(path=path)
    database.execute(CREATE)
    rng = np.random.default_rng(rows)
    table = database.storage.table("ev")
    table.column("id").extend(range(rows))
    table.column("k").extend(rng.integers(0, 20, rows).tolist())
    table.column("v").extend(rng.integers(0, 1000, rows).astype(float).tolist())
    table.column("name").extend(
        f"e{code:02d}" for code in rng.integers(0, 97, rows).tolist())
    database.checkpoint()
    database.persistence.close(checkpoint=False)


def _first_reads(path: Path, measure) -> dict[str, int]:
    """``measure`` of ``Q`` cold after open, warm, first after an INSERT
    and warm again, on a fresh open of ``path`` (closed without a
    checkpoint, so the image is left as it was)."""
    database = Database(path=path, morsel_rows=MORSEL_ROWS)
    try:
        read = lambda: database.execute(Q).fetchall()  # noqa: E731
        reads = {"cold": measure(read), "warm": measure(read)}
        database.execute(insert_sql(200, 10_000_000))
        reads["after_write"] = measure(read)
        reads["warm_after_write"] = measure(read)
    finally:
        database.persistence.close(checkpoint=False)
    return reads


@pytest.fixture(scope="module")
def first_reads(tmp_path_factory):
    """Calls and peak bytes of the reads at 20,000 and 200,000 rows."""
    directory = tmp_path_factory.mktemp("first_reads")
    _durable_table(directory / "warm_up.db", 2_000)
    # once-per-process work (caches of type metadata) is done before counting
    _first_reads(directory / "warm_up.db", calls_into_src)
    found = {}
    for rows in (20_000, 200_000):
        path = directory / f"ev_{rows}.db"
        _durable_table(path, rows)
        found[rows] = (_first_reads(path, calls_into_src),
                       _first_reads(path, peak_bytes))
    return found


def test_a_first_read_makes_the_same_calls_at_every_size(first_reads):
    small, large = (calls for calls, _ in first_reads.values())
    assert small == large
    # after a write only the data changed: the plan is cached, nothing rebuilt
    assert small["after_write"] == small["warm"] == small["warm_after_write"]
    assert small["cold"] > small["warm"]  # the parse


@pytest.mark.parametrize("first, warm", [("cold", "warm"),
                                         ("after_write", "warm_after_write")])
def test_a_first_read_allocates_what_a_warm_one_does(first_reads, first, warm):
    (_, small), (_, large) = first_reads.values()
    extra_small = small[first] - small[warm]
    extra_large = large[first] - large[warm]
    assert abs(extra_large - extra_small) <= PEAK_SLACK, (small, large)


# --------------------------------------------------------------------------- #
# grouped results stay arrays from the morsel merge to the client's rows
# --------------------------------------------------------------------------- #
GROUP_MORSEL_ROWS = 8_192
GROUPED = ("SELECT k, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(k) FROM g "
           "GROUP BY k")


def _grouped_database(groups: int) -> Database:
    """Four morsels of ``g``, every morsel holding every one of ``groups``."""
    database = Database(morsel_rows=GROUP_MORSEL_ROWS)
    database.execute("CREATE TABLE g (k INTEGER, v DOUBLE)")
    rows = np.arange(4 * GROUP_MORSEL_ROWS)
    table = database.storage.table("g")
    table.column("k").extend((rows * 7_919 % groups).tolist())
    table.column("v").extend((rows * 0.25).tolist())
    return database


def test_a_typed_partial_merge_makes_no_call_per_group():
    calls = {}
    for groups in (500, 5_000):
        database = _grouped_database(groups)
        plan = database.execute(f"EXPLAIN ANALYZE {GROUPED}").fetchall()
        assert any("HashAggregate" in line and "batches=4" in line
                   for (line,) in plan)  # the premise: a four-morsel merge
        assert len(database.execute(GROUPED).fetchall()) == groups
        calls[groups] = calls_by_function(
            lambda: database.execute(GROUPED).fetchall())
        database.close()
    # a per-group merge loop or a per-cell value conversion would add calls
    # in proportion to the groups
    assert calls[500] == calls[5_000], calls[5_000] - calls[500]
    assert calls[5_000]["python_value"] == 0


AGGREGATE_ROWS = 200_000


@pytest.mark.parametrize("sql", ["SELECT COUNT(*) FROM ev",
                                 "SELECT MAX(k) FROM ev"])
def test_an_aggregate_without_group_by_builds_no_row_sized_array(sql):
    database = Database(morsel_rows=MORSEL_ROWS)
    database.execute(CREATE)
    table = database.storage.table("ev")
    table.column("id").extend(range(AGGREGATE_ROWS))
    table.column("k").extend(
        np.random.default_rng(3).integers(0, 20, AGGREGATE_ROWS).tolist())
    table.column("v").extend([0.5] * AGGREGATE_ROWS)
    table.column("name").extend(["e"] * AGGREGATE_ROWS)
    database.execute(sql)  # parse and plan once
    # one group id, sort order or search result per row is 8 bytes a row
    assert peak_bytes(lambda: database.execute(sql).fetchall()) \
        < AGGREGATE_ROWS
    database.close()


# --------------------------------------------------------------------------- #
# no Nagle stall between a reply's header and its first chunk
# --------------------------------------------------------------------------- #
def test_every_accepted_socket_has_nagle_off():
    database = Database()
    database.execute("CREATE TABLE t (a INTEGER)")
    server = AsyncSocketServer(DatabaseServer(database))
    host, port = server.start_background()
    clients = []
    try:
        for _ in range(3):
            client = Connection.connect_tcp(ConnectionInfo(host=host, port=port))
            assert client.execute("SELECT COUNT(*) FROM t").scalar() == 0
            clients.append(client)
        accepted = [conn.sock for conn in server._connections]
        assert len(accepted) == 3
        assert all(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                   for sock in accepted)
    finally:
        for client in clients:
            client.close()
        server.stop()
