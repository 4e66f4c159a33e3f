"""Metric updates per statement are an exact count, independent of host speed.

A statement makes a fixed number of ``Counter.inc`` / ``Histogram.observe``
calls, plus one per morsel and, over the wire, one per response frame.  A
metric update that slips into a per-row or per-batch loop changes the count
at once; a wall-clock ratio of an instrumented engine to a bare one would
need a quiet host to see it.
"""

import numpy as np
import pytest

from repro.netproto.client import Connection
from repro.netproto.server import DatabaseServer
from repro.obs import Counter, Histogram
from repro.sqldb import Database

GROUPED = "SELECT k, COUNT(*), SUM(v) FROM big WHERE v > 0.5 GROUP BY k"
STREAMED = "SELECT k, v FROM big WHERE v > 0.5"

#: Every statement ``Database.execute`` runs: ``db.parse_us``,
#: ``db.execute_us`` and ``db.query_us``.
ENGINE_UPDATES = 3
#: Every query request the server answers: ``bytes_received``,
#: ``queries_executed`` and ``query_us`` (``bytes_sent`` is per frame).
REQUEST_UPDATES = 3


@pytest.fixture
def updates(monkeypatch):
    """The names of the metrics updated, one entry per call."""
    names: list[str] = []
    inc, observe = Counter.inc, Histogram.observe

    def counted_inc(self, amount=1):
        names.append(self.name)
        inc(self, amount)

    def counted_observe(self, seconds):
        names.append(self.name)
        observe(self, seconds)

    monkeypatch.setattr(Counter, "inc", counted_inc)
    monkeypatch.setattr(Histogram, "observe", counted_observe)
    return names


@pytest.fixture(scope="module", params=[20_000, 100_000])
def rows(request):
    return request.param


@pytest.fixture(params=[1, 4, 100])
def morsels(request):
    return request.param


@pytest.fixture
def database(rows, morsels):
    db = Database(morsel_rows=rows // morsels)
    db.execute("CREATE TABLE big (k INTEGER, v DOUBLE)")
    rng = np.random.default_rng(rows)
    db.storage.table("big").insert_rows(zip(
        rng.integers(0, 500, rows).tolist(), rng.random(rows).tolist()))
    yield db
    db.close()


def _count_frames(server):
    """Wrap ``server``'s framed entry point; returns the frames it yields."""
    frames: list[bytes] = []
    handle = server.handle_frame_stream

    def counted(*args, **kwargs):
        for frame in handle(*args, **kwargs):
            frames.append(frame)
            yield frame

    server.handle_frame_stream = counted
    return frames


def test_in_process_statement(database, morsels, updates):
    for _ in range(2):  # a plan-cache miss, then a hit
        updates.clear()
        database.execute(GROUPED)
        assert len(updates) == ENGINE_UPDATES + morsels, updates


@pytest.mark.parametrize("sql", [GROUPED, STREAMED])
def test_wire_statement(database, rows, morsels, updates, sql):
    # a streamed SELECT is also split at the chunk size: with one chunk the
    # size of the table, ``morsel_rows`` alone decides the morsels
    server = DatabaseServer(database, result_chunk_rows=rows)
    connection = Connection.connect_in_process(server)
    frames = _count_frames(server)
    for _ in range(2):
        updates.clear()
        frames.clear()
        connection.execute_stream(sql).result()
        assert len(frames) >= 2  # a header, then at least one chunk
        assert len(updates) == (ENGINE_UPDATES + REQUEST_UPDATES + morsels
                                + len(frames)), updates
    connection.close()
