"""The durable formats are pinned byte for byte, and every way of getting a
table back answers like the table that never left memory.

``run_script`` is a fixed history: CREATE, a bulk load with NULLs in every
column and 97 distinct names, INSERT (a name new to the dictionary, ``''``,
NULL), UPDATE, DELETE of the oldest rows (which unreferences a name),
CHECKPOINT, then INSERT / UPDATE / DELETE again as the WAL tail.  The two
digests below were recorded by running this file's ``_digests`` on the commit
*before* storage became typed buffers (e2d6694): what is stored in memory may
change, the bytes of the image and of the WAL for the same logical history
may not — this is what holds ``io_bytes_per_op`` still.

The WAL bytes changed three times, on purpose: when the log moved to version
2 (INSERT records carry their rows as one columnar chunk and DELETE records a
compressed keep-bitmap), when it moved to version 3 (those chunks' id and
DOUBLE sections may take the ``narrow`` codec's stride and decimal forms), and
when it moved to version 4 (their integer sections may be bit-packed).
``WAL_SHA256`` was re-recorded at each change; ``IMAGE_SHA256`` is still the
digest from e2d6694.
"""

import hashlib
from pathlib import Path

import pytest

from repro.errors import CorruptionError
from repro.sqldb.database import Database
from repro.sqldb.persist import format as persist_format
from repro.sqldb.persist import wal_path_for

IMAGE_SHA256 = "d5634fe87e2670fc5dd64550103011905eaceb283275332745ac08926cb7395d"
WAL_SHA256 = "4073f509df8569a4a0f5f90c41a55441f143e8bc06a4ee24065adf9090a9802d"

ROWS = 10_000
SEGMENT_ROWS = 4_096  # ev spans three segments

QUERIES = [
    "SELECT k, COUNT(*), COUNT(v), SUM(v), MIN(name), MAX(name) FROM ev GROUP BY k",
    "SELECT name, COUNT(*), SUM(id) FROM ev GROUP BY name",
    "SELECT COUNT(*), COUNT(ok), COUNT(raw), MIN(id), MAX(id) FROM ev",
    "SELECT id, k, v, name, ok, raw FROM ev WHERE id % 997 = 0 OR id >= 10390",
    "SELECT label, COUNT(*) FROM ev JOIN dim ON ev.k = dim.k GROUP BY label",
]


def _ev_rows(start: int, count: int) -> str:
    rows = []
    for i in range(start, start + count):
        name = {0: "NULL", 1: "''", 2: "'zz-new'"}.get(i % 50, f"'e{i % 97:02d}'")
        k = "NULL" if i % 9 == 0 else str(i % 20)
        rows.append(f"({i}, {k}, {i * 0.5!r}, {name}, "
                    f"{'TRUE' if i % 2 else 'FALSE'}, NULL)")
    return ", ".join(rows)


def run_script(database: Database, *, durable: bool) -> bytes:
    """Apply the fixed history; returns the WAL bytes a checkpoint discarded."""
    database.execute("CREATE TABLE ev (id INTEGER, k INTEGER, v DOUBLE, "
                     "name STRING, ok BOOLEAN, raw BLOB)")
    ev = database.storage.table("ev")
    ids = range(ROWS)
    ev.column("id").extend(ids)
    ev.column("k").extend(None if i % 11 == 0 else i % 20 for i in ids)
    ev.column("v").extend(None if i % 13 == 0 else i * 0.25 for i in ids)
    ev.column("name").extend(
        "only-old" if i < 50 else None if i % 17 == 0 else f"e{i * 7 % 97:02d}"
        for i in ids)
    ev.column("ok").extend(None if i % 19 == 0 else i % 3 == 0 for i in ids)
    ev.column("raw").extend(
        None if i % 23 == 0 else bytes([i % 256]) * (i % 5) for i in ids)
    database.execute("CREATE TABLE dim (k INTEGER, label STRING)")
    database.execute("INSERT INTO dim VALUES " + ", ".join(
        f"({k}, 'label-{k:02d}')" for k in range(20)))
    database.execute(f"INSERT INTO ev VALUES {_ev_rows(ROWS, 200)}")
    database.execute(f"UPDATE ev SET v = v + 1.0, name = 'upd' WHERE id >= {ROWS + 190}")
    database.execute("DELETE FROM ev WHERE id < 400")
    discarded = b""
    if durable:
        database.persistence.wal.flush()
        discarded = wal_path_for(database.persistence.path).read_bytes()
        database.execute("CHECKPOINT")
    database.execute(f"INSERT INTO ev VALUES {_ev_rows(ROWS + 200, 200)}")
    database.execute("UPDATE ev SET k = NULL, ok = NULL WHERE id % 1000 = 7")
    database.execute("DELETE FROM ev WHERE id < 600")
    return discarded


def _answers(database: Database, queries=QUERIES) -> list[list[tuple]]:
    return [sorted(database.execute(query).fetchall(), key=repr)
            for query in queries]


def _build(path: Path, *, clean_close: bool) -> bytes:
    database = Database(path=path, segment_rows=SEGMENT_ROWS)
    discarded = run_script(database, durable=True)
    if clean_close:
        database.close()  # checkpoints: the next open is a pure image load
    else:
        database.persistence.close(checkpoint=False)  # leaves the WAL tail
    return discarded


def _digests(path: Path) -> tuple[str, str]:
    discarded = _build(path, clean_close=False)
    wal = discarded + wal_path_for(path).read_bytes()
    return (hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(wal).hexdigest())


@pytest.fixture(scope="module")
def in_memory_answers() -> list[list[tuple]]:
    database = Database()
    run_script(database, durable=False)
    answers = _answers(database)
    # one figure checked by hand, so the reference is not only self-agreement
    assert answers[2] == [(ROWS + 400 - 600, *answers[2][0][1:3], 600, ROWS + 399)]
    return answers


def test_image_and_wal_bytes_are_those_of_the_parent_commit(tmp_path):
    image, wal = _digests(tmp_path / "pinned.db")
    assert image == IMAGE_SHA256
    assert wal == WAL_SHA256


def _assert_verifies_ok(database: Database) -> None:
    report = database.execute("VERIFY").to_dict()
    assert set(report["status"]) == {"ok"}, report


@pytest.mark.parametrize("clean_close", [True, False],
                         ids=["checkpoint+reopen", "wal-recovered"])
def test_reopened_table_answers_like_the_in_memory_one(
        tmp_path, in_memory_answers, clean_close):
    path = tmp_path / "cycle.db"
    _build(path, clean_close=clean_close)
    database = Database(path=path)
    try:
        recovery = database.persistence.last_recovery
        assert (recovery.wal_records_replayed > 0) is (not clean_close)
        _assert_verifies_ok(database)
        assert _answers(database) == in_memory_answers
        # ... and keeps doing so once it is written to again and checkpointed
        database.execute("INSERT INTO ev VALUES (-1, 1, 1.0, 'e00', TRUE, NULL)")
        database.execute("DELETE FROM ev WHERE id = -1")
        database.execute("CHECKPOINT")
        assert _answers(database) == in_memory_answers
    finally:
        database.persistence.close(checkpoint=False)


def test_salvage_serves_the_healthy_table_and_seals_the_damaged_one(
        tmp_path, in_memory_answers):
    path = tmp_path / "salvage.db"
    _build(path, clean_close=True)
    data = bytearray(path.read_bytes())
    footer = persist_format.read_footer(bytes(data), path)
    dim = next(t for t in footer["tables"] if t["schema"]["name"] == "dim")
    data[dim["segments"][0]["offset"] + 5] ^= 0xFF
    path.write_bytes(bytes(data))
    database = Database(path=path, salvage=True)
    try:
        assert database.persistence.last_recovery.quarantined_segments == 1
        report = database.execute("VERIFY").to_dict()
        assert dict(zip(report["object"], report["status"])) == {
            "dim": "corrupt", "ev": "ok", "(wal)": "ok"}
        assert _answers(database, QUERIES[:4]) == in_memory_answers[:4]
        with pytest.raises(CorruptionError):
            database.execute(QUERIES[4])
        assert database.storage.table("dim").row_count == 20  # NULL placeholders
    finally:
        database.persistence.close(checkpoint=False)
