"""WAL records carry row batches in the image's columnar form.

An INSERT record is one chunk blob of its rows (dictionary compacted to
those rows) replayed by the segment loader; a DELETE record is a compressed
keep-bitmap.  What must not change with the form:

* every reachable storage state answers alike and stores the same buffers —
  in memory, after WAL-only recovery, after CHECKPOINT + reopen and after
  BACKUP TO + restore — for a script covering every record the writer emits;
* a log of an older version is refused if it holds records (version 1's
  ``rows`` / raw ``keep`` shapes included) and re-created if it holds none;
* a record's size follows its own rows, never the table's.
"""

import shutil
import struct
import zlib

import numpy as np
import pytest

from repro.errors import PersistenceError
from repro.netproto.wire import encode_value
from repro.sqldb.database import Database
from repro.sqldb.executor import Executor
from repro.sqldb.persist import read_wal, wal_path_for
from repro.sqldb.persist.records import pack_mask, unpack_mask
from repro.sqldb.storage import compact_dictionary
from repro.sqldb.vector import Vector

BULK_ROWS = Executor._WAL_INSERT_CHUNK_ROWS + 808  # one ``more`` group


def _bulk_values(count: int) -> str:
    rows = []
    for i in range(count):
        k = "NULL" if i % 9 == 0 else str(i % 20)
        v = "NULL" if i % 13 == 0 else repr(i * 0.5)
        name = "NULL" if i % 17 == 0 else f"'e{i % 97:02d}'"
        ok = "NULL" if i % 19 == 0 else ("TRUE" if i % 2 else "FALSE")
        raw = "NULL" if i % 23 == 0 else f"'r{i % 5}'"
        rows.append(f"({i}, {k}, {v}, {name}, {ok}, {raw})")
    return ", ".join(rows)


def run_script(database: Database) -> None:
    """Every record shape the writer emits, over every column type."""
    database.execute("CREATE TABLE t (id BIGINT, k INTEGER, v DOUBLE, "
                     "name STRING, ok BOOLEAN, raw BLOB)")
    database.execute(f"INSERT INTO t VALUES {_bulk_values(BULK_ROWS)}")
    database.execute("INSERT INTO t VALUES (NULL, NULL, NULL, NULL, NULL, NULL)")
    database.execute(
        "INSERT INTO t VALUES (-9223372036854775808, -2147483648, -0.0, '', "
        "FALSE, ''), (9223372036854775807, 2147483647, CAST('nan' AS DOUBLE), "
        "'zz-new-name', TRUE, NULL)")
    database.execute("PREPARE ins AS INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)")
    database.execute_prepared("ins", [-1, 3, float("inf"), "e05", None,
                                      b"\x00\xff\x00"])
    database.execute("CREATE TABLE c AS SELECT id, name, v FROM t WHERE k = 3")
    database.execute("DELETE FROM t WHERE id BETWEEN 0 AND 499")    # front
    database.execute("DELETE FROM t WHERE id % 7 = 3")              # interior
    database.execute("DELETE FROM c WHERE id IS NULL OR id IS NOT NULL")  # all
    database.execute("INSERT INTO c VALUES (1, 'after-all', 1.5)")
    database.execute("CREATE TABLE d (i INTEGER, s STRING)")
    database.execute("INSERT INTO d VALUES (1, 'gone'), (2, NULL)")
    database.execute("DELETE FROM d")                               # TRUNCATE
    database.execute("INSERT INTO d VALUES (3, 'kept'), (NULL, '')")


def answers(database: Database) -> str:
    """``repr`` of every table and a grouped query: NaN and ``-0.0`` compare
    by their text, not by float equality."""
    results = [database.execute(f"SELECT * FROM {name}").fetchall()
               for name in ("t", "c", "d")]
    results.append(database.execute(
        "SELECT name, COUNT(*), COUNT(v), SUM(k) FROM t GROUP BY name "
        "ORDER BY name").fetchall())
    return repr(results)


def stored_buffers(database: Database) -> dict:
    """Each column's stored bytes: data and mask buffers, a string column's
    codes and strings after dropping entries no row references (memory
    keeps strings of deleted rows until it compacts), a BLOB's objects."""
    stored = {}
    for name in database.storage.table_names():
        columns = []
        for column in database.storage.table(name).columns:
            scan = column.scan_values()
            if not isinstance(scan, Vector):
                columns.append((column.name, scan.tolist()))
                continue
            data, dictionary = scan.data, None
            if scan.is_dict:
                data, dictionary = compact_dictionary(data, scan.dictionary)
                dictionary = dictionary.tolist()
            mask = None if scan.mask is None else scan.mask.tobytes()
            columns.append((column.name, data.dtype.str, data.tobytes(), mask,
                            dictionary))
        stored[name] = columns
    return stored


@pytest.fixture(scope="module")
def in_memory():
    database = Database()
    run_script(database)
    return answers(database), stored_buffers(database)


@pytest.fixture(scope="module")
def durable_states(tmp_path_factory):
    """The script run once on a durable database, then caught in three
    states: its WAL alone, a backup image, and a checkpointed image."""
    root = tmp_path_factory.mktemp("states")
    path = root / "live.db"
    database = Database(path=path)
    run_script(database)
    database.persistence.wal.flush()
    wal_only = root / "wal-only.db"
    shutil.copy(wal_path_for(path), wal_path_for(wal_only))
    backup = root / "backup.db"
    database.execute(f"BACKUP TO '{backup}'")
    database.execute("CHECKPOINT")
    database.persistence.close(checkpoint=False)
    return {"wal-recovered": wal_only, "checkpoint+reopen": path,
            "backup+restore": backup}


def test_script_logs_every_record_shape(durable_states):
    records = read_wal(wal_path_for(durable_states["wal-recovered"])).records
    ops = [record["op"] for record in records]
    assert {"create_table", "insert", "delete", "truncate"} <= set(ops)
    assert any(record.get("more") for record in records if record["op"] == "insert")
    assert all("chunk" in record and "rows" not in record
               for record in records if record["op"] == "insert")
    assert all("keep_compressed" in record and "keep" not in record
               for record in records if record["op"] == "delete")


@pytest.mark.parametrize("state", ["wal-recovered", "checkpoint+reopen",
                                   "backup+restore"])
def test_every_storage_state_answers_and_stores_alike(durable_states,
                                                      in_memory, state):
    database = Database(path=durable_states[state])
    try:
        recovery = database.persistence.last_recovery
        assert (recovery.wal_records_replayed > 0) is (state == "wal-recovered")
        assert (recovery.image_rows > 0) is (state != "wal-recovered")
        assert answers(database) == in_memory[0]
        assert stored_buffers(database) == in_memory[1]
    finally:
        database.persistence.close(checkpoint=False)


def test_in_memory_reference_holds_the_edge_values(in_memory):
    text = in_memory[0]
    for value in ("-9223372036854775808", "9223372036854775807", "-0.0",
                  "nan", "inf", "'zz-new-name'", "b'\\x00\\xff\\x00'",
                  "'after-all'", "'kept'"):
        assert value in text
    assert "'gone'" not in text


# --------------------------------------------------------------------------- #
# versions: only a version-4 log replays
# --------------------------------------------------------------------------- #
def _v1_wal(records: list[dict]) -> bytes:
    """A log as the version-1 writer laid it out, byte for byte."""
    data = struct.pack("<8sHHQ", b"REPROWAL", 1, 0, 0)
    for record in records:
        payload = encode_value(record)
        data += struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
    return data


#: CREATE TABLE, INSERT, DELETE and INSERT as the version-1 writer logged
#: them: ``rows`` value lists and a raw ``keep`` bitmap.
V1_RECORDS = [
    {"op": "create_table",
     "schema": {"name": "u", "columns": [["i", "INTEGER", True],
                                         ["s", "STRING", True],
                                         ["b", "BOOLEAN", True]]}},
    {"op": "insert", "table": "u",
     "rows": [[1, "a", True], [2, None, None], [3, "", False], [4, "b", True]]},
    {"op": "delete", "table": "u", "count": 4,
     "keep": np.packbits([True, False, True, True]).tobytes()},
    {"op": "insert", "table": "u", "rows": [[5, "new", None]]},
]


def _stamped(data: bytes, version: int) -> bytes:
    return data[:8] + struct.pack("<H", version) + data[10:]


def _log_with_records(tmp_path) -> bytes:
    """A log holding CREATE TABLE, INSERT and DELETE records of the shapes
    versions 2 and 3 wrote too (a columnar chunk, a compressed bitmap)."""
    path = tmp_path / "writer.db"
    database = Database(path=path)
    database.execute("CREATE TABLE w (i INTEGER, v DOUBLE, s STRING)")
    database.execute("INSERT INTO w VALUES " + ", ".join(
        f"({i}, {i * 0.25}, 'n{i % 3}')" for i in range(40)))
    database.execute("DELETE FROM w WHERE i < 5")
    database.persistence.close(checkpoint=False)
    return wal_path_for(path).read_bytes()


def _assert_refused(path, data: bytes, version: int) -> None:
    """The open fails naming ``version`` and leaves the log as it was, for
    the build that wrote it to replay and checkpoint."""
    wal_path_for(path).write_bytes(data)
    with pytest.raises(PersistenceError,
                       match=f"unsupported version {version} "):
        Database(path=path)
    assert wal_path_for(path).read_bytes() == data


def test_version_1_log_with_records_is_refused(tmp_path):
    _assert_refused(tmp_path / "v1.db", _v1_wal(V1_RECORDS), 1)


def test_torn_version_1_log_is_refused(tmp_path):
    _assert_refused(tmp_path / "torn.db", _v1_wal(V1_RECORDS)[:-3], 1)


def test_version_2_log_with_records_is_refused(tmp_path):
    _assert_refused(tmp_path / "v2.db",
                    _stamped(_log_with_records(tmp_path), 2), 2)


def test_version_3_log_with_records_is_refused(tmp_path):
    _assert_refused(tmp_path / "v3.db",
                    _stamped(_log_with_records(tmp_path), 3), 3)


@pytest.mark.parametrize("version", [1, 2, 3])
def test_header_only_older_log_is_recreated_at_the_image_generation(
        tmp_path, version):
    """A clean close leaves the image and a header-only log: nothing to
    replay, so the log is re-created, and appends behind it replay."""
    path = tmp_path / "clean.db"
    database = Database(path=path)
    database.execute("CREATE TABLE u (i INTEGER)")
    database.execute("INSERT INTO u VALUES (1), (2)")
    database.close()
    wal = wal_path_for(path)
    generation = read_wal(wal).generation
    wal.write_bytes(_stamped(wal.read_bytes(), version))
    reopened = Database(path=path)
    contents = read_wal(wal)
    assert (contents.version, contents.generation, contents.records) == \
        (4, generation, [])
    assert not reopened.persistence.last_recovery.wal_was_stale
    reopened.execute("INSERT INTO u VALUES (3)")
    reopened.persistence.close(checkpoint=False)
    again = Database(path=path)
    try:
        assert again.execute("SELECT i FROM u").fetchall() == [(1,), (2,), (3,)]
    finally:
        again.persistence.close(checkpoint=False)


# --------------------------------------------------------------------------- #
# sizes: a record follows its own rows
# --------------------------------------------------------------------------- #
def _wal_growth(database: Database, statement: str) -> int:
    wal = wal_path_for(database.persistence.path)
    before = wal.stat().st_size
    database.execute(statement)
    return wal.stat().st_size - before


def test_one_row_insert_logs_its_row_not_the_table_dictionary(tmp_path):
    database = Database(path=tmp_path / "wide.db")
    try:
        database.execute("CREATE TABLE t (id INTEGER, name STRING)")
        table = database.storage.table("t")
        table.column("id").extend(range(100_000))
        table.column("name").extend(f"name-{i % 5_000:04d}" for i in range(100_000))
        logged = _wal_growth(database, "INSERT INTO t VALUES (7, 'name-0042')")
        assert logged <= 256
    finally:
        database.persistence.close(checkpoint=False)


def test_contiguous_front_delete_logs_tens_of_bytes(tmp_path):
    database = Database(path=tmp_path / "front.db")
    try:
        database.execute("CREATE TABLE t (id INTEGER)")
        database.storage.table("t").column("id").extend(range(24_400))
        logged = _wal_growth(database, "DELETE FROM t WHERE id < 400")
        record = read_wal(wal_path_for(database.persistence.path)).records[-1]
        # one bit per row would be a 3,050-byte mask
        assert len(record["keep_compressed"]) < 64
        assert logged < 160
    finally:
        database.persistence.close(checkpoint=False)


def test_unpack_mask_returns_the_bool_array():
    mask = np.arange(1_000) % 3 == 0
    unpacked = unpack_mask(pack_mask(mask), len(mask))
    assert isinstance(unpacked, np.ndarray) and unpacked.dtype == bool
    assert np.array_equal(unpacked, mask)
