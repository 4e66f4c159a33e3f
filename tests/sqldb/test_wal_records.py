"""WAL records carry row batches in the image's columnar form.

An INSERT record is one chunk blob of its rows (dictionary compacted to
those rows) replayed by the segment loader; a DELETE record is a compressed
keep-bitmap.  What must not change with the form:

* every reachable storage state answers alike and stores the same buffers —
  in memory, after WAL-only recovery, after CHECKPOINT + reopen and after
  BACKUP TO + restore — for a script covering every record the writer emits;
* a log written before the upgrade (version-1 header, ``rows`` / raw
  ``keep`` records) still recovers to the same table;
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
# upgrade: a version-1 log still replays
# --------------------------------------------------------------------------- #
def _v1_wal(records: list[dict]) -> bytes:
    """A log as the version-1 writer laid it out, byte for byte."""
    data = struct.pack("<8sHHQ", b"REPROWAL", 1, 0, 0)
    for record in records:
        payload = encode_value(record)
        data += struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
    return data


V1_STATEMENTS = [
    "CREATE TABLE u (i INTEGER, s STRING, b BOOLEAN)",
    "INSERT INTO u VALUES (1, 'a', TRUE), (2, NULL, NULL), (3, '', FALSE), "
    "(4, 'b', TRUE)",
    "DELETE FROM u WHERE i = 2",
    "INSERT INTO u VALUES (5, 'new', NULL)",
]
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


def answers_of(database: Database) -> list[tuple]:
    return database.execute("SELECT * FROM u").fetchall()


def test_version_1_log_recovers_to_the_same_table(tmp_path):
    reference = Database()
    for statement in V1_STATEMENTS:
        reference.execute(statement)
    path = tmp_path / "old.db"
    wal_path_for(path).write_bytes(_v1_wal(V1_RECORDS))
    database = Database(path=path)
    assert database.persistence.last_recovery.wal_records_replayed == 4
    assert answers_of(database) == answers_of(reference)
    assert stored_buffers(database) == stored_buffers(reference)
    # new-shape records append behind the old ones and replay with them
    database.execute("INSERT INTO u VALUES (6, 'after', TRUE)")
    database.execute("DELETE FROM u WHERE i = 1")
    reference.execute("INSERT INTO u VALUES (6, 'after', TRUE)")
    reference.execute("DELETE FROM u WHERE i = 1")
    database.persistence.close(checkpoint=False)
    reopened = Database(path=path)
    try:
        assert answers_of(reopened) == answers_of(reference)
        assert stored_buffers(reopened) == stored_buffers(reference)
    finally:
        reopened.persistence.close(checkpoint=False)


def test_torn_version_1_tail_drops_only_its_last_record(tmp_path):
    reference = Database()
    for statement in V1_STATEMENTS[:-1]:
        reference.execute(statement)
    path = tmp_path / "torn.db"
    wal_path_for(path).write_bytes(_v1_wal(V1_RECORDS)[:-3])
    database = Database(path=path)
    try:
        assert database.persistence.last_recovery.wal_torn_tail
        assert answers_of(database) == answers_of(reference)
    finally:
        database.persistence.close(checkpoint=False)


#: A log as the version-2 writer laid it out, byte for byte: CREATE TABLE w
#: (i INTEGER, v DOUBLE, s STRING), 40 rows, DELETE of five, one more row.
#: Its chunks hold ``narrow`` sections in the frame-of-reference form only.
V2_WAL = bytes.fromhex(
    "524550524f57414c02000000000000000000000093000000f5861acf4d0000000253"
    "000000026f70530000000c6372656174655f7461626c655300000006736368656d61"
    "4d0000000253000000046e616d655300000001775300000007636f6c756d6e734c00"
    "0000034c000000035300000001695300000007494e5445474552544c000000035300"
    "000001765300000006444f55424c45544c0000000353000000017353000000065354"
    "52494e475422020000072b6e7a4d0000000353000000026f705300000006696e7365"
    "727453000000057461626c6553000000017753000000056368756e6b42000001ec43"
    "42012800000003000100690001003300000004080100000000000000000001020304"
    "05060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20212223242526"
    "2701007602020041010000000000000000000000000000000000d03f000000000000"
    "e03f000000000000e83f000000000000f03f000000000000f43f000000000000f83f"
    "000000000000fc3f0000000000000040000000000000024000000000000004400000"
    "00000000064000000000000008400000000000000a400000000000000c4000000000"
    "00000e40000000000000104000000000000011400000000000001240000000000000"
    "13400000000000001440000000000000154000000000000016400000000000001740"
    "000000000000184000000000000019400000000000001a400000000000001b400000"
    "000000001c400000000000001d400000000000001e400000000000001f4000000000"
    "00002040000000000080204000000000000021400000000000802140000000000000"
    "22400000000000802240000000000000234000000000008023400100730412023300"
    "00000404010000000000000000000102000102000102000102000102000102000102"
    "000102000102000102000102000102000102000f0000000404010000000000000000"
    "0002040607000000006e306e316e32600000009cbf042f4d0000000453000000026f"
    "70530000000664656c65746553000000057461626c65530000000177530000000f6b"
    "6565705f636f6d70726573736564420000000d0301789c63ff0f04000a1e04045300"
    "000005636f756e7449000000000000002882000000faaacabd4d0000000353000000"
    "026f705300000006696e7365727453000000057461626c6553000000017753000000"
    "056368756e6b420000004c4342010100000003000100690001000900000000640000"
    "00000000000100760202000900000000000000000000f8bf01007304100101000000"
    "80090000000000000000000000000100000000")
V2_STATEMENTS = [
    "CREATE TABLE w (i INTEGER, v DOUBLE, s STRING)",
    "INSERT INTO w VALUES " + ", ".join(f"({i}, {i * 0.25}, 'n{i % 3}')"
                                        for i in range(40)),
    "DELETE FROM w WHERE i < 5",
    "INSERT INTO w VALUES (100, -1.5, NULL)",
]


def test_version_2_log_replays_and_is_restamped_before_an_append(tmp_path):
    """The version-2 sections decode as they always did; what is appended
    behind them may not, so the header says version 4 before it is."""
    reference = Database()
    for statement in V2_STATEMENTS:
        reference.execute(statement)
    path = tmp_path / "v2.db"
    wal_path_for(path).write_bytes(V2_WAL)
    database = Database(path=path)
    assert database.persistence.last_recovery.wal_records_replayed == 4
    rows = database.execute("SELECT * FROM w").fetchall()
    assert rows == reference.execute("SELECT * FROM w").fetchall()
    assert stored_buffers(database) == stored_buffers(reference)
    assert wal_path_for(path).read_bytes()[8:10] == struct.pack("<H", 4)
    database.execute("INSERT INTO w VALUES (101, 0.75, 'n1')")
    reference.execute("INSERT INTO w VALUES (101, 0.75, 'n1')")
    database.persistence.close(checkpoint=False)
    reopened = Database(path=path)
    try:
        assert reopened.execute("SELECT * FROM w").fetchall() == \
            reference.execute("SELECT * FROM w").fetchall()
    finally:
        reopened.persistence.close(checkpoint=False)


#: A log as the version-3 writer laid it out, byte for byte: CREATE TABLE w,
#: 40 rows, DELETE of five, one more row.  Its chunks hold ``narrow``
#: sections in the byte-wide frame of reference (``i``), stride (``v``'s
#: digits, the offsets) and decimal forms, none bit-packed.
V3_WAL = bytes.fromhex(
    "524550524f57414c03000000000000000000000093000000f5861acf4d0000000253"
    "000000026f70530000000c6372656174655f7461626c655300000006736368656d61"
    "4d0000000253000000046e616d655300000001775300000007636f6c756d6e734c00"
    "0000034c000000035300000001695300000007494e5445474552544c000000035300"
    "000001765300000006444f55424c45544c0000000353000000017353000000065354"
    "52494e4754fa000000bdac3b1c4d0000000353000000026f705300000006696e7365"
    "727453000000057461626c6553000000017753000000056368756e6b42000000c443"
    "420128000000030001006900010033000000040801e80300000000000000070e151c"
    "23020910171e25040b12192027060d141b2201080f161d24030a11181f26050c131a"
    "21010076020200190000000400020800000000000000000019000000000000002800"
    "00000100730412023300000004040100000000000000000001020001020001020001"
    "02000102000102000102000102000102000102000102000102000102000f00000004"
    "040100000000000000000002040607000000006e306e316e32620000000e8c464e4d"
    "0000000453000000026f70530000000664656c65746553000000057461626c655300"
    "00000177530000000f6b6565705f636f6d70726573736564420000000f0301789cab"
    "fdfeeff77f000c41046d5300000005636f756e7449000000000000002882000000fa"
    "aacabd4d0000000353000000026f705300000006696e736572745300000005746162"
    "6c6553000000017753000000056368756e6b420000004c4342010100000003000100"
    "69000100090000000064000000000000000100760202000900000000000000000000"
    "f8bf0100730410010100000080090000000000000000000000000100000000")
V3_STATEMENTS = [
    "CREATE TABLE w (i INTEGER, v DOUBLE, s STRING)",
    "INSERT INTO w VALUES " + ", ".join(f"({i * 7 % 40 + 1000}, {i * 0.25}, 'n{i % 3}')"
                                        for i in range(40)),
    "DELETE FROM w WHERE i < 1005",
    "INSERT INTO w VALUES (100, -1.5, NULL)",
]


def test_version_3_log_replays_and_is_restamped_before_an_append(tmp_path):
    """A version-3 log's stride, decimal and byte-wide sections decode as
    they always did; the header says version 4 before bit-packed chunks are
    appended behind them, and the whole log replays after a reopen."""
    append = "INSERT INTO w VALUES " + ", ".join(
        f"({2000 + i * 37 % 300}, {i * 0.5}, 'n1')" for i in range(30))
    reference = Database()
    for statement in V3_STATEMENTS + [append]:
        reference.execute(statement)
    path = tmp_path / "v3.db"
    wal_path_for(path).write_bytes(V3_WAL)
    database = Database(path=path)
    assert database.persistence.last_recovery.wal_records_replayed == 4
    assert wal_path_for(path).read_bytes()[8:10] == struct.pack("<H", 4)
    database.execute(append)
    database.persistence.close(checkpoint=False)
    assert b"\x04\x88\x09" in read_wal(wal_path_for(path)).records[-1]["chunk"]
    reopened = Database(path=path)
    try:
        assert reopened.execute("SELECT * FROM w").fetchall() == \
            reference.execute("SELECT * FROM w").fetchall()
        assert stored_buffers(reopened) == stored_buffers(reference)
    finally:
        reopened.persistence.close(checkpoint=False)


def test_unknown_wal_version_is_refused_at_the_header(tmp_path):
    path = tmp_path / "future.db"
    data = bytearray(_v1_wal(V1_RECORDS))
    data[8:10] = struct.pack("<H", 5)
    wal_path_for(path).write_bytes(bytes(data))
    with pytest.raises(PersistenceError, match="unsupported version 5"):
        Database(path=path)


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
    raw = np.packbits(mask).tobytes()
    assert np.array_equal(unpack_mask(raw, len(mask), compressed=False), mask)
