"""The ``narrow`` codec (id 4) as the result wire's default.

* a client that names no codec gets ``narrow``; one that names ``none`` gets
  the raw bytes, and both read the same rows and the same ``to_numpy_dict()``
  dtypes;
* INTEGER values, dictionary codes and var-width / dictionary offsets ship at
  the width their span needs — in bits, or in whole bytes where that is no
  larger — or as a stride when they are an arithmetic sequence; DOUBLE values
  that are short decimals ship as those integers; and every other section is
  codec ``none``'s, byte for byte;
* a stride's count is checked against the chunk's row count before anything
  is allocated.
"""

import struct
import tracemalloc

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.netproto.client import Connection, TransferOptions
from repro.netproto.columnar import decode_chunk, encode_result_chunk
from repro.netproto.compression import CODEC_NARROW, CODEC_NONE
from repro.netproto.server import DatabaseServer
from repro.sqldb.result import QueryResult, ResultColumn
from repro.sqldb.types import SQLType

ROWS = 300
TABLE = {
    "id": list(range(ROWS)),
    "n": [None if i % 5 == 0 else -2**62 + i * 1_000_003 for i in range(ROWS)],
    "v": [None if i % 7 == 0 else i * 0.125 for i in range(ROWS)],
    "flag": [None if i % 11 == 0 else i % 2 == 0 for i in range(ROWS)],
    "low": [None if i % 13 == 0 else f"grp_{i % 4}" for i in range(ROWS)],
    "high": [f"unique-{i:04d}-ü" for i in range(ROWS)],
    "raw": [bytes([i % 256]) * (i % 5) for i in range(ROWS)],
}


@pytest.fixture(scope="module")
def connection():
    server = DatabaseServer()
    server.database.execute(
        "CREATE TABLE t (id INTEGER, n BIGINT, v DOUBLE, flag BOOLEAN, "
        "low STRING, high STRING, raw BLOB)")
    table = server.database.storage.table("t")
    for name, values in TABLE.items():
        table.column(name).extend(values)
    connection = Connection.connect_in_process(server)
    yield connection
    connection.close()


@pytest.mark.parametrize("sql", ["SELECT * FROM t",
                                 "SELECT low, COUNT(*), SUM(id) FROM t GROUP BY low",
                                 "SELECT id, high FROM t WHERE id >= 250 ORDER BY id DESC"])
def test_the_default_narrows_and_a_named_none_stays_raw(connection, sql):
    narrowed = connection.execute(sql)
    default = connection.stats.last_transfer
    raw = connection.execute(sql, options=TransferOptions(compression=CODEC_NONE))
    named = connection.stats.last_transfer
    assert (default.compression_codec, named.compression_codec) == \
        (CODEC_NARROW, CODEC_NONE)
    assert default.raw_bytes == named.raw_bytes
    assert default.wire_bytes < named.wire_bytes
    assert narrowed.fetchall() == raw.fetchall()
    arrays, raw_arrays = narrowed.to_numpy_dict(), raw.to_numpy_dict()
    assert {name: array.dtype for name, array in arrays.items()} == \
        {name: array.dtype for name, array in raw_arrays.items()}
    for name, array in arrays.items():
        np.testing.assert_array_equal(array, raw_arrays[name])


def test_an_integer_column_still_arrives_as_int64(connection):
    arrays = connection.execute("SELECT id, n FROM t").to_numpy_dict()
    assert arrays["id"].dtype == np.int64
    assert arrays["id"].tolist() == TABLE["id"]


def _sections(blob: bytes) -> list[tuple[int, ...]]:
    """``(codec id,)`` — ``(4, item width, stored width)`` for ``narrow``,
    stored width 0 for a stride, ``(4, 0x80 | item width, bits)`` bit-packed
    and ``(4, 0, exponent)`` for a decimal — of every section of a one-column,
    NULL-free chunk blob."""
    (name_len,) = struct.unpack_from("<H", blob, 9)
    offset, found = 9 + 2 + name_len + 3, []
    while offset < len(blob):
        (length,) = struct.unpack_from("<I", blob, offset)
        section = blob[offset + 4:offset + 4 + length]
        found.append(tuple(section[:3]) if section[0] == 4 else (section[0],))
        offset += 4 + length
    return found


#: 0..39 in an order that is no arithmetic sequence
SHUFFLED = [i * 7 % 40 for i in range(40)]


@pytest.mark.parametrize("sql_type,values,sections", [
    (SQLType.INTEGER, [1_000 + i for i in SHUFFLED], [(4, 0x88, 6)]),
    (SQLType.BIGINT, [-2**63 + i * 977 for i in SHUFFLED], [(4, 8, 2)]),
    (SQLType.INTEGER, [i * 100_003 for i in SHUFFLED], [(4, 0x88, 22)]),
    (SQLType.BIGINT, [(-1) ** i * 2**62 for i in range(40)], [(0,)]),
    (SQLType.BIGINT, [-2**63 + i * 977 for i in range(40)], [(4, 8, 0)]),
    (SQLType.DOUBLE, [i / 3 for i in range(40)], [(0,)]),
    (SQLType.DOUBLE, [i * 0.5 for i in SHUFFLED], [(4, 0, 1)]),
    (SQLType.BOOLEAN, [i % 3 == 0 for i in range(40)], [(0,)]),
    (SQLType.STRING, [f"unique-{i}" for i in range(40)], [(4, 0x84, 9), (0,)]),
    (SQLType.STRING, [f"g{i % 3}" for i in range(40)], [(4, 0x84, 2), (4, 4, 1), (0,)]),
    (SQLType.BLOB, [bytes([i]) * (i % 3 + 1) for i in range(40)], [(4, 4, 1), (0,)]),
    (SQLType.BLOB, [bytes([i]) * 3 for i in range(40)], [(4, 4, 0), (0,)]),
    (SQLType.BIGINT, [2**65 + i for i in range(40)], [(0,)]),
], ids=["int64_in_1", "int64_min_in_2", "int64_in_4", "int64_full_span",
        "int64_stride", "float64", "float64_decimal", "bool", "utf8",
        "dictionary", "binary", "binary_equal_width", "object"])
def test_each_section_ships_at_the_width_its_values_span(sql_type, values,
                                                          sections):
    result = QueryResult([ResultColumn("c", sql_type, values)])
    blob, _ = encode_result_chunk(result, allow_dict=True)
    assert _sections(blob) == sections


@pytest.mark.parametrize("columns", [
    [ResultColumn("v", SQLType.DOUBLE, [i / 3 for i in range(40)]),
     ResultColumn("flag", SQLType.BOOLEAN,
                  [None if i % 4 == 0 else i % 3 == 0 for i in range(40)]),
     ResultColumn("wide", SQLType.BIGINT, [(-1) ** i * 2**62 for i in range(40)]),
     ResultColumn("huge", SQLType.BIGINT, [2**70 + i for i in range(40)])],
    [ResultColumn("i", SQLType.INTEGER, [5]),
     ResultColumn("s", SQLType.STRING, ["a"])],
], ids=["nothing_to_narrow", "one_row"])
def test_a_chunk_that_cannot_narrow_is_codec_none_byte_for_byte(columns):
    result = QueryResult(columns)
    assert encode_result_chunk(result, codec=CODEC_NARROW, allow_dict=True) == \
        encode_result_chunk(result, codec=CODEC_NONE, allow_dict=True)


@pytest.mark.parametrize("count", [39, 41, 1_000_000, 2**31, 2**32 - 1])
def test_a_stride_count_is_checked_against_the_row_count(count):
    """A flipped count byte must not ask NumPy for gigabytes: the count is
    compared with the chunk's rows before the values are expanded (the
    1.2 MB ``pad`` column makes a count below the blob's length possible)."""
    result = QueryResult([
        ResultColumn("id", SQLType.INTEGER, list(range(40))),
        ResultColumn("pad", SQLType.STRING, ["x" * 30_000] * 40)])
    blob, _ = encode_result_chunk(result)
    stride = struct.pack("<BBBqqI", 4, 8, 0, 0, 1, 40)
    assert blob.count(stride) == 1 and 1_000_000 < len(blob)
    damaged = blob.replace(stride, stride[:-4] + struct.pack("<I", count))
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError):
            decode_chunk(damaged)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
