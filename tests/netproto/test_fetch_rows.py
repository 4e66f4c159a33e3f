"""Rows read back exactly as a per-cell builder would assemble them.

``QueryResult.fetchall`` builds its rows cell by cell, as before; what
changed is that ``QueryResult.fetchone`` reads one row from each column's
backing, and that over the wire ``ResultStream.fetchmany`` decodes whole
chunks and slices its decoded rows.  Every fetch is checked
against the reference the per-cell loop gave — row ``i`` is
``tuple(column.values[i] for column in columns)`` — and against the rows the
table was loaded with, value and Python type alike, embedded and over the
wire, for NULL-bearing INTEGER / BIGINT / DOUBLE / BOOLEAN columns,
dictionary strings, BLOBs, a column mixing strings and integers, no rows and
no columns.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netproto.client import Connection
from repro.netproto.server import DatabaseServer
from repro.sqldb.result import QueryResult, ResultColumn
from repro.sqldb.types import SQLType
from repro.sqldb.vector import Vector

COLUMNS = ("i INTEGER", "n BIGINT", "d DOUBLE", "b BOOLEAN", "s STRING",
           "r BLOB")
#: the mixed column: a string where ``b`` is true, else the integer ``i``
MIXED = "CASE WHEN b THEN s ELSE i END"

ROW = st.tuples(
    st.none() | st.integers(-2 ** 31, 2 ** 31 - 1),
    st.none() | st.integers(-2 ** 63, 2 ** 63 - 1),
    st.none() | st.floats(allow_nan=False, width=64),
    st.none() | st.booleans(),
    st.none() | st.sampled_from(["s0", "s1", "s2", "ü3"]),
    st.none() | st.binary(max_size=6),
)
SELECTS = st.lists(st.sampled_from(["i", "n", "d", "b", "s", "r", MIXED]),
                   min_size=1, max_size=7)
#: a chunk of 3 rows: most results arrive in several frames
CHUNK_ROWS = 3
_tables = itertools.count()


def _tagged(rows):
    return [tuple((type(value).__name__, value) for value in row)
            for row in rows]


def _per_cell(result: QueryResult):
    columns = [column.values for column in result.columns]
    return [tuple(values[index] for values in columns)
            for index in range(result.row_count)]


def _expected(rows, selected):
    index = {name: position for position, name in enumerate("indbsr")}
    out = []
    for row in rows:
        values = []
        for name in selected:
            if name == MIXED:
                values.append(row[4] if row[3] is True else row[0])
            else:
                values.append(row[index[name]])
        out.append(tuple(values))
    return out


@pytest.fixture(scope="module")
def served():
    server = DatabaseServer(result_chunk_rows=CHUNK_ROWS)
    connection = Connection.connect_in_process(server)
    yield server.database, connection
    connection.close()


def _check_fetches(result, expected):
    assert _tagged(result.fetchall()) == _tagged(expected)
    assert _tagged(_per_cell(result)) == _tagged(expected)
    first = result.fetchone()
    assert first == (expected[0] if expected else None)
    if expected:
        assert _tagged([first]) == _tagged(expected[:1])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(rows=st.lists(ROW, max_size=14), selected=SELECTS,
       sizes=st.lists(st.integers(0, 5), min_size=1, max_size=12))
def test_fetches_equal_the_per_cell_rows(served, rows, selected, sizes):
    database, connection = served
    table = f"f{next(_tables)}"
    database.execute(f"CREATE TABLE {table} ({', '.join(COLUMNS)})")
    database.storage.table(table).insert_rows(rows)
    sql = f"SELECT {', '.join(selected)} FROM {table}"
    expected = _expected(rows, selected)
    try:
        _check_fetches(database.execute(sql), expected)
        _check_fetches(connection.execute(sql), expected)

        cursor = connection.cursor().execute(sql)
        fetched = []
        for size in sizes:
            fetched.extend(cursor.fetchmany(size))
        one = cursor.fetchone()
        fetched.extend([one] if one is not None else [])
        fetched.extend(cursor.fetchall())
        assert _tagged(fetched) == _tagged(expected)
        # exhaustion is stable
        assert cursor.fetchmany(4) == [] and cursor.fetchone() is None
        assert cursor.fetchall() == []
    finally:
        database.execute(f"DROP TABLE {table}")


def test_a_result_without_columns_has_no_rows(served):
    empty = QueryResult([])
    assert empty.fetchall() == [] and empty.fetchone() is None
    assert list(empty.rows()) == []
    _, connection = served
    connection.execute("CREATE TABLE nocols (x INTEGER)")
    try:
        cursor = connection.cursor().execute("INSERT INTO nocols VALUES (1)")
        assert cursor.fetchmany(3) == [] and cursor.fetchone() is None
        assert cursor.fetchall() == []
    finally:
        connection.execute("DROP TABLE nocols")


def test_fetchone_does_not_build_the_value_lists():
    column = ResultColumn.lazy(
        "v", SQLType.INTEGER, 3,
        lambda: Vector(np.array([4, 5, 6]), sql_type=SQLType.INTEGER))
    result = QueryResult([column])
    assert result.fetchone() == (4,)
    assert not column.is_materialised
    assert result.fetchall() == [(4,), (5,), (6,)]
