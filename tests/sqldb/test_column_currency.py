"""One typed column currency: every typed column is a ``Vector``.

(a) *Invariant walk* — column data between the stored buffer and the client
is a ``Vector`` (typed), a ``list`` or a BLOB column's object array (the
Python tier); a bare typed ``ndarray`` is only ever a kernel operand, a
filter mask or an index array.  ``Batch`` and ``EvalResult`` construction is
wrapped here (no hook in ``src/``) while the oracle's and the invariance
suite's statements run.

(b) *Tier equivalence* — a vector kernel and the per-row tier give the same
answer on the same values, so the two remaining tiers cannot drift apart.

(c) *One per-row driver* — ``ExpressionEvaluator._per_row`` is the only
Python loop over rows (census by source inspection), its work is counted
(function calls linear in rows, or in distinct values for a dictionary
column beside constants; one ``broadcast`` per operand), and (d) the
per-distinct-value path never answers for a value that is not among the rows.
"""

import shutil
import sqlite3

import numpy as np
import pytest

import test_config_invariance as invariance
import test_sqlite_oracle as oracle
from repro.netproto.client import Connection
from repro.netproto.server import DatabaseServer
from repro.sqldb import Database
from repro.sqldb.aggregates import GroupLayout, call_aggregate, grouped_aggregate
from repro.sqldb.expressions import (
    Batch,
    BatchColumn,
    EvalResult,
    ExpressionEvaluator,
    as_value_list,
)
from repro.sqldb.operators import HashJoin
from repro.sqldb.parser import parse_statement
from repro.sqldb.persist import wal_path_for
from repro.sqldb.result import ResultColumn
from repro.sqldb.types import SQLType
from repro.sqldb.vector import Vector

MORSEL_ROWS = [1, 7, 65_536]
PLAIN = (int, float, bool, str, bytes, type(None))


def _is_column_data(values):
    return isinstance(values, (Vector, list)) or (
        isinstance(values, np.ndarray) and values.dtype == object)


# --------------------------------------------------------------------------- #
# (a) invariant walk
# --------------------------------------------------------------------------- #
@pytest.fixture()
def walk(monkeypatch):
    """Check every ``BatchColumn.values`` / ``EvalResult.values`` built while
    the fixture is live; yields the list of violations (morsels may run on
    worker threads, so they are collected, not raised)."""
    violations = []
    batch_init, eval_init = Batch.__init__, EvalResult.__init__

    def checked_batch(self, columns=None, row_count=None):
        batch_init(self, columns, row_count)
        violations.extend(
            f"BatchColumn {column.name!r}: {type(column.values).__name__}"
            for column in self.columns if not _is_column_data(column.values))

    def checked_eval(self, *args, **kwargs):
        eval_init(self, *args, **kwargs)
        if not _is_column_data(self.values):
            violations.append(f"EvalResult: {type(self.values).__name__}")

    monkeypatch.setattr(Batch, "__init__", checked_batch)
    monkeypatch.setattr(EvalResult, "__init__", checked_eval)
    return violations


def _check_result(result, sql):
    """A result column is vector-backed or holds plain Python values."""
    for column in result.columns:
        if column.vector() is None:
            assert all(type(value) in PLAIN for value in column.values), \
                (sql, column.name)


def _oracle_database(morsel_rows):
    db = Database(morsel_rows=morsel_rows)
    db.execute(
        "CREATE TABLE f (i INTEGER, k INTEGER, m INTEGER, x DOUBLE, s STRING)")
    db.execute("CREATE TABLE d (k INTEGER, name STRING)")
    db.execute("CREATE TABLE e (k INTEGER)")
    db.execute("CREATE TABLE p (k INTEGER, s STRING, x DOUBLE, w INTEGER, "
               "y DOUBLE)")
    db.storage.table("f").insert_rows(oracle.FACT)
    db.storage.table("d").insert_rows(oracle.DIM)
    db.storage.table("p").insert_rows(oracle.PAIRS)
    return db


def test_result_column_has_one_typed_backing():
    assert "_array" not in ResultColumn.__slots__
    assert "_mask" not in ResultColumn.__slots__
    assert "_vector" in ResultColumn.__slots__


@pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
def test_walk_oracle_statements(walk, morsel_rows):
    db = _oracle_database(morsel_rows)
    connection = Connection.connect_in_process(DatabaseServer(db))
    for sql, _ in oracle.STATEMENTS:
        _check_result(db.execute(sql), sql)
        _check_result(connection.execute(sql), sql)
    # a plain projection of stored columns stays typed end to end, in
    # process and on the client side of the wire (fixed-width + dictionary)
    for run in (db.execute, connection.execute):
        result = run("SELECT i, k, m, x FROM f")
        assert all(column.vector() is not None for column in result.columns)
        assert result.column("i").vector().mask is None
        assert result.column("k").vector().mask is not None
    connection.close()
    db.close()
    assert not walk, walk[:5]


def test_walk_invariance_statements(walk):
    db = invariance._make_database()
    connection = Connection.connect_in_process(DatabaseServer(db))
    for template, args in invariance.STATEMENTS:
        sql = invariance._literal(template, args)
        _check_result(db.execute(sql), sql)
        _check_result(connection.execute(sql), sql)
    # 10,000 rows of 12 strings: dictionary-encoded from scan to client
    name = connection.execute("SELECT s FROM t").column("s").vector()
    assert name is not None and name.is_dict
    connection.close()
    db.close()
    assert not walk, walk[:5]


def _check_scans(db):
    """Every stored column publishes a vector (BLOB: its object array); a
    NULL-free numeric one is mask-free over a read-only view of the buffer."""
    for name in db.storage.table_names():
        for column in db.storage.table(name).columns:
            scan = column.scan_values()
            assert column.scan_vector(0, len(column)) is scan
            if column.sql_type is SQLType.BLOB:
                assert isinstance(scan, np.ndarray) and scan.dtype == object
                continue
            assert isinstance(scan, Vector), (name, column.name)
            assert scan.sql_type is column.sql_type
            assert (scan.mask is not None) == (None in column.values)
            assert scan.is_dict == (column.sql_type is SQLType.STRING)
            assert not scan.data.flags.writeable
            assert scan.data is column._data or scan.data.base is column._data
            if scan.mask is None and not scan.is_dict:
                assert column.to_numpy() is scan.data  # the UDF handoff


def test_stored_scans_through_a_column_lifetime(tmp_path):
    path = tmp_path / "life.db"
    db = Database(path=path)
    db.execute("CREATE TABLE t (i INTEGER, d DOUBLE, b BOOLEAN, s STRING, "
               "x BLOB)")
    _check_scans(db)  # empty
    db.execute("INSERT INTO t VALUES (1, 0.5, TRUE, 'a', 'p'), "
               "(2, 1.5, FALSE, 'b', 'q'), (3, 2.5, TRUE, 'a', 'r')")
    _check_scans(db)
    assert db.storage.table("t").column("i").scan_values().mask is None
    db.execute("UPDATE t SET i = NULL, d = NULL, s = NULL WHERE b = FALSE")
    _check_scans(db)
    assert db.storage.table("t").column("i").scan_values().mask.tolist() \
        == [False, True, False]
    db.execute("DELETE FROM t WHERE b = FALSE")  # the last NULL row goes
    _check_scans(db)
    assert db.storage.table("t").column("i").scan_values().mask is None
    # WAL recovery: the image is older than the log (crash before checkpoint)
    crashed = tmp_path / "crashed.db"
    if path.exists():
        shutil.copy(path, crashed)
    shutil.copy(wal_path_for(path), wal_path_for(crashed))
    recovered = Database(path=crashed)
    assert recovered.execute("SELECT i, s FROM t").fetchall() \
        == [(1, "a"), (3, "a")]
    _check_scans(recovered)
    recovered.close()
    # checkpoint + reopen: columns decoded from image segments
    db.execute("CHECKPOINT")
    db.close()
    reopened = Database(path=path)
    assert reopened.execute("SELECT i, s FROM t").fetchall() \
        == [(1, "a"), (3, "a")]
    _check_scans(reopened)
    reopened.execute("DELETE FROM t")  # truncate
    _check_scans(reopened)
    reopened.close()


# --------------------------------------------------------------------------- #
# the two cliffs closed by type: nullable IN-list, typed LEFT JOIN flush
# --------------------------------------------------------------------------- #
def test_left_join_deferred_rows_stay_typed():
    db = Database()
    db.execute("CREATE TABLE f (i INTEGER, k INTEGER)")
    db.execute("CREATE TABLE d (k INTEGER, w DOUBLE, label STRING, raw BLOB)")
    db.execute("CREATE TABLE e (k INTEGER, tag STRING)")
    db.execute("INSERT INTO f VALUES (0, 1), (1, 7), (2, NULL), (3, 2), (4, 9)")
    db.execute("INSERT INTO d VALUES (1, 0.5, 'one', 'x'), (2, 1.5, 'two', 'y')")
    db.execute("INSERT INTO e VALUES (1, 'a'), (2, 'b')")

    def batch(name):
        return db._executor._batch_from_table(db.storage.table(name), alias=name)

    def condition(text):
        return parse_statement(f"SELECT {text}").items[0].expression

    left, right = batch("f"), batch("d")
    join = HashJoin(db, "LEFT", condition("f.k = d.k"))
    template = join.prepare(left.slice(0, 0), right)
    matches, deferred = join.probe(left)
    assert matches.row_count == 2 and deferred.row_count == 3
    for column, build in zip(deferred.columns[2:], right.columns):
        if build.sql_type is SQLType.BLOB:
            assert column.values == [None] * 3
            continue
        assert isinstance(column.values, Vector), column.name
        assert column.values.null_count() == len(column.values) == 3
        assert column.values.sql_type is build.sql_type
        assert column.values.dictionary is build.values.dictionary
    # ... so a second join probes the flushed batch with the vector kernel
    chained = HashJoin(db, "LEFT", condition("d.k = e.k"))
    chained.prepare(template, batch("e"))
    assert chained._strategy == "vector"
    _, unmatched = chained.probe(deferred)
    assert unmatched.row_count == 3
    assert chained._row_build is None  # the row-tuple build never ran
    # a string column that never held a value has an empty dictionary, which
    # the dictionary kernels read as "zero rows": its NULL rows stay a list
    db.execute("DELETE FROM e")
    empty = HashJoin(db, "LEFT", condition("f.k = e.k"))
    empty.prepare(left.slice(0, 0), batch("e"))
    _, unmatched = empty.probe(left)
    k, tag = unmatched.columns[2:]
    assert isinstance(k.values, Vector) and k.values.null_count() == 5
    assert tag.values == [None] * 5


LEFT_JOINS = [
    "SELECT d.name, COUNT(*), COUNT(d.k), SUM(f.m), SUM(f.x) FROM f "
    "LEFT JOIN d ON f.k = d.k GROUP BY d.name",
    "SELECT f.i, f.k, d.name FROM f LEFT JOIN d ON f.k = d.k "
    "WHERE d.k IS NULL",
    "SELECT f.i, d.name, e.name, e.k FROM f LEFT JOIN d ON f.k = d.k "
    "LEFT JOIN d AS e ON d.k = e.k",
]

#: against a string column that never held a value the build dictionary is
#: empty: the NULL rows must still probe a later join, compare and reach the
#: wire — from a many-row (``f``) and a one-row (``one``) probe side
EMPTY_BUILD_JOINS = [
    sql.format(probe=probe) for probe in ("f", "one") for sql in (
        "SELECT {probe}.i, nobody.name FROM {probe} "
        "LEFT JOIN nobody ON {probe}.k = nobody.k",
        "SELECT {probe}.i, nobody.name, d.k FROM {probe} "
        "LEFT JOIN nobody ON {probe}.k = nobody.k "
        "LEFT JOIN d ON nobody.name = d.name",
        "SELECT {probe}.i FROM {probe} "
        "LEFT JOIN nobody ON {probe}.k = nobody.k WHERE nobody.name = {probe}.s",
        "SELECT {probe}.i, nobody.name FROM {probe} "
        "LEFT JOIN nobody ON {probe}.k = nobody.k WHERE nobody.name IS NULL",
    )
]


@pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
def test_left_join_shapes_match_sqlite(walk, morsel_rows):
    reference = sqlite3.connect(":memory:")
    reference.execute(
        "CREATE TABLE f (i INTEGER, k INTEGER, m INTEGER, x REAL, s TEXT)")
    reference.execute("CREATE TABLE d (k INTEGER, name TEXT)")
    reference.executemany("INSERT INTO f VALUES (?, ?, ?, ?, ?)", oracle.FACT)
    reference.executemany("INSERT INTO d VALUES (?, ?)", oracle.DIM)
    db = _oracle_database(morsel_rows)
    for connection in (reference, db):
        connection.execute("CREATE TABLE nobody (k INTEGER, name STRING)")
        connection.execute("CREATE TABLE one (i INTEGER, k INTEGER, s STRING)")
        connection.execute("INSERT INTO one VALUES (0, 1, 'a')")
    wire = Connection.connect_in_process(DatabaseServer(db))
    for sql in LEFT_JOINS + EMPTY_BUILD_JOINS:
        expected = oracle._multiset(
            [tuple(row) for row in reference.execute(sql).fetchall()])
        assert oracle._multiset(db.execute(sql).fetchall()) == expected, sql
        assert oracle._multiset(wire.execute(sql).fetchall()) == expected, sql
    wire.close()
    db.close()
    reference.close()
    assert not walk, walk[:5]


# --------------------------------------------------------------------------- #
# (b) tier equivalence
# --------------------------------------------------------------------------- #
#: shape -> {column: (sql type, values)}; ``a``/``b`` numeric, ``s``/``t``
#: strings (dictionary vectors), ``x`` DOUBLE in multiples of 0.25 (exact)
SHAPES = {
    "null_free": {
        "a": (SQLType.INTEGER, [3, 1, 4, 1, 5, 9, 2, 6, 5]),
        "b": (SQLType.INTEGER, [2, 7, 1, 8, 2, 8, 1, 8, 5]),
        "x": (SQLType.DOUBLE, [0.5, 2.25, -1.0, 3.0, 0.0, 9.75, 2.0, 1.25, 5.0]),
        "s": (SQLType.STRING, ["bee", "ant", "", "cat", "bee", "Dog", "ant",
                               "eel", "bee"]),
        "t": (SQLType.STRING, ["bee", "bee", "ant", "cat", "ant", "dog", "",
                               "eel", "cat"]),
    },
    "null_bearing": {
        "a": (SQLType.INTEGER, [3, None, 4, 1, None, 9, 2, 0, 5]),
        "b": (SQLType.INTEGER, [2, 7, None, 8, None, 8, 1, 8, 5]),
        "x": (SQLType.DOUBLE, [0.5, None, -1.0, 3.0, 0.0, None, 2.0, 1.25, 5.0]),
        "s": (SQLType.STRING, ["bee", None, "", "cat", None, "Dog", "ant",
                               "eel", "bee"]),
        "t": (SQLType.STRING, [None, "bee", "ant", "cat", None, "dog", "",
                               "eel", "cat"]),
    },
    "all_null": {
        "a": (SQLType.INTEGER, [None] * 4), "b": (SQLType.INTEGER, [2, 7, 1, 8]),
        "x": (SQLType.DOUBLE, [None] * 4), "s": (SQLType.STRING, [None] * 4),
        "t": (SQLType.STRING, ["bee", "ant", "", "cat"]),
    },
    "empty": {
        "a": (SQLType.INTEGER, []), "b": (SQLType.INTEGER, []),
        "x": (SQLType.DOUBLE, []), "s": (SQLType.STRING, []),
        "t": (SQLType.STRING, []),
    },
}

#: (expression, the typed tier answers with a Vector)
EXPRESSIONS = [
    # compare
    ("a = b", True), ("a <> 1", True), ("a < b", True), ("x >= 2", True),
    ("s = 'bee'", True), ("s < 'cat'", True), ("s <> t", True), ("s >= t", True),
    # arithmetic
    ("a + b", True), ("a - b", True), ("a * b", True), ("x / 4", True),
    ("a % 3", True), ("a + x * 2", True),
    # AND / OR (Kleene), unary - / NOT
    ("a > 1 AND b > 1", True), ("a > 1 OR x < 1", True),
    ("a > 1 AND s = 'bee'", True), ("-a", True), ("-x", True),
    ("NOT (a > 2)", True), ("NOT (s = 'bee' OR a IS NULL)", True),
    # IS [NOT] NULL, BETWEEN, IN, LIKE, CAST
    ("a IS NULL", True), ("x IS NOT NULL", True), ("s IS NULL", True),
    ("a BETWEEN 2 AND 5", True), ("x NOT BETWEEN 0 AND b", True),
    ("a IN (1, 2, 3)", True), ("a NOT IN (1, 5)", True),
    ("x IN (0.5, 2, 5)", True), ("x NOT IN (0, 1.25)", True),
    ("a IN (1, NULL)", False), ("s IN ('ant', 'bee')", True),
    ("s LIKE 'b%'", True), ("s NOT LIKE '%a%'", True), ("t LIKE '_ee'", True),
    ("CAST(a AS DOUBLE)", True), ("CAST(x AS DOUBLE)", True),
    ("CAST(a AS STRING)", False),
    # the per-row tier: once per row ...
    ("CASE WHEN a > 2 THEN 1 ELSE 0 END", False),
    ("CASE WHEN s = 'bee' THEN 'x' END", False),
    ("ABS(a)", False), ("COALESCE(a, 0)", False),
    # ... and once per distinct value for a dictionary column beside constants
    # (a result that may be strings only where that at least halves the calls,
    # which these nine-row shapes do not: see the work-counting tests below)
    ("UPPER(s)", False), ("LENGTH(s)", False), ("SUBSTR(s, 2)", False),
    ("COALESCE(s, 'none')", False), ("s || '!'", False),
    ("CAST(s AS STRING)", False), ("s BETWEEN 'ant' AND 'cat'", True),
]


def _batch(shape, typed):
    columns = [
        BatchColumn(None, name, sql_type,
                    Vector.from_values(values, sql_type) if typed
                    else list(values))
        for name, (sql_type, values) in SHAPES[shape].items()]
    return Batch(columns, row_count=len(columns[0]))


def _expression(text):
    return parse_statement(f"SELECT {text}").items[0].expression


def _evaluate(batch, text):
    result = ExpressionEvaluator(Database(), batch).evaluate(_expression(text))
    return result.broadcast(batch.row_count)


@pytest.mark.parametrize("morsel_rows", [1, 7, 65_536])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_vector_kernels_equal_the_per_row_tier(walk, shape, morsel_rows):
    typed, plain = _batch(shape, typed=True), _batch(shape, typed=False)
    for text, is_kernel in EXPRESSIONS:
        expected = as_value_list(_evaluate(plain, text))
        answer = []
        for start in range(0, max(typed.row_count, 1), morsel_rows):
            piece = _evaluate(typed.slice(start, start + morsel_rows), text)
            if is_kernel:
                assert isinstance(piece, Vector), (text, shape)
                answer.extend(piece.to_list())
            else:
                answer.extend(as_value_list(piece))
        assert answer == expected, (text, shape)
        assert [type(value) for value in answer] \
            == [type(value) for value in expected], (text, shape)
    assert not walk, walk[:5]


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("name", ["SUM", "AVG", "MIN", "MAX", "COUNT"])
def test_aggregate_kernels_equal_the_per_row_tier(shape, name):
    columns = "abxst" if name in ("MIN", "MAX", "COUNT") else "abx"
    for column in columns:
        sql_type, values = SHAPES[shape][column]
        vector = Vector.from_values(values, sql_type)
        assert call_aggregate(name, vector) == call_aggregate(name, values), \
            (column, shape)
        # grouped: rows dealt round-robin into three groups; the typed tier
        # answers with a Vector (no row, no reduction: the per-value tier)
        layout = GroupLayout(np.arange(len(values)) % 3, 3)
        answer = grouped_aggregate(name, vector, layout)
        expected = grouped_aggregate(name, list(values), layout)
        assert isinstance(answer, Vector) == bool(values), (column, shape)
        assert as_value_list(answer) == expected, (column, shape)
        assert [type(value) for value in as_value_list(answer)] \
            == [type(value) for value in expected], (column, shape)


# --------------------------------------------------------------------------- #
# (c) the per-row tier is one driver: work is counted, not timed
# --------------------------------------------------------------------------- #
@pytest.fixture()
def work(monkeypatch):
    """Count scalar-function calls and ``EvalResult.broadcast`` calls made
    while an expression evaluates (no wall time anywhere)."""
    counts = {"calls": 0, "broadcasts": 0}
    per_row, broadcast = ExpressionEvaluator._per_row, EvalResult.broadcast

    def counting_per_row(self, operands, function, *args, **kwargs):
        def counted(*values):
            counts["calls"] += 1
            return function(*values)
        return per_row(self, operands, counted, *args, **kwargs)

    def counting_broadcast(self, length):
        counts["broadcasts"] += 1
        return broadcast(self, length)

    monkeypatch.setattr(ExpressionEvaluator, "_per_row", counting_per_row)
    monkeypatch.setattr(EvalResult, "broadcast", counting_broadcast)

    def run(text, rows):
        """``rows``: a row count, or the string column ``s`` itself."""
        strings = rows if isinstance(rows, Vector) else Vector.from_values(
            [f"x{index % 7}" for index in range(rows)], SQLType.STRING)
        rows = len(strings)
        batch = Batch([
            BatchColumn(None, "a", SQLType.INTEGER, Vector.from_values(
                [index % 11 for index in range(rows)], SQLType.INTEGER)),
            BatchColumn(None, "s", SQLType.STRING, strings),
        ], row_count=rows)
        counts.update(calls=0, broadcasts=0)
        result = ExpressionEvaluator(Database(), batch).evaluate(
            _expression(text))
        assert len(result) == rows
        run.result = result.values
        return counts["calls"], counts["broadcasts"]

    return run


@pytest.mark.parametrize("text, operands", [
    ("CASE WHEN a > 5 THEN 1 ELSE 0 END", 3),
    ("CASE WHEN a > 5 THEN 1 WHEN a > 2 THEN a END", 5),
    ("ABS(a)", 1), ("COALESCE(a, 0)", 2), ("CAST(a AS STRING)", 1),
    ("a IN (1, NULL)", 3),
])
def test_per_row_work_is_linear_in_rows(work, text, operands):
    for rows in (500, 2_000):
        assert work(text, rows) == (rows, operands), (text, rows)


@pytest.mark.parametrize("text", [
    "UPPER(s)", "LENGTH(s)", "SUBSTR(s, 2)", "REPLACE(s, 'x', 'y')",
    "s = 'x3'", "'x3' < s", "s LIKE 'x%'", "s IN ('x1', 'x3')", "s || '!'",
    "CAST(s AS STRING)", "s BETWEEN 'x1' AND 'x4'", "COALESCE(s, 'none')",
])
def test_per_distinct_work_is_bounded_by_the_dictionary(work, text):
    for rows in (500, 2_000):
        calls, broadcasts = work(text, rows)
        assert calls <= 7 + 1, (text, rows)
        assert broadcasts == 1, (text, rows)  # the dictionary operand's
        assert isinstance(work.result, Vector), (text, rows)


@pytest.mark.parametrize("text, fixed_width", [
    ("UPPER(s)", False), ("LENGTH(s)", False), ("s || '!'", False),
    ("CAST(s AS STRING)", False), ("COALESCE(s, 'none')", False),
    ("s = 'u0003'", True), ("s LIKE 'u00%'", True), ("s IN ('u0003')", True),
    ("s BETWEEN 'u0001' AND 'u0004'", True), ("CAST(s AS INTEGER)", True),
])
def test_per_distinct_work_never_exceeds_the_rows(work, text, fixed_width):
    """A morsel slice and a filtered batch keep their column's full
    dictionary: 2,000 entries behind 1, 5 or no rows cost at most that many
    calls, and a column as distinct as its rows costs its rows.  A result
    that may be strings is typed (a sort of its values) only where the
    distinct values are at most half the rows; a fixed-width one always."""
    strings = [f"u{index:04d}" for index in range(2_000)]
    if "INTEGER" in text:
        strings = [value[1:] for value in strings]
    column = Vector.from_values(strings, SQLType.STRING)
    # (rows, most calls, a string result is typed)
    pieces = [(column.slice(7, 8), 1, False), (column.slice(7, 7), 0, True),
              (column.take(np.array([3, 3, 900, 3, 900])), 2, True),
              (column, 2_000, False)]
    for piece, calls, strings_typed in pieces:
        assert len(piece.dictionary) == 2_000
        assert work(text, piece)[0] <= calls, (text, len(piece))
        assert isinstance(work.result, Vector) \
            == (fixed_width or strings_typed), (text, len(piece))
    # NULL is one more entry (and its fill code one more): rows + 1 at most
    nullable = Vector.from_values([None] + strings, SQLType.STRING)
    assert work(text, nullable.slice(0, 1))[0] <= 2, text
    assert work(text, nullable.slice(0, 3))[0] <= 4, text


#: ``_eval_*`` nodes that broadcast without being the per-row tier: both hand
#: whole columns to one call (an aggregate, a Python UDF), never loop on rows
WHOLE_COLUMN_NODES = {"_eval_aggregate", "_eval_python_udf"}


def test_per_row_is_the_only_loop_over_rows():
    """Census by source inspection: outside ``_per_row`` (and its
    per-distinct-value helper) no ``_eval_*`` node broadcasts, detaches a
    vector or loops over something row-shaped."""
    import ast as python_ast
    import inspect
    import textwrap

    row_shaped = (".values", ".broadcast(", "_python_elements", "to_list",
                  "as_value_list", "row_count", "length")
    nodes = [name for name in vars(ExpressionEvaluator)
             if name.startswith("_eval_") and name not in WHOLE_COLUMN_NODES]
    assert len(nodes) >= 15
    for name in nodes:
        source = textwrap.dedent(
            inspect.getsource(getattr(ExpressionEvaluator, name)))
        assert ".broadcast(" not in source, name
        assert "_python_elements(" not in source, name
        for loop in python_ast.walk(python_ast.parse(source)):
            iterables = []
            if isinstance(loop, (python_ast.For, python_ast.While)):
                iterables = [getattr(loop, "iter", None) or loop.test]
            elif isinstance(loop, (python_ast.ListComp, python_ast.SetComp,
                                   python_ast.DictComp,
                                   python_ast.GeneratorExp)):
                iterables = [gen.iter for gen in loop.generators]
            for iterable in iterables:
                text = python_ast.unparse(iterable)
                assert not any(word in text for word in row_shaped), \
                    (name, text)
    driver = inspect.getsource(ExpressionEvaluator._per_row)
    assert ".broadcast(" in driver and "for row in" in driver


# --------------------------------------------------------------------------- #
# (d) the per-distinct-value path never answers for a value that is not there
# --------------------------------------------------------------------------- #
def test_an_entrys_error_surfaces_only_if_the_entry_is_among_the_rows():
    from repro.errors import TypeMismatchError

    for morsel_rows in (1, 2, 65_536):
        db = Database(morsel_rows=morsel_rows)
        db.execute("CREATE TABLE t (i INTEGER, s STRING)")
        db.execute("INSERT INTO t VALUES (0, '7'), (1, 'zzz'), (2, '12'), "
                   "(3, 'abc'), (4, NULL)")
        # a filtered batch keeps its full dictionary: 'abc' / 'zzz' are
        # entries, but not among the rows
        assert db.execute(
            "SELECT CAST(s AS INTEGER) FROM t WHERE s <> 'abc' AND s <> 'zzz' "
            "ORDER BY i").fetchall() == [(7,), (12,)]
        # ... and the error that does surface is the first failing *row's*
        # ('abc' sorts first in the dictionary, 'zzz' comes first in the rows)
        with pytest.raises(TypeMismatchError, match="zzz"):
            db.execute("SELECT CAST(s AS INTEGER) FROM t")
        db.close()
    # an entry absent from a *sliced* morsel: the slice shares the dictionary
    batch = Batch([BatchColumn(None, "s", SQLType.STRING, Vector.from_values(
        ["7", "12", "abc"], SQLType.STRING))])
    assert as_value_list(_evaluate(batch.slice(0, 2), "CAST(s AS INTEGER)")) \
        == [7, 12]
    assert as_value_list(_evaluate(batch.slice(2, 3), "UPPER(s)")) == ["ABC"]
    matches = _evaluate(batch.slice(2, 3), "s LIKE 'a%'")
    assert isinstance(matches, Vector) and matches.to_list() == [True]


@pytest.mark.parametrize("text, expected", [
    # mixed Python types: the column type is the first non-NULL row's
    ("COALESCE(s, 1)", ["bee", 1, "ant"]),
    ("NULLIF(s, 'bee')", [None, None, "ant"]),
    # beyond int64
    ("CAST(t AS BIGINT)", [99999999999999999999, 5, None]),
    ("LENGTH(s) * 0 + CAST(t AS BIGINT)", None),
])
def test_results_a_typed_column_cannot_hold_stay_on_the_row_loop(text, expected):
    columns = {"s": ["bee", None, "ant"],
               "t": ["99999999999999999999", "5", None]}
    typed, plain = (
        Batch([BatchColumn(None, name, SQLType.STRING,
                           Vector.from_values(values, SQLType.STRING)
                           if is_typed else list(values))
               for name, values in columns.items()])
        for is_typed in (True, False))
    answer = as_value_list(_evaluate(typed, text))
    reference = as_value_list(_evaluate(plain, text))
    assert answer == reference
    assert [type(value) for value in answer] \
        == [type(value) for value in reference]
    if expected is not None:
        assert answer == expected
