"""The tables, statements and recorder behind ``data/grouping_golden.jsonl``.

Run as a script on the commit whose engine is the reference::

    PYTHONPATH=src python tests/sqldb/grouping_golden.py

and every statement below is run at each morsel size in ``MORSEL_ROWS`` over
the same generated tables, its answer written out exactly: column names and
types, then the rows in the order the engine returned them, each value tagged
with its Python type and a float spelled as ``float.hex``, so ``1``,
``1.0`` and ``True`` differ and a sum folded in another order does not match.
``test_grouping_golden.py`` replays the file against the current engine and
checks with :func:`invariance_report` that the recorded answers agree across
morsel sizes wherever the order values are combined in cannot matter.

The statements cover what grouping and joins can get wrong without changing
a row count: the factoriser each key takes (a small-range integer, a wide
one, ``id % 5000``, dictionary strings, masked integers and doubles with
NULLs, booleans, expressions, two keys), keys whose type differs between
morsels (so the partial merge sees a list, not a vector), SUM / AVG / MIN /
MAX / COUNT, WHERE clauses that keep every row, most rows, some morsels or
no row, and INNER / LEFT equi-joins against unique and duplicated build
keys, with and without NULL keys.

``_MERGED`` pins what merging partial aggregates can get wrong: a group per
row (``id % 100000``), groups absent from some morsels, partials with no
valid value, integer sums whose partials fit int64 while their total does
not, sums of ``-0.0``, NaN arguments to MIN / MAX, string MIN / MAX,
arithmetic over aggregates and HAVING.

``_MULTI`` pins several keys: GROUP BY and DISTINCT over two and three
columns and joins on two and three column pairs, each coded into one
composite key or, for list keys, through one row-tuple dict.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "grouping_golden.jsonl"

#: one partial merge over ten morsels, one over three, one single morsel
MORSEL_ROWS = (1_024, 4_096, 65_536)
ROWS = 10_000
KEYS = 50


def _value(value) -> str:
    """One answer value as an exact, type-tagged string."""
    if value is None:
        return "N"
    if type(value) is bool:
        return "T" if value else "F"
    if type(value) is int:
        return f"i{value}"
    if type(value) is float:
        return f"f{value.hex()}"
    if type(value) is str:
        return f"s{value}"
    return f"?{type(value).__name__}:{value!r}"


def answer(db, sql: str) -> dict:
    """What the engine under test answers, in the recorded form."""
    result = db.execute(sql)
    return {"columns": [[column.name, column.sql_type.name]
                        for column in result.columns],
            "rows": [[_value(value) for value in row]
                     for row in result.fetchall()]}


def _tables():
    """``{table: (create statement, rows)}``, the same on every call."""
    import numpy as np

    rng = np.random.default_rng(27)
    k = rng.integers(0, KEYS, ROWS)
    names = rng.integers(0, 30, ROWS)
    mi = rng.integers(-20, 20, ROWS)
    # -0.0 and 0.0 are one group; which sign is shown is the first row's
    mf = rng.choice([-0.0, 0.0, 0.5, 1.5, 2.25, 7.0, -3.5], ROWS)
    v = rng.random(ROWS)
    b = rng.random(ROWS) < 0.4
    null = {column: rng.random(ROWS) < share for column, share in
            (("name", 0.05), ("mi", 0.15), ("mf", 0.12), ("b", 0.05))}
    t = [
        (i, int(k[i]), None if null["name"][i] else f"n{names[i]:02d}",
         None if null["mi"][i] else int(mi[i]),
         None if null["mf"][i] else float(mf[i]), float(v[i]),
         None if null["b"][i] else bool(b[i]), int(k[i]) * 1_000_003)
        for i in range(ROWS)
    ]
    w = (rng.integers(1, 9, KEYS) * 0.25).tolist()
    # a 1,024-row morsel's sum of ``big`` fits int64, a 4,096-row one does
    # not, nor does any group's total; ``h`` is NULL in the first half
    g = [(i, i % 3, 2 ** 52 + i, None if i < ROWS // 2 else i * 0.25, -0.0,
          None if i % 7 == 0 else -0.0,
          float("nan") if i % 997 == 5 else (i % 101) * 0.5)
         for i in range(ROWS)]
    return {
        "t": ("CREATE TABLE t (id INTEGER, k INTEGER, name STRING, mi INTEGER, "
              "mf DOUBLE, v DOUBLE, b BOOLEAN, wk INTEGER)", t),
        # unique build keys, every t.k present
        "du": ("CREATE TABLE du (k INTEGER, k2 INTEGER, w DOUBLE, label STRING)",
               [(key, key, w[key], f"l{key % 7}") for key in range(KEYS)]),
        # unique build keys, t.k 40..49 absent
        "dp": ("CREATE TABLE dp (k INTEGER, w DOUBLE, label STRING)",
               [(key, w[key], f"p{key % 5}") for key in range(40)]),
        # duplicated build keys (two or three rows each) and a NULL key
        "dd": ("CREATE TABLE dd (k INTEGER, w DOUBLE, tag STRING)",
               [(key, w[(key + copy) % KEYS], f"c{copy}")
                for copy in range(3) for key in range(KEYS)
                if copy < 2 or key % 4 == 0] + [(None, 9.0, "null")]),
        # unique non-NULL build keys beside two NULL keys
        "dn": ("CREATE TABLE dn (k INTEGER, w DOUBLE)",
               [(None, 1.0)] + [(key, w[key]) for key in range(-5, 15)]
               + [(None, 2.0)]),
        # unique string keys, some of t's names absent
        "ds": ("CREATE TABLE ds (name STRING, x INTEGER)",
               [(f"n{code:02d}", code * 10) for code in range(0, 30, 2)]
               + [("zz", -1)]),
        "g": ("CREATE TABLE g (id INTEGER, c INTEGER, big BIGINT, h DOUBLE, "
              "z DOUBLE, zn DOUBLE, n DOUBLE)", g),
        # two- and three-column build keys: every (k, name) pair once, some
        # twice, beside rows with a NULL in one key or in every key
        "dk": ("CREATE TABLE dk (k INTEGER, name STRING, f DOUBLE, tag STRING)",
               [(key, f"n{code:02d}", (-0.0, 0.5, 1.5, 7.0, 2.25)[(key + code) % 5],
                 f"c{copy}")
                for copy in range(2) for key in range(KEYS)
                for code in range(0, 30, 3) if copy == 0 or (key + code) % 4 == 0]
               + [(None, "n00", -0.0, "nk"), (3, None, 0.5, "nn"),
                  (None, None, None, "nb"), (4, "n03", None, "nf")]),
    }


#: WHERE clauses keeping every row, most rows, whole morsels only (plus the
#: one straddling morsel), scattered rows, and no row
EVERY, MOST, TAIL, SOME, NONE = ("WHERE id >= 0", "WHERE v > 0.1",
                                 "WHERE id >= 2500", "WHERE id % 3 = 0",
                                 "WHERE id < 0")

_GROUPED = [
    ("SELECT k, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM t {w} GROUP BY k",
     ["", EVERY, MOST, TAIL, SOME, NONE]),
    ("SELECT id % 5000, COUNT(*), SUM(mi) FROM t {w} "
     "GROUP BY id % 5000", [""]),
    ("SELECT name, COUNT(*), SUM(v), MIN(id), MAX(name), MIN(name) FROM t {w} "
     "GROUP BY name", ["", EVERY, MOST, TAIL, NONE]),
    ("SELECT mi, COUNT(*), COUNT(mi), SUM(mf), AVG(mf), MIN(mf), MAX(mi) "
     "FROM t {w} GROUP BY mi", ["", EVERY, TAIL, SOME]),
    ("SELECT mf, COUNT(*), SUM(v), MIN(mi), COUNT(mf) FROM t {w} GROUP BY mf",
     ["", EVERY, TAIL]),
    ("SELECT b, COUNT(*), COUNT(b), SUM(v), AVG(k), MIN(b), MAX(b), SUM(mi) "
     "FROM t {w} GROUP BY b", ["", EVERY, TAIL]),
    ("SELECT k % 7, COUNT(*), SUM(v) FROM t {w} GROUP BY k % 7", ["", MOST]),
    ("SELECT k * 2 + 1, SUM(k), AVG(v), MAX(mf) FROM t {w} GROUP BY k * 2 + 1",
     ["", TAIL]),
    ("SELECT wk, COUNT(*), SUM(v), MIN(wk) FROM t {w} GROUP BY wk",
     ["", EVERY, TAIL]),
    ("SELECT k, name, COUNT(*), SUM(v) FROM t {w} GROUP BY k, name", [TAIL]),
    ("SELECT b, mi, COUNT(*), SUM(v) FROM t {w} GROUP BY b, mi", ["", SOME]),
    ("SELECT UPPER(name), COUNT(*), SUM(v) FROM t {w} GROUP BY UPPER(name)",
     ["", TAIL]),
    # int in the first morsels, double in the later ones: 1 and 1.0 group
    ("SELECT CASE WHEN id < 3000 THEN k ELSE k * 1.0 END, COUNT(*), SUM(v) "
     "FROM t {w} GROUP BY CASE WHEN id < 3000 THEN k ELSE k * 1.0 END",
     ["", TAIL]),
    ("SELECT CASE WHEN id < 3000 THEN 1 ELSE 'a' END, COUNT(*), SUM(v) "
     "FROM t {w} GROUP BY CASE WHEN id < 3000 THEN 1 ELSE 'a' END", [""]),
    ("SELECT CASE WHEN id % 2 = 0 THEN k END, COUNT(*), MIN(id) FROM t {w} "
     "GROUP BY CASE WHEN id % 2 = 0 THEN k END", ["", TAIL]),
    ("SELECT CASE WHEN id < 5000 THEN b ELSE k % 2 END, COUNT(*) FROM t {w} "
     "GROUP BY CASE WHEN id < 5000 THEN b ELSE k % 2 END", [""]),
    ("SELECT COUNT(*), COUNT(mi), SUM(v), AVG(v), MIN(mi), MAX(mf), MIN(name) "
     "FROM t {w}", ["", EVERY, MOST, TAIL, NONE]),
    ("SELECT k, SUM(v) FROM t {w} GROUP BY k HAVING COUNT(*) > 200",
     ["", MOST]),
    ("SELECT name, SUM(v) FROM t {w} GROUP BY name ORDER BY SUM(v) DESC",
     ["", TAIL]),
]

_JOINED = [
    ("SELECT t.id, du.w, du.label FROM t JOIN du ON t.k = du.k WHERE t.id >= 9216",
     [""]),
    ("SELECT t.id, t.name, dp.label FROM t JOIN dp ON t.k = dp.k "
     "WHERE t.id >= 9216", [""]),
    ("SELECT t.id, dp.label, dp.w FROM t LEFT JOIN dp ON t.k = dp.k "
     "WHERE t.id >= 9216", [""]),
    ("SELECT t.id, du.label FROM t LEFT JOIN du ON t.k = du.k "
     "WHERE t.id >= 9216", [""]),
    ("SELECT t.id, dd.tag FROM t JOIN dd ON t.k = dd.k WHERE t.id >= 9216",
     [""]),
    ("SELECT t.id, dd.tag FROM t LEFT JOIN dd ON t.mi = dd.k WHERE t.id >= 9216",
     [""]),
    ("SELECT t.id, t.mi, dn.w FROM t JOIN dn ON t.mi = dn.k WHERE t.id >= 9216",
     [""]),
    ("SELECT t.id, dn.w FROM t LEFT JOIN dn ON t.mi = dn.k WHERE t.id >= 9216",
     [""]),
    ("SELECT t.id, ds.x FROM t JOIN ds ON t.name = ds.name WHERE t.id >= 9216",
     [""]),
    ("SELECT t.id, du.w FROM t JOIN du ON t.k = du.k AND t.k = du.k2 "
     "WHERE t.id >= 9216", [""]),
    ("SELECT du.label, COUNT(*), SUM(t.v * du.w) FROM t JOIN du ON t.k = du.k "
     "{w} GROUP BY du.label", ["", "WHERE t.id >= 0", "WHERE t.v > 0.1",
                               "WHERE t.id >= 2500", "WHERE t.id < 0",
                               "WHERE du.w > 1.0"]),
    ("SELECT dp.label, COUNT(*), SUM(t.v), AVG(dp.w) FROM t LEFT JOIN dp "
     "ON t.k = dp.k {w} GROUP BY dp.label", ["", "WHERE t.id >= 2500"]),
    ("SELECT dd.tag, COUNT(*), SUM(t.v * dd.w) FROM t JOIN dd ON t.k = dd.k "
     "{w} GROUP BY dd.tag", ["", "WHERE t.id >= 2500"]),
    ("SELECT dn.w, COUNT(*), SUM(t.v) FROM t LEFT JOIN dn ON t.mi = dn.k "
     "{w} GROUP BY dn.w", ["", "WHERE t.id >= 2500"]),
    ("SELECT COUNT(*), SUM(t.v), SUM(du.w), MIN(t.name) FROM t "
     "JOIN du ON t.k = du.k", [""]),
]

_MERGED = [
    ("SELECT id % 100000, COUNT(*), SUM(v), MIN(mi), MAX(mf), AVG(mi) "
     "FROM t {w} GROUP BY id % 100000", ["", TAIL]),
    ("SELECT k, COUNT(*), SUM(mi), AVG(v), MIN(mf), MAX(id) FROM t {w} "
     "GROUP BY k", ["WHERE k < 5 OR id < 2000", "WHERE k >= 45 OR id >= 8000"]),
    ("SELECT k, COUNT(mi), SUM(mi), AVG(mi), MIN(mi), MAX(mf) FROM t {w} "
     "GROUP BY k", ["WHERE mi IS NULL OR id >= 5000"]),
    ("SELECT c, COUNT(h), SUM(h), AVG(h), MIN(h), MAX(h) FROM g {w} GROUP BY c",
     ["", "WHERE id < 5000"]),
    ("SELECT c, COUNT(*), SUM(big), AVG(big), MIN(big), MAX(big) FROM g {w} "
     "GROUP BY c", ["", "WHERE id >= 2500"]),
    ("SELECT SUM(big), AVG(big), COUNT(big) FROM g {w}", ["", "WHERE id >= 5000"]),
    ("SELECT c, SUM(z), SUM(zn), MIN(z), MAX(zn), AVG(z) FROM g {w} GROUP BY c",
     [""]),
    ("SELECT SUM(z), SUM(zn), MIN(zn) FROM g {w}", [""]),
    ("SELECT c, MIN(n), MAX(n), SUM(n), AVG(n) FROM g {w} GROUP BY c",
     ["", "WHERE id >= 1000"]),
    ("SELECT MIN(n), MAX(n) FROM g {w}", [""]),
    ("SELECT k, MIN(name), MAX(name), COUNT(name) FROM t {w} GROUP BY k",
     ["", TAIL, "WHERE name IS NULL OR id >= 5000"]),
    ("SELECT b, MIN(name), MAX(name) FROM t {w} GROUP BY b", ["", SOME]),
    ("SELECT k, SUM(b), AVG(b), MIN(b), MAX(b) FROM t {w} GROUP BY k", [""]),
    ("SELECT k, SUM(v) / COUNT(*), SUM(mi) * 2, AVG(v) + 1, SUM(mi) % 7, "
     "-MIN(mi), MAX(mf) - MIN(mf) FROM t {w} GROUP BY k", ["", TAIL]),
    ("SELECT k, COUNT(*), SUM(mi), MIN(name) FROM t {w} GROUP BY k "
     "HAVING SUM(mi) > 0 AND COUNT(*) > 190", ["", TAIL]),
    ("SELECT mi, AVG(v) FROM t {w} GROUP BY mi "
     "HAVING MAX(mf) > 2.0 OR MIN(mf) IS NULL", ["", SOME]),
    ("SELECT name, SUM(v) FROM t {w} GROUP BY name HAVING MIN(name) < 'n10'",
     [""]),
    ("SELECT COUNT(*), SUM(v) FROM t {w} HAVING COUNT(*) > 0", ["", NONE]),
]

_FILTERED = [
    "SELECT id, v FROM t WHERE id >= 9216",
    "SELECT name, mi, mf, b FROM t WHERE id >= 9500",
    "SELECT COUNT(*), SUM(v) FROM t WHERE id >= 0",
    "SELECT id, name FROM t WHERE id >= 9990 AND v >= 0",
]


#: several keys: GROUP BY over two and three columns (NULLs in one key or
#: both, -0.0 and NaN doubles, a wide key, a key whose type differs between
#: morsels), DISTINCT over two and three columns, and two- and three-pair
#: INNER / LEFT joins against duplicated build keys holding NULLs, one of
#: them pairing DOUBLE keys beside INTEGER ones
_MULTI = [
    ("SELECT k, name, b, COUNT(*), SUM(v), MIN(mi) FROM t {w} "
     "GROUP BY k, name, b", ["", TAIL]),
    ("SELECT k % 10, name, COUNT(*), SUM(v) FROM t {w} GROUP BY k % 10, name",
     ["", SOME]),
    ("SELECT k, mi, COUNT(*), SUM(v), MAX(mf) FROM t {w} GROUP BY k, mi", [""]),
    ("SELECT mi, name, COUNT(*), AVG(v) FROM t {w} GROUP BY mi, name",
     ["", TAIL]),
    ("SELECT mf, k % 3, COUNT(*), SUM(v) FROM t {w} GROUP BY mf, k % 3",
     ["", TAIL]),
    ("SELECT b, mf, name, COUNT(*) FROM t {w} GROUP BY b, mf, name", [""]),
    ("SELECT wk, k % 4, COUNT(*), MIN(id) FROM t {w} GROUP BY wk, k % 4", [""]),
    ("SELECT c, n, COUNT(*), SUM(id) FROM g {w} GROUP BY c, n",
     ["", "WHERE id >= 1000"]),
    ("SELECT CASE WHEN id < 2048 THEN k ELSE k * 1.0 END, name, COUNT(*), "
     "SUM(v) FROM t {w} GROUP BY CASE WHEN id < 2048 THEN k ELSE k * 1.0 END, "
     "name", [""]),
    ("SELECT k, name, SUM(v) FROM t {w} GROUP BY k, name HAVING COUNT(*) > 5",
     [""]),
    ("SELECT DISTINCT k, name FROM t {w}", ["", TAIL]),
    ("SELECT DISTINCT b, mi, name FROM t {w}", [""]),
    ("SELECT DISTINCT mf, b FROM t {w}", [""]),
    ("SELECT DISTINCT k % 5, mf, name FROM t {w}", [TAIL]),
    ("SELECT DISTINCT c, n FROM g {w}", [""]),
    ("SELECT t.id, dk.tag FROM t JOIN dk ON t.k = dk.k AND t.name = dk.name "
     "WHERE t.id >= 9216", [""]),
    ("SELECT t.id, dk.tag, dk.f FROM t LEFT JOIN dk "
     "ON t.k = dk.k AND t.name = dk.name WHERE t.id >= 9216", [""]),
    ("SELECT t.id, dk.tag FROM t JOIN dk ON t.mf = dk.f AND t.k = dk.k "
     "WHERE t.id >= 9216", [""]),
    ("SELECT t.id, t.mi, dk.tag FROM t LEFT JOIN dk "
     "ON t.mi = dk.f AND t.k = dk.k WHERE t.id >= 9216", [""]),
    ("SELECT t.id, dk.tag FROM t LEFT JOIN dk "
     "ON t.k = dk.k AND t.mf = dk.f AND t.name = dk.name WHERE t.id >= 9216",
     [""]),
    ("SELECT dk.tag, COUNT(*), SUM(t.v) FROM t JOIN dk "
     "ON t.k = dk.k AND t.name = dk.name {w} GROUP BY dk.tag",
     ["", "WHERE t.id >= 2500"]),
]


def statements() -> list[str]:
    out = []
    for template, wheres in _GROUPED + _JOINED + _MERGED:
        for where in wheres:
            out.append(" ".join(template.format(w=where).split()))
    multi = [" ".join(template.format(w=where).split())
             for template, wheres in _MULTI for where in wheres]
    return out + _FILTERED + multi


#: aggregates whose answer cannot depend on the order values are combined
#: in (SUM only where its column is an integer one)
_ORDER_FREE = {"COUNT", "MIN", "MAX"}


def _order_free_columns(sql: str, columns: list) -> list[int]:
    """Positions of the result columns every morsel size must answer alike:
    items holding no aggregate (group keys, joined values), COUNT, MIN, MAX
    and an integer SUM.  Float SUM / AVG and arithmetic over aggregates may
    fold in another order and are left out."""
    from repro.sqldb import ast_nodes as ast
    from repro.sqldb.expressions import expression_contains_aggregate
    from repro.sqldb.parser import parse_statement

    positions = []
    for position, (item, (_, sql_type)) in enumerate(
            zip(parse_statement(sql).items, columns)):
        expression = item.expression
        if not expression_contains_aggregate(expression):
            positions.append(position)
        elif isinstance(expression, ast.FunctionCall):
            name = expression.name.upper()
            if name in _ORDER_FREE or (
                    name == "SUM" and sql_type in ("INTEGER", "BIGINT")):
                positions.append(position)
    return positions


def _sql_value(value: str) -> str:
    """A recorded value as SQL compares it: ``-0.0`` is ``0.0`` (which sign
    a MIN / MAX over both shows is a tie-break, and morsels break it)."""
    return "f0x0.0p+0" if value == "f-0x0.0p+0" else value


def invariance_report(entries: list[dict] | None = None) -> list[str]:
    """The statements whose order-free columns (see
    :func:`_order_free_columns`) differ between ``MORSEL_ROWS`` sizes in
    ``entries`` (by default the recorded file), values compared as SQL
    compares them and rows as sorted multisets: what a morsel size changes
    that it must not."""
    if entries is None:
        entries = [json.loads(line) for line in
                   GOLDEN.read_text(encoding="utf-8").splitlines()]
    answers: dict[str, list[dict]] = {}
    for entry in entries:
        answers.setdefault(entry["sql"], []).append(entry["expect"])
    report = []
    for sql, expects in answers.items():
        positions = _order_free_columns(sql, expects[0]["columns"])
        seen = {(json.dumps([expect["columns"][at] for at in positions]),
                 json.dumps(sorted([_sql_value(row[at]) for at in positions]
                                   for row in expect["rows"])))
                for expect in expects}
        if len(seen) > 1:
            report.append(sql)
    return report


def database(morsel_rows: int):
    """The generated tables in a fresh in-memory database."""
    from repro.sqldb import Database

    db = Database(morsel_rows=morsel_rows)
    for table, (create, rows) in _tables().items():
        db.execute(create)
        db.storage.table(table).insert_rows(rows)
    return db


def main() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    count = 0
    with GOLDEN.open("w", encoding="utf-8") as out:
        for morsel_rows in MORSEL_ROWS:
            db = database(morsel_rows)
            for sql in statements():
                out.write(json.dumps({"morsel_rows": morsel_rows, "sql": sql,
                                      "expect": answer(db, sql)}) + "\n")
                count += 1
            db.close()
    print(f"{count} entries -> {GOLDEN}")


if __name__ == "__main__":
    main()
