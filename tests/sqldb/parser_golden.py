"""The corpus and the recorder behind ``data/parser_golden.jsonl``.

Run as a script on the commit whose front end is the reference::

    PYTHONPATH=src python tests/sqldb/parser_golden.py

and every input below is written out with what ``repro.sqldb.parser`` made of
it there.  ``test_parser_golden.py`` replays the file against the current
front end; it never regenerates the corpus, so a different ``hypothesis``
version cannot change what is compared.

Three kinds of entry:

``stmt``    ``parse_statement(sql)`` -> ``repr(ast)``
``script``  ``Parser(sql).parse_script()`` -> ``[[repr(ast), source text], ...]``
``expr``    ``Parser(sql).parse_expression()`` -> ``[repr(ast), type, value,
            position]`` of the first token the expression left unconsumed, so
            how far an expression reaches is pinned as well as its tree

and an exception is ``[type name, message, position]`` in place of the result.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "data" / "parser_golden.jsonl"


def outcome(kind: str, sql: str):
    """What the front end under test makes of one corpus entry."""
    from repro.sqldb.parser import Parser, parse_statement

    try:
        if kind == "stmt":
            return repr(parse_statement(sql))
        if kind == "script":
            return [[repr(statement), text]
                    for statement, text in Parser(sql).parse_script()]
        parser = Parser(sql)
        expression = parser.parse_expression()
        following = parser.peek()
        return [repr(expression), following.type.name, following.value,
                following.position]
    except Exception as exc:  # recorded, whatever it is: the reference had bugs
        return [type(exc).__name__, str(exc), getattr(exc, "position", None)]


# --------------------------------------------------------------------------- #
# fixed inputs
# --------------------------------------------------------------------------- #
def _test_suite_statements():
    sys.path.insert(0, str(HERE))
    import test_config_invariance as invariance
    import test_sqlite_oracle as oracle

    for index, (sql, _) in enumerate(oracle.STATEMENTS):
        yield f"oracle/q{index:02d}", "stmt", sql
    for index, (template, args) in enumerate(invariance.STATEMENTS):
        yield f"invariance/template{index:02d}", "stmt", template
        yield (f"invariance/literal{index:02d}", "stmt",
               invariance._literal(template, args))
        yield (f"invariance/prepare{index:02d}", "stmt",
               f"PREPARE q{index} AS {template}")
        yield (f"invariance/execute{index:02d}", "stmt",
               f"EXECUTE q{index} {invariance._argument_list(args)}")


def _benchmark_statements():
    """The statement shapes of ``benchmarks/e2e`` (imported, not edited)."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    import wl_devudf
    import wl_durable
    import wl_sql_serve

    rng = np.random.default_rng(24)
    cycle = wl_durable.DurableCycle()
    cycle.next_id, cycle.batch = 24_000, 200
    yield "durable_cycle/q", "stmt", wl_durable.Q
    yield ("durable_cycle/insert", "stmt",
           cycle._insert_sql(cycle._batch_rows(rng)))
    yield ("durable_cycle/create", "stmt",
           "CREATE TABLE ev (id INTEGER, k INTEGER, v DOUBLE, name STRING)")
    yield ("durable_cycle/update", "stmt",
           "UPDATE ev SET v = v + 1.0 WHERE id >= 24190")
    yield "durable_cycle/delete", "stmt", "DELETE FROM ev WHERE id < 800"
    yield "durable_cycle/checkpoint", "stmt", "CHECKPOINT"

    serve = wl_sql_serve.SqlServe()
    serve.rows, serve.filter_span, serve.fetch_span = 200_000, 2_000, 50_000
    literals = {"serial": 199_317, "point": 4_711, "filter": 1_234,
                "fetch": 77_001}
    for name, sql in serve._statements(literals).items():
        yield f"sql_serve/{name}", "stmt", sql
    yield "sql_serve/vec_dev", "stmt", wl_sql_serve.VEC_DEV_SQL
    yield "sql_serve/roundtrip", "stmt", "SELECT 1"

    yield "devudf/debug_query", "stmt", wl_devudf.DEBUG_QUERY
    yield "devudf/create_table", "stmt", "CREATE TABLE numbers (i INTEGER)"


def _devudf_loop_statements():
    """Every statement one devUDF press sends (import, extract with each
    transfer setting, export, confirm), caught where the server parses it."""
    import tempfile

    from repro.core.plugin import DevUDFPlugin
    from repro.core.project import DevUDFProject
    from repro.core.settings import DataTransferSettings, DevUDFSettings
    from repro.netproto.server import DatabaseServer
    from repro.sqldb import parser as parser_module
    from repro.sqldb.database import Database
    from repro.workloads.udf_corpus import mean_deviation_create_sql

    seen: list[str] = []
    original = parser_module.Parser.__init__

    def recording_init(self, text):
        seen.append(text)
        original(self, text)

    database = Database(name="demo")
    database.execute("CREATE TABLE numbers (i INTEGER)")
    database.storage.table("numbers").column("i").extend(range(600))
    database.execute(mean_deviation_create_sql())
    server = DatabaseServer(database)
    parser_module.Parser.__init__ = recording_init
    try:
        for transfer in ({"use_compression": True, "use_encryption": True},
                         {"use_sampling": True, "sample_size": 400}):
            with tempfile.TemporaryDirectory() as directory:
                settings = DevUDFSettings(
                    debug_query="SELECT mean_deviation(i) FROM numbers",
                    transfer=DataTransferSettings(**transfer))
                plugin = DevUDFPlugin(DevUDFProject(Path(directory) / "p"),
                                      settings, server=server)
                try:
                    plugin.import_udfs(["mean_deviation"])
                    plugin.prepare_debug("mean_deviation")
                    plugin.export_udfs(["mean_deviation"])
                    plugin.execute_sql(settings.debug_query)
                finally:
                    plugin.close()
    finally:
        parser_module.Parser.__init__ = original
        database.close()
    for index, sql in enumerate(dict.fromkeys(seen)):
        yield f"devudf/loop{index:02d}", "stmt", sql


def _udf_corpus_statements():
    from repro.workloads import udf_corpus

    creates = {
        "mean_deviation": udf_corpus.mean_deviation_create_sql(),
        "mean_deviation_fixed": udf_corpus.mean_deviation_create_sql(
            udf_corpus.MEAN_DEVIATION_FIXED_BODY, or_replace=True),
        "load_numbers": udf_corpus.load_numbers_create_sql(),
        "train_rnforest": udf_corpus.train_rnforest_create_sql(),
        "find_best_classifier": udf_corpus.find_best_classifier_create_sql(
            or_replace=True),
    }
    for round_index in range(3):
        creates[f"mean_deviation_round{round_index}"] = (
            udf_corpus.mean_deviation_create_sql(
                udf_corpus.mean_deviation_instrumented_body(round_index),
                or_replace=True))
    for name, sql in creates.items():
        yield f"udf_corpus/{name}", "stmt", sql
    yield ("udf_corpus/script", "script",
           "\n".join(creates.values()) + "\nSELECT mean_deviation(i) FROM numbers;")


#: bodies no SQL tokenizer could get through: quotes, braces, ``#`` and ``@``
_HOSTILE_BODIES = {
    "apostrophe_in_double_quotes": "\n    s = \"it's\"\n    return len(s)\n",
    "braces_and_hash": ("\n    d = {'a': {1: '}'}}  # } not the end {\n"
                        "    return len(d)\n"),
    "decorator": ("\n    import functools\n    @functools.lru_cache(None)\n"
                  "    def f(n): return n if n < 2 else f(n - 1) + f(n - 2)\n"
                  "    return f(x)\n"),
    "sql_comment_lookalikes": "\n    y = x -- 1\n    return y /* 2 */ + 1\n",
    "triple_quoted": "\n    doc = '''{ ' \" }'''\n    return 1\n",
}

_FIXED = [
    # precedence and associativity
    ("expr/left_nested_comparison", "expr", "a = b = c"),
    ("expr/unary_minus_binds_tighter", "expr", "-a * b"),
    ("expr/double_unary", "expr", "- - a + + b"),
    ("expr/not_over_comparison", "expr", "NOT a = b AND c"),
    ("expr/not_not", "expr", "NOT NOT a"),
    ("expr/not_after_plus", "expr", "1 + NOT 2"),
    ("expr/not_after_comparison", "expr", "a = NOT b"),
    ("expr/between_binds_and", "expr", "a BETWEEN 1 AND 2 AND c"),
    ("expr/between_additive_operands", "expr", "a BETWEEN 1 + 2 AND 3 * 4 OR b"),
    ("expr/between_missing_upper", "expr", "a BETWEEN 1 AND"),
    ("expr/between_missing_and", "expr", "a BETWEEN 1 OR 2"),
    ("expr/not_in_chain", "expr", "a NOT IN (1, 2) IS NOT NULL = TRUE"),
    ("expr/not_without_postfix", "expr", "a NOT b"),
    ("expr/like_concat", "expr", "a LIKE 'x' || '%' AND b NOT LIKE c"),
    ("expr/is_null_chain", "expr", "a IS NULL IS NOT NULL"),
    ("expr/is_missing_null", "expr", "a IS NOT 1"),
    ("expr/in_subquery", "expr", "a IN (SELECT k FROM d) OR EXISTS (SELECT 1)"),
    ("expr/in_empty", "expr", "a IN ()"),
    ("expr/concat_is_additive", "expr", "a || b + c * d || e"),
    ("expr/modulo", "expr", "a % b / c * d"),
    ("expr/bang_equals", "expr", "a != b <> c"),
    ("expr/comment_minus", "expr", "1--2\n+3"),
    ("expr/block_comment_everywhere", "expr", "/*a*/1/*b*/+/*c*/2/*d*/"),
    ("expr/divide_then_star", "expr", "1 / * 2"),
    ("expr/quoted", "expr", "\"quoted\" || 'it''s' || \"say \"\"hi\"\"\""),
    ("expr/empty_strings", "expr", "'' || \"\" || ''''"),
    ("expr/numbers", "expr", "5. + .5 + 1e3 + 3.5e-2 + 1.e2 + 007 + 1E+2"),
    ("expr/number_dot_star", "expr", "t.* + 1"),
    ("expr/parameter", "expr", "? + ? * ?"),
    ("expr/case", "expr",
     "CASE WHEN a > 1 THEN 'x' WHEN b THEN NULL ELSE -1 END + 1"),
    ("expr/cast", "expr", "CAST(a + 1 AS DOUBLE) * CAST('1' AS INTEGER)"),
    ("expr/function_calls", "expr",
     "COUNT(*) + COUNT(DISTINCT a) + sys.f(1, b) + g()"),
    ("expr/keyword_column", "expr", "language = 'PYTHON' AND t.table = 1"),
    ("expr/reserved_word", "expr", "a + select"),
    ("expr/unbalanced_open", "expr", "(a + (b * c)"),
    ("expr/unbalanced_close", "expr", "(a + b)) * c"),
    ("expr/empty", "expr", ""),
    ("expr/only_comment", "expr", "-- nothing\n"),
    ("expr/unterminated_string", "expr", "a = 'oops"),
    ("expr/unterminated_comment", "expr", "a + /* oops"),
    ("expr/unexpected_character", "expr", "a + @b"),
    ("expr/lone_bang", "expr", "a ! b"),
    ("expr/lone_pipe", "expr", "a | b"),
    ("expr/brace", "expr", "a + { b }"),
    # a lexical error behind a syntax error is never reached
    ("stmt/syntax_error_before_bad_character", "stmt", "SELEC @"),
    ("stmt/syntax_error_before_open_string", "stmt", "SELECT FROM 'oops"),
    # statements
    ("stmt/semicolons", "stmt", "SELECT 1;;"),
    ("stmt/empty", "stmt", ""),
    ("stmt/only_semicolon", "stmt", ";"),
    ("stmt/explain_analyze", "stmt", "EXPLAIN ANALYZE SELECT a FROM t"),
    ("stmt/show_stats", "stmt", "SHOW STATS"),
    ("stmt/verify", "stmt", "verify"),
    ("stmt/backup", "stmt", "BACKUP TO '/tmp/x.db'"),
    ("stmt/copy", "stmt",
     "COPY INTO numbers FROM '/tmp/a.csv' DELIMITERS ';' HEADER"),
    ("stmt/insert_columns", "stmt",
     "INSERT INTO t (a, b) VALUES (1, 'x'), (-2, NULL), (1 + 2, TRUE)"),
    ("stmt/insert_select", "stmt", "INSERT INTO t SELECT a, b FROM u"),
    ("stmt/create_as", "stmt",
     "CREATE TABLE IF NOT EXISTS s.t AS SELECT a FROM u"),
    ("stmt/create_not_null", "stmt",
     "CREATE TABLE t (a INTEGER NOT NULL, b STRING NULL)"),
    ("stmt/drop", "stmt", "DROP TABLE IF EXISTS t"),
    ("stmt/drop_function", "stmt", "DROP FUNCTION f"),
    ("stmt/deallocate_all", "stmt", "DEALLOCATE ALL"),
    ("stmt/prepare_prepare", "stmt", "PREPARE p AS PREPARE q AS SELECT 1"),
    ("stmt/table_function", "stmt",
     "SELECT * FROM train((SELECT a, b FROM t), 3) AS m, u"),
    ("stmt/joins", "stmt",
     "SELECT * FROM a INNER JOIN b ON a.k = b.k LEFT OUTER JOIN c "
     "ON b.k = c.k CROSS JOIN d, (SELECT 1) e"),
    ("stmt/returns_table", "stmt",
     "CREATE FUNCTION f(a INTEGER, b STRING) RETURNS TABLE (x DOUBLE, y STRING) "
     "LANGUAGE PYTHON { return {'x': [1.0], 'y': ['a']} }"),
    ("stmt/function_without_body", "stmt",
     "CREATE FUNCTION f(a INTEGER) RETURNS DOUBLE LANGUAGE PYTHON"),
    ("stmt/function_unterminated_body", "stmt",
     "CREATE FUNCTION f(a INTEGER) RETURNS DOUBLE LANGUAGE PYTHON { return 1"),
    ("script/mixed", "script",
     "CREATE TABLE t (a INTEGER);; INSERT INTO t VALUES (1);\n"
     "-- a comment\nSELECT a FROM t ; "),
    ("script/error_in_second", "script", "SELECT 1; SELEC 2"),
    # the three fixes: what the reference did with them is recorded as it was
    ("fix/malformed_number/1e", "stmt", "SELECT 1e"),
    ("fix/malformed_number/1e+", "stmt", "SELECT 1e+"),
    ("fix/malformed_number/1.2.3", "stmt", "SELECT 1.2.3"),
    ("fix/malformed_number/1..2", "stmt", "SELECT 1..2"),
    ("fix/malformed_number/1ea", "stmt", "SELECT 1ea"),
    ("fix/malformed_number/in_values", "stmt", "INSERT INTO t VALUES (1, 2e-)"),
    ("fix/trailing/missing_comma", "stmt", "INSERT INTO t VALUES (1,2) (3,4)"),
    ("fix/trailing/two_strings", "stmt", "SELECT 'a' 'b'"),
    ("fix/trailing/number_after_where", "stmt",
     "SELECT 1 FROM t WHERE a = 1 2"),
    ("fix/trailing/second_statement", "stmt", "SELECT 1; SELECT 2"),
    ("fix/trailing/close_paren", "stmt", "SELECT (a + b)) FROM t"),
]


def _hostile_bodies():
    for name, body in _HOSTILE_BODIES.items():
        create = (f"CREATE OR REPLACE FUNCTION h_{name}(x INTEGER) "
                  f"RETURNS INTEGER LANGUAGE PYTHON {{{body}}}")
        yield f"hostile_body/{name}", "stmt", create + ";"
        yield (f"hostile_body/{name}_in_script", "script",
               f"SELECT 0;\n{create};\nSELECT h_{name}(i) FROM numbers")


# --------------------------------------------------------------------------- #
# generated expressions
# --------------------------------------------------------------------------- #
_GENERATED = 2_400
_GAPS = [" ", " ", " ", "", "", "  ", "\n", "\t", " -- note\n",
         " /* note */ ", "/**/", " --\n"]
_WORD = re.compile(r"\w")


def _generated_expressions():
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    leaves = st.sampled_from([
        "a", "b", "t.a", "language", "x1", "_u", "1", "42", "2.5", "5.", ".5",
        "1e3", "3.5e-2", "'s'", "'it''s'", "''", "\"quoted\"", "NULL", "TRUE",
        "FALSE", "?",
    ]).map(lambda leaf: [leaf])

    def binary(operators):
        return lambda children: st.tuples(
            children, st.sampled_from(operators), children).map(
                lambda parts: parts[0] + [parts[1]] + parts[2])

    def extend(children):
        return st.one_of(
            binary(["+", "-", "*", "/", "%", "||"])(children),
            binary(["=", "<>", "!=", "<", "<=", ">", ">="])(children),
            binary(["AND", "OR", "and", "Or"])(children),
            children.map(lambda c: ["NOT"] + c),
            children.map(lambda c: ["-"] + c),
            children.map(lambda c: ["+"] + c),
            children.map(lambda c: ["("] + c + [")"]),
            st.tuples(children, st.booleans()).map(
                lambda p: p[0] + ["IS"] + (["NOT"] if p[1] else []) + ["NULL"]),
            st.tuples(children, st.booleans(), st.lists(children, max_size=3)).map(
                lambda p: p[0] + (["NOT"] if p[1] else []) + ["IN", "("]
                + [token for index, item in enumerate(p[2])
                   for token in ([","] if index else []) + item] + [")"]),
            st.tuples(children, st.booleans(), children, children).map(
                lambda p: p[0] + (["NOT"] if p[1] else []) + ["BETWEEN"]
                + p[2] + ["AND"] + p[3]),
            st.tuples(children, st.booleans(), children).map(
                lambda p: p[0] + (["NOT"] if p[1] else []) + ["LIKE"] + p[2]),
            st.tuples(st.sampled_from(["f", "COUNT", "sys.g"]),
                      st.lists(children, max_size=2)).map(
                lambda p: [p[0], "("]
                + [token for index, item in enumerate(p[1])
                   for token in ([","] if index else []) + item] + [")"]),
            st.tuples(children, children, children).map(
                lambda p: ["CASE", "WHEN"] + p[0] + ["THEN"] + p[1]
                + ["ELSE"] + p[2] + ["END"]),
        )

    tokens = st.recursive(leaves, extend, max_leaves=8)

    @st.composite
    def damaged(draw):
        """A token list, most of the time with one defect put in."""
        sequence = list(draw(tokens))
        defect = draw(st.sampled_from(
            ["none", "none", "drop", "repeat", "insert", "truncate", "swap"]))
        at = draw(st.integers(0, len(sequence) - 1))
        if defect == "drop" and len(sequence) > 1:
            del sequence[at]
        elif defect == "repeat":
            sequence.insert(at, sequence[at])
        elif defect == "insert":
            sequence.insert(at, draw(st.sampled_from(
                ["NOT", "AND", "(", ")", ",", "BETWEEN", "IS", "-", "=",
                 "SELECT", ";", "IN", "LIKE", "||", "*"])))
        elif defect == "truncate":
            del sequence[at + 1:]
        elif defect == "swap" and at + 1 < len(sequence):
            sequence[at], sequence[at + 1] = sequence[at + 1], sequence[at]
        text = sequence[0]
        for token in sequence[1:]:
            gap = draw(st.sampled_from(_GAPS))
            # an operator or a bracket may touch its neighbour; two words or
            # numbers run together would be one different token
            if gap == "" and (text[-1] == "." or token[0] == "." or (
                    _WORD.match(text[-1]) and _WORD.match(token[0]))):
                gap = " "
            text += gap + token
        return text

    found: dict[str, None] = {}

    @settings(derandomize=True, max_examples=4 * _GENERATED, deadline=None,
              database=None, suppress_health_check=list(HealthCheck))
    @given(damaged())
    def collect(text):
        found.setdefault(text)

    collect()
    assert len(found) >= _GENERATED, len(found)
    for index, text in enumerate(list(found)[:_GENERATED]):
        yield f"generated/{index:04d}", "expr", text


def corpus():
    yield from _test_suite_statements()
    yield from _benchmark_statements()
    yield from _devudf_loop_statements()
    yield from _udf_corpus_statements()
    yield from _hostile_bodies()
    yield from _FIXED
    yield from _generated_expressions()


def main() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    seen: set[str] = set()
    with GOLDEN.open("w", encoding="utf-8") as out:
        for name, kind, sql in corpus():
            assert name not in seen, name
            seen.add(name)
            out.write(json.dumps({"id": name, "kind": kind, "sql": sql,
                                  "expect": outcome(kind, sql)}) + "\n")
    print(f"{len(seen)} entries -> {GOLDEN}")


if __name__ == "__main__":
    main()
