"""The statement front end: what it rejects, and how much work it does.

The work-counting guards are host-independent: they count calls under
``sys.setprofile`` and matches of the token pattern, never seconds.  A
character-at-a-time scanner costs more than twenty calls per token and a
parser that descends one frame per precedence level about as many again;
one pattern and one precedence loop stay under twelve.
"""

import gc
import sys

import pytest

from repro.errors import ParseError
from repro.sqldb import lexer as lexer_module
from repro.sqldb.database import Database
from repro.sqldb.lexer import Lexer, Token, TokenType
from repro.sqldb.parser import Parser, parse_statement


def insert_sql(rows: int) -> str:
    """The shape ``durable_cycle`` writes: (id, key, value, 'name') rows."""
    values = ", ".join(f"({24_000 + row}, {row % 20}, {float(row % 997)!r}, "
                       f"'e{row % 97:02d}')" for row in range(rows))
    return f"INSERT INTO ev VALUES {values}"


def calls_while(function) -> int:
    """Python-level and C-level calls made while ``function()`` runs."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    was_enabled = gc.isenabled()
    gc.disable()  # a collection would add its callbacks' calls (hypothesis has one)
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return calls - 1  # sys.setprofile(None) itself


class CountingPattern:
    """Stands in for the lexer's compiled pattern and records every match."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.spans: list[tuple[int, int]] = []

    def finditer(self, text, pos):
        for match in self.pattern.finditer(text, pos):
            self.spans.append(match.span())
            yield match


@pytest.fixture()
def counted_pattern(monkeypatch):
    counting = CountingPattern(lexer_module._TOKEN)
    monkeypatch.setattr(lexer_module, "_TOKEN", counting)
    return counting


# --------------------------------------------------------------------------- #
# work per token
# --------------------------------------------------------------------------- #
class TestWorkPerToken:
    SIZES = (50, 200, 800)

    def test_at_most_twelve_calls_per_token_at_every_size(self):
        calls = {}
        for rows in self.SIZES:
            sql = insert_sql(rows)
            tokens = len(Lexer(sql).tokens())
            assert tokens == 10 * rows + 4
            calls[rows] = calls_while(lambda: parse_statement(sql))
            assert calls[rows] / tokens <= 12, (rows, calls[rows] / tokens)
        # linear, no rescans: a row costs the same whichever statement it is
        # in — 600 more rows are 4 x 150 more rows, plus the one more
        # Lexer.scan() that 8,004 tokens take
        small, medium, large = (calls[rows] for rows in self.SIZES)
        assert (medium - small) % 150 == 0
        assert 0 <= (large - medium) - 4 * (medium - small) <= 12

    def test_the_pattern_is_matched_once_per_token(self, counted_pattern):
        for rows in self.SIZES:  # 800 rows is more than one Lexer.scan()
            sql = insert_sql(rows)
            del counted_pattern.spans[:]
            parse_statement(sql)
            assert len(counted_pattern.spans) == 10 * rows + 4  # EOF included

    def test_is_keyword_does_no_work_beyond_the_comparison(self):
        keyword, name, string = Lexer("between x 'IN'").tokens()[:3]
        assert keyword.is_keyword("IN", "BETWEEN", "LIKE")
        assert not keyword.is_keyword("IN")
        assert not name.is_keyword("X") and not string.is_keyword("IN")
        # the one call is is_keyword itself: no upper-casing, no set built
        assert calls_while(
            lambda: keyword.is_keyword("IN", "BETWEEN", "LIKE")) == 2
        assert Token.__slots__ == ("type", "value", "position", "keyword")
        assert not hasattr(keyword, "__dict__")

    def test_an_insert_literal_is_not_evaluated_as_a_one_row_result(self):
        database = Database()
        database.execute(
            "CREATE TABLE ev (id INTEGER, k INTEGER, v DOUBLE, name STRING)")
        sql = insert_sql(200)
        statement = parse_statement(sql)
        executor = database._executor
        per_literal = calls_while(
            lambda: executor.execute(statement)) / (4 * 200)
        assert per_literal < 6, per_literal  # 20 when each built an EvalResult
        assert database.execute("SELECT COUNT(*), MAX(name) FROM ev") \
            .fetchall() == [(200, "e96")]
        # anything that is not a literal still goes through the evaluator
        database.execute("INSERT INTO ev VALUES (1 + 1, -3, 2 * 0.25, 'a' || 'b')")
        assert database.execute("SELECT id, k, v, name FROM ev WHERE k < 0") \
            .fetchall() == [(2, -3, 0.5, "ab")]


# --------------------------------------------------------------------------- #
# a Python function body is never tokenised as SQL
# --------------------------------------------------------------------------- #
class TestFunctionBodies:
    BODIES = {
        "apostrophe_in_double_quotes":
            "\n    s = \"it's \\\"x\\\"\"\n    return len(s)\n",
        "decorator": ("\n    import functools\n    @functools.lru_cache(None)\n"
                      "    def f(n): return n if n < 2 else f(n - 1) + f(n - 2)\n"
                      "    return f(x)\n"),
        "braces_and_hash": ("\n    d = {'a': {1: '}'}}  # } not the end {\n"
                            "    return len(d)\n"),
    }

    @pytest.mark.parametrize("name", sorted(BODIES))
    def test_body_is_verbatim_and_never_matched(self, name, counted_pattern):
        body = self.BODIES[name]
        with pytest.raises(ParseError):
            Lexer(body).tokens()  # as SQL, the body does not even tokenise
        del counted_pattern.spans[:]
        create = (f"CREATE FUNCTION g(x INTEGER) RETURNS INTEGER "
                  f"LANGUAGE PYTHON {{{body}}}")
        following = "SELECT g(i)\nFROM numbers"
        script = f"{create};\n  {following} ;"
        (function, function_text), (select, select_text) = \
            Parser(script).parse_script()
        assert function.body == body
        assert function_text == create
        assert select_text == following
        assert select.from_clause.name == "numbers"
        body_start = script.index("{") + 1
        body_end = body_start + len(body)
        inside = [span for span in counted_pattern.spans
                  if span[0] < body_end and span[1] > body_start]
        assert inside == []

    def test_a_scan_stops_behind_every_opening_brace(self):
        lexer = Lexer("a { b { c")
        assert [[token.value for token in lexer.scan()] for _ in range(3)] == \
            [["a", "{"], ["b", "{"], ["c", ""]]

    def test_a_lexical_error_waits_for_the_parser_to_reach_it(self):
        lexer = Lexer("SELEC @")
        assert [token.value for token in lexer.scan()] == ["SELEC"]
        with pytest.raises(ParseError, match="unexpected character '@'"):
            lexer.scan()
        with pytest.raises(ParseError, match="unsupported statement") as raised:
            parse_statement("SELEC @")
        assert raised.value.position == 0


# --------------------------------------------------------------------------- #
# malformed numbers
# --------------------------------------------------------------------------- #
MALFORMED = ["1e", "1e+", "1.2.3", "1..2", "1ea", "2e-", ".5.", "7up"]


class TestMalformedNumbers:
    @pytest.mark.parametrize("text", MALFORMED)
    def test_lexer_reports_the_number_and_where_it_starts(self, text):
        with pytest.raises(ParseError) as raised:
            Lexer(f"  {text} ").tokens()
        assert str(raised.value) == f"malformed number {text!r}"
        assert raised.value.position == 2

    def test_well_formed_numbers_are_unchanged(self):
        texts = ["5.", ".5", "1e3", "3.5e-2", "1.e2", "1E+2", "007", "0"]
        tokens = Lexer(" ".join(texts)).tokens()[:-1]
        assert [token.value for token in tokens] == texts
        assert all(token.type is TokenType.NUMBER for token in tokens)
        row, = Database().execute("SELECT " + ", ".join(texts)).fetchall()
        assert row == (5.0, 0.5, 1000.0, 0.035, 100.0, 100.0, 7, 0)
        assert [type(value) for value in row] == [float] * 6 + [int] * 2

    def test_a_number_may_touch_an_operator_or_a_bracket(self):
        assert Database().execute("SELECT (5.)+.5*2, 1e3-1,2").fetchall() == \
            [(6.0, 999.0, 2)]

    @pytest.mark.parametrize("sql", [
        "SELECT 1e", "SELECT 1.2.3 + 1", "INSERT INTO t VALUES (1, 2e-)",
        "SELECT a FROM t WHERE a < 1ea",
    ])
    def test_database_raises_a_parse_error(self, sql):
        database = Database()
        database.execute("CREATE TABLE t (a INTEGER, b DOUBLE)")
        with pytest.raises(ParseError, match="malformed number") as raised:
            database.execute(sql)
        assert raised.value.position == sql.index(
            next(text for text in sorted(MALFORMED, key=len, reverse=True)
                 if text in sql))
        assert database.execute("SELECT COUNT(*) FROM t").scalar() == 0

    @pytest.mark.parametrize("sql", ["SELECT a FROM t LIMIT 1.5",
                                     "SELECT a FROM t LIMIT 1 OFFSET 1e3"])
    def test_limit_wants_an_integer(self, sql):
        with pytest.raises(ParseError, match="expected integer"):
            parse_statement(sql)


# --------------------------------------------------------------------------- #
# tokens behind a complete statement
# --------------------------------------------------------------------------- #
class TestTrailingTokens:
    def test_a_missing_comma_between_rows_loses_no_data_silently(self):
        database = Database()
        database.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        with pytest.raises(ParseError,
                           match=r"unexpected token '\(' after statement") as raised:
            database.execute("INSERT INTO t VALUES (1,2) (3,4)")
        assert raised.value.position == 27
        assert database.execute("SELECT COUNT(*) FROM t").scalar() == 0
        assert database.execute(
            "INSERT INTO t VALUES (1,2), (3,4);").affected_rows == 2

    @pytest.mark.parametrize("sql, token", [
        ("SELECT 'a' 'b'", "'b'"),
        ("SELECT 1 FROM t WHERE a = 1 2", "'2'"),
        ("SELECT 1; SELECT 2", "'SELECT'"),
        ("PREPARE p AS SELECT a FROM t WHERE a > ? 5", "'5'"),
        ("DROP TABLE t CASCADE", "'CASCADE'"),
        ("CHECKPOINT now", "'now'"),
    ])
    def test_leftover_tokens_are_an_error(self, sql, token):
        with pytest.raises(ParseError, match=f"unexpected token {token} "
                                             "after statement"):
            parse_statement(sql)

    def test_semicolons_and_comments_may_follow(self):
        assert parse_statement("SELECT 1 ;; -- done\n /* really */ ;")

    def test_a_script_is_still_a_list_of_statements(self):
        database = Database()
        results = database.execute_script(
            "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2);\n"
            "SELECT COUNT(*) FROM t")
        assert results[-1].scalar() == 2
