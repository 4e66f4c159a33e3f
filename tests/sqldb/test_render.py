"""Tests for AST -> SQL rendering (used by the extract-query rewriter)."""

import pytest

from repro.sqldb.database import Database
from repro.sqldb.parser import parse_statement
from repro.sqldb.render import render_expression, render_select


def roundtrip(sql: str) -> str:
    """Parse, render, and re-parse: the rendering must read back as the
    same statement, not merely as some valid SQL."""
    statement = parse_statement(sql)
    rendered = render_select(statement)
    assert parse_statement(rendered) == statement, rendered
    return rendered


class TestRenderSelect:
    @pytest.mark.parametrize("sql", [
        "SELECT i FROM numbers",
        "SELECT i AS value, s FROM t WHERE i > 2",
        "SELECT * FROM t",
        "SELECT COUNT(*), SUM(i) FROM t GROUP BY s HAVING COUNT(*) > 1",
        "SELECT i FROM t ORDER BY i DESC LIMIT 3 OFFSET 1",
        "SELECT DISTINCT s FROM t",
        "SELECT a.i FROM t a JOIN u b ON a.i = b.i",
        "SELECT a.i FROM t a LEFT JOIN u b ON a.i = b.i",
        "SELECT 1 FROM a, b",
        "SELECT x FROM (SELECT i AS x FROM t) sub",
        "SELECT * FROM loadNumbers('/data')",
        "SELECT * FROM train_rnforest((SELECT f0, f1 FROM trainingset), 5)",
        "SELECT CASE WHEN i > 0 THEN 'p' ELSE 'n' END FROM t",
        "SELECT CAST(i AS DOUBLE) FROM t",
        "SELECT i FROM t WHERE i IN (1, 2, 3) AND s LIKE 'a%' AND x IS NOT NULL",
        "SELECT i FROM t WHERE i BETWEEN 1 AND 5 OR NOT i = 3",
        "SELECT (SELECT MAX(i) FROM t) FROM u WHERE EXISTS (SELECT 1 FROM t)",
        "SELECT i FROM t WHERE i IN (SELECT i FROM u)",
        "SELECT mean_deviation(i) FROM numbers",
        "SELECT 1e999",
        "SELECT -1e999",
        "SELECT -0.0",
        "SELECT 123456789012345678901234567890",
    ])
    def test_roundtrips_through_parser(self, sql):
        roundtrip(sql)

    def test_rendered_text_mentions_clauses(self):
        rendered = roundtrip(
            "SELECT i FROM t WHERE i > 1 GROUP BY i HAVING COUNT(*) > 0 "
            "ORDER BY i LIMIT 2")
        for clause in ("SELECT", "FROM", "WHERE", "GROUP BY", "HAVING", "ORDER BY", "LIMIT"):
            assert clause in rendered


class TestRenderedSemantics:
    """Rendering must preserve meaning, not just parse."""

    @pytest.fixture()
    def db(self) -> Database:
        database = Database()
        database.execute("CREATE TABLE t (i INTEGER, s STRING)")
        database.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'a'), (4, NULL)")
        return database

    @pytest.mark.parametrize("sql", [
        "SELECT i FROM t WHERE i > 1 ORDER BY i",
        "SELECT s, COUNT(*) AS c FROM t GROUP BY s ORDER BY s",
        "SELECT i * 2 + 1 AS v FROM t ORDER BY v",
        "SELECT i FROM t WHERE s IS NULL OR s = 'a' ORDER BY i",
        "SELECT CASE WHEN i > 2 THEN 'hi' ELSE 'lo' END AS label, i FROM t ORDER BY i",
        "SELECT i FROM t WHERE i IN (1, 3) ORDER BY i",
    ])
    def test_same_result_after_rendering(self, db, sql):
        original = db.execute(sql).fetchall()
        rendered = render_select(parse_statement(sql))
        assert db.execute(rendered).fetchall() == original


class TestRenderExpressions:
    def test_string_literals_are_escaped(self):
        statement = parse_statement("SELECT 'it''s'")
        assert render_expression(statement.items[0].expression) == "'it''s'"

    def test_null_and_booleans(self):
        statement = parse_statement("SELECT NULL, TRUE, FALSE")
        rendered = [render_expression(item.expression) for item in statement.items]
        assert rendered == ["NULL", "TRUE", "FALSE"]
