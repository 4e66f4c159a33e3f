"""Focused unit tests for the expression evaluator internals."""

import pytest

from repro.errors import ExecutionError
from repro.sqldb.database import Database
from repro.sqldb.expressions import (
    Batch,
    BatchColumn,
    EvalResult,
    ExpressionEvaluator,
    default_output_name,
    expression_contains_aggregate,
)
from repro.sqldb.parser import Parser
from repro.sqldb.types import SQLType


def parse_expression(text: str):
    return Parser(text).parse_expression()


@pytest.fixture()
def batch() -> Batch:
    return Batch([
        BatchColumn("t", "i", SQLType.INTEGER, [1, 2, 3, 4]),
        BatchColumn("t", "x", SQLType.DOUBLE, [1.0, None, 3.0, 4.0]),
        BatchColumn("t", "s", SQLType.STRING, ["a", "b", "a", None]),
    ])


@pytest.fixture()
def evaluator(batch) -> ExpressionEvaluator:
    return ExpressionEvaluator(Database(), batch)


class TestBatch:
    def test_resolve_by_name_and_table(self, batch):
        assert batch.resolve("i").values == [1, 2, 3, 4]
        assert batch.resolve("i", "t").values == [1, 2, 3, 4]

    def test_resolve_unknown_column(self, batch):
        with pytest.raises(ExecutionError):
            batch.resolve("missing")

    def test_resolve_ambiguous_column(self):
        ambiguous = Batch([
            BatchColumn("a", "id", SQLType.INTEGER, [1]),
            BatchColumn("b", "id", SQLType.INTEGER, [2]),
        ])
        with pytest.raises(ExecutionError):
            ambiguous.resolve("id")
        assert ambiguous.resolve("id", "b").values == [2]

    def test_filter_and_take(self, batch):
        filtered, selection = batch.filter([True, False, True, False])
        assert filtered.row_count == 2 and selection == "gather"
        taken = batch.take([3, 0])
        assert taken.resolve("i").values == [4, 1]

    def test_columns_for_alias(self, batch):
        assert len(batch.columns_for("t")) == 3
        with pytest.raises(ExecutionError):
            batch.columns_for("other")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ExecutionError):
            Batch([
                BatchColumn(None, "a", SQLType.INTEGER, [1, 2]),
                BatchColumn(None, "b", SQLType.INTEGER, [1]),
            ])

    def test_empty_batch_has_one_row(self):
        assert Batch.empty().row_count == 1


class TestEvaluation:
    def test_literal_is_constant(self, evaluator):
        result = evaluator.evaluate(parse_expression("42"))
        assert result.values == [42]
        assert result.constant

    def test_column_ref(self, evaluator):
        result = evaluator.evaluate(parse_expression("i"))
        assert result.values == [1, 2, 3, 4]
        assert not result.constant

    def test_arithmetic_broadcast(self, evaluator):
        result = evaluator.evaluate(parse_expression("i * 10 + 1"))
        assert result.values == [11, 21, 31, 41]

    def test_null_propagation(self, evaluator):
        result = evaluator.evaluate(parse_expression("x + 1"))
        assert result.values[1] is None

    def test_comparison_and_logic(self, evaluator):
        result = evaluator.evaluate(parse_expression("i > 1 AND i < 4"))
        assert result.values == [False, True, True, False]

    def test_three_valued_logic_with_null(self, evaluator):
        result = evaluator.evaluate(parse_expression("x > 0 OR i > 100"))
        # row with NULL x: NULL OR False -> NULL
        assert result.values[1] is None

    def test_evaluate_mask_treats_null_as_false(self, evaluator):
        mask = evaluator.evaluate_mask(parse_expression("x > 0"))
        assert mask == [True, False, True, True]

    def test_string_concat(self, evaluator):
        result = evaluator.evaluate(parse_expression("s || '!'"))
        assert result.values[0] == "a!"
        assert result.values[3] is None

    def test_in_list_with_null_operand(self, evaluator):
        result = evaluator.evaluate(parse_expression("s IN ('a', 'z')"))
        assert result.values == [True, False, True, None]

    def test_case_expression(self, evaluator):
        result = evaluator.evaluate(parse_expression(
            "CASE WHEN i > 2 THEN 'big' WHEN i > 1 THEN 'mid' ELSE 'small' END"))
        assert result.values == ["small", "mid", "big", "big"]

    def test_between(self, evaluator):
        result = evaluator.evaluate(parse_expression("i BETWEEN 2 AND 3"))
        assert result.values == [False, True, True, False]

    def test_builtin_function(self, evaluator):
        result = evaluator.evaluate(parse_expression("ABS(1 - i)"))
        assert result.values == [0, 1, 2, 3]

    def test_coalesce_null_tolerant(self, evaluator):
        result = evaluator.evaluate(parse_expression("COALESCE(x, 0 - 1)"))
        assert result.values == [1.0, -1, 3.0, 4.0]

    def test_aggregate_rejected_outside_aggregate_context(self, evaluator):
        with pytest.raises(ExecutionError):
            evaluator.evaluate(parse_expression("SUM(i)"))

    def test_aggregate_allowed_in_aggregate_context(self, batch):
        agg_eval = ExpressionEvaluator(Database(), batch, allow_aggregates=True)
        assert agg_eval.evaluate(parse_expression("SUM(i)")).values == [10]

    def test_unknown_function(self, evaluator):
        with pytest.raises(ExecutionError):
            evaluator.evaluate(parse_expression("frobnicate(i)"))


class TestValueErrorsAreExecutionErrors:
    """A per-value ``TypeError`` / ``ValueError`` is never a raw exception:
    the per-row driver turns it into an ``ExecutionError`` for every node."""

    @pytest.fixture()
    def db(self) -> Database:
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, s STRING)")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL)")
        return db

    @pytest.mark.parametrize("sql", [
        "SELECT -s FROM t",
        "SELECT s BETWEEN 1 AND 2 FROM t",
        "SELECT a BETWEEN 'a' AND 'b' FROM t",
        "SELECT EXP(a * 1000) FROM t",
    ])
    def test_embedded(self, db, sql):
        with pytest.raises(ExecutionError, match="invalid operands|error in"):
            db.execute(sql)

    def test_list_tier(self, evaluator):
        for text in ("-s", "s BETWEEN 1 AND 2", "i BETWEEN 'a' AND 'b'"):
            with pytest.raises(ExecutionError, match="invalid operands"):
                evaluator.evaluate(parse_expression(text))


class TestEvalResult:
    def test_broadcast(self):
        assert EvalResult([1], constant=True).broadcast(3) == [1, 1, 1]
        assert EvalResult([1, 2]).broadcast(2) == [1, 2]
        with pytest.raises(ExecutionError):
            EvalResult([1, 2]).broadcast(3)


class TestHelpers:
    def test_expression_contains_aggregate(self):
        assert expression_contains_aggregate(parse_expression("SUM(i) + 1"))
        assert expression_contains_aggregate(parse_expression("COUNT(*)"))
        assert not expression_contains_aggregate(parse_expression("i + 1"))
        assert expression_contains_aggregate(
            parse_expression("CASE WHEN MAX(i) > 1 THEN 1 ELSE 0 END"))

    def test_default_output_name(self):
        assert default_output_name(parse_expression("foo"), 0) == "foo"
        assert default_output_name(parse_expression("SUM(i)"), 0) == "sum"
        assert default_output_name(parse_expression("1 + 2"), 3) == "col3"
