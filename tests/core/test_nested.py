"""Tests for nested UDF discovery (paper §2.3)."""

from repro.core.nested import (
    analyse_loopback_queries,
    extract_subquery_arguments,
    find_called_functions,
    find_loopback_queries,
    find_nested_udf_names,
    normalize_query,
)
from repro.workloads.udf_corpus import FIND_BEST_CLASSIFIER_BODY, MEAN_DEVIATION_BUGGY_BODY


class TestNormalizeQuery:
    def test_whitespace_collapsed_and_lowercased(self):
        assert normalize_query("  SELECT  a,\n   b FROM   T ; ") == "select a, b from t"

    def test_idempotent(self):
        once = normalize_query("SELECT data FROM  testingset")
        assert normalize_query(once) == once


class TestFindLoopbackQueries:
    def test_simple_single_quoted(self):
        body = "res = _conn.execute('SELECT i FROM numbers')\nreturn res"
        assert find_loopback_queries(body) == ["SELECT i FROM numbers"]

    def test_triple_quoted_multiline(self):
        queries = find_loopback_queries(FIND_BEST_CLASSIFIER_BODY)
        assert len(queries) == 2
        assert "testingset" in queries[0]
        assert "train_rnforest" in queries[1]

    def test_no_loopback(self):
        assert find_loopback_queries(MEAN_DEVIATION_BUGGY_BODY) == []

    def test_spacing_variants(self):
        body = '_conn . execute ( "SELECT 1" )'
        assert find_loopback_queries(body) == ["SELECT 1"]


class TestFindCalledFunctions:
    def test_names_in_order_without_duplicates(self):
        query = "SELECT f(x), g(f(y)) FROM t"
        assert find_called_functions(query) == ["f", "g"]

    def test_table_function(self):
        assert "train_rnforest" in find_called_functions(
            "SELECT * FROM train_rnforest((SELECT a FROM t), 3)")


class TestSubqueryArguments:
    def test_listing3_shape(self):
        query = ("SELECT * FROM train_rnforest(\n"
                 "   (SELECT data, labels FROM trainingset), %d)")
        assert extract_subquery_arguments(query) == [
            "SELECT data, labels FROM trainingset"]

    def test_multiple_subqueries(self):
        query = "SELECT * FROM f((SELECT a FROM t), (SELECT b FROM u), 3)"
        assert extract_subquery_arguments(query) == ["SELECT a FROM t", "SELECT b FROM u"]

    def test_no_table_function(self):
        assert extract_subquery_arguments("SELECT a FROM t") == []


class TestAnalyseLoopbackQueries:
    def test_classifies_nested_and_plain(self):
        known = ["train_rnforest", "find_best_classifier", "mean_deviation"]
        queries = analyse_loopback_queries(FIND_BEST_CLASSIFIER_BODY, known)
        assert len(queries) == 2
        plain, nested = queries
        assert not plain.calls_nested_udf
        assert not plain.has_placeholders
        assert nested.calls_nested_udf
        assert nested.nested_udfs == ["train_rnforest"]
        assert nested.has_placeholders  # the %d estimator placeholder
        assert nested.subqueries == ["SELECT f0, f1, label FROM trainingset"]

    def test_unknown_functions_not_flagged(self):
        body = "res = _conn.execute('SELECT unknown_fn(i) FROM t')"
        queries = analyse_loopback_queries(body, ["other"])
        assert queries[0].nested_udfs == []

    def test_find_nested_udf_names(self):
        known = ["train_rnforest", "mean_deviation"]
        assert find_nested_udf_names(FIND_BEST_CLASSIFIER_BODY, known) == ["train_rnforest"]
        assert find_nested_udf_names(MEAN_DEVIATION_BUGGY_BODY, known) == []
