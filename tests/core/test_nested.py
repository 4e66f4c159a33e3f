"""Tests for nested UDF discovery (paper §2.3)."""

from repro.core.nested import (
    analyse_loopback_queries,
    extract_subquery_arguments,
    find_called_functions,
    find_loopback_queries,
    find_nested_udf_names,
    normalize_query,
)
from repro.core.transform import _LOCAL_CONNECTION_TEMPLATE
from repro.workloads.udf_corpus import FIND_BEST_CLASSIFIER_BODY, MEAN_DEVIATION_BUGGY_BODY


class TestNormalizeQuery:
    def test_whitespace_collapsed_and_lowercased(self):
        assert normalize_query("  SELECT  a,\n   b FROM   T ; ") == "select a, b from t"

    def test_idempotent(self):
        once = normalize_query("SELECT data FROM  testingset")
        assert normalize_query(once) == once

    def test_literals_and_comments_are_kept_as_written(self):
        assert normalize_query("SELECT  N FROM T WHERE s = 'A  B;' ; ") == \
            "select n from t where s = 'A  B;'"
        assert normalize_query("SELECT n FROM t WHERE s = 'A'") != \
            normalize_query("SELECT n FROM t WHERE s = 'a'")
        assert normalize_query("SELECT 1 /* Keep  Me */") == "select 1 /* Keep  Me */"

    def test_the_generated_file_computes_the_same_key(self):
        namespace = {}
        exec(_LOCAL_CONNECTION_TEMPLATE, namespace)
        local = namespace["_DevUDFLocalConnection"]
        for query in ["  SELECT  a,\n b FROM   T ; ", "SELECT * FROM F('Up,(x', 2)",
                      "SELECT 'it''s', \"Col\"  -- Note\n FROM t;",
                      "SELECT 'unterminated''", "SELECT 1 /* A\n  B */ ;"]:
            assert local._normalize(query) == normalize_query(query), query


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

    def test_parentheses_and_commas_in_literals_and_comments(self):
        query = ("SELECT * FROM f((SELECT a FROM t WHERE s = ')(,'), "
                 "(SELECT b /* ) */ FROM u -- ,)\n), 3) "
                 "WHERE x = 'FROM g((SELECT 1))'")
        assert extract_subquery_arguments(query) == [
            "SELECT a FROM t WHERE s = ')(,'", "SELECT b /* ) */ FROM u -- ,)"]


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

    def test_a_call_in_a_literal_or_comment_is_plain_data(self):
        body = ("res = _conn.execute(\"SELECT label /* helper(2) */ FROM t WHERE "
                "note = 'see helper(1)' -- helper(3)\")")
        query, = analyse_loopback_queries(body, ["helper"])
        assert not query.calls_nested_udf and not query.has_placeholders
        assert find_nested_udf_names(body, ["helper"]) == []

    def test_a_placeholder_in_quotes_is_still_a_placeholder(self):
        # %-formatting fills it in at run time, quotes or not
        body = "res = _conn.execute(\"SELECT v FROM t WHERE s = '%s'\" % name)"
        query, = analyse_loopback_queries(body, [])
        assert query.has_placeholders

    def test_unknown_functions_not_flagged(self):
        body = "res = _conn.execute('SELECT unknown_fn(i) FROM t')"
        queries = analyse_loopback_queries(body, ["other"])
        assert queries[0].nested_udfs == []

    def test_find_nested_udf_names(self):
        known = ["train_rnforest", "mean_deviation"]
        assert find_nested_udf_names(FIND_BEST_CLASSIFIER_BODY, known) == ["train_rnforest"]
        assert find_nested_udf_names(MEAN_DEVIATION_BUGGY_BODY, known) == []
