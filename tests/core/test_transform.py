"""Tests for the Listing 1 <-> Listing 2 code transformations."""

import pickle
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transform import (
    NESTED_MARKER,
    SIGNATURE_MARKER,
    UDFCodeTransformer,
    extract_function_body,
    normalise_body,
    signature_from_json,
    signature_to_json,
    strip_catalog_braces,
)
from repro.errors import TransformError
from repro.sqldb.catalog import make_signature
from repro.sqldb.types import SQLType
from repro.workloads.udf_corpus import MEAN_DEVIATION_BUGGY_BODY


@pytest.fixture()
def transformer() -> UDFCodeTransformer:
    return UDFCodeTransformer()


def mean_deviation_signature():
    return make_signature("mean_deviation", [("column", SQLType.INTEGER)],
                          return_type=SQLType.DOUBLE, body=MEAN_DEVIATION_BUGGY_BODY)


class TestStripCatalogBraces:
    def test_listing1_format(self):
        stored = "{\n    import pickle\n    return 1\n};"
        assert strip_catalog_braces(stored) == "import pickle\nreturn 1"

    def test_without_semicolon(self):
        assert strip_catalog_braces("{ return 1 }") == "return 1"

    def test_bare_body_passthrough(self):
        assert strip_catalog_braces("return 2") == "return 2"

    def test_dedents_common_indent(self):
        stored = "{\n        a = 1\n        return a\n};"
        assert strip_catalog_braces(stored) == "a = 1\nreturn a"


class TestForwardTransformation:
    def test_listing2_shape(self, transformer):
        """The generated file has the structure of Listing 2."""
        transformed = transformer.udf_to_standalone(mean_deviation_signature())
        source = transformed.source
        assert "import pickle" in source
        assert "def mean_deviation(column, _conn=None):" in source
        assert "input_parameters = pickle.load(open('./input.bin', 'rb'))" in source
        assert "mean_deviation(\n    input_parameters['column']" in source
        assert transformed.file_name == "mean_deviation.py"

    def test_generated_file_compiles(self, transformer):
        transformed = transformer.udf_to_standalone(mean_deviation_signature())
        compile(transformed.source, "<generated>", "exec")

    def test_signature_metadata_embedded(self, transformer):
        source = transformer.udf_to_standalone(mean_deviation_signature()).source
        assert SIGNATURE_MARKER in source

    def test_custom_input_file(self):
        transformer = UDFCodeTransformer(input_file="./other.bin")
        source = transformer.udf_to_standalone(mean_deviation_signature()).source
        assert "./other.bin" in source

    def test_nested_udfs_embedded(self, transformer):
        nested = make_signature("train_rnforest",
                                [("f0", SQLType.DOUBLE), ("labels", SQLType.INTEGER)],
                                returns_table=True,
                                return_columns=[("clf", SQLType.STRING)],
                                body="return {'clf': 'x'}")
        main = make_signature("find_best", [("n", SQLType.INTEGER)],
                              returns_table=True,
                              return_columns=[("clf", SQLType.STRING)],
                              body="res = _conn.execute('SELECT * FROM train_rnforest"
                                   "((SELECT f0, labels FROM t), 1)')\nreturn res")
        transformed = transformer.udf_to_standalone(main, nested=[nested])
        assert "def train_rnforest(f0, labels, _conn=None):" in transformed.source
        assert "_DevUDFLocalConnection" in transformed.source
        assert NESTED_MARKER in transformed.source
        assert transformed.nested_names == ["train_rnforest"]

    def test_no_local_connection_without_loopback(self, transformer):
        source = transformer.udf_to_standalone(mean_deviation_signature()).source
        assert "_DevUDFLocalConnection" not in source

    def test_numpy_preimported(self, transformer):
        """MonetDB/Python pre-imports numpy; the generated file must too."""
        assert "import numpy" in transformer.udf_to_standalone(
            mean_deviation_signature()).source

    def test_zero_parameter_udf(self, transformer):
        signature = make_signature("constant", [], return_type=SQLType.INTEGER,
                                   body="return 42")
        source = transformer.udf_to_standalone(signature).source
        assert "constant(_conn=_conn)" in source
        compile(source, "<gen>", "exec")

    def test_body_with_syntax_error_rejected(self, transformer):
        signature = make_signature("broken", [("x", SQLType.INTEGER)],
                                   return_type=SQLType.INTEGER, body="return (((")
        with pytest.raises(TransformError):
            transformer.udf_to_standalone(signature)


class TestReverseTransformation:
    def test_round_trip_body(self, transformer):
        """Import then export must commit exactly the same body (paper §2.2)."""
        signature = mean_deviation_signature()
        source = transformer.udf_to_standalone(signature).source
        recovered = transformer.standalone_to_signature(source, "mean_deviation")
        assert normalise_body(recovered.body) == normalise_body(signature.body)
        assert recovered.parameter_names == ["column"]
        assert recovered.return_type is SQLType.DOUBLE

    def test_edited_body_is_what_gets_exported(self, transformer):
        signature = mean_deviation_signature()
        source = transformer.udf_to_standalone(signature).source
        edited = source.replace("distance += column[i] - mean",
                                "distance += abs(column[i] - mean)")
        recovered = transformer.standalone_to_signature(edited, "mean_deviation")
        assert "abs(column[i] - mean)" in recovered.body

    def test_missing_metadata_rejected(self, transformer):
        with pytest.raises(TransformError):
            transformer.standalone_to_signature("def f():\n    pass\n")

    def test_missing_function_def_rejected(self, transformer):
        source = transformer.udf_to_standalone(mean_deviation_signature()).source
        broken = source.replace("def mean_deviation", "def renamed_function")
        with pytest.raises(TransformError):
            transformer.standalone_to_signature(broken, "mean_deviation")

    def test_list_embedded_udfs(self, transformer):
        nested = make_signature("inner", [("x", SQLType.INTEGER)],
                                return_type=SQLType.INTEGER, body="return x")
        main = make_signature("outer", [("n", SQLType.INTEGER)],
                              return_type=SQLType.INTEGER,
                              body="return _conn.execute('SELECT inner(1)')")
        source = transformer.udf_to_standalone(main, nested=[nested]).source
        assert transformer.list_embedded_udfs(source) == ["outer", "inner"]

    def test_main_signature_is_first_without_expected_name(self, transformer):
        nested = make_signature("inner", [("x", SQLType.INTEGER)],
                                return_type=SQLType.INTEGER, body="return x")
        main = make_signature("outer", [("n", SQLType.INTEGER)],
                              return_type=SQLType.INTEGER,
                              body="return _conn.execute('SELECT inner(1)')")
        source = transformer.udf_to_standalone(main, nested=[nested]).source
        assert transformer.standalone_to_signature(source).name == "outer"


class TestSignatureJson:
    def test_round_trip(self):
        signature = make_signature(
            "t", [("a", SQLType.INTEGER), ("b", SQLType.STRING)],
            returns_table=True,
            return_columns=[("x", SQLType.DOUBLE), ("y", SQLType.INTEGER)])
        recovered = signature_from_json(signature_to_json(signature), body="pass")
        assert recovered.name == "t"
        assert [p.sql_type for p in recovered.parameters] == [SQLType.INTEGER, SQLType.STRING]
        assert recovered.returns_table
        assert [c.name for c in recovered.return_columns] == ["x", "y"]

    def test_corrupt_json_rejected(self):
        with pytest.raises(TransformError):
            signature_from_json("{not json")


class TestHelpers:
    def test_extract_function_body(self):
        source = "def f(a):\n    x = a + 1\n    return x\n\nprint(f(1))\n"
        assert extract_function_body(source, "f") == "x = a + 1\nreturn x\n"

    def test_runnable_generated_file_executes_the_udf(self, transformer, tmp_path):
        """Running the generated file really executes the UDF (Listing 2 semantics)."""
        signature = make_signature("total", [("values", SQLType.INTEGER)],
                                   return_type=SQLType.DOUBLE,
                                   body="return float(sum(values))")
        transformed = transformer.udf_to_standalone(signature)
        script = tmp_path / transformed.file_name
        script.write_text(transformed.source)
        with open(tmp_path / "input.bin", "wb") as handle:
            pickle.dump({"values": [1, 2, 3, 4]}, handle)
        namespace = {}
        import os

        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            exec(compile(script.read_text(), str(script), "exec"), namespace)
        finally:
            os.chdir(cwd)
        assert namespace["__devudf_result__"] == 10.0


class TestBodyRoundTripProperty:
    simple_statements = st.lists(
        st.sampled_from([
            "x = x + 1",
            "y = x * 2",
            "total = 0",
            "for i in range(3):",
            "    total = total + i",
            "if x > 0:",
            "    x = -x",
            "z = 'some text'",
        ]),
        min_size=1, max_size=8,
    )

    @settings(max_examples=50, deadline=None)
    @given(simple_statements)
    def test_body_round_trips(self, statements):
        body = "x = 1\n" + "\n".join(statements) + "\nreturn x\n"
        try:
            compile("def _check(x):\n" + textwrap.indent(body, "    "), "<check>", "exec")
        except SyntaxError:
            return  # skip randomly-invalid bodies: only valid UDFs round-trip
        signature = make_signature("prop_fn", [("x", SQLType.INTEGER)],
                                   return_type=SQLType.INTEGER, body=body)
        transformer = UDFCodeTransformer()
        source = transformer.udf_to_standalone(signature).source
        recovered = transformer.standalone_to_signature(source, "prop_fn")
        assert normalise_body(recovered.body) == normalise_body(body)
