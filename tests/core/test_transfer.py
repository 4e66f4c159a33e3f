"""Tests for the local input.bin packaging."""

import pickle

import numpy as np
import pytest

from repro.core.extract import ExtractedInputs
from repro.core.plugin import DevUDFPlugin
from repro.core.transfer import (
    LOOPBACK_KEY,
    build_input_parameters,
    read_input_blob,
    write_input_blob,
)
from repro.errors import ExtractionError


@pytest.fixture()
def inputs() -> ExtractedInputs:
    return ExtractedInputs(
        udf_name="mean_deviation",
        parameters={"column": np.arange(100), "n": 5},
        loopback={"select a from t": {"a": [1, 2, 3]}},
        rows_extracted=100,
    )


class TestBuildInputParameters:
    def test_keys_and_loopback(self, inputs):
        payload = build_input_parameters(inputs)
        assert set(payload) == {"column", "n", LOOPBACK_KEY}
        assert isinstance(payload["column"], np.ndarray)
        assert payload["n"] == 5

    def test_no_loopback_key_when_empty(self):
        payload = build_input_parameters(ExtractedInputs("f", parameters={"x": 1}))
        assert LOOPBACK_KEY not in payload

    def test_lists_become_arrays(self):
        payload = build_input_parameters(ExtractedInputs("f", parameters={"x": [1, 2, 3]}))
        assert isinstance(payload["x"], np.ndarray)


class TestWriteReadBlob:
    def test_round_trip(self, inputs, tmp_path):
        path = tmp_path / "input.bin"
        stats = write_input_blob(inputs, path)
        assert path.exists()
        assert stats.stored_bytes == path.stat().st_size
        assert stats.parameters == 2
        assert stats.loopback_queries == 1
        payload = read_input_blob(path)
        assert payload["n"] == 5
        assert list(payload["column"][:3]) == [0, 1, 2]
        assert list(payload[LOOPBACK_KEY]["select a from t"]["a"]) == [1, 2, 3]

    def test_missing_blob(self, tmp_path):
        with pytest.raises(ExtractionError):
            read_input_blob(tmp_path / "absent.bin")

    @pytest.mark.parametrize("writer", ["write_input_blob", "prepare_debug"])
    def test_listing2_compatible_load(self, inputs, tmp_path, writer, request):
        """The blob must be loadable exactly the way Listing 2 loads it: a plain
        ``pickle.load`` gives the parameter dictionary, nothing wrapped round it."""
        if writer == "write_input_blob":
            path = tmp_path / "input.bin"
            write_input_blob(inputs, path)
            expected, rows = {"column", "n", LOOPBACK_KEY}, 100
        else:
            with DevUDFPlugin(request.getfixturevalue("project"),
                              request.getfixturevalue("settings"),
                              server=request.getfixturevalue("demo_server_fixture")) as plugin:
                path = plugin.prepare_debug("mean_deviation").input_path
            expected, rows = {"column"}, 30
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        assert set(payload) == expected
        assert len(payload["column"]) == rows

    def test_blob_is_one_pickle_and_nothing_after_it(self, inputs, tmp_path):
        path = tmp_path / "input.bin"
        write_input_blob(inputs, path)
        with open(path, "rb") as handle:
            pickle.load(handle)
            assert handle.read() == b""

    def test_parent_directories_are_created(self, inputs, tmp_path):
        path = tmp_path / "udf" / "debug" / "input.bin"
        write_input_blob(inputs, path)
        assert read_input_blob(path)["n"] == 5

    def test_rewriting_replaces_the_previous_blob(self, inputs, tmp_path):
        path = tmp_path / "input.bin"
        write_input_blob(inputs, path)
        stats = write_input_blob(ExtractedInputs("f", parameters={"x": 1}), path)
        assert read_input_blob(path) == {"x": 1}
        assert stats.stored_bytes == path.stat().st_size
        assert stats.loopback_queries == 0

    def test_loopback_columns_are_normalised_like_parameters(self, tmp_path):
        path = tmp_path / "input.bin"
        write_input_blob(ExtractedInputs("f", parameters={}, loopback={
            "select a, b from t": {"a": [1, 2], "b": np.float64(0.5)}}), path)
        columns = read_input_blob(path)[LOOPBACK_KEY]["select a, b from t"]
        assert isinstance(columns["a"], np.ndarray) and list(columns["a"]) == [1, 2]
        assert type(columns["b"]) is float and columns["b"] == 0.5


#: (parameter value, what the generated file loads back): numpy arrays stay
#: arrays, sequences become arrays where numpy can make one, numpy scalars
#: become Python scalars, everything else is stored as given.
PARAMETER_VALUES = {
    "int": (5, 5),
    "float": (2.5, 2.5),
    "str": ("text", "text"),
    "none": (None, None),
    "bool": (True, True),
    "numpy_int": (np.int64(7), 7),
    "numpy_float": (np.float32(1.5), 1.5),
    "int_list": ([1, 2, 3], np.array([1, 2, 3])),
    "float_tuple": ((1.0, 2.0), np.array([1.0, 2.0])),
    "str_list": (["a", "bc"], np.array(["a", "bc"])),
    "ragged_list": ([[1, 2], [3]], [[1, 2], [3]]),
    "empty_array": (np.arange(0), np.arange(0)),
    "matrix": (np.array([[1, 2], [3, 4]]), np.array([[1, 2], [3, 4]])),
    "bool_array": (np.array([True, False]), np.array([True, False])),
    "object_array": (np.array(["x", None], dtype=object), np.array(["x", None], dtype=object)),
}


class TestParameterValues:
    @pytest.mark.parametrize("value, loaded", PARAMETER_VALUES.values(),
                             ids=PARAMETER_VALUES.keys())
    def test_listing2_load_returns_the_normalised_value(self, value, loaded, tmp_path):
        path = tmp_path / "input.bin"
        write_input_blob(ExtractedInputs("f", parameters={"value": value}), path)
        with open(path, "rb") as handle:
            listing2 = pickle.load(handle)["value"]
        for result in (listing2, read_input_blob(path)["value"]):
            assert type(result) is type(loaded)
            if isinstance(loaded, np.ndarray):
                assert result.dtype == loaded.dtype
                assert np.array_equal(result, loaded)
            else:
                assert result == loaded


class TestCorruptBlob:
    """Whatever is wrong with ``input.bin``, reading it raises
    :class:`ExtractionError`, never the unpickler's own exception."""

    @pytest.mark.parametrize("damage", [
        "empty", "one_byte", "quarter", "half", "three_quarters", "last_byte_dropped",
        "not_a_pickle", "source_text",
    ])
    def test_damaged_blob_raises_extraction_error(self, inputs, tmp_path, damage):
        path = tmp_path / "input.bin"
        write_input_blob(inputs, path)
        blob = path.read_bytes()
        damaged = {
            "empty": b"",
            "one_byte": blob[:1],
            "quarter": blob[:len(blob) // 4],
            "half": blob[:len(blob) // 2],
            "three_quarters": blob[:3 * len(blob) // 4],
            "last_byte_dropped": blob[:-1],
            "not_a_pickle": bytes(range(256)),
            "source_text": b"input_parameters = {'n': 5}\n",
        }[damage]
        path.write_bytes(damaged)
        with pytest.raises(ExtractionError, match="corrupt"):
            read_input_blob(path)

    @pytest.mark.parametrize("payload", [[1, 2], 5, None, "n", np.arange(3)],
                             ids=["list", "int", "none", "str", "array"])
    def test_pickle_of_something_but_a_dict_raises_extraction_error(self, payload, tmp_path):
        path = tmp_path / "input.bin"
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ExtractionError, match="parameter dictionary"):
            read_input_blob(path)
