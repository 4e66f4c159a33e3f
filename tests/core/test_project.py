"""Tests for the devUDF project (settings persistence, UDF registry, VCS)."""

import pytest

from repro.core.project import UDF_DIR, DevUDFProject
from repro.core.settings import DataTransferSettings, DevUDFSettings
from repro.errors import ProjectError


@pytest.fixture()
def project(tmp_path) -> DevUDFProject:
    return DevUDFProject(tmp_path / "proj", name="demo-project")


GENERATED_FILE = '''"""devUDF export of UDF 'sample_udf'."""
# devudf:signature: {"language": "PYTHON", "name": "sample_udf", "parameters": [{"name": "x", "number": 0, "type": "INTEGER"}], "return_columns": [], "return_type": "DOUBLE", "returns_table": false}

import pickle

import numpy


def sample_udf(x, _conn=None):
    return float(sum(x))


input_parameters = pickle.load(open('./input.bin', 'rb'))

_conn = None

__devudf_result__ = sample_udf(
    input_parameters['x'],
    _conn=_conn)
print('devUDF result:', __devudf_result__)
'''


class TestLayout:
    def test_directories_created(self, project):
        assert (project.root / UDF_DIR).is_dir()
        assert (project.root / ".devudf").is_dir()

    def test_udf_file_path(self, project):
        assert project.udf_file_path("mean_deviation") == "udfs/mean_deviation.py"


class TestSettingsPersistence:
    def test_save_and_load(self, project):
        settings = DevUDFSettings(
            host="dbhost", port=4242, debug_query="SELECT f(i) FROM t",
            transfer=DataTransferSettings(use_compression=True))
        project.save_settings(settings)
        assert project.has_settings()
        loaded = project.load_settings()
        assert loaded.host == "dbhost"
        assert loaded.port == 4242
        assert loaded.transfer.use_compression

    def test_load_without_settings_raises(self, project):
        with pytest.raises(ProjectError):
            project.load_settings()


class TestUDFRegistry:
    def test_register_and_lookup(self, project):
        project.ide_project.create_file("udfs/sample_udf.py", GENERATED_FILE)
        project.register_udf_file("sample_udf", "udfs/sample_udf.py",
                                  imported_from="monetdb@localhost:50000/demo")
        assert project.has_udf("SAMPLE_UDF")
        entry = project.entry_for("sample_udf")
        assert entry.relative_path == "udfs/sample_udf.py"
        assert entry.imported_from.startswith("monetdb@")

    def test_registry_survives_reopening_the_project(self, project, tmp_path):
        project.ide_project.create_file("udfs/sample_udf.py", GENERATED_FILE)
        project.register_udf_file("sample_udf", "udfs/sample_udf.py")
        reopened = DevUDFProject(project.root)
        assert reopened.has_udf("sample_udf")

    def test_entry_for_unknown_udf(self, project):
        with pytest.raises(ProjectError):
            project.entry_for("ghost")

    def test_nested_udfs_recorded(self, project):
        project.ide_project.create_file("udfs/outer.py", GENERATED_FILE)
        project.register_udf_file("outer", "udfs/outer.py", nested_udfs=["inner"])
        assert project.entry_for("outer").nested_udfs == ["inner"]

    def test_imported_udfs_sorted(self, project):
        project.ide_project.create_file("udfs/b.py", GENERATED_FILE)
        project.ide_project.create_file("udfs/a.py", GENERATED_FILE)
        project.register_udf_file("b_udf", "udfs/b.py")
        project.register_udf_file("a_udf", "udfs/a.py")
        assert [e.udf_name for e in project.imported_udfs()] == ["a_udf", "b_udf"]


class TestSourceAccess:
    def test_udf_source_and_signature(self, project):
        project.ide_project.create_file("udfs/sample_udf.py", GENERATED_FILE)
        project.register_udf_file("sample_udf", "udfs/sample_udf.py")
        assert "def sample_udf" in project.udf_source("sample_udf")
        signature = project.udf_signature("sample_udf")
        assert signature.name == "sample_udf"
        assert signature.parameter_names == ["x"]

    def test_open_udf_returns_editable_buffer(self, project):
        project.ide_project.create_file("udfs/sample_udf.py", GENERATED_FILE)
        project.register_udf_file("sample_udf", "udfs/sample_udf.py")
        buffer = project.open_udf("sample_udf")
        buffer.set_text(buffer.text.replace("float(sum(x))", "float(max(x))"))
        assert "float(max(x))" in project.udf_source("sample_udf")


class TestVCSIntegration:
    def test_commit_saves_buffers_first(self, project):
        project.ide_project.create_file("udfs/sample_udf.py", GENERATED_FILE)
        buffer = project.ide_project.open_file("udfs/sample_udf.py")
        buffer.set_text(GENERATED_FILE + "# edited\n")
        commit = project.commit("edit the UDF")
        assert commit.message == "edit the UDF"
        assert "# edited" in (project.root / "udfs/sample_udf.py").read_text()
        assert project.vcs.status()["udfs/sample_udf.py"] == "clean"

    def test_history(self, project):
        project.ide_project.create_file("udfs/sample_udf.py", GENERATED_FILE)
        project.commit("first")
        project.commit("second")
        assert [c.message for c in project.history()] == ["first", "second"]

    def test_vcs_can_be_disabled(self, tmp_path):
        project = DevUDFProject(tmp_path / "novcs", use_vcs=False)
        assert project.history() == []
        with pytest.raises(ProjectError):
            project.commit("nope")
