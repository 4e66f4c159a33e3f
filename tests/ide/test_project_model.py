"""Tests for the IDE project model."""

import pytest

from repro.errors import ProjectError
from repro.ide.project_model import IDEProject


@pytest.fixture()
def project(tmp_path) -> IDEProject:
    return IDEProject(tmp_path / "proj", name="demo")


class TestFiles:
    def test_create_and_read(self, project):
        project.create_file("udfs/f.py", "pass\n")
        assert project.exists("udfs/f.py")
        assert project.read_text("udfs/f.py") == "pass\n"

    def test_create_no_overwrite(self, project):
        project.create_file("a.py", "1")
        with pytest.raises(ProjectError):
            project.create_file("a.py", "2", overwrite=False)
        project.create_file("a.py", "3")
        assert project.read_text("a.py") == "3"

    def test_open_missing_file(self, project):
        with pytest.raises(ProjectError):
            project.open_file("missing.py")

    def test_path_escape_rejected(self, project):
        with pytest.raises(ProjectError):
            project.path_of("../outside.py")


class TestBuffers:
    def test_open_returns_same_buffer(self, project):
        project.create_file("f.py", "x = 1\n")
        first = project.open_file("f.py")
        second = project.open_file("f.py")
        assert first is second

    def test_read_text_prefers_unsaved_buffer(self, project):
        project.create_file("f.py", "on disk\n")
        buffer = project.open_file("f.py")
        buffer.set_text("in buffer\n")
        assert project.read_text("f.py") == "in buffer\n"

    def test_save_all_saves_dirty_buffers(self, project):
        project.create_file("a.py", "a")
        project.create_file("b.py", "b")
        buffer = project.open_file("a.py")
        buffer.set_text("changed")
        project.open_file("b.py")
        assert project.save_all() == 1
        assert not buffer.dirty
        assert project.path_of("a.py").read_text() == "changed"

    def test_project_name_defaults_to_directory(self, tmp_path):
        project = IDEProject(tmp_path / "my_project")
        assert project.name == "my_project"
