"""Tests for the editor buffer model."""

from pathlib import Path

import pytest

from repro.errors import ProjectError
from repro.ide.editor import EditorBuffer


@pytest.fixture()
def buffer(tmp_path) -> EditorBuffer:
    path = tmp_path / "udf.py"
    text = "def f(x):\n    return x\n"
    path.write_text(text)
    return EditorBuffer(path=path, text=text)


class TestAccess:
    def test_lines_and_line(self, buffer):
        assert buffer.lines == ["def f(x):", "    return x"]
        assert buffer.line(2) == "    return x"

    def test_line_out_of_range(self, buffer):
        with pytest.raises(ProjectError):
            buffer.line(0)
        with pytest.raises(ProjectError):
            buffer.line(5)

    def test_find_line(self, buffer):
        assert buffer.find_line("return") == 2
        with pytest.raises(ProjectError):
            buffer.find_line("missing text")


class TestEdits:
    def test_set_text_marks_dirty(self, buffer):
        buffer.set_text("print('hi')\n")
        assert buffer.dirty
        assert buffer.edit_count == 1


class TestPersistence:
    def test_save_clears_dirty(self, buffer):
        buffer.set_text("new content\n")
        saved_path = buffer.save()
        assert saved_path.read_text() == "new content\n"
        assert not buffer.dirty

    def test_save_creates_parent_directories(self, tmp_path):
        buffer = EditorBuffer(path=tmp_path / "deep" / "dir" / "f.py", text="pass\n")
        assert buffer.save().exists()
