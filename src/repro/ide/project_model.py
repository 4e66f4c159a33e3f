"""The IDE project model: a directory of files with open editor buffers.

This is the PyCharm "project" the devUDF plugin imports UDF files into
(paper §2.1, Figure 3a) and exports them back from (Figure 3b).  Files are
real files on disk — which is precisely what makes them trackable by a
version-control system, one of the paper's motivations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ProjectError
from .editor import EditorBuffer


@dataclass
class IDEProject:
    """A project rooted at a directory, with open editor buffers."""

    root: Path
    name: str = ""
    _buffers: dict[str, EditorBuffer] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        if not self.name:
            self.name = self.root.name

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    def path_of(self, relative: str) -> Path:
        path = (self.root / relative).resolve()
        if self.root.resolve() not in path.parents and path != self.root.resolve():
            raise ProjectError(f"{relative!r} escapes the project root")
        return path

    def exists(self, relative: str) -> bool:
        return self.path_of(relative).exists()

    # ------------------------------------------------------------------ #
    # file + buffer management
    # ------------------------------------------------------------------ #
    def create_file(self, relative: str, text: str = "", *, overwrite: bool = True) -> EditorBuffer:
        path = self.path_of(relative)
        if path.exists() and not overwrite:
            raise ProjectError(f"{relative!r} already exists")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        buffer = EditorBuffer(path=path, text=text, dirty=False)
        self._buffers[relative] = buffer
        return buffer

    def open_file(self, relative: str) -> EditorBuffer:
        if relative in self._buffers:
            return self._buffers[relative]
        path = self.path_of(relative)
        if not path.exists():
            raise ProjectError(f"{relative!r} does not exist in project {self.name!r}")
        buffer = EditorBuffer(path=path, text=path.read_text(encoding="utf-8"))
        self._buffers[relative] = buffer
        return buffer

    def save_all(self) -> int:
        """Save every dirty buffer; returns the number of files written."""
        saved = 0
        for buffer in self._buffers.values():
            if buffer.dirty:
                buffer.save()
                saved += 1
        return saved

    def read_text(self, relative: str) -> str:
        """Read file content, preferring the (possibly unsaved) buffer."""
        if relative in self._buffers:
            return self._buffers[relative].text
        return self.path_of(relative).read_text(encoding="utf-8")
