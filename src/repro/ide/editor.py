"""Editor buffers: the in-memory text documents the IDE edits.

devUDF imports UDFs "into the IDE as a set of files in the current project"
(paper §2.1); the developer then modifies the code in those files.  The
reproduction models that editing surface so workflow simulations can perform
the same modifications a developer would and track dirty/saved state.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..errors import ProjectError


@dataclass
class EditorBuffer:
    """An open document: a path plus its (possibly modified) text."""

    path: Path
    text: str = ""
    dirty: bool = False
    edit_count: int = 0

    # ------------------------------------------------------------------ #
    # content access
    # ------------------------------------------------------------------ #
    @property
    def lines(self) -> list[str]:
        return self.text.splitlines()

    def line(self, number: int) -> str:
        """1-based line access (like the editor gutter)."""
        lines = self.lines
        if not 1 <= number <= len(lines):
            raise ProjectError(f"line {number} out of range (1..{len(lines)})")
        return lines[number - 1]

    def find_line(self, needle: str) -> int:
        """1-based number of the first line containing ``needle``."""
        for index, line in enumerate(self.lines, start=1):
            if needle in line:
                return index
        raise ProjectError(f"text {needle!r} not found in {self.path.name}")

    # ------------------------------------------------------------------ #
    # edits
    # ------------------------------------------------------------------ #
    def set_text(self, text: str) -> None:
        self.text = text
        self.dirty = True
        self.edit_count += 1

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self) -> Path:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(self.text, encoding="utf-8")
        self.dirty = False
        return self.path
