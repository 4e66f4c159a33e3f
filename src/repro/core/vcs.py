"""A minimal version-control store for UDF project files.

The paper's motivation (§1): "UDFs are stored within the database server.  As
a result, version control systems (VCSs) such as Git cannot be easily
integrated to keep track of changes to UDFs.  Without a VCS, cooperative
development is challenging and the development history is not stored."

Once devUDF has imported the UDFs as files in the IDE project, any VCS can
track them.  The reproduction ships a small content-addressed store (commits
of file snapshots, diffs, history) so the workflow benchmarks and
examples can demonstrate the point without requiring a git binary.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import VCSError


@dataclass(frozen=True)
class Commit:
    """One snapshot of the tracked files."""

    commit_id: str
    message: str
    timestamp: float
    files: dict[str, str]  # relative path -> blob hash
    parent: str | None = None

    def short_id(self) -> str:
        return self.commit_id[:10]


@dataclass
class FileDiff:
    """Unified diff of one file between two commits."""

    path: str
    status: str  # "added" | "removed" | "modified"
    diff: str = ""


class MiniVCS:
    """Content-addressed snapshots of a project directory."""

    def __init__(self, root: str | Path, *, store_dir: str = ".devudf_vcs",
                 track_glob: str = "**/*.py") -> None:
        self.root = Path(root)
        self.store = self.root / store_dir
        self.track_glob = track_glob
        self._blobs_dir = self.store / "blobs"
        self._commits_file = self.store / "commits.json"
        self._blobs_dir.mkdir(parents=True, exist_ok=True)
        if not self._commits_file.exists():
            self._commits_file.write_text("[]", encoding="utf-8")

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _tracked_files(self) -> list[Path]:
        files = []
        for path in sorted(self.root.glob(self.track_glob)):
            if path.is_file() and self.store not in path.parents:
                files.append(path)
        return files

    def _store_blob(self, content: bytes) -> str:
        digest = hashlib.sha256(content).hexdigest()
        blob_path = self._blobs_dir / digest
        if not blob_path.exists():
            blob_path.write_bytes(content)
        return digest

    def _read_blob(self, digest: str) -> bytes:
        blob_path = self._blobs_dir / digest
        if not blob_path.exists():
            raise VCSError(f"missing blob {digest}")
        return blob_path.read_bytes()

    def _load_commits(self) -> list[Commit]:
        raw = json.loads(self._commits_file.read_text(encoding="utf-8"))
        return [Commit(**entry) for entry in raw]

    def _save_commits(self, commits: list[Commit]) -> None:
        payload = [
            {
                "commit_id": c.commit_id,
                "message": c.message,
                "timestamp": c.timestamp,
                "files": c.files,
                "parent": c.parent,
            }
            for c in commits
        ]
        self._commits_file.write_text(json.dumps(payload, indent=2), encoding="utf-8")

    # ------------------------------------------------------------------ #
    # porcelain
    # ------------------------------------------------------------------ #
    def commit(self, message: str) -> Commit:
        """Snapshot all tracked files."""
        commits = self._load_commits()
        files: dict[str, str] = {}
        for path in self._tracked_files():
            relative = str(path.relative_to(self.root))
            files[relative] = self._store_blob(path.read_bytes())
        parent = commits[-1].commit_id if commits else None
        raw_id = json.dumps({"files": files, "message": message, "parent": parent},
                            sort_keys=True).encode("utf-8")
        commit_id = hashlib.sha256(raw_id + str(len(commits)).encode()).hexdigest()
        commit = Commit(commit_id=commit_id, message=message, timestamp=time.time(),
                        files=files, parent=parent)
        commits.append(commit)
        self._save_commits(commits)
        return commit

    def log(self) -> list[Commit]:
        """All commits, oldest first."""
        return self._load_commits()

    def head(self) -> Commit | None:
        commits = self._load_commits()
        return commits[-1] if commits else None

    def get_commit(self, commit_id: str) -> Commit:
        for commit in self._load_commits():
            if commit.commit_id.startswith(commit_id):
                return commit
        raise VCSError(f"unknown commit {commit_id!r}")

    def status(self) -> dict[str, str]:
        """Working-tree status relative to HEAD: path -> added/modified/clean."""
        head = self.head()
        tracked = {str(p.relative_to(self.root)): p for p in self._tracked_files()}
        result: dict[str, str] = {}
        head_files = head.files if head else {}
        for relative, path in tracked.items():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if relative not in head_files:
                result[relative] = "added"
            elif head_files[relative] != digest:
                result[relative] = "modified"
            else:
                result[relative] = "clean"
        for relative in head_files:
            if relative not in tracked:
                result[relative] = "removed"
        return result

    def diff(self, old_commit_id: str, new_commit_id: str | None = None) -> list[FileDiff]:
        """Diffs between two commits (or a commit and the working tree)."""
        old = self.get_commit(old_commit_id)
        if new_commit_id is not None:
            new_files = self.get_commit(new_commit_id).files
            read_new = lambda rel: self._read_blob(new_files[rel]).decode("utf-8")  # noqa: E731
        else:
            tracked = {str(p.relative_to(self.root)): p for p in self._tracked_files()}
            new_files = {rel: "" for rel in tracked}
            read_new = lambda rel: tracked[rel].read_text(encoding="utf-8")  # noqa: E731

        diffs: list[FileDiff] = []
        for relative in sorted(set(old.files) | set(new_files)):
            in_old = relative in old.files
            in_new = relative in new_files
            if in_old and not in_new:
                diffs.append(FileDiff(relative, "removed"))
                continue
            old_text = self._read_blob(old.files[relative]).decode("utf-8") if in_old else ""
            new_text = read_new(relative)
            if in_old and old_text == new_text:
                continue
            diff_text = "".join(difflib.unified_diff(
                old_text.splitlines(keepends=True),
                new_text.splitlines(keepends=True),
                fromfile=f"a/{relative}", tofile=f"b/{relative}",
            ))
            diffs.append(FileDiff(relative, "modified" if in_old else "added", diff_text))
        return diffs
