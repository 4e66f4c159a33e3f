"""A minimal version-control store for UDF project files.

The paper's motivation (§1): "UDFs are stored within the database server.  As
a result, version control systems (VCSs) such as Git cannot be easily
integrated to keep track of changes to UDFs.  Without a VCS, cooperative
development is challenging and the development history is not stored."

Once devUDF has imported the UDFs as files in the IDE project, any VCS can
track them.  The reproduction ships a small content-addressed store (commits
of file snapshots and their history, which ``devudf history`` lists) so the
workflow benchmarks and examples can demonstrate the point without
requiring a git binary.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path


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
