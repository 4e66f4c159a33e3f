"""Tests for the mini version-control store."""

import hashlib

import pytest

from repro.core.vcs import MiniVCS


@pytest.fixture()
def repo(tmp_path):
    (tmp_path / "udfs").mkdir()
    (tmp_path / "udfs" / "f.py").write_text("version 1\n")
    return MiniVCS(tmp_path)


class TestCommits:
    def test_commit_and_log(self, repo, tmp_path):
        first = repo.commit("initial import")
        assert repo.log() == [first]
        (tmp_path / "udfs" / "f.py").write_text("version 2\n")
        second = repo.commit("fix bug")
        log = repo.log()
        assert [c.message for c in log] == ["initial import", "fix bug"]
        assert second.parent == first.commit_id

    def test_only_tracked_glob_is_committed(self, repo, tmp_path):
        (tmp_path / "notes.txt").write_text("not python")
        commit = repo.commit("v1")
        assert "notes.txt" not in commit.files
        assert "udfs/f.py" in commit.files

    def test_empty_head(self, tmp_path):
        vcs = MiniVCS(tmp_path)
        assert vcs.log() == []
        assert vcs.commit("first").parent is None

    def test_history_survives_reopening_the_store(self, repo, tmp_path):
        first = repo.commit("v1")
        (tmp_path / "udfs" / "f.py").write_text("version 2\n")
        second = repo.commit("v2")
        assert MiniVCS(tmp_path).log() == [first, second]

    def test_blobs_are_stored_once_by_content(self, repo, tmp_path):
        first = repo.commit("v1")
        second = repo.commit("v1 again")
        digest = hashlib.sha256(b"version 1\n").hexdigest()
        assert first.files == second.files == {"udfs/f.py": digest}
        assert [p.name for p in (repo.store / "blobs").iterdir()] == [digest]
