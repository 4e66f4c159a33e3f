"""Tests for the mini version-control store."""

import pytest

from repro.core.vcs import MiniVCS
from repro.errors import VCSError


@pytest.fixture()
def repo(tmp_path):
    (tmp_path / "udfs").mkdir()
    (tmp_path / "udfs" / "f.py").write_text("version 1\n")
    return MiniVCS(tmp_path)


class TestCommits:
    def test_commit_and_log(self, repo, tmp_path):
        first = repo.commit("initial import")
        assert repo.head().commit_id == first.commit_id
        (tmp_path / "udfs" / "f.py").write_text("version 2\n")
        second = repo.commit("fix bug")
        log = repo.log()
        assert [c.message for c in log] == ["initial import", "fix bug"]
        assert second.parent == first.commit_id

    def test_get_commit_by_prefix(self, repo):
        commit = repo.commit("v1")
        assert repo.get_commit(commit.commit_id[:8]).commit_id == commit.commit_id
        with pytest.raises(VCSError):
            repo.get_commit("ffffffff")

    def test_only_tracked_glob_is_committed(self, repo, tmp_path):
        (tmp_path / "notes.txt").write_text("not python")
        commit = repo.commit("v1")
        assert "notes.txt" not in commit.files
        assert "udfs/f.py" in commit.files

    def test_empty_head(self, tmp_path):
        assert MiniVCS(tmp_path).head() is None


class TestStatusAndDiff:
    def test_status_clean_modified_added(self, repo, tmp_path):
        repo.commit("v1")
        assert repo.status()["udfs/f.py"] == "clean"
        (tmp_path / "udfs" / "f.py").write_text("changed\n")
        (tmp_path / "udfs" / "g.py").write_text("new file\n")
        status = repo.status()
        assert status["udfs/f.py"] == "modified"
        assert status["udfs/g.py"] == "added"

    def test_status_removed(self, repo, tmp_path):
        repo.commit("v1")
        (tmp_path / "udfs" / "f.py").unlink()
        assert repo.status()["udfs/f.py"] == "removed"

    def test_diff_between_commits(self, repo, tmp_path):
        first = repo.commit("v1")
        (tmp_path / "udfs" / "f.py").write_text("version 1\nplus a fix\n")
        second = repo.commit("v2")
        diffs = repo.diff(first.commit_id, second.commit_id)
        assert len(diffs) == 1
        assert diffs[0].status == "modified"
        assert "+plus a fix" in diffs[0].diff

    def test_diff_against_working_tree(self, repo, tmp_path):
        first = repo.commit("v1")
        (tmp_path / "udfs" / "f.py").write_text("working tree change\n")
        diffs = repo.diff(first.commit_id)
        assert diffs and diffs[0].status == "modified"

    def test_unchanged_files_not_in_diff(self, repo, tmp_path):
        first = repo.commit("v1")
        (tmp_path / "udfs" / "g.py").write_text("new\n")
        second = repo.commit("v2")
        diffs = repo.diff(first.commit_id, second.commit_id)
        assert [d.path for d in diffs] == ["udfs/g.py"]
        assert diffs[0].status == "added"
