"""The standalone server asks glibc for one malloc arena, and never fails
for want of it."""

import ctypes
import platform

import pytest

from repro.netproto import server


def _glibc() -> bool:
    return platform.system() == "Linux" and platform.libc_ver()[0] == "glibc"


@pytest.mark.skipif(not _glibc(), reason="mallopt is glibc's")
def test_on_glibc_the_arena_count_is_set():
    assert server.single_malloc_arena() is True


@pytest.mark.parametrize("failure", [OSError("no libc"),
                                     AttributeError("mallopt")])
def test_without_mallopt_it_reports_false_instead_of_raising(
        monkeypatch, failure):
    def missing(*args, **kwargs):
        raise failure

    monkeypatch.setattr(ctypes, "CDLL", missing)
    assert server.single_malloc_arena() is False


def test_main_sets_it_before_the_database_opens(monkeypatch):
    calls = []
    monkeypatch.setattr(server, "single_malloc_arena",
                        lambda: calls.append("arena"))

    class Refused(Exception):
        pass

    def database(*args, **kwargs):
        calls.append("database")
        raise Refused

    monkeypatch.setattr(server, "Database", database)
    with pytest.raises(Refused):
        server.main(["--port", "0"])
    assert calls == ["arena", "database"]
