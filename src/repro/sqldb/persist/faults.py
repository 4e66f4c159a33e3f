"""Disk fault injection — the storage-side twin of :mod:`repro.netproto.chaos`.

Every byte the persist subsystem moves goes through a :class:`FileSystem`
hook (``open`` / ``fsync`` / ``replace`` / ``read_bytes``) instead of the
builtins.  The default hook is a passthrough; tests install a
:class:`FaultyFS` — either globally with :func:`injected` (so a plain
``Database(path=...)`` open runs under faults) or per-store via the ``fs``
parameter threaded through ``wal.py`` / ``checkpoint.py`` / ``format.py``.

Faults follow the chaos-proxy discipline: they are keyed on *byte offsets*
and *1-indexed call counts*, never timers, so every failure is deterministic
and lands on the same write every run.  The menu mirrors what real disks do:

* ``fail_read_at_call`` / ``fail_write_at_call`` — EIO on the Nth call.
* ``enospc_at_byte``   — writes fail with ENOSPC once the file would grow
  past this many bytes (disk full mid-image); nothing of the failing block
  is written.
* ``torn_write_at_call`` — the Nth write stores only the first half of its
  buffer, then raises EIO (a torn page: power loss mid-write).
* ``short_write_at_call`` — the Nth write silently drops the second half of
  its buffer (a lying disk: only a later checksum can catch it).
* ``corrupt_at_byte``  — the byte at this absolute file offset is XOR'd with
  0xFF as it is written (bit flip on the write path).
* ``corrupt_read_at_byte`` — the byte at this offset is flipped as the file
  is read back (bit rot caught at verify/open time).
* ``fail_fsync_at_call`` — the Nth fsync raises EIO, *and every later one
  too* until :meth:`FaultyFS.heal` — after a failed fsync the page cache is
  in an unknown state, so pretending a retry could succeed would defeat the
  fsyncgate semantics the WAL is hardened against.
* ``fail_replace``     — ``os.replace`` (the checkpoint/backup atomic swap)
  raises EIO.

Like :class:`~repro.netproto.chaos.FaultyTransport`, none of this is
imported by production code paths beyond the passthrough default.
"""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

__all__ = [
    "DiskFaultSpec",
    "FaultyFS",
    "FaultyFile",
    "FileSystem",
    "current_fs",
    "injected",
    "install_fs",
]


class FileSystem:
    """The passthrough file-system hook the persist layer writes through."""

    def open(self, path: str | os.PathLike[str], mode: str) -> Any:
        return open(path, mode)

    def fsync(self, handle: Any) -> None:
        os.fsync(handle.fileno())

    def replace(self, source: str | os.PathLike[str],
                target: str | os.PathLike[str]) -> None:
        os.replace(source, target)

    def read_bytes(self, path: str | os.PathLike[str]) -> bytes:
        return Path(path).read_bytes()


#: The active hook.  Modules resolve it per operation (never cached at
#: construction), so installing a FaultyFS affects already-open stores too.
_ACTIVE: FileSystem = FileSystem()


def current_fs() -> FileSystem:
    """The hook persist operations are currently routed through."""
    return _ACTIVE


def install_fs(fs: FileSystem) -> FileSystem:
    """Install ``fs`` as the process-wide hook; returns it for chaining."""
    global _ACTIVE
    _ACTIVE = fs
    return fs


@contextmanager
def injected(fs: "FileSystem") -> Iterator["FileSystem"]:
    """Run a block with ``fs`` installed, restoring the previous hook after."""
    previous = current_fs()
    install_fs(fs)
    try:
        yield fs
    finally:
        install_fs(previous)


@dataclass
class DiskFaultSpec:
    """What a :class:`FaultyFS` does to files whose name contains ``match``.

    Call counts are 1-indexed across the filesystem's lifetime and counted
    per fault point (reads, writes, fsyncs each have their own counter);
    byte offsets are absolute file positions.
    """

    #: Only files whose path contains this substring are faulted
    #: (e.g. ``".wal"``, ``".tmp"``); ``None`` faults every file.
    match: str | None = None
    #: Raise EIO on the Nth read / write call (``None`` disables).
    fail_read_at_call: int | None = None
    fail_write_at_call: int | None = None
    #: Writes fail with ENOSPC once the file would grow past this offset.
    enospc_at_byte: int | None = None
    #: The Nth write stores half its buffer, then raises EIO (torn page).
    torn_write_at_call: int | None = None
    #: The Nth write silently drops the second half of its buffer.
    short_write_at_call: int | None = None
    #: XOR the byte at this absolute offset with 0xFF as it is written.
    corrupt_at_byte: int | None = None
    #: XOR the byte at this absolute offset with 0xFF as it is read back.
    corrupt_read_at_byte: int | None = None
    #: The Nth fsync raises EIO — and every later one, until healed.
    fail_fsync_at_call: int | None = None
    #: ``os.replace`` (atomic swap) raises EIO.
    fail_replace: bool = False

    def matches(self, path: str | os.PathLike[str]) -> bool:
        return self.match is None or self.match in str(path)


def _eio(operation: str) -> OSError:
    return OSError(errno.EIO, f"injected I/O error on {operation}")


class FaultyFile:
    """Wraps one file handle, applying the spec's write/read faults."""

    def __init__(self, inner: Any, fs: "FaultyFS") -> None:
        self._inner = inner
        self._fs = fs

    def write(self, data: bytes) -> int:
        fs, spec = self._fs, self._fs.spec
        fs.writes += 1
        position = self._inner.tell()
        if spec.fail_write_at_call is not None \
                and fs.writes == spec.fail_write_at_call:
            fs.faults_fired += 1
            raise _eio("write")
        if spec.enospc_at_byte is not None \
                and position + len(data) > spec.enospc_at_byte:
            fs.faults_fired += 1
            raise OSError(errno.ENOSPC, "injected disk full")
        if spec.torn_write_at_call is not None \
                and fs.writes == spec.torn_write_at_call:
            fs.faults_fired += 1
            self._inner.write(data[:len(data) // 2])
            self._inner.flush()
            raise _eio("write (torn)")
        if spec.short_write_at_call is not None \
                and fs.writes == spec.short_write_at_call:
            fs.faults_fired += 1
            self._inner.write(data[:len(data) // 2])
            return len(data)  # the lie a bad disk tells
        if spec.corrupt_at_byte is not None \
                and position <= spec.corrupt_at_byte < position + len(data):
            fs.faults_fired += 1
            index = spec.corrupt_at_byte - position
            data = data[:index] + bytes([data[index] ^ 0xFF]) + data[index + 1:]
        return self._inner.write(data)

    def read(self, *args: Any) -> bytes:
        fs, spec = self._fs, self._fs.spec
        fs.reads += 1
        if spec.fail_read_at_call is not None \
                and fs.reads == spec.fail_read_at_call:
            fs.faults_fired += 1
            raise _eio("read")
        return self._inner.read(*args)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._inner.close()


class FaultyFS(FileSystem):
    """A :class:`FileSystem` that injects :class:`DiskFaultSpec` faults."""

    def __init__(self, spec: DiskFaultSpec | None = None) -> None:
        self.spec = spec or DiskFaultSpec()
        self.reads = 0
        self.writes = 0
        self.fsyncs = 0
        self.faults_fired = 0

    def heal(self) -> None:
        """Clear every pending fault; subsequent calls pass through."""
        self.spec = DiskFaultSpec(match=self.spec.match)

    def open(self, path: str | os.PathLike[str], mode: str) -> Any:
        handle = open(path, mode)
        if not self.spec.matches(path):
            return handle
        return FaultyFile(handle, self)

    def fsync(self, handle: Any) -> None:
        name = getattr(handle, "name", "")
        if not self.spec.matches(name):
            os.fsync(handle.fileno())
            return
        self.fsyncs += 1
        spec = self.spec
        if spec.fail_fsync_at_call is not None \
                and self.fsyncs >= spec.fail_fsync_at_call:
            # a failed fsync stays failed: the kernel may have dropped the
            # dirty pages, so no later fsync can honestly claim durability
            self.faults_fired += 1
            raise _eio("fsync")
        os.fsync(handle.fileno())

    def replace(self, source: str | os.PathLike[str],
                target: str | os.PathLike[str]) -> None:
        if self.spec.fail_replace and (self.spec.matches(source)
                                       or self.spec.matches(target)):
            self.faults_fired += 1
            raise _eio("replace")
        os.replace(source, target)

    def read_bytes(self, path: str | os.PathLike[str]) -> bytes:
        data = Path(path).read_bytes()
        if not self.spec.matches(path):
            return data
        spec = self.spec
        self.reads += 1
        if spec.fail_read_at_call is not None \
                and self.reads == spec.fail_read_at_call:
            self.faults_fired += 1
            raise _eio("read")
        offset = spec.corrupt_read_at_byte
        if offset is not None and 0 <= offset < len(data):
            self.faults_fired += 1
            data = data[:offset] + bytes([data[offset] ^ 0xFF]) + data[offset + 1:]
        return data
