"""The storage seam: every operation that makes a service file durable.

The ingest WAL, the snapshot store and the shard layout reach the disk
only through a :class:`Disk`, so the durability order is written once
and a test can hand them a disk that loses what a power cut loses.  The
model is a journaling filesystem's: a file's bytes are durable once
:meth:`Disk.fsync` of it returns, a directory entry (create, rename,
unlink) once :meth:`Disk.fsync_dir` of its directory does; a crash
keeps those, a prefix of each file's later bytes and an in-order
prefix of each directory's later entry changes.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Union

PathLike = Union[str, Path]


class Disk:
    """The service's durable-file operations over ``os``."""

    def open(self, path: PathLike, mode: str = "ab") -> BinaryIO:
        """``path`` for writing: ``"ab"`` creates or appends, ``"xb"``
        creates and fails if it exists, ``"wb"`` starts it empty."""
        return open(path, mode)

    def fsync(self, f: BinaryIO) -> None:
        f.flush()
        os.fsync(f.fileno())

    def fsync_dir(self, directory: PathLike) -> None:
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def truncate(self, path: PathLike, size: int) -> None:
        """Cut ``path`` to its first ``size`` bytes, durably."""
        with open(path, "r+b") as f:
            f.truncate(size)
            self.fsync(f)

    def read(self, path: PathLike) -> Optional[bytes]:
        """The file's bytes; None when there is no such file."""
        try:
            with open(path, "rb") as f:
                return f.read()
        except FileNotFoundError:
            return None

    def listdir(self, directory: PathLike) -> List[str]:
        """Sorted entry names; none when the directory does not exist."""
        return sorted(os.listdir(directory)) if os.path.isdir(directory) else []

    def replace(self, src: PathLike, dst: PathLike) -> None:
        os.replace(src, dst)

    def unlink(self, path: PathLike) -> None:
        if os.path.lexists(path):
            os.unlink(path)

    def mkdir(self, directory: PathLike) -> None:
        """Create ``directory`` and drop any temporary file a crash in
        :meth:`write_atomic` left there (the real file is intact)."""
        os.makedirs(directory, exist_ok=True)
        for name in self.listdir(directory):
            if name.endswith(".tmp"):
                self.unlink(Path(directory) / name)

    def write_atomic(self, path: PathLike, data: bytes) -> None:
        """Replace ``path`` by ``data``, durable by name on return, so a
        crash leaves the old file or the new one, never a torn one:
        write a temporary file, fsync it, rename it over ``path``, fsync
        the directory.

        The fsyncs block the caller's thread -- for a snapshot, the
        server's event loop (a sync path end to end, so the async lint
        does not see it; ``tools/lint_determinism.py`` accepts it by
        name).  Snapshots are rare (idle eviction, ``snapshot`` frames,
        shutdown) and the durability order needs the write complete
        before the eviction or ack proceeds, so one bounded barrier on
        the loop is the simple, correct choice.
        """
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with self.open(tmp, "wb") as f:
            f.write(data)
            self.fsync(f)
        self.replace(tmp, path)
        self.fsync_dir(path.parent)


class MemoryDisk(Disk):
    """Whole files as bytes in a dict, for a snapshot store with no
    directory: each file is replaced whole, so nothing tears."""

    def __init__(self) -> None:
        self.files: Dict[Path, bytes] = {}

    def write_atomic(self, path: PathLike, data: bytes) -> None:
        self.files[Path(path)] = bytes(data)

    def read(self, path: PathLike) -> Optional[bytes]:
        return self.files.get(Path(path))

    def listdir(self, directory: PathLike) -> List[str]:
        return sorted(p.name for p in self.files if p.parent == Path(directory))

    def unlink(self, path: PathLike) -> None:
        self.files.pop(Path(path), None)

    def mkdir(self, directory: PathLike) -> None:
        pass
