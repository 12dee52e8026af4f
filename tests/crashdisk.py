"""A crash-faithful fake disk: what a power cut keeps, seeded.

:class:`CrashDisk` implements :class:`repro.serve.disk.Disk` in memory
and keeps, per file, the bytes written (the page cache) apart from the
bytes an fsync made durable, and per directory the entries as of its
last ``fsync_dir`` apart from the creates, renames and unlinks since.
:meth:`CrashDisk.crash` returns the disk a power cut at that moment
could leave behind -- a fresh :class:`CrashDisk` to recover from:

* every file keeps its fsynced bytes plus a seeded prefix of its
  unsynced tail (a torn write);
* every directory keeps its fsynced entries plus a seeded, in-order
  prefix of its entry changes since -- the metadata ordering of a
  journaling filesystem, which the WAL's reclamation already assumes.

``before_op`` (when set) is called before every operation that changes
the disk, so a test can cut power at each of them.  Writes are not such
points: the torn tail of the next cut covers every prefix of them.
:meth:`CrashDisk.fail_fsync` makes a later file fsync raise (ENOSPC,
EIO...) and drop that file's unsynced tail, as Linux does.

``write_atomic`` is :class:`Disk`'s own, run over these operations, so
a change to its order is tested here exactly as the service runs it.
"""

from pathlib import Path

from repro.serve.disk import Disk


class _Inode:
    """One file: ``data`` as written, ``durable`` as of its last fsync."""

    def __init__(self, data=b""):
        self.data = bytearray(data)
        self.durable = bytes(data)

    def survivor(self, rng):
        """The file's bytes after a crash: the durable ones, plus a torn
        prefix of the tail written after them."""
        synced = len(self.durable)
        if self.data[:synced] != self.durable:  # an unsynced truncation
            return self.durable
        torn = rng.randint(synced, len(self.data))
        return self.durable + bytes(self.data[synced:torn])


class _Handle:
    """An open file; a write lands in the page cache only."""

    def __init__(self, inode):
        self.inode = inode

    def write(self, data):
        self.inode.data += data
        return len(data)

    def flush(self):
        pass

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class CrashDisk(Disk):
    """An in-memory :class:`Disk` that can lose what a power cut loses."""

    def __init__(self):
        #: directory -> {name: inode} as the running system sees it.
        self.dirs = {}
        #: directory -> {name: inode} as of its last fsync_dir.
        self.durable = {}
        #: directory -> [(op, name, arg)] since its last fsync_dir.
        self.pending = {}
        self.before_op = None
        self.ops = 0
        self._failure = None  # [fsyncs to go, error]

    # ------------------------------------------------------------------
    def _op(self):
        self.ops += 1
        if self.before_op is not None:
            self.before_op(self)

    def _where(self, path):
        path = Path(path)
        directory = str(path.parent)
        if directory not in self.dirs:
            raise FileNotFoundError(f"no directory {directory}")
        return directory, path.name

    def _inode(self, path):
        directory, name = self._where(path)
        inode = self.dirs[directory].get(name)
        if inode is None:
            raise FileNotFoundError(str(path))
        return inode

    def _sync(self, inode):
        self._op()
        if self._failure is not None:
            self._failure[0] -= 1
            if self._failure[0] == 0:
                error, self._failure = self._failure[1], None
                inode.data = bytearray(inode.durable)
                raise error
        inode.durable = bytes(inode.data)

    def fail_fsync(self, error, nth=1):
        """Make the ``nth`` file fsync from now raise ``error``."""
        self._failure = [nth, error]

    # ------------------------------------------------------------------
    def open(self, path, mode="ab"):
        directory, name = self._where(path)
        self._op()
        entries = self.dirs[directory]
        inode = entries.get(name)
        if inode is not None and mode == "xb":
            raise FileExistsError(str(path))
        if inode is None:
            inode = entries[name] = _Inode()
            self.pending[directory].append(("link", name, inode))
        elif mode == "wb":
            inode.data = bytearray()
        return _Handle(inode)

    def fsync(self, f):
        self._sync(f.inode)

    def fsync_dir(self, directory):
        directory = str(Path(directory))
        self._op()
        self.durable[directory] = dict(self.dirs[directory])
        self.pending[directory] = []

    def truncate(self, path, size):
        inode = self._inode(path)
        del inode.data[size:]
        self._sync(inode)

    def read(self, path):
        try:
            return bytes(self._inode(path).data)
        except FileNotFoundError:
            return None

    def listdir(self, directory):
        return sorted(self.dirs.get(str(Path(directory)), ()))

    def replace(self, src, dst):
        directory, name = self._where(src)
        target, new_name = self._where(dst)
        assert target == directory, "renames stay inside one directory"
        self._op()
        inode = self.dirs[directory].pop(name)
        self.dirs[directory][new_name] = inode
        self.pending[directory].append(("rename", name, (new_name, inode)))

    def unlink(self, path):
        directory, name = self._where(path)
        if name in self.dirs[directory]:
            self._op()
            del self.dirs[directory][name]
            self.pending[directory].append(("unlink", name, None))

    def mkdir(self, directory):
        directory = str(Path(directory))
        if directory not in self.dirs:
            self._op()
            self.dirs[directory], self.durable[directory] = {}, {}
            self.pending[directory] = []
        for name in self.listdir(directory):
            if name.endswith(".tmp"):
                self.unlink(Path(directory) / name)

    # ------------------------------------------------------------------
    def crash(self, rng):
        """A fresh disk holding what a power cut now could leave."""
        image = CrashDisk()
        for directory, durable in self.durable.items():
            entries = dict(durable)
            changes = self.pending[directory]
            for op, name, arg in changes[: rng.randint(0, len(changes))]:
                if op == "link":
                    entries[name] = arg
                elif op == "rename":
                    entries.pop(name, None)
                    entries[arg[0]] = arg[1]
                else:
                    entries.pop(name, None)
            kept = {name: _Inode(inode.survivor(rng)) for name, inode in sorted(entries.items())}
            image.dirs[directory], image.durable[directory] = kept, dict(kept)
            image.pending[directory] = []
        return image

