"""The storage seam: one place makes files durable, and power loss at any
disk operation costs the server nothing it acknowledged.

Three layers:

* an AST guard: under ``src/repro/serve/`` only ``disk.py`` calls
  ``os.fsync`` / ``os.fdatasync`` / ``os.replace`` / ``os.open``;
* the crash model of :class:`~tests.crashdisk.CrashDisk` itself, and the
  seam's three implementations agreeing on what a caller sees;
* the crash property: ``ServerCore`` with its WAL and snapshot store on
  one ``CrashDisk``, cut before every disk operation, each crash image
  recovered through the real open path.
"""

import ast
import errno
import random
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.serve.disk import Disk, MemoryDisk
from repro.serve.server import ServerConfig
from repro.serve.servercore import ServerCore
from repro.serve.snapshots import SnapshotStore
from repro.serve.wal import IngestWal
from tests.crashdisk import CrashDisk
from tests.test_serve_servercore import ENOSPC, SESSIONS, _action, _Harness

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# the guard: durable-file syscalls live in disk.py
# ----------------------------------------------------------------------
#: The ``os`` calls that make (or open the way to making) a file durable.
GUARDED = {"fsync", "fdatasync", "replace", "rename", "open"}

#: Files allowed to make guarded calls, and how many each may make: the
#: seam itself, and the router's publish of a shard's unix socket under
#: its final name -- an atomic rename for connecting clients, not a
#: durable write.
ALLOWED = {
    "src/repro/serve/disk.py": None,
    "src/repro/serve/router.py": {"replace": 1},
}


def guarded_calls(root):
    """``{file: [(name, line), ...]}`` for ``os.<name>(...)`` calls and
    ``from os import <name>`` imports of a guarded name under
    ``root/src/repro/serve``."""
    found = {}
    for path in sorted((root / "src" / "repro" / "serve").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [(alias.name, node.lineno) for alias in node.names]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
            ):
                names = [(node.func.attr, node.lineno)]
            else:
                continue
            where = path.relative_to(root).as_posix()
            for name, line in names:
                if name in GUARDED:
                    found.setdefault(where, []).append((name, line))
    return found


def stray_calls(root):
    stray = {}
    for where, calls in guarded_calls(root).items():
        if where in ALLOWED and ALLOWED[where] is None:
            continue
        budget = dict(ALLOWED.get(where) or {})
        for name, line in calls:
            if budget.get(name, 0) > 0:
                budget[name] -= 1
            else:
                stray.setdefault(where, []).append((name, line))
    return stray


def test_the_scan_sees_the_seam():
    names = {name for name, _ in guarded_calls(REPO_ROOT)["src/repro/serve/disk.py"]}
    assert names == {"fsync", "replace", "open"}


def test_the_scan_sees_a_from_import(tmp_path):
    serve = tmp_path / "src" / "repro" / "serve"
    serve.mkdir(parents=True)
    (serve / "wal.py").write_text("from os import fsync\nfsync(3)\n")
    assert stray_calls(tmp_path) == {"src/repro/serve/wal.py": [("fsync", 1)]}


def test_only_the_seam_makes_files_durable():
    stray = stray_calls(REPO_ROOT)
    assert not stray, f"durable-file calls outside serve/disk.py: {stray}"


# ----------------------------------------------------------------------
# the crash model
# ----------------------------------------------------------------------
def _cut(disk, seed=0):
    return disk.crash(random.Random(seed))


class TestCrashDisk:
    def test_unsynced_bytes_are_a_torn_prefix(self):
        disk = CrashDisk()
        disk.mkdir("d")
        f = disk.open("d/f", "xb")
        disk.fsync_dir("d")
        f.write(b"head|")
        disk.fsync(f)
        f.write(b"tail")
        images = {_cut(disk, seed).read("d/f") for seed in range(40)}
        assert images == {b"head|" + b"tail"[:k] for k in range(5)}

    def test_a_create_is_durable_only_after_fsync_dir(self):
        disk = CrashDisk()
        disk.mkdir("d")
        f = disk.open("d/f", "xb")
        f.write(b"x")
        disk.fsync(f)
        assert {_cut(disk, seed).read("d/f") for seed in range(20)} == {None, b"x"}
        disk.fsync_dir("d")
        assert {_cut(disk, seed).read("d/f") for seed in range(20)} == {b"x"}

    def test_entry_changes_survive_as_an_in_order_prefix(self):
        disk = CrashDisk()
        disk.mkdir("d")
        for name in "abc":
            disk.open(f"d/{name}", "xb")
        disk.fsync_dir("d")
        for name in "abc":
            disk.unlink(f"d/{name}")
        seen = {tuple(_cut(disk, seed).listdir("d")) for seed in range(40)}
        assert seen == {("a", "b", "c"), ("b", "c"), ("c",), ()}

    def test_write_atomic_leaves_the_old_file_or_the_new(self):
        disk = CrashDisk()
        disk.mkdir("d")
        disk.write_atomic("d/f", b"old")
        seen = set()

        def cut(disk):
            for seed in range(10):
                image = _cut(disk, seed)
                image.mkdir("d")  # an open sweeps the temporary file
                seen.add((image.read("d/f"), tuple(image.listdir("d"))))

        disk.before_op = cut
        disk.write_atomic("d/f", b"new")
        disk.before_op = None
        cut(disk)
        assert seen == {(b"old", ("f",)), (b"new", ("f",))}

    def test_a_failed_fsync_raises_and_drops_the_unsynced_tail(self):
        disk = CrashDisk()
        disk.mkdir("d")
        f = disk.open("d/f", "xb")
        f.write(b"kept")
        disk.fsync(f)
        f.write(b"lost")
        disk.fail_fsync(ENOSPC, nth=2)
        disk.fsync(f)  # the first fsync from now succeeds
        f.write(b"gone")
        with pytest.raises(OSError) as info:
            disk.fsync(f)
        assert info.value is ENOSPC
        assert disk.read("d/f") == b"keptlost"
        disk.fsync(f)  # one failure, not a broken disk


@pytest.mark.parametrize("make", [Disk, MemoryDisk, CrashDisk], ids=["os", "memory", "crash"])
def test_every_disk_answers_alike(tmp_path, make):
    disk, directory = make(), tmp_path / "d"
    disk.mkdir(directory)
    assert disk.listdir(directory) == [] and disk.read(directory / "f") is None
    disk.write_atomic(directory / "f", b"one")
    disk.write_atomic(directory / "f", b"two")
    disk.write_atomic(directory / "e", b"three")
    assert disk.listdir(directory) == ["e", "f"]
    assert disk.read(directory / "f") == b"two"
    disk.unlink(directory / "f")
    disk.unlink(directory / "f")  # already gone
    assert disk.listdir(directory) == ["e"]
    assert disk.listdir(tmp_path / "never") == []


def test_stale_temporary_files_are_swept_by_mkdir():
    disk = CrashDisk()
    disk.mkdir("d")
    with disk.open("d/f.tmp", "xb") as f:
        f.write(b"half")
    disk.write_atomic("d/f", b"whole")
    disk.mkdir("d")
    assert disk.listdir("d") == ["f"]


# ----------------------------------------------------------------------
# the WAL on a failing disk
# ----------------------------------------------------------------------
def test_a_wal_on_a_failing_disk_recovers_its_durable_prefix():
    disk = CrashDisk()
    wal = IngestWal("wal", segment_records=2, disk=disk)
    for i in range(3):
        wal.append("s", i, {"kind": "checkpoint", "pid": 0})
    assert wal.sync() == 2
    wal.append("s", 3, {"kind": "checkpoint", "pid": 0})
    disk.fail_fsync(OSError(errno.EIO, "Input/output error"))
    with pytest.raises(OSError):
        wal.sync()
    assert wal.durable_seq == 2
    for seed in range(10):
        image = _cut(disk, seed)
        assert [r.seq for r in IngestWal("wal", disk=image).recovered] == [0, 1, 2]


# ----------------------------------------------------------------------
# the property: power loss before every disk operation
# ----------------------------------------------------------------------
INGEST = ("checkpoint", "send", "deliver")


def _recover(image, root):
    """What the real open path makes of ``image``: each session's log."""
    wal = IngestWal(root / "wal", segment_records=3, disk=image)
    store = SnapshotStore(root / "snaps", disk=image)
    core = ServerCore(ServerConfig(workers=2), store, clock=lambda: 0.0)
    core.recover(wal)
    return {sid: session.ingest_log for sid, session in core.sessions.items()}


#: Every phase but ``explain``: it line-traces each rerun of a failing
#: example, which here is a whole server run with hundreds of recoveries,
#: and turns a failure found in a second into minutes and gigabytes.
_PHASES = [phase for phase in Phase if phase is not Phase.explain]


@settings(max_examples=25, deadline=None, phases=_PHASES)
@given(actions=st.lists(_action, min_size=10, max_size=40), seed=st.integers(0, 2**16))
def test_power_loss_at_any_disk_operation_loses_no_acked_op(actions, seed):
    root = Path("deployment")
    h = _Harness(root, workers=2, queue_depth=8, idle_timeout=5.0, segment_records=3)
    sent = {}  # frame seq -> kind
    applied = {}  # session -> ops as the WAL was handed them
    acked = {sid: 0 for sid in SESSIONS}
    greeted = set()
    append = h.wal.append

    def logged(session, idx, op):
        log = applied.setdefault(session, [])
        if idx >= 0:
            log.append(dict(op))
        return append(session, idx, op)

    def cut(disk):
        image = disk.crash(random.Random(seed * 1_000_003 + disk.ops))
        try:
            recovered = _recover(image, root)
        except Exception as exc:  # one failure, not one per raise site
            raise AssertionError(f"recovery raised {exc!r}") from None
        assert greeted <= set(recovered), "a greeted session is gone"
        for sid, log in recovered.items():
            assert log == applied[sid][: len(log)], f"{sid}: not a prefix of the applied ops"
            assert len(log) >= acked[sid], f"{sid}: lost an acked op"

    def settle(writes):
        for sid, replies in writes.items():
            for reply in replies:
                if reply["ok"] and sent[reply["seq"]] in INGEST:
                    acked[sid] += 1
                elif reply["ok"] and sent[reply["seq"]] == "hello":
                    greeted.add(sid)

    def frame(sid, kind, fields):
        reply = h.send(sid, kind, session=sid, **fields)
        sent[h.seq] = kind
        if reply is not None:
            settle({sid: [reply]})

    h.wal.append = logged
    h.disk.before_op = cut
    for sid in SESSIONS:
        frame(sid, "hello", {"n": 3})
    for roll, sid, (kind, fields), shard in actions:
        if roll < 55:
            frame(sid, kind, fields)
        elif roll < 85:
            settle(h.run(shard))
        elif roll < 91:
            h.core.tick()
        elif roll < 98:
            h.clock.now += 3.0
        else:
            h.fail_next = True
    settle(h.drain())
    h.core.shutdown()
    cut(h.disk)
