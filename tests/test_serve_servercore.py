"""The server core on its own: no socket, a fake clock, a fake disk.

The durability order is a property of the core's steps, so it is pinned
here by performing each step's effects the way the driver does -- the
Sync (the WAL's, on a :class:`~tests.crashdisk.CrashDisk` that can fail
its next fsync), then the writes -- and checking the order at every
step, instead of through sockets and real fsyncs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.server import ServerConfig
from repro.serve.servercore import ServerCore
from repro.serve.session import offline_answers
from repro.serve.snapshots import SnapshotStore
from repro.serve.wal import IngestWal
from tests.crashdisk import CrashDisk

ENOSPC = OSError(28, "No space left on device")


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _Store(SnapshotStore):
    """A store that checks every snapshot covers only durable records and
    logs what it saved."""

    def __init__(self, directory, disk):
        super().__init__(directory, disk=disk)
        self.wal = None
        self.saved = []

    def save(self, session, wal_seq=-1):
        if self.wal is not None:
            assert wal_seq <= self.wal.durable_seq, (
                f"snapshot of {session.session_id} covers WAL seq {wal_seq}, "
                f"durable only through {self.wal.durable_seq}"
            )
        self.saved.append(session.session_id)
        return super().save(session, wal_seq=wal_seq)


class _Harness:
    """A core plus the driver's side of it, performed synchronously."""

    def __init__(self, tmp_path, *, wal=True, segment_records=4096, **knobs):
        knobs.setdefault("workers", 1)
        self.clock = _Clock()
        self.disk = CrashDisk()
        self.store = _Store(tmp_path / "snaps", self.disk)
        self.core = ServerCore(ServerConfig(**knobs), self.store, self.clock)
        if wal:
            self.wal = self.store.wal = IngestWal(
                tmp_path / "wal", segment_records=segment_records, disk=self.disk
            )
            self.core.recover(self.wal)
        self.fail_next = False
        self.seq = 0

    def send(self, conn, kind, **fields):
        """Dispatch one frame; returns its immediate reply, or None."""
        self.seq += 1
        reply, shard, close = self.core.dispatch({"kind": kind, "seq": self.seq, **fields}, conn)
        assert (reply is None) == (shard is not None)
        return reply

    def run(self, shard=0):
        """One step of ``shard`` with its effects in order: the Sync,
        then the writes.  Every ok reply carrying a WAL position must be
        durable by the time it is written."""
        step = self.core.step(shard)
        if step is None:
            return {}
        error = None
        if step.sync is not None:
            if self.fail_next:
                self.disk.fail_fsync(ENOSPC)
            try:
                assert self.wal.sync() >= step.sync
            except OSError as exc:
                error = exc
        writes = self.core.finish(step, error)
        for replies in writes.values():
            for reply in replies:
                if reply["ok"] and "wal_seq" in reply:
                    assert reply["wal_seq"] <= self.wal.durable_seq, reply
        return writes

    def drain(self):
        writes = {}
        for shard, queue in enumerate(self.core.queues):
            while queue:
                for conn, replies in self.run(shard).items():
                    writes.setdefault(conn, []).extend(replies)
        return writes


@pytest.fixture
def harness(tmp_path):
    """Builds harnesses; closes their WALs at teardown."""
    made = []

    def build(**knobs):
        made.append(_Harness(tmp_path / str(len(made)), **knobs))
        return made[-1]

    yield build
    for h in made:
        if h.core.wal is not None:
            h.core.wal.close()


def _mutations(harness, **knobs):
    h = harness(**knobs)
    h.send("c", "hello", session="s", n=2)
    h.send("c", "checkpoint", session="s", pid=0)
    return h


class TestDurabilityOrder:
    def test_no_ok_reply_before_the_sync_that_covers_it(self, harness):
        h = _mutations(harness)
        step = h.core.step(0)
        assert step.sync == h.wal.last_seq == 1 > h.wal.durable_seq
        h.wal.sync()
        replies = h.core.finish(step)["c"]
        assert [r["wal_seq"] for r in replies] == [0, 1]

    def test_a_step_that_appends_nothing_needs_no_sync(self, harness):
        h = _mutations(harness)
        h.drain()
        h.send("c", "query", session="s", what="metrics")
        assert h.core.step(0).sync is None

    @pytest.mark.parametrize("barrier", ["snapshot", "sweep"])
    def test_a_barrier_runs_only_after_a_sync(self, harness, barrier):
        h = _mutations(harness, idle_timeout=1.0)
        h.clock.now = 5.0
        if barrier == "snapshot":
            h.send("c", "snapshot", session="s")
        else:
            h.core.tick()
        first = h.core.step(0)
        assert len(first.held) == 2 and h.store.saved == []
        h.wal.sync()
        h.core.finish(first)
        h.clock.now = 10.0  # s, touched at 5, is idle by now
        h.run()  # the barrier heads the next step; _Store checks it
        assert h.store.saved == ["s"]
        assert ("s" in h.core.sessions) == (barrier == "snapshot")

    def test_a_sweep_spares_a_session_touched_after_the_tick(self, harness):
        h = _mutations(harness, idle_timeout=10.0)
        h.drain()  # s last touched at t=0
        h.clock.now = 11.0
        h.send("c", "checkpoint", session="s", pid=1)
        h.core.tick()  # s is idle now, but a frame for it is queued ahead
        h.clock.now = 11.5
        h.drain()
        assert "s" in h.core.sessions and h.store.saved == []
        h.clock.now = 22.0
        h.core.tick()
        h.drain()
        assert "s" not in h.core.sessions and h.store.saved == ["s"]


class TestWalFailure:
    def test_failed_sync_refuses_held_replies_and_halts(self, harness):
        h = _mutations(harness)
        h.drain()
        h.send("c", "checkpoint", session="s", pid=1)
        h.send("c", "query", session="s", what="metrics")
        h.fail_next = True
        replies = h.run()["c"]
        assert [r["error"] for r in replies] == ["wal_failure"] * 2
        assert "No space left" in replies[0]["detail"]
        assert h.core.failed is ENOSPC
        # Later session frames are queued, refused in order, and the
        # connection is to be closed; snapshots are refused too.
        for kind, fields in (("checkpoint", {"pid": 0}), ("snapshot", {})):
            h.seq += 1
            doc = {"kind": kind, "seq": h.seq, "session": "s", **fields}
            assert h.core.dispatch(doc, "c") == (None, 0, True)
        assert [r["error"] for r in h.drain()["c"]] == ["wal_failure"] * 2
        pong = h.send("c", "ping")
        assert pong["ok"] is True and pong["degraded"] is True
        # Shutdown skips the snapshot pass: a watermark now would cover
        # frames whose acks never left.
        assert h.core.shutdown() == {"s": 2}
        assert h.store.saved == []

    def test_healthy_shutdown_snapshots_every_session(self, harness):
        h = _mutations(harness)
        h.send("d", "hello", session="t", n=3)
        h.drain()
        assert h.core.shutdown() == {"s": 1, "t": 0}
        assert sorted(h.store.saved) == ["s", "t"]


class TestShedding:
    @pytest.mark.parametrize("depth", [1, 3])
    def test_sheds_at_queue_depth(self, harness, depth):
        h = harness(wal=False, queue_depth=depth)
        assert [h.send("c", "hello", session="s", n=2) for _ in range(depth)] == [None] * depth
        shed = h.send("c", "hello", session="s", n=2)
        assert shed["error"] == "overloaded" and h.core.shed_frames == 1
        h.drain()
        assert h.send("c", "hello", session="s", n=2) is None

    def test_tick_skips_a_full_shard_and_queues_one_sweep(self, harness):
        h = harness(wal=False, queue_depth=2, idle_timeout=1.0)
        h.core.tick()
        h.core.tick()
        assert list(h.core.queues[0]) == [None]
        h.drain()
        h.send("c", "hello", session="s", n=2)
        h.send("c", "hello", session="s", n=2)
        h.core.tick()
        assert None not in h.core.queues[0]


# ----------------------------------------------------------------------
# the property: random interleavings, at most one failing Sync
# ----------------------------------------------------------------------
SESSIONS = ("a", "b", "c")
N = 3

_pid = st.integers(0, N - 1)
_frame = st.one_of(
    st.tuples(st.just("checkpoint"), st.fixed_dictionaries({"pid": _pid})),
    st.tuples(st.just("send"), st.fixed_dictionaries({"src": _pid, "dst": _pid})),
    st.tuples(st.just("deliver"), st.fixed_dictionaries({"msg_id": st.integers(0, 4)})),
    st.tuples(st.just("query"), st.fixed_dictionaries({
        "what": st.sampled_from(["rdt_status", "recovery_line"]),
        "crashed": st.one_of(st.none(), st.lists(_pid, max_size=2)),
    })),
    st.tuples(st.just("snapshot"), st.just({})),
    st.tuples(st.just("hello"), st.just({"n": N})),
)
#: ``(roll, session, frame, shard)``: the roll picks a frame (55 %), a
#: step of ``shard`` (30 %), an idle tick, a clock advance, or arming
#: the one failing Sync (2 %).
_action = st.tuples(st.integers(0, 99), st.sampled_from(SESSIONS), _frame, st.integers(0, 1))


@settings(max_examples=60, deadline=None)
@given(actions=st.lists(_action, min_size=20, max_size=80))
def test_random_interleavings_keep_the_contract(tmp_path_factory, actions):
    h = _Harness(tmp_path_factory.mktemp("core"), workers=2, queue_depth=8, idle_timeout=5.0)
    sent = {}  # seq -> (kind, fields)
    acked = {sid: [] for sid in SESSIONS}
    failed_at = None  # len(h.store.saved) when the Sync failed

    def settle(writes):
        nonlocal failed_at
        if h.core.failed is not None and failed_at is None:
            failed_at = len(h.store.saved)
        for sid, replies in writes.items():
            for reply in replies:
                kind, fields = sent[reply["seq"]]
                if h.core.failed is not None:
                    assert not reply["ok"], "(c) an ok session reply after the halt"
                if not reply["ok"]:
                    continue
                if kind in ("checkpoint", "send", "deliver"):
                    acked[sid].append({"kind": kind, **fields})
                elif kind == "query":
                    crashed = fields["crashed"]
                    offline = offline_answers(sid, N, "bhmr", acked[sid], crashed=crashed)
                    assert reply["result"] == offline[fields["what"]], "(b)"

    def frame(sid, kind, fields):
        reply = h.send(sid, kind, session=sid, **fields)
        sent[h.seq] = (kind, fields)
        if reply is not None:
            settle({sid: [reply]})

    for sid in SESSIONS:
        frame(sid, "hello", {"n": N})
    for roll, sid, (kind, fields), shard in actions:
        if roll < 55:
            frame(sid, kind, fields)
        elif roll < 85:
            settle(h.run(shard))
        elif roll < 91:
            h.core.tick()
        elif roll < 98:
            h.clock.now += 3.0
        elif failed_at is None:
            h.fail_next = True
    settle(h.drain())
    h.core.shutdown()
    if failed_at is not None:
        assert len(h.store.saved) == failed_at, "(c) a snapshot after the halt"
