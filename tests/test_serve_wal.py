"""The ingest WAL: chain integrity, torn-tail repair, hostile disks.

Two layers:

* unit tests for the writer (append/sync/durable_seq, rotation, reopen,
  snapshot-driven truncation) and for :func:`recover_sessions`;
* hypothesis property tests that damage a real on-disk WAL -- truncate
  at an arbitrary byte, flip an arbitrary bit, delete or swap whole
  segments -- and assert the *detection contract*: :func:`read_wal`
  either returns an exact prefix of the original records or raises
  :class:`WalCorruption`.  It never returns fabricated or reordered
  state, no matter where the damage lands.
"""

import asyncio
import errno
import functools
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.jsonio import canonical_bytes
from repro.serve.disk import Disk
from repro.serve.wal import (
    GENESIS,
    IngestWal,
    WalCommitter,
    WalCorruption,
    WalError,
    make_record,
    read_wal,
    recover_sessions,
)
from tests.crashdisk import CrashDisk

#: The real disk: these tests read and damage the files it writes.
DISK = Disk()


def fill(directory, count, *, segment_records=8, session="s"):
    """A WAL with ``count`` checkpoint records, synced and closed."""
    wal = IngestWal(directory, segment_records=segment_records, disk=DISK)
    for i in range(count):
        wal.append(session, i, {"kind": "checkpoint", "pid": i % 3})
    wal.sync()
    wal.close()
    return wal


# ----------------------------------------------------------------------
# writer basics
# ----------------------------------------------------------------------
class TestIngestWal:
    def test_append_is_not_durable_until_sync(self, tmp_path):
        wal = IngestWal(tmp_path, disk=DISK)
        wal.append("s", 0, {"kind": "checkpoint", "pid": 0})
        assert wal.last_seq == 0 and wal.durable_seq == -1
        assert read_wal(tmp_path) == []  # nothing on disk yet
        assert wal.sync() == 0
        assert wal.durable_seq == 0
        assert [r.seq for r in read_wal(tmp_path)] == [0]

    def test_sync_batches_and_partial_drain(self, tmp_path):
        wal = IngestWal(tmp_path, disk=DISK)
        for i in range(5):
            wal.append("s", i, {"kind": "checkpoint", "pid": 0})
        assert wal.sync(max_records=2) == 1
        assert wal.pending() == 3
        assert wal.sync() == 4
        assert wal.pending() == 0

    def test_chain_links_records(self, tmp_path):
        fill(tmp_path, 4)
        records = read_wal(tmp_path)
        assert records[0].prev == GENESIS
        for before, after in zip(records, records[1:]):
            assert after.prev == before.digest
            assert after.seq == before.seq + 1

    def test_rotation_by_segment_records(self, tmp_path):
        wal = fill(tmp_path, 10, segment_records=4)
        assert wal.segment_names() == [
            "wal-00000000000000000000.log",
            "wal-00000000000000000004.log",
            "wal-00000000000000000008.log",
        ]
        assert len(read_wal(tmp_path)) == 10

    def test_new_segment_is_durable_by_name_before_its_records(
        self, tmp_path, monkeypatch
    ):
        """A segment's own fsync makes its bytes durable, not its name:
        the directory is fsynced after each segment is created and
        before any of its records counts as durable."""
        import os
        import stat

        wal = IngestWal(tmp_path, segment_records=2, disk=DISK)
        real_fsync = os.fsync
        dir_fsyncs = []  # (durable_seq, segment files) at each directory fsync

        def recording_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                names = {p.name for p in tmp_path.glob("wal-*.log")}
                dir_fsyncs.append((wal.durable_seq, names))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        for i in range(5):
            wal.append("s", i, {"kind": "checkpoint", "pid": 0})
        wal.sync()
        wal.close()
        assert wal.durable_seq == 4
        segments = wal.segment_names()
        assert len(segments) == 3
        for name in segments:
            first_seq = int(name[len("wal-") : -len(".log")])
            assert any(
                name in names and durable < first_seq
                for durable, names in dir_fsyncs
            ), (name, dir_fsyncs)

    def test_reopen_resumes_the_chain(self, tmp_path):
        fill(tmp_path, 5, segment_records=4)
        wal = IngestWal(tmp_path, segment_records=4, disk=DISK)
        assert len(wal.recovered) == 5
        assert wal.repaired_tail == 0
        wal.append("s", 5, {"kind": "checkpoint", "pid": 1})
        wal.sync()
        wal.close()
        records = read_wal(tmp_path)
        assert [r.seq for r in records] == list(range(6))
        assert records[5].prev == records[4].digest

    @given(
        appends=st.lists(
            st.tuples(
                # Quotes, backslashes, control and non-ASCII characters
                # all escape differently in canonical JSON.
                st.text(min_size=1, max_size=10),
                st.integers(min_value=-1, max_value=2**40),
                st.dictionaries(
                    st.text(max_size=6),
                    st.one_of(
                        st.integers(), st.text(max_size=6), st.booleans(),
                        st.none(), st.lists(st.integers(), max_size=3),
                    ),
                    max_size=4,
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_each_line_is_the_records_canonical_json(
        self, tmp_path_factory, appends
    ):
        """Lines are built from the digest's one encoding of the body;
        they must be the record documents' canonical bytes exactly."""
        directory = tmp_path_factory.mktemp("lines")
        wal = IngestWal(directory, segment_records=5, disk=DISK)
        records = [wal.append(*args) for args in appends]
        assert wal.pending() == len(records)
        wal.close()
        lines = [
            line + b"\n"
            for path in sorted(directory.glob("wal-*.log"))
            for line in path.read_bytes().splitlines()[1:]  # past the header
        ]
        assert lines == [
            canonical_bytes(record.as_doc()) + b"\n" for record in records
        ]
        assert read_wal(directory) == records

    def test_closed_wal_rejects_writes(self, tmp_path):
        wal = fill(tmp_path, 1)
        with pytest.raises(WalError, match="closed"):
            wal.append("s", 1, {"kind": "checkpoint", "pid": 0})
        with pytest.raises(WalError, match="closed"):
            wal.sync()

    def test_a_failed_sync_halts_the_writer(self):
        """Records a failed fsync took off the queue may or may not be
        on disk: no later record may chain past them as durable."""
        disk = CrashDisk()
        wal = IngestWal("wal", disk=disk)
        for i in range(3):
            wal.append("s", i, {"kind": "checkpoint", "pid": 0})
        assert wal.sync() == 2
        wal.append("s", 3, {"kind": "checkpoint", "pid": 0})
        disk.fail_fsync(OSError(errno.ENOSPC, "No space left on device"))
        with pytest.raises(OSError, match="No space"):
            wal.sync()
        with pytest.raises(WalError, match="no progress past seq 2") as info:
            wal.append("s", 4, {"kind": "checkpoint", "pid": 0})
        assert info.value.__cause__.errno == errno.ENOSPC
        with pytest.raises(WalError, match="no progress"):
            wal.sync()
        assert wal.durable_seq == 2
        wal.close()  # releases the segment; neither syncs nor raises
        assert [r.seq for r in read_wal("wal", disk)] == [0, 1, 2]

    def test_torn_tail_is_repaired_on_open(self, tmp_path):
        fill(tmp_path, 3, segment_records=100)
        path = next(tmp_path.glob("wal-*.log"))
        with open(path, "ab") as f:
            f.write(b'{"seq": 3, "ses')  # the crash mid-write
        wal = IngestWal(tmp_path, disk=DISK)
        assert wal.repaired_tail == 1
        assert len(wal.recovered) == 3
        wal.close()
        # The repair truncated the junk: a fresh open is clean.
        assert IngestWal(tmp_path, disk=DISK).repaired_tail == 0

    def test_mid_file_damage_halts(self, tmp_path):
        fill(tmp_path, 6, segment_records=100)
        path = next(tmp_path.glob("wal-*.log"))
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"garbage"  # record 1 of 6: records follow it
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(WalCorruption, match="not a torn tail"):
            read_wal(tmp_path)

    def test_truncate_covered_respects_watermarks(self, tmp_path):
        wal = IngestWal(tmp_path, segment_records=3, disk=DISK)
        for i in range(9):
            wal.append("s", i, {"kind": "checkpoint", "pid": 0})
        wal.sync()
        # Watermark 5 covers segments [0..2] and [3..5] but not [6..8],
        # which is also the active segment and must survive regardless.
        removed = wal.truncate_covered({"s": 5})
        assert removed == [
            "wal-00000000000000000000.log",
            "wal-00000000000000000003.log",
        ]
        assert wal.segment_names() == ["wal-00000000000000000006.log"]
        wal.close()
        # The survivors no longer start the chain at GENESIS; the
        # reclamation anchor written before the unlinks vouches for the
        # new starting point, so a reopen recovers exactly them (the
        # reclaimed prefix lives on in the snapshots whose watermarks
        # justified the truncation).
        assert [r.seq for r in read_wal(tmp_path)] == [6, 7, 8]
        wal = IngestWal(tmp_path, segment_records=3, disk=DISK)
        assert [r.seq for r in wal.recovered] == [6, 7, 8]
        assert wal.repaired_tail == 0
        wal.append("s", 9, {"kind": "checkpoint", "pid": 0})
        wal.sync()
        wal.close()
        records = read_wal(tmp_path)
        assert [r.seq for r in records] == [6, 7, 8, 9]
        assert records[-1].prev == records[-2].digest

    def test_truncate_stops_at_first_uncovered_segment(self, tmp_path):
        wal = IngestWal(tmp_path, segment_records=2, disk=DISK)
        for i in range(4):
            wal.append("a" if i < 2 else "b", i % 2, {"kind": "checkpoint", "pid": 0})
        # Force the writer past both segments so neither is active.
        for i in range(2):
            wal.append("c", i, {"kind": "checkpoint", "pid": 0})
        wal.sync()
        # 'a' is covered, 'b' is not: only the first segment may go.
        assert wal.truncate_covered({"a": 10}) == [
            "wal-00000000000000000000.log"
        ]
        wal.close()

    def test_read_missing_directory_is_empty(self, tmp_path):
        assert read_wal(tmp_path / "never-created") == []

    def test_header_only_tail_resumes_without_double_header(self, tmp_path):
        # A crash can tear away every record of the final segment,
        # leaving only its header (which torn-tail handling rightly
        # keeps).  The reopened writer must *resume* that file -- the
        # regression was recreating it with open(..., "ab"), burying a
        # second header mid-file and corrupting every later record.
        fill(tmp_path, 6, segment_records=3)
        tail = sorted(tmp_path.glob("wal-*.log"))[-1]
        blob = tail.read_bytes()
        with open(tail, "r+b") as f:
            f.truncate(blob.index(b"\n") + 1)  # keep exactly the header
        wal = IngestWal(tmp_path, segment_records=3, disk=DISK)
        assert [r.seq for r in wal.recovered] == [0, 1, 2]
        for i in range(3, 6):
            wal.append("s", i, {"kind": "checkpoint", "pid": 0})
        wal.sync()
        wal.close()
        assert [r.seq for r in read_wal(tmp_path)] == list(range(6))
        # Still exactly one header in the resumed segment.
        assert tail.read_bytes().count(b'"wal":1') == 1
        assert IngestWal(tmp_path, segment_records=3, disk=DISK).repaired_tail == 0

    def test_repaired_tail_resumes_appends(self, tmp_path):
        fill(tmp_path, 3, segment_records=100)
        path = next(tmp_path.glob("wal-*.log"))
        with open(path, "ab") as f:
            f.write(b'{"seq": 3, "ses')  # the crash mid-write
        wal = IngestWal(tmp_path, segment_records=100, disk=DISK)
        assert wal.repaired_tail == 1
        wal.append("s", 3, {"kind": "checkpoint", "pid": 0})
        wal.sync()
        wal.close()
        records = read_wal(tmp_path)
        assert [r.seq for r in records] == [0, 1, 2, 3]
        assert records[3].prev == records[2].digest


# ----------------------------------------------------------------------
# snapshot-driven reclamation: the anchor survives crashes and reopens
# ----------------------------------------------------------------------
class TestReclamationAnchor:
    def _filled(self, tmp_path, count=12):
        wal = IngestWal(tmp_path, segment_records=3, disk=DISK)
        for i in range(count):
            wal.append("s", i, {"kind": "checkpoint", "pid": 0})
        wal.sync()
        return wal

    def test_crash_between_anchor_and_unlinks_recovers(self, tmp_path):
        wal = self._filled(tmp_path)  # segments at 0, 3, 6, 9
        saved = {
            p.name: p.read_bytes() for p in sorted(tmp_path.glob("wal-*.log"))
        }
        assert wal.truncate_covered({"s": 5}) == [
            "wal-00000000000000000000.log",
            "wal-00000000000000000003.log",
        ]
        wal.close()
        # Simulate a kill -9 after unlink(segment 0) but before
        # unlink(segment 3): put segment 3 back.  Its own header seeds
        # the chain (seq 3 < the anchor's 6) and everything verifies
        # forward through the anchored segment.
        name = "wal-00000000000000000003.log"
        (tmp_path / name).write_bytes(saved[name])
        assert [r.seq for r in read_wal(tmp_path)] == list(range(3, 12))
        wal = IngestWal(tmp_path, segment_records=3, disk=DISK)
        assert [r.seq for r in wal.recovered] == list(range(3, 12))
        wal.close()

    def test_deleting_the_anchored_segment_halts(self, tmp_path):
        wal = self._filled(tmp_path)
        wal.truncate_covered({"s": 5})  # anchor now vouches for seq 6
        wal.close()
        (tmp_path / "wal-00000000000000000006.log").unlink()
        with pytest.raises(WalCorruption, match="anchor"):
            read_wal(tmp_path)

    def test_anchor_without_segments_halts(self, tmp_path):
        wal = self._filled(tmp_path)
        wal.truncate_covered({"s": 5})
        wal.close()
        for path in tmp_path.glob("wal-*.log"):
            path.unlink()
        with pytest.raises(WalCorruption, match="anchor"):
            read_wal(tmp_path)

    def test_leading_deletion_without_anchor_still_halts(self, tmp_path):
        self._filled(tmp_path).close()
        sorted(tmp_path.glob("wal-*.log"))[0].unlink()
        with pytest.raises(WalCorruption, match="no\\s+reclamation anchor"):
            read_wal(tmp_path)

    def test_repeated_reclamation_cycles(self, tmp_path):
        # Snapshot -> truncate -> crash -> reopen, several times over:
        # the anchor must track the frontier, not just the first cut.
        wal = IngestWal(tmp_path, segment_records=3, disk=DISK)
        seq = 0
        for cycle in range(3):
            for _ in range(6):
                wal.append("s", seq, {"kind": "checkpoint", "pid": 0})
                seq += 1
            wal.sync()
            wal.truncate_covered({"s": seq - 4})
            wal.close()
            wal = IngestWal(tmp_path, segment_records=3, disk=DISK)
            assert wal.last_seq == seq - 1
            recovered = [r.seq for r in wal.recovered]
            assert recovered == list(range(recovered[0], seq))
        wal.close()


# ----------------------------------------------------------------------
# group commit
# ----------------------------------------------------------------------
class TestWalCommitter:
    def test_many_waiters_share_fsyncs(self, tmp_path):
        async def scenario():
            wal = IngestWal(tmp_path, disk=DISK)
            committer = WalCommitter(wal, fsync_batch=64)
            records = [
                wal.append("s", i, {"kind": "checkpoint", "pid": 0})
                for i in range(16)
            ]
            await asyncio.gather(
                *(committer.commit(r.seq) for r in records)
            )
            assert wal.durable_seq == 15
            wal.close()
            return wal.fsyncs

        fsyncs = asyncio.run(scenario())
        # 16 concurrent commits over batch=64 coalesce; the exact count
        # depends on scheduling but must be far below one-per-record.
        assert 1 <= fsyncs <= 4

    def test_small_batch_caps_records_per_fsync(self, tmp_path):
        async def scenario():
            wal = IngestWal(tmp_path, disk=DISK)
            committer = WalCommitter(wal, fsync_batch=2)
            for i in range(6):
                wal.append("s", i, {"kind": "checkpoint", "pid": 0})
            await committer.commit(5)
            wal.close()
            return committer.commits

        assert asyncio.run(scenario()) == 3  # 6 records / batch of 2

    def test_cancelled_waiter_neither_aborts_nor_stalls_the_fsync(self, tmp_path):
        async def scenario():
            wal = IngestWal(tmp_path, disk=DISK)
            committer = WalCommitter(wal, fsync_batch=64)
            records = [
                wal.append("s", i, {"kind": "checkpoint", "pid": 0})
                for i in range(8)
            ]
            # Hold the fsync on the sync thread until the waiter is gone.
            entered, release = threading.Event(), threading.Event()
            real_sync = wal.sync

            def gated_sync(max_records=None):
                entered.set()
                release.wait(10.0)
                return real_sync(max_records)

            wal.sync = gated_sync
            doomed = asyncio.ensure_future(committer.commit(records[3].seq))
            others = [
                asyncio.ensure_future(committer.commit(r.seq)) for r in records[4:]
            ]
            while not entered.is_set():
                await asyncio.sleep(0.001)
            doomed.cancel()
            await asyncio.sleep(0)
            release.set()
            results = await asyncio.wait_for(asyncio.gather(*others), 10.0)
            await committer.close()
            wal.close()
            return doomed, results, wal.fsyncs

        doomed, results, fsyncs = asyncio.run(scenario())
        assert doomed.cancelled()
        assert [durable for durable, _ in results] == [7, 7, 7, 7]
        # The new segment is named to exactly one waiter.
        assert sum((opened for _, opened in results), []) == [
            "wal-00000000000000000000.log"
        ]
        assert fsyncs == 1

    def test_failing_sync_raises_in_every_waiter_of_its_batch(self, tmp_path):
        async def scenario():
            wal = IngestWal(tmp_path, disk=DISK)
            committer = WalCommitter(wal, fsync_batch=64)
            first = wal.append("s", 0, {"kind": "checkpoint", "pid": 0})
            await committer.commit(first.seq)  # the sync thread is running

            def broken_sync(max_records=None):
                raise OSError(28, "No space left on device")

            wal.sync = broken_sync  # swapped under the live thread
            records = [
                wal.append("s", i, {"kind": "checkpoint", "pid": 0})
                for i in range(1, 5)
            ]
            outcomes = await asyncio.wait_for(
                asyncio.gather(
                    *(committer.commit(r.seq) for r in records),
                    return_exceptions=True,
                ),
                10.0,
            )
            await committer.close()
            return outcomes, wal.durable_seq

        outcomes, durable = asyncio.run(scenario())
        assert len(outcomes) == 4
        assert all(isinstance(o, OSError) and o.errno == 28 for o in outcomes)
        assert durable == 0

    def test_records_lost_to_a_failed_fsync_fail_later_commits(
        self, tmp_path, monkeypatch
    ):
        """A waiter handed over after a failed fsync took its records
        off the queue gets an error, not a sync thread that spins."""
        import os

        async def scenario():
            wal = IngestWal(tmp_path, disk=DISK)
            committer = WalCommitter(wal, fsync_batch=64)
            first = wal.append("s", 0, {"kind": "checkpoint", "pid": 0})
            await committer.commit(first.seq)
            lost = [
                wal.append("s", i, {"kind": "checkpoint", "pid": 0})
                for i in range(1, 3)
            ]

            def failing_fsync(fd):
                raise OSError(5, "Input/output error")

            with monkeypatch.context() as patch:
                patch.setattr(os, "fsync", failing_fsync)
                with pytest.raises(OSError):
                    await committer.commit(lost[0].seq)
            with pytest.raises(WalError, match="no progress"):
                await asyncio.wait_for(committer.commit(lost[1].seq), 10.0)
            await committer.close()

        asyncio.run(scenario())

    def test_no_sync_thread_outlives_the_server(self, tmp_path):
        from repro.serve.client import Client
        from repro.serve.server import ServerConfig, serve_in_thread

        config = ServerConfig(
            unix_path=str(tmp_path / "t.sock"), wal_dir=str(tmp_path / "wal")
        )
        with serve_in_thread(config) as handle:
            with Client(handle.connect_address()) as c:
                c.hello("s", n=3)
                c.checkpoint("s", pid=0)
            thread = handle.server._committer._thread
            assert thread is not None and thread.is_alive()
        assert not thread.is_alive()

    def test_rotate_events_name_every_segment_created(self, tmp_path, monkeypatch):
        from repro.obs import Tracer
        from repro.serve import server as server_module
        from repro.serve.loadgen import run_load
        from repro.serve.server import ServerConfig, serve_in_thread

        monkeypatch.setattr(
            server_module,
            "IngestWal",
            functools.partial(IngestWal, segment_records=3),
        )
        tracer = Tracer()
        config = ServerConfig(
            unix_path=str(tmp_path / "r.sock"),
            wal_dir=str(tmp_path / "wal"),
            workers=2,
        )
        with serve_in_thread(config, tracer=tracer) as handle:
            report = run_load(
                handle.connect_address(),
                sessions=3, window=16, duration=10.0, seed=0,
            )
            created = handle.server.wal.segment_names()
        assert report.errors == 0 and report.acked > 30
        rotated = [ev.fields["segment"] for ev in tracer.of_kind("serve.wal.rotate")]
        assert len(created) > 10
        assert rotated == created

    def test_bad_batch_rejected(self, tmp_path):
        with pytest.raises(WalError, match="positive"):
            WalCommitter(IngestWal(tmp_path, disk=DISK), fsync_batch=0)

    def test_pipelined_served_ingest_shares_fsyncs(self, tmp_path):
        """Durability at a fraction of a disk barrier per frame: a
        pipelined window rides one fsync.  Measured ~11.5 acked frames
        per fsync (window 64, 4 sessions, batch 64); 8 leaves headroom
        for scheduling while one fsync per few frames still fails."""
        from repro.serve.loadgen import run_load
        from repro.serve.server import ServerConfig, serve_in_thread

        config = ServerConfig(
            unix_path=str(tmp_path / "gc.sock"),
            wal_dir=str(tmp_path / "wal"),
            fsync_batch=64,
        )
        with serve_in_thread(config) as handle:
            report = run_load(
                handle.connect_address(),
                sessions=4, window=64, duration=60.0, seed=0,
            )
            fsyncs = handle.server.wal.fsyncs
        assert report.errors == 0 and report.shed == 0
        assert report.disconnects == 0 and report.acked > 1000
        assert fsyncs <= report.acked / 8, (report.acked, fsyncs)


# ----------------------------------------------------------------------
# recovery folding
# ----------------------------------------------------------------------
def _records(ops):
    """Chain ``(session, idx, op)`` triples into verified records."""
    out, prev = [], GENESIS
    for seq, (session, idx, op) in enumerate(ops):
        record = make_record(seq, session, idx, op, prev)
        out.append(record)
        prev = record.digest
    return out


class TestRecoverSessions:
    def test_wal_only_session(self):
        records = _records(
            [
                ("s", -1, {"kind": "hello", "n": 3, "protocol": "bhmr"}),
                ("s", 0, {"kind": "checkpoint", "pid": 0}),
                ("s", 1, {"kind": "send", "src": 0, "dst": 1}),
            ]
        )
        rec = recover_sessions(records)["s"]
        assert (rec.n, rec.protocol, rec.from_snapshot) == (3, "bhmr", False)
        assert rec.log == [
            {"kind": "checkpoint", "pid": 0},
            {"kind": "send", "src": 0, "dst": 1},
        ]
        assert rec.wal_seq == 2

    def test_snapshot_plus_tail(self):
        snapshot = {
            "n": 2,
            "protocol": "bhmr",
            "log": [{"kind": "checkpoint", "pid": 0}],
            "wal_seq": 1,
        }
        records = _records(
            [
                ("s", 1, {"kind": "checkpoint", "pid": 1}),
                ("s", 2, {"kind": "checkpoint", "pid": 0}),
            ]
        )
        rec = recover_sessions(records, {"s": snapshot})["s"]
        assert rec.from_snapshot
        assert len(rec.log) == 3
        assert rec.wal_seq == records[-1].seq

    def test_covered_records_are_idempotent(self):
        snapshot = {
            "n": 2,
            "protocol": "bhmr",
            "log": [
                {"kind": "checkpoint", "pid": 0},
                {"kind": "checkpoint", "pid": 1},
            ],
            "wal_seq": 2,
        }
        records = _records(
            [
                ("s", -1, {"kind": "hello", "n": 2, "protocol": "bhmr"}),
                ("s", 0, {"kind": "checkpoint", "pid": 0}),
                ("s", 1, {"kind": "checkpoint", "pid": 1}),
            ]
        )
        rec = recover_sessions(records, {"s": snapshot})["s"]
        assert len(rec.log) == 2  # nothing double-applied

    def test_orphan_mutation_halts(self):
        records = _records([("ghost", 0, {"kind": "checkpoint", "pid": 0})])
        with pytest.raises(WalCorruption, match="no creation record"):
            recover_sessions(records)

    def test_index_gap_halts(self):
        records = _records(
            [
                ("s", -1, {"kind": "hello", "n": 2, "protocol": "bhmr"}),
                ("s", 3, {"kind": "checkpoint", "pid": 0}),  # 0..2 missing
            ]
        )
        with pytest.raises(WalCorruption, match="op index 3"):
            recover_sessions(records)


# ----------------------------------------------------------------------
# hostile disks (property tests)
# ----------------------------------------------------------------------
def _damage_outcome(directory, original):
    """read_wal's verdict on a damaged directory, checked against the
    detection contract; returns the recovered prefix length or None on
    a (legitimate) halt."""
    try:
        records = read_wal(directory)
    except WalCorruption:
        return None
    docs = [r.as_doc() for r in records]
    assert docs == [r.as_doc() for r in original[: len(docs)]], (
        "recovered records are not a prefix of what was written"
    )
    return len(docs)


@pytest.mark.tier2
class TestHostileDisk:
    @given(
        count=st.integers(min_value=1, max_value=24),
        segment_records=st.sampled_from([3, 8, 100]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_truncation_yields_prefix_or_halt(
        self, tmp_path_factory, count, segment_records, data
    ):
        directory = tmp_path_factory.mktemp("wal")
        fill(directory, count, segment_records=segment_records)
        original = read_wal(directory)
        paths = sorted(directory.glob("wal-*.log"))
        # Bounds must not depend on on-disk sizes (the segment header
        # carries a wall-clock timestamp whose width varies run to
        # run, and hypothesis rightly rejects unstable draw bounds):
        # draw scale-free integers and reduce them modulo the layout.
        victim = data.draw(st.integers(0, 2**32), label="segment") % len(paths)
        path = paths[victim]
        size = path.stat().st_size
        offset = data.draw(st.integers(0, 2**32), label="offset") % size
        with open(path, "r+b") as f:
            f.truncate(offset)
        survived = _damage_outcome(directory, original)
        if victim == len(paths) - 1:
            # Tail truncation is exactly what a crash does: always
            # recoverable to a prefix, never a halt.
            assert survived is not None
        # A truncated *interior* segment may halt (seq gap) -- and when
        # the truncation lands on a line boundary it silently shortens
        # the chain, which the next header's prev/first_seq catches.

    @given(
        count=st.integers(min_value=1, max_value=24),
        segment_records=st.sampled_from([3, 8, 100]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_flip_never_fabricates_state(
        self, tmp_path_factory, count, segment_records, data
    ):
        directory = tmp_path_factory.mktemp("wal")
        fill(directory, count, segment_records=segment_records)
        original = read_wal(directory)
        paths = sorted(directory.glob("wal-*.log"))
        # Scale-free draws; see test_truncation_yields_prefix_or_halt.
        path = paths[data.draw(st.integers(0, 2**32), label="segment") % len(paths)]
        blob = bytearray(path.read_bytes())
        byte_i = data.draw(st.integers(0, 2**32), label="byte") % len(blob)
        bit = data.draw(st.integers(min_value=0, max_value=7), label="bit")
        blob[byte_i] ^= 1 << bit
        path.write_bytes(bytes(blob))
        # Prefix-or-halt; a flip confined to a header's operational
        # metadata (the timestamp) may legitimately recover everything.
        _damage_outcome(directory, original)

    @given(count=st.integers(min_value=7, max_value=24), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_deleted_segment_is_detected(
        self, tmp_path_factory, count, data
    ):
        directory = tmp_path_factory.mktemp("wal")
        fill(directory, count, segment_records=3)  # >= 3 segments
        original = read_wal(directory)
        paths = sorted(directory.glob("wal-*.log"))
        victim = data.draw(st.sampled_from(range(len(paths))))
        paths[victim].unlink()
        survived = _damage_outcome(directory, original)
        if victim == len(paths) - 1:
            # Deleting the tail loses only unsnapshotted suffix records:
            # the remainder -- 3 per surviving full segment -- is a
            # verifiable prefix.
            assert survived == 3 * victim
        else:
            # An interior or leading hole breaks the chain: halt.
            assert survived is None

    @given(count=st.integers(min_value=7, max_value=24), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_swapped_segments_are_detected(
        self, tmp_path_factory, count, data
    ):
        directory = tmp_path_factory.mktemp("wal")
        fill(directory, count, segment_records=3)
        paths = sorted(directory.glob("wal-*.log"))
        i = data.draw(st.sampled_from(range(len(paths) - 1)), label="i")
        j = data.draw(
            st.sampled_from(range(i + 1, len(paths))), label="j"
        )
        a, b = paths[i].read_bytes(), paths[j].read_bytes()
        paths[i].write_bytes(b)
        paths[j].write_bytes(a)
        with pytest.raises(WalCorruption):
            read_wal(directory)

    def test_mixed_damage_diagnostic_names_the_segment(self, tmp_path):
        fill(tmp_path, 9, segment_records=3)
        victim = sorted(tmp_path.glob("wal-*.log"))[1]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        victim.write_bytes(bytes(blob))
        with pytest.raises(WalCorruption, match=victim.name):
            read_wal(tmp_path)
