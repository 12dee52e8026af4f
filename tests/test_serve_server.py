"""The live daemon: request vocabulary, backpressure, eviction, drain."""

import asyncio
import socket
import threading
import time
import zlib

import pytest

from repro import api
from repro.obs import MetricsRegistry, Tracer
from repro.serve import wire
from repro.serve.client import Client, ReplyError
from repro.serve.loadgen import run_load
from repro.serve.server import ServerConfig, serve_in_thread
from repro.serve.servercore import ServerCore
from repro.serve.snapshots import SnapshotStore
from repro.types import SimulationError


@pytest.fixture
def server(tmp_path):
    config = ServerConfig(unix_path=str(tmp_path / "serve.sock"))
    with serve_in_thread(config) as handle:
        yield handle


@pytest.fixture
def client(server):
    with Client(server.connect_address()) as c:
        yield c


class TestVocabulary:
    def test_hello_creates_session(self, client):
        reply = client.hello("alpha", n=3, protocol="fdas")
        assert reply["session"] == "alpha"
        assert reply["n"] == 3
        assert reply["protocol"] == "fdas"
        assert reply["resumed"] is False
        assert reply["events"] == 0

    def test_hello_defaults_protocol(self, client):
        assert client.hello("beta", n=2)["protocol"] == "bhmr"

    def test_full_ingest_cycle(self, client):
        client.hello("s", n=3)
        checkpointed = client.checkpoint("s", pid=0)
        assert set(checkpointed) == {"ok", "seq", "index", "force_checkpoint"}
        assert checkpointed["index"] == 1
        sent = client.send("s", src=0, dst=1)
        decision = {"ok", "seq", "msg_id", "force_checkpoint", "forced_index"}
        assert set(sent) == decision
        assert sent["msg_id"] == 0
        got = client.deliver("s", msg_id=sent["msg_id"])
        assert set(got) == decision
        assert isinstance(got["force_checkpoint"], bool)
        status = client.query("s", "rdt_status")
        assert status["events"] == 3
        snap = client.snapshot("s")
        assert snap["events"] == 3 and len(snap["digest"]) == 64

    def test_reattach_reports_progress(self, client, server):
        client.hello("s", n=2)
        client.checkpoint("s", pid=0)
        with Client(server.connect_address()) as other:
            reply = other.hello("s")
            assert reply["events"] == 1
            assert reply["n"] == 2

    def test_hello_mismatch_refused(self, client):
        client.hello("s", n=2, protocol="bhmr")
        with pytest.raises(ReplyError, match="session_mismatch"):
            client.hello("s", n=5)
        with pytest.raises(ReplyError, match="session_mismatch"):
            client.hello("s", protocol="fdas")

    def test_unknown_session_needs_hello(self, client):
        with pytest.raises(ReplyError, match="hello"):
            client.checkpoint("ghost", pid=0)

    def test_session_errors_carry_code(self, client):
        client.hello("s", n=2)
        with pytest.raises(ReplyError) as err:
            client.send("s", src=0, dst=0)
        assert err.value.code == "bad_session"

    def test_bool_ids_are_bad_session_on_the_wire(self, client):
        client.hello("s", n=2)
        assert client.send("s", src=0, dst=1)["msg_id"] == 0
        for frame in (
            {"kind": "checkpoint", "session": "s", "pid": True},
            {"kind": "deliver", "session": "s", "msg_id": False},
            {"kind": "deliver", "session": "s", "msg_id": 0.0},
            {"kind": "query", "session": "s", "what": "recovery_line",
             "crashed": [True]},
        ):
            reply = client.call({**frame, "seq": 7})
            assert reply["ok"] is False and reply["error"] == "bad_session", frame
        metrics = client.query("s", "metrics")
        assert (metrics["events"], metrics["delivers"]) == (1, 0)

    def test_unknown_protocol_in_hello(self, client):
        with pytest.raises(ReplyError, match="unknown protocol"):
            client.hello("s", n=2, protocol="nope")

    def test_bad_kind_refused(self, client):
        reply = client.call({"kind": "reboot", "seq": 1})
        assert reply["ok"] is False and reply["error"] == "bad_request"

    def test_missing_session_refused(self, client):
        reply = client.call({"kind": "checkpoint", "seq": 1, "pid": 0})
        assert reply["ok"] is False and reply["error"] == "bad_request"

    def test_tcp_transport(self):
        with serve_in_thread(ServerConfig(host="127.0.0.1", port=0)) as handle:
            assert handle.address[0] == "tcp"
            with Client(handle.connect_address()) as c:
                assert c.hello("t", n=2)["ok"] is True


class TestOversizedReplies:
    """A reply past ``wire.MAX_FRAME`` is answered ``reply_too_large``
    (``tests/test_serve_client.py::TestOversizedReply``); this is the
    case where even that error cannot be framed."""

    def test_a_seq_too_large_to_echo_closes_only_its_connection(
        self, tmp_path, monkeypatch
    ):
        """The peer is not left waiting for a reply that will never
        come: its connection closes, and the shard's one worker keeps
        serving every other connection."""
        config = ServerConfig(unix_path=str(tmp_path / "big.sock"), workers=1)
        with serve_in_thread(config) as handle:
            with Client(handle.connect_address(), timeout=2.0) as c:
                c.hello("s", n=2)
                frame = {"kind": "query", "seq": "x" * 300, "session": "s",
                         "what": "rdt_status"}
                size = len(wire.encode_frame(frame)) - 4
                monkeypatch.setattr(wire, "MAX_FRAME", size)  # the request just fits
                with socket.socket(socket.AF_UNIX) as raw:
                    raw.settimeout(2.0)
                    raw.connect(config.unix_path)
                    raw.sendall(wire.encode_frame(frame))
                    assert raw.recv(1) == b""
                assert c.checkpoint("s", pid=0)["index"] == 1


class TestObservability:
    def test_trace_and_metrics(self, tmp_path):
        tracer, metrics = Tracer(), MetricsRegistry()
        config = ServerConfig(unix_path=str(tmp_path / "obs.sock"))
        with serve_in_thread(config, tracer=tracer, metrics=metrics) as handle:
            with Client(handle.connect_address()) as c:
                c.hello("s", n=2)
                c.checkpoint("s", pid=0)
                c.snapshot("s")
        kinds = {ev.kind for ev in tracer.events}
        assert {"serve.start", "serve.conn", "serve.snapshot", "serve.stop"} <= kinds
        snap = metrics.snapshot()
        assert snap.counters["serve.ingest"] == 1

    def test_one_latency_histogram_per_query_kind(self, tmp_path):
        metrics = MetricsRegistry()
        config = ServerConfig(unix_path=str(tmp_path / "q.sock"))
        with serve_in_thread(config, metrics=metrics) as handle:
            with Client(handle.connect_address()) as c:
                c.hello("s", n=2)
                c.checkpoint("s", pid=0)
                c.query("s", "rdt_status")
                c.query("s", "z_cycles")
                c.query("s", "recovery_line", crashed=[0])
                c.query("s", "recovery_line")
                refused = c.call(
                    {"kind": "query", "session": "s", "what": "nope", "seq": 9}
                )
                assert refused["error"] == "bad_session"
        snap = metrics.snapshot()
        counts = {
            name: summary["count"]
            for name, summary in snap.histograms.items()
            if name.startswith("serve.query.")
        }
        assert counts == {
            "serve.query.rdt_status_s": 1,
            "serve.query.z_cycles_s": 1,
            "serve.query.recovery_line_s": 2,
        }
        assert snap.counters["serve.queries"] == 4
        # Every frame (hello, ingest, queries, the refusal) still lands
        # in the one per-frame histogram.
        assert snap.histograms["serve.latency_s"]["count"] == 7


class TestBackpressure:
    def test_full_shard_sheds_with_overloaded(self):
        # The core alone: a shard whose worker has not stepped yet can
        # only fill, and the frame past queue_depth is shed unapplied.
        core = ServerCore(ServerConfig(workers=1, queue_depth=2), SnapshotStore(), clock=lambda: 0.0)
        frames = [
            {"kind": "hello", "seq": 1, "session": "s", "n": 2},
            {"kind": "checkpoint", "seq": 2, "session": "s", "pid": 0},
            {"kind": "checkpoint", "seq": 3, "session": "s", "pid": 0},
        ]
        assert [core.dispatch(doc, "conn") for doc in frames[:2]] == [(None, 0, False)] * 2
        reply, shard, close = core.dispatch(frames[2], "conn")
        assert shard is None and close is False
        assert reply["ok"] is False
        assert reply["error"] == "overloaded"
        assert core.shed_frames == 1
        writes = core.finish(core.step(0))
        assert [r["seq"] for r in writes["conn"]] == [1, 2]
        assert len(core.sessions["s"].ingest_log) == 1

    def test_a_client_that_stops_reading_stalls_only_itself(self, tmp_path):
        """Regression: workers used to await ``drain()`` on the peer's
        writer, so a client that pipelined frames and never read stalled
        its worker -- every session on it timed out -- and hung stop()."""
        config = ServerConfig(unix_path=str(tmp_path / "slow.sock"), workers=2)
        handle = serve_in_thread(config)
        ids = [f"s{i}" for i in range(64)]
        same = [s for s in ids if zlib.crc32(s.encode()) % 2 == zlib.crc32(b"a") % 2]
        hog = socket.socket(socket.AF_UNIX)
        hog.connect(config.unix_path)
        data = wire.encode_frame({"kind": "hello", "seq": 1, "session": "a", "n": 2})
        data += b"".join(
            wire.encode_frame({"kind": "query", "seq": i, "session": "a", "what": "metrics"})
            for i in range(2, 9002)
        )

        def pipeline():
            try:
                hog.sendall(data)
            except OSError:
                pass  # the server closed the hog at stop

        writer = threading.Thread(target=pipeline, daemon=True)
        try:
            writer.start()
            time.sleep(0.5)  # let the replies pile up unread
            for sid in same[:2]:
                with Client(handle.connect_address(), timeout=1.0) as c:
                    assert c.hello(sid, n=2)["ok"] is True
            started = time.monotonic()
            handle.close(timeout=5.0)
            assert time.monotonic() - started < 5.0
        finally:
            hog.shutdown(socket.SHUT_RDWR)
            writer.join(timeout=5.0)
            hog.close()
        assert not writer.is_alive()


class TestEvictionRestore:
    def test_idle_session_evicts_and_restores(self, tmp_path):
        config = ServerConfig(
            unix_path=str(tmp_path / "evict.sock"), idle_timeout=0.2
        )
        with serve_in_thread(config) as handle:
            with Client(handle.connect_address()) as c:
                c.hello("s", n=2)
                c.checkpoint("s", pid=0)
                before = c.query("s", "rdt_status")
                deadline = time.monotonic() + 5.0
                while "s" in handle.server.sessions:
                    assert time.monotonic() < deadline, "never evicted"
                    time.sleep(0.05)
                assert "s" in handle.server.store
                # Any frame naming the session restores it transparently.
                after = c.query("s", "rdt_status")
                assert after == before
                assert "s" in handle.server.sessions

    def test_hello_after_eviction_reports_resumed(self, tmp_path):
        config = ServerConfig(
            unix_path=str(tmp_path / "resume.sock"), idle_timeout=0.2
        )
        with serve_in_thread(config) as handle:
            with Client(handle.connect_address()) as c:
                c.hello("s", n=2)
                c.checkpoint("s", pid=0)
                deadline = time.monotonic() + 5.0
                while "s" in handle.server.sessions:
                    assert time.monotonic() < deadline, "never evicted"
                    time.sleep(0.05)
                reply = c.hello("s")
                assert reply["resumed"] is True
                assert reply["events"] == 1


class TestGracefulShutdownUnderLoad:
    def test_no_acked_frame_is_lost(self, tmp_path):
        """Stop the server mid-load: every client-acked ingest frame
        must be present in the drained server's per-session counts."""
        config = ServerConfig(unix_path=str(tmp_path / "drain.sock"))
        handle = serve_in_thread(config)
        summary = {}

        def stopper():
            time.sleep(0.25)
            summary.update(handle.close())

        thread = threading.Thread(target=stopper)
        thread.start()
        report = run_load(
            handle.connect_address(),
            sessions=4, n=4, duration=120.0, window=64, seed=3,
        )
        thread.join()
        # The stop raced a live load: by design nothing errors, acked
        # frames survive, and cut-off sessions count as disconnects.
        assert report.errors == 0
        assert report.acked > 0
        for sid, acked in report.per_session.items():
            assert acked <= summary.get(sid, 0), (
                f"{sid}: client saw {acked} acks, server drained "
                f"{summary.get(sid, 0)} events"
            )

    def test_close_is_idempotent(self, tmp_path):
        handle = serve_in_thread(ServerConfig(unix_path=str(tmp_path / "x.sock")))
        with Client(handle.connect_address()) as c:
            c.hello("s", n=2)
            c.checkpoint("s", pid=0)
        assert handle.close() == {"s": 1}
        assert handle.close() == {"s": 1}


class TestLoadgenDrainsSendFutures:
    def test_send_futures_drain_to_undelivered_count(self, tmp_path):
        """Regression: ``_drive_session`` never popped ``send_futures``,
        pinning one reply doc per send for the whole run (a real RSS
        leak on long ``--duration`` runs).  Now each deliver pops its
        send's future, so what remains at the end is exactly the
        trace's never-delivered sends -- and the function reports it."""
        from repro.serve.loadgen import LoadReport, _drive_session
        from repro.sim.generate import generate_trace
        from repro.sim.trace import TraceOpKind
        from repro.workloads import WORKLOADS

        trace = generate_trace(
            4, WORKLOADS["random"](), duration=40.0, seed=11, basic_rate=0.1
        )
        sent = {
            op.msg_id for op in trace.ops if op.kind is TraceOpKind.SEND
        }
        delivered = {
            op.msg_id for op in trace.ops if op.kind is TraceOpKind.DELIVER
        }
        undelivered = len(sent - delivered)
        assert sent, "trace must exercise the send path"

        config = ServerConfig(unix_path=str(tmp_path / "drainload.sock"))
        with serve_in_thread(config) as handle:
            report = LoadReport(sessions=1)
            leftovers = asyncio.run(
                _drive_session(
                    handle.connect_address(),
                    "drain-s", "bhmr", trace, 32, 0, report,
                )
            )
        assert report.errors == 0 and report.disconnects == 0
        assert leftovers == undelivered
        # Every delivered send's reply was released as it was consumed.
        assert leftovers < len(sent)


class TestApiFacade:
    def test_api_serve_and_connect(self, tmp_path):
        with api.serve(unix_path=str(tmp_path / "api.sock")) as handle:
            client = api.connect(handle.connect_address())
            assert client.hello("s", n=2)["ok"] is True
            client.close()

    def test_api_serve_config_exclusive_with_knobs(self, tmp_path):
        with pytest.raises(SimulationError):
            api.serve(
                config=ServerConfig(unix_path=str(tmp_path / "c.sock")),
                unix_path=str(tmp_path / "d.sock"),
            )

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("host", "0.0.0.0"),
            ("port", 7000),
            ("unix_path", "d.sock"),
            ("workers", 2),
            ("queue_depth", 8),
            ("idle_timeout", 1.0),
            ("snapshot_dir", "snaps"),
            ("wal_dir", "wal"),
            ("fsync_batch", 1),
            ("shard_procs", 2),
            ("data_dir", "data"),
        ],
    )
    def test_api_serve_config_rejects_each_knob(self, tmp_path, knob, value):
        """No knob is silently dropped next to ``config=``; the error names it."""
        config = ServerConfig(unix_path=str(tmp_path / "c.sock"))
        with pytest.raises(SimulationError, match=knob):
            api.serve(config=config, **{knob: value})

    @pytest.mark.parametrize(
        "knobs, named",
        [
            (dict(shard_procs=2, data_dir="d", snapshot_dir="s"), "snapshot_dir"),
            (dict(shard_procs=2, data_dir="d", wal_dir="w"), "wal_dir"),
            (dict(shard_procs=2), "data_dir"),
            (dict(data_dir="d"), "data_dir"),
            (dict(shard_workers=2), "shard_workers"),
        ],
    )
    def test_api_serve_refuses_before_touching_disk(
        self, tmp_path, monkeypatch, knobs, named
    ):
        """A knob the chosen config lacks, or one its rules refuse, is a
        SimulationError naming it -- raised before any directory or
        process exists."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SimulationError, match=named):
            api.serve(unix_path=str(tmp_path / "x.sock"), **knobs)
        assert list(tmp_path.iterdir()) == []

    def test_api_connect_dead_socket_is_clean(self, tmp_path):
        started = time.monotonic()
        with pytest.raises(ConnectionError):
            api.connect(f"unix:{tmp_path}/dead.sock", timeout=2.0)
        assert time.monotonic() - started < 5.0  # error, not a hang


class TestWalFailureHalts:
    """A failing disk (ENOSPC, EIO) mid-group-commit must not kill a
    shard worker silently: queued frames get explicit ``wal_failure``
    errors, intake halts, and shutdown skips the snapshot pass (whose
    watermarks would otherwise cover frames that were never durably
    acked -- phantoms on the next recovery)."""

    def test_commit_failure_errors_halts_and_skips_snapshots(self, tmp_path):
        from repro.serve.wal import read_wal

        config = ServerConfig(
            unix_path=str(tmp_path / "fail.sock"),
            wal_dir=str(tmp_path / "wal"),
            snapshot_dir=str(tmp_path / "snaps"),
        )
        with serve_in_thread(config) as handle:
            with Client(handle.connect_address()) as c:
                c.hello("s", n=3)
                c.checkpoint("s", pid=0)  # durable while the disk is fine

                def broken_sync(max_records=None):
                    raise OSError(28, "No space left on device")

                handle.server.wal.sync = broken_sync
                with pytest.raises(ReplyError) as err:
                    c.checkpoint("s", pid=1)
                assert err.value.code == "wal_failure"
                # The halted server answers, it does not hang: further
                # frames on the same connection are refused explicitly.
                with pytest.raises((ReplyError, ConnectionError)):
                    c.checkpoint("s", pid=2)
            # Intake is closed: new connections cannot be served.
            with pytest.raises((ReplyError, ConnectionError, OSError)):
                with Client(handle.connect_address()) as other:
                    other.hello("other", n=2)
        # Shutdown skipped the snapshot pass: no snapshot may stamp a
        # watermark over the frame whose ack never left the server.
        assert list((tmp_path / "snaps").glob("*.json")) == []
        # The durable prefix -- hello plus the first checkpoint -- is
        # intact and verifiable.
        assert [r.idx for r in read_wal(tmp_path / "wal")] == [-1, 0]


class TestSnapshotDurabilityRace:
    """Frames racing snapshots and evictions: the commit barrier holds.

    The regression of record: a frame arriving while the idle sweeper
    was snapshotting its session could be snapshotted *before* its WAL
    record was fsynced -- a crash then resurrected a frame whose ack
    never left the server (a phantom), or dropped one whose ack did.
    Both orderings are pinned here without killing anything: by reading
    the WAL from disk right after each ack, and by replaying the trace
    ordering of commits vs snapshots.
    """

    def test_acked_frames_are_on_disk_during_eviction_storm(self, tmp_path):
        from repro.serve.wal import read_wal

        config = ServerConfig(
            unix_path=str(tmp_path / "race.sock"),
            workers=2,
            idle_timeout=0.05,  # the sweeper fires constantly
            wal_dir=str(tmp_path / "wal"),
            fsync_batch=4,
        )
        evictions = 0
        with serve_in_thread(config) as handle:
            with Client(handle.connect_address()) as c:
                c.hello("s", n=3)
                last_wal_seq = -1
                for i in range(60):
                    reply = c.checkpoint("s", pid=i % 3)
                    assert reply["wal_seq"] > last_wal_seq, (
                        "acks must carry strictly increasing WAL positions"
                    )
                    last_wal_seq = reply["wal_seq"]
                    if i % 10 == 9:
                        # Let the session go idle so the sweeper
                        # snapshots + evicts it mid-conversation.
                        time.sleep(0.12)
                        evictions += 1
                        # The ack we already hold must be durable *now*,
                        # not at the next graceful close: a concurrent
                        # kill -9 is allowed at any point of this loop.
                        on_disk = read_wal(config.wal_dir)
                        assert on_disk and on_disk[-1].seq >= last_wal_seq
                status = c.query("s", "rdt_status")
                assert status["events"] == 60
        assert evictions == 6
        # After the drain every record is durable and the chain intact.
        assert read_wal(config.wal_dir)[-1].seq >= last_wal_seq

    def test_trace_orders_every_snapshot_behind_a_commit(self, tmp_path):
        tracer = Tracer()
        config = ServerConfig(
            unix_path=str(tmp_path / "order.sock"),
            workers=2,
            idle_timeout=0.05,
            wal_dir=str(tmp_path / "wal"),
            snapshot_dir=str(tmp_path / "snaps"),
            fsync_batch=8,
        )
        with serve_in_thread(config, tracer=tracer) as handle:
            with Client(handle.connect_address()) as c:
                c.hello("s", n=3)
                for i in range(40):
                    c.checkpoint("s", pid=i % 3)
                    if i % 13 == 12:
                        c.snapshot("s")  # explicit, racing the sweeper
                    if i % 10 == 9:
                        time.sleep(0.12)  # and let the sweeper evict
        commits = 0
        durable = -1
        snapshots = 0
        for ev in tracer.events:
            if ev.kind == "serve.wal.commit":
                commits += 1
                durable = max(durable, int(ev.fields["seq"]))
            elif ev.kind == "serve.snapshot":
                snapshots += 1
                assert int(ev.fields["wal_seq"]) <= durable, (
                    "a snapshot covered WAL records that were not yet "
                    "durable when it was written"
                )
        assert commits > 0 and snapshots >= 3  # the race actually ran


class TestPing:
    """The health verb: sessionless, cheap, honest about degradation."""

    def test_ping_needs_no_session(self, tmp_path):
        config = ServerConfig(unix_path=str(tmp_path / "ping.sock"))
        with serve_in_thread(config) as handle:
            with Client(handle.connect_address()) as client:
                reply = client.ping()
                assert reply["ok"] is True
                assert reply["pong"] is True
                assert reply["role"] == "server"
                assert reply["sessions"] == 0
                assert reply["degraded"] is False
                client.hello("ping-s", n=2)
                assert client.ping()["sessions"] == 1

    def test_ping_answers_on_a_wal_degraded_server(self, tmp_path):
        """A halted server refuses ingest but still answers health
        probes -- and says so, instead of presenting as healthy."""
        config = ServerConfig(
            unix_path=str(tmp_path / "deg.sock"),
            wal_dir=str(tmp_path / "wal"),
        )
        with serve_in_thread(config) as handle:
            with Client(handle.connect_address()) as client:
                client.hello("s", n=2)

                def broken_sync(max_records=None):
                    raise OSError(28, "No space left on device")

                handle.server.wal.sync = broken_sync
                with pytest.raises(ReplyError) as err:
                    client.checkpoint("s", pid=0)
                assert err.value.code == "wal_failure"
                reply = client.ping()
                assert reply["ok"] is True and reply["degraded"] is True


class TestLayout:
    """The ``layout`` frame a router pushes: from then on the server owns
    only its sessions, refusing the rest ``moved`` before applying them."""

    @staticmethod
    def _split(layout, shard):
        """One session id this shard owns, one it does not."""
        ids = [f"own-{i}" for i in range(64)]
        mine = next(s for s in ids if layout.owner(s) == shard)
        other = next(s for s in ids if layout.owner(s) != shard)
        return mine, other

    def test_ownership_is_enforced_before_apply(self, tmp_path):
        from repro.serve.shardmap import ShardMap

        layout = ShardMap(2)
        mine, other = self._split(layout, 1)
        config = ServerConfig(unix_path=str(tmp_path / "own.sock"))
        with serve_in_thread(config) as handle:
            with Client(handle.connect_address(), retries=0) as client:
                client.hello(other, n=2)  # no layout yet: owns everything
                client.checkpoint(other, pid=0)
                reply = client.request(
                    "layout", layout=layout.to_doc(), shard=1
                )
                assert reply["shard"] == 1
                answered = client.ping()["answered"]
                for op in (
                    lambda: client.checkpoint(other, pid=1),
                    lambda: client.hello(other, n=2),
                    lambda: client.query(other, "rdt_status"),
                ):
                    with pytest.raises(ReplyError) as err:
                        op()
                    assert err.value.code == "moved"
                assert client.ping()["answered"] == answered
                # The router's retiring snapshot hands the session over.
                retired = client.request("snapshot", session=other, retire=True)
                assert retired["events"] == 1 and retired["retired"] is True
                client.hello(mine, n=2)
                assert client.ping()["answered"] == answered + 2
            assert handle.server.sessions.keys() == {mine}

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"layout": {"version": 9, "shards": 2}, "shard": 0},
            {"layout": {"version": 1, "shards": 2}, "shard": 2},
            {"layout": {"version": 1, "shards": 2}, "shard": True},
            {"layout": "ring", "shard": 0},
        ],
    )
    def test_bad_layout_is_refused(self, tmp_path, fields):
        config = ServerConfig(unix_path=str(tmp_path / "bad.sock"))
        with serve_in_thread(config) as handle:
            with Client(handle.connect_address(), retries=0) as client:
                with pytest.raises(ReplyError) as err:
                    client.request("layout", **fields)
                assert err.value.code == "bad_request"
                client.hello("still-mine", n=2)  # nothing was adopted
