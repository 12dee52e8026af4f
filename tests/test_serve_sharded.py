"""Multi-process differential: sharded serve equals offline replay.

Clients route themselves: each session frame goes straight to the stock
``repro serve`` shard process that owns it, by the table the router's
``ping`` publishes, so a sharded deployment must answer
*byte-identically* to a single-process offline replay of the same
ingest stream.  Each cell drives one generated trace through the
deployment, reconstructs the ingest log client-side (the entry formats
are the session's own: ``checkpoint/pid``, ``send/src/dst``,
``deliver/msg_id`` with the server-assigned id) and compares every
analysis query against :func:`offline_answers` under canonical JSON --
over a Unix router and over a TCP one.

On top of the differential ride the scale-out behaviours themselves:
the admin contract (``ping``'s table, ``stats``), ``moved`` refusals,
``rebalance``, persisted shardmap overrides, and the full "snapshot,
truncate, re-home" reconcile when the shard count changes across a
restart.
"""

import asyncio
import random
from pathlib import Path

import pytest

from repro import api
from repro.core.registry import PROTOCOLS
from repro.obs.jsonio import canonical_dumps
from repro.serve.client import AsyncClient, Client, ReplyError
from repro.serve.disk import Disk
from repro.serve.router import Router, RouterConfig
from repro.serve.session import ServeSession, offline_answers
from repro.serve.shardmap import ShardMap, ShardTable
from repro.serve.snapshots import SnapshotStore, restore_session, snapshot_doc
from repro.serve.wal import IngestWal
from repro.sim.generate import generate_trace
from repro.sim.trace import TraceOpKind
from repro.types import SimulationError
from repro.workloads import WORKLOADS

N = 3
SHARDS = 3
CELLS = 20

# A seeded sample of the workload x protocol grid, independent of the
# single-process suite's sample (different seed on purpose: the two
# suites should not silently test the same corners).
_rng = random.Random(0x5A4D)
_GRID = sorted((w, p) for w in WORKLOADS for p in PROTOCOLS)
CELL_PARAMS = [
    (w, p, _rng.randrange(1 << 16)) for w, p in _rng.sample(_GRID, CELLS)
]
CELL_IDS = [f"{w}-{p}-{s}" for w, p, s in CELL_PARAMS]


def _serve(root, name, transport, **knobs):
    """A sharded deployment behind a Unix or an ephemeral TCP router."""
    if transport == "unix":
        knobs["unix_path"] = str(root / f"{name}.sock")
    return api.serve(**knobs)


@pytest.fixture(scope="module")
def handle(tmp_path_factory):
    root = tmp_path_factory.mktemp("sharded")
    with _serve(
        root, "router", "unix", shard_procs=SHARDS, data_dir=str(root / "data")
    ) as h:
        yield h


@pytest.fixture(scope="module")
def tcp_handle(tmp_path_factory):
    root = tmp_path_factory.mktemp("sharded-tcp")
    with _serve(
        root, "router", "tcp", shard_procs=SHARDS, data_dir=str(root / "data")
    ) as h:
        yield h


def drive_and_log(client, session_id, protocol, trace):
    """Stream one trace through the deployment; return the ingest log
    the shard must have recorded, reconstructed client-side.

    The reconstruction is what makes a *multi-process* differential
    possible at all: the shard's memory is in another process, so the
    suite rebuilds the log from the wire conversation alone -- which is
    also exactly the information a real client has.
    """
    client.hello(session_id, n=trace.n, protocol=protocol)
    sent = {}
    log = []
    for op in trace.ops:
        if op.kind is TraceOpKind.BASIC_CHECKPOINT:
            client.checkpoint(session_id, pid=op.pid)
            log.append({"kind": "checkpoint", "pid": op.pid})
        elif op.kind is TraceOpKind.SEND:
            reply = client.send(session_id, src=op.pid, dst=op.peer)
            sent[op.msg_id] = reply["msg_id"]
            log.append({"kind": "send", "src": op.pid, "dst": op.peer})
        else:
            client.deliver(session_id, msg_id=sent[op.msg_id])
            log.append({"kind": "deliver", "msg_id": sent[op.msg_id]})
    return log


def query_all(client, session_id, crashed):
    return {
        "rdt_status": client.query(session_id, "rdt_status"),
        "z_cycles": client.query(session_id, "z_cycles"),
        "recovery_line": client.query(
            session_id, "recovery_line", crashed=crashed
        ),
    }


def _differential(handle, workload, protocol, seed):
    trace = generate_trace(
        N, WORKLOADS[workload](), duration=12.0, seed=seed, basic_rate=0.2
    )
    session_id = f"shard-{workload}-{protocol}-{seed}"
    crashed = [seed % N]
    with Client(handle.connect_address()) as client:
        log = drive_and_log(client, session_id, protocol, trace)
        online = query_all(client, session_id, crashed)
    assert len(log) == len(trace.ops)
    offline = offline_answers(session_id, N, protocol, log, crashed=crashed)
    assert canonical_dumps(online) == canonical_dumps(offline)


@pytest.mark.parametrize("workload,protocol,seed", CELL_PARAMS, ids=CELL_IDS)
def test_sharded_equals_offline(handle, workload, protocol, seed):
    _differential(handle, workload, protocol, seed)


@pytest.mark.parametrize("workload,protocol,seed", CELL_PARAMS, ids=CELL_IDS)
def test_sharded_equals_offline_over_tcp(tcp_handle, workload, protocol, seed):
    _differential(tcp_handle, workload, protocol, seed)


def test_cells_cover_many_workloads_and_protocols():
    workloads = {w for w, _, _ in CELL_PARAMS}
    protocols = {p for _, p, _ in CELL_PARAMS}
    assert len(CELL_PARAMS) >= 20
    assert len(workloads) >= 4
    assert len(protocols) >= 5


def test_sessions_actually_spread_across_shards(handle):
    """The differential means little if everything landed on one shard:
    the stats verb must show several processes doing real work."""
    with Client(handle.connect_address()) as client:
        stats = client.call({"kind": "stats", "seq": 1})
    assert stats["ok"] is True
    shards = stats["shards"]
    assert len(shards) == SHARDS
    assert all(s["up"] for s in shards)
    busy = [s for s in shards if s["forwarded"] > 0]
    assert len(busy) >= 2, f"all traffic on one shard: {shards}"
    assert stats["layout"]["shards"] == SHARDS


def _session_on(router, shard, prefix):
    """A session id the router's layout homes on ``shard``."""
    i = 0
    while router.core.map.owner(f"{prefix}-{i}") != shard:
        i += 1
    return f"{prefix}-{i}"


class TestAdminContract:
    """What the frozen benchmark and operators read off the router."""

    @pytest.mark.parametrize("which", ["unix", "tcp"])
    def test_ping_publishes_the_table(self, request, which):
        handle = request.getfixturevalue(
            "handle" if which == "unix" else "tcp_handle"
        )
        router = handle.server
        with Client(handle.connect_address()) as client:
            reply = client.ping()
        assert (reply["role"], reply["shards"], reply["shards_up"]) == (
            "router", SHARDS, SHARDS
        )
        assert reply["degraded"] == []
        assert reply["layout"] == router.core.map.to_doc()
        assert reply["table"] == [
            {"shard": k, "address": router._shards[k].address, "state": "up"}
            for k in range(SHARDS)
        ]
        scheme = "unix:" if which == "unix" else "127.0.0.1:"
        assert all(row["address"].startswith(scheme) for row in reply["table"])
        table = ShardTable.from_ping(reply)
        assert table.layout == router.core.map and table.states == ["up"] * SHARDS

    def test_stats_rows_and_totals(self, handle):
        router = handle.server
        with Client(handle.connect_address()) as client:
            stats = client.call({"kind": "stats", "seq": "contract"})
        assert stats["ok"] is True and stats["router"] is True
        assert [row["shard"] for row in stats["shards"]] == list(range(SHARDS))
        for row, shard in zip(stats["shards"], router._shards):
            assert row["pid"] == shard.proc.pid
            assert row["restarts"] == 0 and row["degraded"] is False
            assert isinstance(row["forwarded"], int)
        assert stats["shed"] == 0
        assert stats["layout"] == router.core.map.to_doc()

    def test_forwarded_counts_the_session_frames_each_shard_answered(
        self, handle
    ):
        router = handle.server
        homes = {k: _session_on(router, k, f"count-{k}") for k in (0, 2)}
        with Client(handle.connect_address()) as client:
            before = client.call({"kind": "stats", "seq": 1})["shards"]
            frames = {0: 0, 1: 0, 2: 0}
            for k, sid in homes.items():
                client.hello(sid, n=2)
                for _ in range(3 + k):
                    client.checkpoint(sid, pid=0)
                client.query(sid, "rdt_status")
                frames[k] = 1 + (3 + k) + 1
            after = client.call({"kind": "stats", "seq": 2})["shards"]
        delta = {
            k: after[k]["forwarded"] - before[k]["forwarded"]
            for k in range(SHARDS)
        }
        assert delta == frames
        assert sum(delta.values()) == sum(frames.values())

    def test_shard_admin_link_fails_fast_on_a_refusal(self, handle):
        """The router's admin link to a shard has no retry budget: a
        refusal (here ``moved``) raises at once, never backs off and
        resends -- a rebalance must not stall on its own refusal."""
        router = handle.server
        sid = _session_on(router, 0, "admin-fast")
        admin = router._shards[1].admin
        sent = admin.frames_sent
        pending = asyncio.run_coroutine_threadsafe(
            admin.call("snapshot", session=sid), handle._loop
        )
        with pytest.raises(ReplyError) as err:
            pending.result(timeout=5.0)
        assert err.value.code == "moved"
        assert admin.frames_sent == sent + 1  # written once, never resent


class TestMoved:
    """Shards enforce ownership; clients follow the refusal."""

    def test_non_owner_refuses_before_apply(self, handle):
        router = handle.server
        sid = _session_on(router, 0, "moved-refused")
        with Client(handle.connect_address()) as client:
            client.hello(sid, n=2)
            # Straight to a shard that does not own the session: a
            # role-server peer, so the client has no table to follow.
            with Client(router._shards[1].address, retries=0) as stray:
                answered = stray.ping()["answered"]
                with pytest.raises(ReplyError) as err:
                    stray.checkpoint(sid, pid=0)
                assert err.value.code == "moved"
                with pytest.raises(ReplyError, match="moved"):
                    stray.hello(sid, n=2)
                assert stray.ping()["answered"] == answered
            assert client.query(sid, "rdt_status")["events"] == 0

    def test_sync_client_follows_a_rebalance_it_did_not_see(self, handle):
        router = handle.server
        sid = _session_on(router, 0, "moved-follow")
        with Client(handle.connect_address()) as client:
            client.hello(sid, n=2)
            client.checkpoint(sid, pid=0)
            assert client._client._core.table.layout.owner(sid) == 0
            with Client(handle.connect_address()) as admin:
                assert admin.request(
                    "rebalance", session=sid, target=1
                )["moved"] is True
            # The stale table still says shard 0, which answers moved;
            # the client re-pings the router and resends to shard 1.
            assert client.checkpoint(sid, pid=1)["ok"] is True
            assert client._client._core.table.layout.owner(sid) == 1
            assert client.query(sid, "rdt_status")["events"] == 2

    def test_async_client_hands_moved_back_and_refreshes(self, handle):
        router = handle.server
        sid = _session_on(router, 0, "moved-async")

        async def scenario():
            client = await AsyncClient.connect(handle.connect_address())
            try:
                await client.hello(sid, n=2)
                with Client(handle.connect_address()) as admin:
                    admin.request("rebalance", session=sid, target=2)
                refused = await client.reply(
                    client.submit("checkpoint", session=sid, pid=0)
                )
                assert refused["error"] == "moved"
                await client._refreshing
                assert client._core.table.layout.owner(sid) == 2
                await client.checkpoint(sid, pid=0)
                return (await client.query(sid, "rdt_status"))["events"]
            finally:
                await client.close()

        assert asyncio.run(scenario()) == 1


class TestRebalance:
    """The live "snapshot, truncate, re-home" admin verb."""

    def test_session_moves_and_conversation_continues(self, handle):
        session_id = "rebal-live"
        trace = generate_trace(
            N, WORKLOADS["random"](), duration=10.0, seed=77, basic_rate=0.2
        )
        cut = len(trace.ops) // 2
        with Client(handle.connect_address()) as client:
            client.hello(session_id, n=N, protocol="bhmr")
            sent = {}
            log = []
            def feed(ops):
                for op in ops:
                    if op.kind is TraceOpKind.BASIC_CHECKPOINT:
                        client.checkpoint(session_id, pid=op.pid)
                        log.append({"kind": "checkpoint", "pid": op.pid})
                    elif op.kind is TraceOpKind.SEND:
                        reply = client.send(session_id, src=op.pid, dst=op.peer)
                        sent[op.msg_id] = reply["msg_id"]
                        log.append(
                            {"kind": "send", "src": op.pid, "dst": op.peer}
                        )
                    else:
                        client.deliver(session_id, msg_id=sent[op.msg_id])
                        log.append(
                            {"kind": "deliver", "msg_id": sent[op.msg_id]}
                        )

            feed(trace.ops[:cut])
            source = handle.server.core.map.owner(session_id)
            target = (source + 1) % SHARDS
            reply = client.call(
                {
                    "kind": "rebalance",
                    "seq": 1000,
                    "session": session_id,
                    "target": target,
                }
            )
            assert reply["ok"] is True
            assert reply["moved"] is True
            assert reply["from"] == source and reply["shard"] == target
            assert reply["events"] == cut
            assert handle.server.core.map.owner(session_id) == target
            # The move is durable: the override survives in the layout
            # file the next incarnation will read.
            stored = ShardMap.load(
                handle.server._layout_path()
            )
            assert stored is not None and stored.owner(session_id) == target

            # The conversation continues against the new owner -- and
            # stays differentially silent end to end across the move.
            feed(trace.ops[cut:])
            online = query_all(client, session_id, crashed=[0])
        offline = offline_answers(
            session_id, N, "bhmr", log, crashed=[0]
        )
        assert canonical_dumps(online) == canonical_dumps(offline)

    def test_rebalance_to_current_owner_is_a_noop(self, handle):
        with Client(handle.connect_address()) as client:
            client.hello("rebal-noop", n=2)
            owner = handle.server.core.map.owner("rebal-noop")
            reply = client.call(
                {
                    "kind": "rebalance",
                    "seq": 1,
                    "session": "rebal-noop",
                    "target": owner,
                }
            )
            assert reply["ok"] is True and reply["moved"] is False

    def test_rebalance_validates_target(self, handle):
        with Client(handle.connect_address()) as client:
            with pytest.raises(ReplyError, match="bad_request"):
                client.request(
                    "rebalance", session="whatever", target=SHARDS + 7
                )


class TestRebalanceOverTcp(TestRebalance):
    @pytest.fixture
    def handle(self, tcp_handle):
        return tcp_handle


class TestResizeAcrossRestart:
    """Changing ``shard_procs`` across a restart triggers the offline
    reconcile: every session is re-homed to its new ring owner with an
    integrity-checked snapshot (``TestReconcileOnDisk`` feeds it a
    damaged one), old WALs are retired, and the layout file converges
    to the pure ring."""

    transport = "unix"

    def test_sessions_survive_shard_count_change(self, tmp_path):
        data_dir = str(tmp_path / "data")
        logs = {}
        with _serve(
            tmp_path, "a", self.transport, shard_procs=3, data_dir=data_dir
        ) as h:
            with Client(h.connect_address()) as client:
                for i in range(4):
                    sid = f"resize-{i}"
                    trace = generate_trace(
                        N,
                        WORKLOADS["random"](),
                        duration=6.0,
                        seed=100 + i,
                        basic_rate=0.2,
                    )
                    logs[sid] = drive_and_log(client, sid, "bhmr", trace)

        with _serve(
            tmp_path, "b", self.transport, shard_procs=2, data_dir=data_dir
        ) as h:
            layout = ShardMap.load(h.server._layout_path())
            assert layout is not None
            assert layout.shards == 2 and not layout.overrides
            with Client(h.connect_address()) as client:
                for sid, log in logs.items():
                    greeting = client.resume(sid)
                    assert greeting["events"] == len(log), sid
                    online = query_all(client, sid, crashed=[1])
                    offline = offline_answers(
                        sid, N, "bhmr", log, crashed=[1]
                    )
                    assert canonical_dumps(online) == canonical_dumps(offline)

    def test_reconcile_folds_overrides_back_into_the_ring(self, tmp_path):
        """A session moved by ``rebalance`` lives at its override; after
        a restart the reconcile physically re-homes it to the ring owner
        and clears the override table."""
        data_dir = str(tmp_path / "data")
        sid = "fold-me"
        with _serve(
            tmp_path, "a", self.transport, shard_procs=3, data_dir=data_dir
        ) as h:
            with Client(h.connect_address()) as client:
                client.hello(sid, n=2)
                client.checkpoint(sid, pid=0)
                ring_owner = h.server.core.map.ring_owner(sid)
                target = (ring_owner + 1) % 3
                reply = client.call(
                    {
                        "kind": "rebalance",
                        "seq": 1,
                        "session": sid,
                        "target": target,
                    }
                )
                assert reply["moved"] is True
            assert ShardMap.load(h.server._layout_path()).overrides == {
                sid: target
            }

        # Same shard count, but pending overrides: full reconcile runs.
        with _serve(
            tmp_path, "b", self.transport, shard_procs=3, data_dir=data_dir
        ) as h:
            assert ShardMap.load(h.server._layout_path()).overrides == {}
            with Client(h.connect_address()) as client:
                greeting = client.resume(sid)
                assert greeting["events"] == 1
                assert client.query(sid, "rdt_status")["events"] == 1


class TestResizeAcrossRestartOverTcp(TestResizeAcrossRestart):
    transport = "tcp"


class TestReconcileOnDisk:
    """The offline reconcile over a hand-built data dir, called directly:
    no shard process, no socket."""

    def test_a_damaged_snapshot_stops_the_start_before_any_file_moves(
        self, tmp_path
    ):
        data = tmp_path / "data"
        layout = ShardMap(2)
        sid = next(
            f"bad-{i}" for i in range(1000) if layout.owner(f"bad-{i}") == 0
        )
        ops = [{"kind": "checkpoint", "pid": pid} for pid in (0, 1, 1)]
        doc = snapshot_doc(ServeSession.replay_log(sid, 2, "bhmr", ops))
        doc["log"][2]["pid"] = 0  # damage the log under its old digest
        with pytest.raises(SimulationError, match="integrity"):
            restore_session(doc)
        SnapshotStore(data / "shard-00" / "snaps").put(sid, doc)
        layout.save(data / "shardmap.json")
        def files():
            return {p: p.read_bytes() for p in data.rglob("*") if p.is_file()}

        before = files()

        router = Router(RouterConfig(shard_procs=3, data_dir=str(data)))
        with pytest.raises(SimulationError, match="integrity") as err:
            router._reconcile()
        assert repr(sid) in str(err.value)
        assert str(router.data_dir / "shard-00") in str(err.value)
        assert files() == before
        assert sorted(p.name for p in data.iterdir()) == ["shard-00", "shardmap.json"]

    def test_directory_changes_are_durable_before_the_layout_is_saved(
        self, tmp_path, monkeypatch
    ):
        data = tmp_path / "data"
        layout = ShardMap(2)
        # Two sessions that stay home and two that move to the new shard.
        ids = [f"r-{i}" for i in range(1000)]
        sids = [s for s in ids if ShardMap(3).owner(s) != 2][:2]
        sids += [s for s in ids if ShardMap(3).owner(s) == 2][:2]
        for k in range(2):
            home = data / f"shard-{k:02d}"
            wal, store = IngestWal(home / "wal"), SnapshotStore(home / "snaps")
            for sid in (s for s in sids if layout.owner(s) == k):
                wal.append(sid, -1, {"n": 2, "protocol": "bhmr"})
                op = {"kind": "checkpoint", "pid": 0}
                seq = wal.append(sid, 0, op).seq
                store.save(ServeSession.replay_log(sid, 2, "bhmr", [op]), seq)
            wal.sync()
            wal.close()
        layout.save(data / "shardmap.json")

        calls = []
        for name in ("replace", "unlink", "fsync_dir", "write_atomic"):
            def record(self, *args, _real=getattr(Disk, name), _name=name):
                paths = args[:2] if _name == "replace" else args[:1]
                calls.append((_name, *(str(p) for p in paths)))
                return _real(self, *args)
            monkeypatch.setattr(Disk, name, record)
        router = Router(RouterConfig(shard_procs=3, data_dir=str(data)))
        router._reconcile()
        monkeypatch.undo()

        root = router.data_dir
        saved = calls.index(("write_atomic", str(root / "shardmap.json")))
        discarded = 0
        for k in range(2):
            home, snaps = root / f"shard-{k:02d}", root / f"shard-{k:02d}" / "snaps"
            retired = calls.index(
                ("replace", str(home / "wal"), str(home / "wal-retired"))
            )
            last_sync = {
                d: max(i for i, c in enumerate(calls) if c == ("fsync_dir", str(d)))
                for d in (home, snaps)
            }
            unlinks = [
                i for i, c in enumerate(calls)
                if c[0] == "unlink" and Path(c[1]).parent == snaps
            ]
            discarded += len(unlinks)
            assert retired < last_sync[home] < saved
            assert all(i < last_sync[snaps] for i in unlinks)
            assert last_sync[snaps] < saved
            assert not (home / "wal").exists()
        assert discarded > 0
        assert ShardMap.load(root / "shardmap.json") == ShardMap(3)
        for sid in sids:
            home = root / f"shard-{ShardMap(3).owner(sid):02d}"
            assert SnapshotStore(home / "snaps").known().count(sid) == 1


def test_relative_data_dir_works(tmp_path, monkeypatch):
    """Shard processes run with cwd inside their shard directory, so a
    relative ``--data-dir`` must be resolved before paths are derived
    from it -- regression for shards re-rooting ``data/shard-k/data``
    under themselves and never binding."""
    monkeypatch.chdir(tmp_path)
    with api.serve(
        unix_path=str(tmp_path / "rel.sock"),
        shard_procs=2,
        data_dir="data",
    ) as h:
        with Client(h.connect_address()) as client:
            client.hello("rel", n=2)
            client.checkpoint("rel", pid=0)
            assert client.query("rel", "rdt_status")["events"] == 1
    assert (tmp_path / "data" / "shard-00" / "wal").is_dir()
    assert not (tmp_path / "data" / "shard-00" / "data").exists()


class TestRouterErrorPaths:
    def test_unknown_kind_refused_at_the_router(self, handle):
        with Client(handle.connect_address()) as client:
            reply = client.call({"kind": "reboot", "seq": 1})
            assert reply["ok"] is False and reply["error"] == "bad_request"

    def test_missing_session_refused_at_the_router(self, handle):
        with Client(handle.connect_address()) as client:
            reply = client.call({"kind": "checkpoint", "seq": 1, "pid": 0})
            assert reply["ok"] is False and reply["error"] == "bad_request"

    def test_session_frames_are_refused_moved_at_the_router(self, handle):
        """The router carries no session frame: a peer that sends one
        there is told ``moved``."""
        import socket

        from repro.serve import wire
        from tests.test_serve_client import recv_frame, send_frame

        with socket.socket(socket.AF_UNIX) as sock:
            sock.connect(handle.address[1])
            send_frame(
                sock, {"kind": "checkpoint", "seq": 1, "session": "s", "pid": 0}
            )
            reply = recv_frame(sock, wire.FrameBuffer())
        assert reply["ok"] is False and reply["error"] == "moved"

    def test_shard_errors_pass_through_verbatim(self, handle):
        """A session-level error is the shard's own reply -- same code
        and detail a single-process server would produce."""
        with Client(handle.connect_address()) as client:
            client.hello("err-s", n=2)
            with pytest.raises(ReplyError) as err:
                client.send("err-s", src=0, dst=0)
            assert err.value.code == "bad_session"


class TestRouterPing:
    """Sessionless health on the router: topology at a glance."""

    def test_ping_reports_topology(self, handle):
        with Client(handle.connect_address()) as client:
            reply = client.ping()
            assert reply["ok"] is True
            assert reply["pong"] is True
            assert reply["role"] == "router"
            assert reply["shards"] == SHARDS
            assert reply["shards_up"] == SHARDS
            assert reply["degraded"] == []

    def test_stats_rows_carry_degraded_flag(self, handle):
        with Client(handle.connect_address()) as client:
            stats = client.call({"kind": "stats", "seq": "deg"})
            assert [row["degraded"] for row in stats["shards"]] == (
                [False] * SHARDS
            )
