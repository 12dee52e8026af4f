"""Wire-level chaos grid: seeded faults, end-to-end resilience.

The deployment under test sits behind :class:`repro.serve.chaosproxy.
ChaosProxy`, which injects latency, adversarial fragmentation,
mid-frame resets, silent stalls and truncate-on-close from a schedule
that is a pure function of ``(seed, connection index)``.  Three
promises are audited, per cell:

* **no hang** -- every logical op resolves (result or typed retryable
  error + reconnect) within a hard wall bound; a stalled wire becomes
  :class:`~repro.serve.client.RequestTimeout`, never an eternity;
* **no acked frame lost** -- at-least-once bookkeeping on the driver
  side: the server's recovered ingest log holds at least as many
  events as the driver counted acks (retries may double-apply, so
  ``>=`` rather than prefix equality is the honest contract here);
* **differential byte-identity** -- the live answers equal the offline
  replay (:func:`repro.serve.session.offline_answers`) of the
  deployment's *own* surviving WAL + snapshots, canonical-JSON exact.

Gating: the smoke cell below is deliberately ungated (tier 1) so the
default suite always crosses the chaos path once.  The sharded grid
and the crash-loop test spawn and murder real subprocesses, so they
run only with ``REPRO_WIRE_CHAOS=1``; ``REPRO_WIRE_CHAOS_CELLS`` caps
the grid (default 4).
"""

import os
import random
import signal
import time
from pathlib import Path

import pytest

from repro import api
from repro.obs import MetricsRegistry
from repro.obs.jsonio import canonical_dumps
from repro.serve.chaosproxy import ChaosConfig, ChaosProxy
from repro.serve.client import Client, ReplyError, RequestTimeout
from repro.serve.server import ServerConfig, ServerHandle, serve_in_thread
from repro.serve.session import offline_answers
from repro.serve.snapshots import SnapshotStore
from repro.serve.wal import read_wal, recover_sessions

gated = pytest.mark.skipif(
    os.environ.get("REPRO_WIRE_CHAOS") != "1",
    reason="wire-chaos grid runs only with REPRO_WIRE_CHAOS=1",
)

#: Hard per-op wall bound: one logical op, including every retry and
#: reconnect it needs, must resolve inside this.  The "no client call
#: ever hangs" promise, stated as an assert.
WALL_BOUND_S = 15.0
MAX_ATTEMPTS = 40


# ----------------------------------------------------------------------
# the chaos-side driver
# ----------------------------------------------------------------------
class ChaosDriver:
    """Deadline-bounded sync client with reconnect-and-resume retries.

    Deliberately built on a non-retrying :class:`Client` so every
    fault surfaces here and the at-least-once bookkeeping is explicit:
    ops are retried on :class:`RequestTimeout` / ``ConnectionError``
    (fate unknown -- the server may or may not have applied the frame),
    so ``acked`` counts only ops whose ack actually arrived.  The
    server-side event count must then be *at least* ``acked``.
    """

    def __init__(self, address: str, *, timeout: float = 0.5, seed: int = 0):
        self.address = address
        self.timeout = timeout
        self.rng = random.Random(f"wire-chaos-driver:{seed}")
        self.client = None
        self.loads = {}
        self.reconnects = 0

    # -- connection management ----------------------------------------
    def _connect(self) -> Client:
        if self.client is None:
            deadline = time.monotonic() + WALL_BOUND_S
            while True:
                try:
                    self.client = Client(
                        self.address, timeout=self.timeout, retries=0
                    )
                    break
                except (ConnectionError, OSError):
                    assert time.monotonic() < deadline, (
                        "could not re-dial the proxy within the wall "
                        "bound -- the listener hung"
                    )
                    time.sleep(0.02)
        return self.client

    def _drop(self) -> None:
        if self.client is not None:
            try:
                self.client.close()
            except Exception:
                pass
            self.client = None
            self.reconnects += 1

    def close(self) -> None:
        self._drop()

    # -- the op stream ------------------------------------------------
    def hello(self, sid: str, *, n: int, protocol: str) -> None:
        self.loads[sid] = {
            "n": n, "protocol": protocol, "acked": 0, "undelivered": [],
        }
        self._call(sid, {"kind": "hello"})  # greetings are not ingest events

    def step(self, sid: str) -> None:
        """One seeded op, driven to a resolution within the bounds."""
        load = self.loads[sid]
        choice = self.rng.random()
        if load["undelivered"] and choice < 0.35:
            op = {"kind": "deliver", "msg_id": load["undelivered"][0]}
        elif choice < 0.70:
            n = load["n"]
            src = self.rng.randrange(n)
            dst = (src + 1 + self.rng.randrange(n - 1)) % n
            op = {"kind": "send", "src": src, "dst": dst}
        else:
            op = {"kind": "checkpoint", "pid": self.rng.randrange(load["n"])}
        reply = self._call(sid, op)
        if reply is None:
            # A deliver retry learned the original landed (ack eaten by
            # a fault): applied server-side, but never acked to us.
            load["undelivered"].pop(0)
            return
        load["acked"] += 1
        if op["kind"] == "deliver":
            load["undelivered"].pop(0)
        elif op["kind"] == "send":
            load["undelivered"].append(int(reply["msg_id"]))

    def _call(self, sid: str, op: dict):
        load = self.loads[sid]
        started = time.monotonic()
        for _attempt in range(MAX_ATTEMPTS):
            elapsed = time.monotonic() - started
            assert elapsed < WALL_BOUND_S, (
                f"{sid}: op {op} unresolved after {elapsed:.1f}s -- a "
                f"client call hung past its deadline"
            )
            client = self._connect()
            try:
                if op["kind"] == "hello":
                    return client.hello(
                        sid, n=load["n"], protocol=load["protocol"]
                    )
                if op["kind"] == "checkpoint":
                    return client.checkpoint(sid, pid=op["pid"])
                if op["kind"] == "send":
                    return client.send(sid, src=op["src"], dst=op["dst"])
                return client.deliver(sid, msg_id=op["msg_id"])
            except (RequestTimeout, ConnectionError, OSError):
                # Typed, prompt transport failure: fate unknown,
                # reconnect and retry.  (Broken framing surfaces as
                # ConnectionError from Client.call.)
                self._drop()
            except ReplyError as exc:
                if exc.code in ("shard_down", "overloaded"):
                    time.sleep(0.05)
                    continue
                if (
                    op["kind"] == "deliver"
                    and exc.code == "bad_session"
                    and "delivered twice" in str(exc)
                ):
                    return None  # the fault ate the ack, not the frame
                raise
        raise AssertionError(
            f"{sid}: op {op} did not land in {MAX_ATTEMPTS} attempts"
        )


# ----------------------------------------------------------------------
# the audit
# ----------------------------------------------------------------------
def audit_online(direct_address: str, loads: dict, crashed):
    """Resume + query every session over a clean (proxy-free) wire.

    Returns ``(online answers, server event counts)`` and asserts the
    no-acked-frame-lost half of the contract.
    """
    online, events = {}, {}
    with Client(direct_address, timeout=10.0) as auditor:
        for sid, load in sorted(loads.items()):
            greeting = auditor.resume(sid)
            got = int(greeting["events"])
            assert load["acked"] <= got, (
                f"{sid}: {load['acked']} ops were acked through the "
                f"chaos proxy but the server holds only {got} events "
                f"-- an acked frame was lost"
            )
            events[sid] = got
            online[sid] = {
                "rdt_status": auditor.query(sid, "rdt_status"),
                "z_cycles": auditor.query(sid, "z_cycles"),
                "recovery_line": auditor.query(
                    sid, "recovery_line", crashed=list(crashed)
                ),
            }
    return online, events


def recover_offline(stores):
    """Fold each ``(wal_dir, snap_dir)`` pair into recovered sessions."""
    out = {}
    for wal_dir, snap_dir in stores:
        store = SnapshotStore(str(snap_dir))
        snapshots = {}
        for sid in store.known():
            doc = store.load(sid)
            if doc is not None:
                snapshots[sid] = doc
        records = read_wal(str(wal_dir)) if Path(wal_dir).exists() else []
        out.update(recover_sessions(records, snapshots))
    return out


def assert_differential(loads, online, events, recovered, crashed):
    """Live answers == offline replay of the deployment's own log."""
    for sid, load in sorted(loads.items()):
        rec = recovered.get(sid)
        assert rec is not None, f"{sid}: no trace of the session on disk"
        assert len(rec.log) == events[sid], (
            f"{sid}: live server reported {events[sid]} events but the "
            f"surviving WAL/snapshots recover {len(rec.log)}"
        )
        offline = offline_answers(
            sid, load["n"], load["protocol"], rec.log, crashed=list(crashed)
        )
        assert canonical_dumps(online[sid]) == canonical_dumps(offline), (
            f"{sid}: answers diverge from the offline replay of the "
            f"server's own ingest log"
        )


def run_cell(proxy_address, direct_address, *, seed, sessions, ops, n=3,
             protocol="bhmr", timeout=0.5):
    """Drive seeded load through the proxy; return driver bookkeeping."""
    driver = ChaosDriver(proxy_address, timeout=timeout, seed=seed)
    sids = [f"wc-{seed}-{i}" for i in range(sessions)]
    try:
        for sid in sids:
            driver.hello(sid, n=n, protocol=protocol)
        for op_i in range(ops):
            driver.step(sids[op_i % len(sids)])
    finally:
        driver.close()
    return driver


# ----------------------------------------------------------------------
# tier-1 smoke cell (always on)
# ----------------------------------------------------------------------
class TestWireChaosSmoke:
    """One seeded schedule across the full audit, fast enough for the
    default suite: the chaos path is exercised on every test run, not
    only when someone remembers to set an env var."""

    def test_single_process_cell_survives_seeded_faults(self, tmp_path):
        config = ServerConfig(
            unix_path=str(tmp_path / "srv.sock"),
            wal_dir=str(tmp_path / "wal"),
            snapshot_dir=str(tmp_path / "snaps"),
            fsync_batch=4,
        )
        crashed = (0,)
        with serve_in_thread(config) as backend:
            proxy = ServerHandle(ChaosProxy(
                backend.connect_address(),
                ChaosConfig(
                    seed=1337,
                    latency_s=0.0005,
                    jitter_s=0.0005,
                    fragment="shred",
                    reset_rate=0.12,
                    stall_rate=0.04,
                    truncate_rate=0.04,
                    fault_after=(64, 1500),
                ),
            ))
            try:
                driver = run_cell(
                    proxy.connect_address(), backend.connect_address(),
                    seed=1337, sessions=2, ops=70,
                )
            finally:
                summary = proxy.close()
            assert summary["connections"] >= 1
            # The audit runs over a clean wire: chaos must not be able
            # to corrupt what the server remembers, only slow/sever the
            # path to it.
            online, events = audit_online(
                backend.connect_address(), driver.loads, crashed
            )
        recovered = recover_offline(
            [(tmp_path / "wal", tmp_path / "snaps")]
        )
        assert_differential(driver.loads, online, events, recovered, crashed)
        total_acked = sum(l["acked"] for l in driver.loads.values())
        assert total_acked >= 60  # the cell did real work, not all errors


# ----------------------------------------------------------------------
# the sharded grid (REPRO_WIRE_CHAOS=1)
# ----------------------------------------------------------------------
PROFILES = {
    "latency": dict(latency_s=0.002, jitter_s=0.002, fragment="shred"),
    "resets": dict(fragment="byte", reset_rate=0.30, fault_after=(64, 900)),
    "stalls": dict(
        fragment="frame", stall_rate=0.15, truncate_rate=0.10,
        fault_after=(64, 1200),
    ),
    "mixed": dict(
        latency_s=0.001, jitter_s=0.001, fragment="shred",
        reset_rate=0.15, stall_rate=0.08, truncate_rate=0.07,
        fault_after=(64, 1500),
    ),
}
_PROFILE_ORDER = sorted(PROFILES)
FULL_GRID = [
    (seed, _PROFILE_ORDER[seed % len(_PROFILE_ORDER)]) for seed in range(12)
]


def _budgeted_grid():
    budget = int(os.environ.get("REPRO_WIRE_CHAOS_CELLS", "4"))
    return FULL_GRID[: max(1, min(budget, len(FULL_GRID)))]


@gated
@pytest.mark.tier2
@pytest.mark.parametrize(
    ("seed", "profile"), _budgeted_grid(), ids=lambda v: str(v)
)
def test_sharded_deployment_survives_wire_chaos(tmp_path, seed, profile):
    """The full multi-process deployment with a proxy in front of each
    shard -- the wire every session frame crosses -- audited
    differentially against the per-shard WALs after shutdown."""
    data_dir = tmp_path / "data"
    crashed = (seed % 3,)
    with api.serve(
        unix_path=str(tmp_path / "router.sock"),
        shard_procs=2,
        data_dir=str(data_dir),
    ) as handle:
        shards = handle.server._shards
        direct = [shard.address for shard in shards]
        proxies = [
            ServerHandle(ChaosProxy(
                address,
                ChaosConfig(seed=seed * len(direct) + k, **PROFILES[profile]),
            ))
            for k, address in enumerate(direct)
        ]
        # Clients dial what the router's ping publishes.
        for shard, proxy in zip(shards, proxies):
            shard.address = proxy.connect_address()
        try:
            driver = run_cell(
                handle.connect_address(), handle.connect_address(),
                seed=seed, sessions=3, ops=90, timeout=0.75,
            )
        finally:
            summaries = [proxy.close() for proxy in proxies]
            for shard, address in zip(shards, direct):
                shard.address = address
        assert sum(s["connections"] for s in summaries) >= 1
        online, events = audit_online(
            handle.connect_address(), driver.loads, crashed
        )
    # The handle is closed: shards drained and snapshotted.  Whatever
    # the chaos did to the wire, the disks must tell the same story the
    # live deployment told.
    recovered = recover_offline([
        (root / "wal", root / "snaps")
        for root in sorted(data_dir.glob("shard-*"))
        if root.is_dir()
    ])
    assert_differential(driver.loads, online, events, recovered, crashed)


# ----------------------------------------------------------------------
# crash-loop supervision (REPRO_WIRE_CHAOS=1)
# ----------------------------------------------------------------------
@gated
@pytest.mark.tier2
def test_crash_looping_shard_is_parked_not_respawned_forever(tmp_path):
    """Repeated SIGKILLs inside the flap window must trip the wire:
    the shard is parked terminally ``shard_degraded`` (non-retryable,
    operator action required) while the other shard keeps serving."""
    from repro.serve.routecore import FLAP_MAX_RESTARTS
    from repro.serve.router import Router, RouterConfig

    metrics = MetricsRegistry()
    config = RouterConfig(
        unix_path=str(tmp_path / "router.sock"),
        shard_procs=2,
        data_dir=str(tmp_path / "data"),
    )
    handle = ServerHandle(Router(config, metrics=metrics))
    try:
        router = handle.server
        # One session homed on each shard, found by probing the ring.
        by_shard, i = {}, 0
        while len(by_shard) < 2:
            sid = f"flap-{i}"
            by_shard.setdefault(router.core.map.owner(sid), sid)
            i += 1
        victim_sid, healthy_sid = by_shard[0], by_shard[1]

        client = Client(handle.connect_address(), timeout=10.0, retries=0)
        client.hello(victim_sid, n=2, protocol="bhmr")
        client.hello(healthy_sid, n=2, protocol="bhmr")

        kills = 0
        deadline = time.monotonic() + 30.0
        while True:
            assert time.monotonic() < deadline, (
                f"crash-loop wire never tripped after {kills} kills"
            )
            stats = client.call({"kind": "stats", "seq": "flap-poll"})
            row = stats["shards"][0]
            if row["degraded"]:
                break
            if row["up"] and row["pid"]:
                try:
                    os.kill(int(row["pid"]), signal.SIGKILL)
                    kills += 1
                except ProcessLookupError:
                    pass
            time.sleep(0.05)
        assert kills > FLAP_MAX_RESTARTS

        # Terminal and honest: the victim's connection died with its
        # first process while no frame was on it, and the client's
        # reader saw it go, so the first frame is refused unwritten by
        # the table the client held then; the re-ping that refusal
        # triggers learns the park, and from then on the key range
        # answers a typed, non-retryable error immediately -- no hang,
        # no silent retry.
        started = time.monotonic()
        with pytest.raises(ReplyError) as first:
            client.checkpoint(victim_sid, pid=0)
        assert first.value.code in ("shard_down", "shard_degraded")
        with pytest.raises(ReplyError) as err:
            client.checkpoint(victim_sid, pid=0)
        assert err.value.code == "shard_degraded"
        assert time.monotonic() - started < 5.0
        # The blast radius stayed inside the victim's key range.
        assert client.checkpoint(healthy_sid, pid=0)["ok"] is True
        assert client.ping()["degraded"] == [0]
        assert metrics.counter("serve.shard.flapping").value >= 1
        client.close()
    finally:
        handle.close()
