"""The online queries read off chain rows, against the scans they replaced.

``recovery_line``, ``rdt_status`` and the replay plan answer from state
the kernel keeps anyway: a closure row is a dependency vector (one
checkpoint index per process chain), useless checkpoints can only be
witnessed by nodes already known to lie on a cycle, and a message
crossing a cut is in transit or at the tail of its receiver's delivery
list.  The definitional forms they replaced live here as oracles:

* :func:`line_by_downward_scan` -- walk every process down from its
  bound, one ``reaches_strictly`` probe per checkpoint and source;
* :func:`plan_by_record_scan` -- filter every message ever sent;
* :func:`useless_by_node_probe` -- one ``C(p,x+1) -> C(p,x)`` probe per
  node.

New == oracle after every k-th event of live feeds (RDT protocols and
``independent``, which leaves Z-cycles *and* useless checkpoints), on
hypothesis-drawn feeds after every event, and a structural guard counts
closure probes so a scan cannot come back unnoticed.
"""

import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.events.event import CheckpointKind, Message
from repro.graph.reachability import IncrementalClosure
from repro.recovery import RecoveryManager
from repro.serve.session import ServeSession
from repro.serve.snapshots import state_digest
from repro.sim import Simulation, SimulationConfig
from repro.types import CheckpointId
from repro.workloads import RandomUniformWorkload
from tests.test_property_hypothesis import op_strategy

PROTOCOLS = ("bhmr", "fdas", "cbr", "independent")


# ----------------------------------------------------------------------
# the oracles: the scans ``src/`` no longer contains
# ----------------------------------------------------------------------
def line_by_downward_scan(manager, crashed):
    """Entry ``j`` is the largest ``y <= bound[j]`` that no crashed
    frontier with a volatile tail R-reaches strictly (0 if none)."""
    crashed = set(crashed)
    bounds = manager._bounds(crashed)
    sources = [
        manager.rgraph.frontier(pid)
        for pid in sorted(crashed)
        if manager.open_events(pid)
    ]
    cut = {}
    for pid in range(manager.n):
        cut[pid] = 0
        for y in range(bounds[pid], -1, -1):
            target = CheckpointId(pid, y)
            if not any(
                manager.rgraph.reaches_strictly(src, target) for src in sources
            ):
                cut[pid] = y
                break
    return cut


def plan_by_record_scan(manager, cut):
    """Every record sent at/below ``cut`` and not delivered at/below it."""
    return sorted(
        mid
        for mid, record in manager._records.items()
        if record.send_interval <= cut[record.message.src]
        and not (
            record.deliver_interval is not None
            and record.deliver_interval <= cut[record.message.dst]
        )
    )


def useless_by_node_probe(rgraph):
    """``C(p, x)`` is useless iff ``C(p, x+1)`` (the frontier included)
    strictly R-reaches it: one probe per node."""
    return [
        CheckpointId(pid, x)
        for pid in range(rgraph.num_processes)
        for x in range(rgraph.last_index(pid) + 1)
        if rgraph.reaches_strictly(CheckpointId(pid, x + 1), CheckpointId(pid, x))
    ]


def assert_plan_index_is_derived(manager):
    """The two plan indexes are exactly ``_records`` regrouped: every
    record is indexed once, in transit iff undelivered, and each
    receiver's list is in non-decreasing deliver-interval order."""
    records = manager._records
    assert manager._in_transit == {
        mid: rec for mid, rec in records.items() if rec.deliver_interval is None
    }
    delivered = [rec for lane in manager._delivered_to for rec in lane]
    assert len(delivered) == len({id(rec) for rec in delivered})
    assert {id(rec) for rec in delivered} == {
        id(rec) for rec in records.values() if rec.deliver_interval is not None
    }
    for dst, lane in enumerate(manager._delivered_to):
        assert all(rec.message.dst == dst for rec in lane)
        intervals = [rec.deliver_interval for rec in lane]
        assert intervals == sorted(intervals)


def random_cut(manager, rng):
    return {
        pid: rng.randrange(manager.last_taken(pid) + 2) for pid in range(manager.n)
    }


def assert_queries_match_oracles(manager, subsets, rng):
    for crashed in subsets:
        cut = manager.online_recovery_line(list(crashed))
        assert cut == line_by_downward_scan(manager, crashed), crashed
        assert list(cut) == list(range(manager.n))
        assert manager.replay_plan_ids(cut) == plan_by_record_scan(manager, cut)
    # The plan is a filter, right for any cut (consistent or not).
    cut = random_cut(manager, rng)
    assert manager.replay_plan_ids(cut) == plan_by_record_scan(manager, cut)
    assert manager.rgraph.useless_checkpoints() == useless_by_node_probe(
        manager.rgraph
    )


def all_subsets(n):
    return [
        crashed
        for r in range(n + 1)
        for crashed in itertools.combinations(range(n), r)
    ]


# ----------------------------------------------------------------------
# live feeds
# ----------------------------------------------------------------------
def sim_history(protocol, n, seed, duration):
    sim = Simulation(
        RandomUniformWorkload(send_rate=2.0),
        SimulationConfig(n=n, duration=duration, seed=seed, basic_rate=0.3),
    )
    return sim.run(protocol).history


def live_feed(history):
    """``RecoveryManager.from_history``, one event at a time."""
    manager = RecoveryManager(history.num_processes)
    for event in history.events_by_time():
        if event.is_checkpoint:
            if (
                event.checkpoint_index == 0
                or event.checkpoint_kind is CheckpointKind.FINAL
            ):
                continue
            manager.on_checkpoint(event.pid, event.checkpoint_index, event.time)
        elif event.is_send:
            manager.on_send(history.message(event.msg_id), event.time)
        else:
            manager.on_deliver(history.message(event.msg_id), event.time)
        yield manager


class TestLiveFeedsAgainstTheScans:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_crashed_subset_of_small_n(self, protocol, seed):
        rng = random.Random(seed)
        subsets = all_subsets(3)
        history = sim_history(protocol, n=3, seed=seed, duration=30.0)
        for step, manager in enumerate(live_feed(history)):
            if step % 5 == 0:
                assert_queries_match_oracles(manager, subsets, rng)
        assert_queries_match_oracles(manager, subsets, rng)
        assert_plan_index_is_derived(manager)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_random_subsets_at_n16(self, protocol):
        rng = random.Random(16)
        history = sim_history(protocol, n=16, seed=3, duration=10.0)
        for step, manager in enumerate(live_feed(history)):
            if step % 40 == 0:
                subsets = [
                    rng.sample(range(16), rng.randrange(1, 17)) for _ in range(3)
                ]
                assert_queries_match_oracles(manager, subsets, rng)
        assert_queries_match_oracles(manager, [range(16), [5]], rng)
        assert_plan_index_is_derived(manager)

    @pytest.mark.parametrize("protocol", ["bhmr", "independent"])
    def test_earliest_reached_is_the_reach_set_as_a_vector(self, protocol):
        history = sim_history(protocol, n=4, seed=7, duration=25.0)
        rgraph = RecoveryManager.from_history(history).rgraph
        for pid in range(4):
            for index in range(rgraph.last_index(pid) + 2):
                cid = CheckpointId(pid, index)
                first = {}
                for reached in rgraph.reachable_set(cid):
                    first[reached.pid] = min(
                        reached.index, first.get(reached.pid, reached.index)
                    )
                assert rgraph.earliest_reached(cid) == first, cid

    def test_independent_feed_has_what_the_fast_path_must_find(self):
        """Not vacuous: uncoordinated checkpointing leaves Z-cycles and
        useless checkpoints, witnessed only by on-cycle nodes."""
        history = sim_history("independent", n=8, seed=2, duration=40.0)
        rgraph = RecoveryManager.from_history(history).rgraph
        useless = rgraph.useless_checkpoints()
        assert useless and rgraph.has_z_cycle()
        assert useless == useless_by_node_probe(rgraph) == sorted(useless)
        on_cycle = {cid for comp in rgraph.cycles() for cid in comp}
        assert set(useless) <= on_cycle


def drive(manager, ops):
    """Interpret hypothesis ops straight into the manager's feed (no
    protocol: every checkpoint pattern, RDT or not, is reachable)."""
    n = manager.n
    in_flight = []
    for code, a, b in ops:
        pid = a % n
        if code == 0:
            dst = (pid + 1 + b % (n - 1)) % n
            message = Message(
                msg_id=len(manager._records), src=pid, dst=dst, send_seq=0
            )
            manager.on_send(message)
            in_flight.append(message)
        elif code == 1 and in_flight:
            manager.on_deliver(in_flight.pop(b % len(in_flight)))
        elif code == 2:
            manager.on_checkpoint(pid, manager.last_taken(pid) + 1)
        else:
            continue
        yield manager


@given(st.integers(2, 4), st.lists(op_strategy, max_size=50), st.integers(0, 99))
@settings(max_examples=60, deadline=None)
def test_arbitrary_feeds_match_the_scans_after_every_event(n, ops, seed):
    rng = random.Random(seed)
    subsets = all_subsets(n)
    manager = RecoveryManager(n)
    for manager in drive(manager, ops):
        assert_queries_match_oracles(manager, subsets, rng)
    assert_plan_index_is_derived(manager)


@given(st.integers(2, 4), st.lists(op_strategy, max_size=60), st.data())
@settings(max_examples=40, deadline=None)
def test_rollback_keeps_the_plan_index_derived(n, ops, data):
    """Crash anywhere, roll back to the line: deliveries above it are
    in transit again, dead sends are gone from both indexes, and the
    plan still equals the scan."""
    manager = RecoveryManager(n)
    for manager in drive(manager, ops):
        pass
    crashed = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    online = manager.crash(crashed)
    assert online.to_replay == plan_by_record_scan(manager, online.cut)
    manager.rollback(online.cut)
    assert_plan_index_is_derived(manager)
    for record in manager._records.values():
        assert record.send_interval <= online.cut[record.message.src]
        if record.deliver_interval is not None:
            assert record.deliver_interval <= online.cut[record.message.dst]
    # Everything that crossed the line is now exactly what is in transit.
    assert sorted(manager._in_transit) == online.to_replay
    assert_queries_match_oracles(manager, all_subsets(n), random.Random(0))


def fixed_log_session(protocol="bhmr", n=4, steps=400, seed=20):
    """A session fed ``steps`` seeded random ops (Python's ``random`` is
    stable across versions, so the log is a constant of the test)."""
    rng = random.Random(seed)
    session = ServeSession("pin", n, protocol)
    in_flight = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.45:
            src = rng.randrange(n)
            dst = (src + 1 + rng.randrange(n - 1)) % n
            reply = session.apply({"kind": "send", "src": src, "dst": dst})
            in_flight.append(reply["msg_id"])
        elif roll < 0.85 and in_flight:
            msg_id = in_flight.pop(rng.randrange(len(in_flight)))
            session.apply({"kind": "deliver", "msg_id": msg_id})
        else:
            session.apply({"kind": "checkpoint", "pid": rng.randrange(n)})
    return session


# ----------------------------------------------------------------------
# structural guard: the scans stay gone
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["bhmr", "independent"])
def test_queries_do_not_probe_per_checkpoint(protocol, monkeypatch):
    """``recovery_line`` makes no closure probe at all and ``rdt_status``
    at most one per on-cycle node -- at two depths, so a probe count
    that grows with the history fails here first."""
    calls = []
    reaches = IncrementalClosure.reaches

    def counting(self, u, v):
        calls.append((u, v))
        return reaches(self, u, v)

    sessions = [fixed_log_session(protocol, n=8, steps=s) for s in (400, 1600)]
    nodes = [s.manager.rgraph.num_nodes() for s in sessions]
    assert nodes[1] > 3 * nodes[0]
    monkeypatch.setattr(IncrementalClosure, "reaches", counting)
    for session in sessions:
        closure = session.manager.rgraph._closure
        cyclic = len(closure.cyclic_nodes())
        for crashed in (None, [0], [1, 6]):
            session.query("recovery_line", crashed=crashed)
        assert calls == []
        session.query("rdt_status")
        assert len(calls) <= cyclic
        del calls[:]


# ----------------------------------------------------------------------
# the indexes are derived state: snapshots do not see them
# ----------------------------------------------------------------------
def test_manager_state_is_byte_identical_to_the_parent_commit():
    """Digest of ``manager.state()`` on a fixed 400-op log (snapshot
    version 4).  It equals the version-3 document, computed before the
    plan indexes existed, with each log's stability mark (0 on every
    serve session, never read) dropped and its message list kept."""
    session = fixed_log_session()
    assert state_digest(session) == (
        "005794d597eeff2e7f64ea7a97c6d29bfd9d80b5f9811635ba1d75f234a88400"
    )
    assert set(session.manager.state()) == {
        "n", "rgraph", "records", "event_count", "count_at_ckpt", "logs",
        "gc_dropped",
    }
    assert session.query("recovery_line") == {
        "crashed": [0, 1, 2, 3],
        "cut": [31, 24, 25, 32],
        "to_replay": 31,
        "logged": 179,
    }
