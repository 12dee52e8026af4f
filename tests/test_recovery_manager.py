"""The online recovery manager, and the safety of sender-log GC.

Three clusters:

* ``TestOnlineLine`` -- the manager's online recovery line (live
  incremental R-graph) equals the offline fixpoint for hand-built
  patterns, simulated runs, and every crash-subset shape (partial maps,
  ``at_time`` bounds, processes sitting exactly on their last
  checkpoint).
* ``TestUnsafeOldRule`` -- the regression suite for the GC bugfix: the
  old sender-side-only rule demonstrably reclaims a message that a later
  recovery line needs replayed; the both-sides rule keeps it.
* ``TestOnlineGC`` -- the live garbage collector never drops anything a
  later ``crash()`` asks for.
"""

import itertools

import pytest

from repro.events.builder import PatternBuilder, figure1_pattern
from repro.recovery import (
    CrashSpec,
    RecoveryManager,
    build_sender_logs,
    collect_garbage,
    global_recovery_floor,
    recovery_line,
    recovery_line_rgraph,
    replay_plan,
)
from repro.recovery.logging import reclaimable
from repro.sim import Simulation, SimulationConfig
from repro.types import PatternError, RecoveryError
from repro.workloads import RandomUniformWorkload


def simulated_history(protocol="bhmr", n=3, seed=0, duration=40.0):
    sim = Simulation(
        RandomUniformWorkload(send_rate=2.0),
        SimulationConfig(n=n, duration=duration, seed=seed, basic_rate=0.4),
    )
    return sim.run(protocol).history


def crash_subsets(n):
    """All non-empty crash subsets of ``range(n)``."""
    out = []
    for r in range(1, n + 1):
        out.extend(itertools.combinations(range(n), r))
    return out


class TestOnlineLine:
    def test_figure1_matches_offline_for_every_subset(self):
        h = figure1_pattern()
        manager = RecoveryManager.from_history(h)
        for crashed in crash_subsets(3):
            online = manager.online_recovery_line(list(crashed))
            offline = recovery_line(h, {p: CrashSpec(p) for p in crashed})
            assert online == offline.cut, f"crashed={crashed}"

    def test_simulated_runs_match_offline(self):
        for protocol, seed in [("bhmr", 0), ("fdas", 1), ("independent", 2)]:
            h = simulated_history(protocol=protocol, seed=seed)
            manager = RecoveryManager.from_history(h)
            for crashed in crash_subsets(3):
                online = manager.online_recovery_line(list(crashed))
                offline = recovery_line(h, {p: CrashSpec(p) for p in crashed})
                assert online == offline.cut, (protocol, seed, crashed)

    def test_crash_result_carries_plan_and_depth(self):
        h = simulated_history(protocol="independent", seed=3)
        manager = RecoveryManager.from_history(h)
        online = manager.crash([0], t=40.0)
        offline = recovery_line(h, {0: CrashSpec(0)})
        assert online.cut == offline.cut
        assert online.to_replay == sorted(
            m.msg_id for m in offline.messages_to_replay
        )
        assert online.events_undone >= 0
        assert all(d >= 0 for d in online.rollback_depth.values())
        assert online.max_depth == max(online.rollback_depth.values())

    def test_open_event_and_checkpoint_bookkeeping(self):
        b = PatternBuilder(2)
        m = b.send(0, 1)
        b.checkpoint(0)
        b.deliver(m)
        manager = RecoveryManager.from_history(b.build(close=True))
        assert manager.last_taken(0) == 1
        assert manager.last_taken(1) == 0
        assert manager.open_events(0) == 0
        assert manager.open_events(1) == 1

    def test_crash_missing_log_message_raises(self):
        b = PatternBuilder(2)
        m = b.send(0, 1)
        b.checkpoint(0)
        b.deliver(m)
        manager = RecoveryManager.from_history(b.build(close=True))
        manager.logs[0].discard(m)
        with pytest.raises(RecoveryError):
            manager.crash([1])

    def test_rollback_then_refeed_restores_state(self):
        """After rollback, re-feeding the undone events (piecewise
        determinism) brings the manager back to the pre-crash answer."""
        h = simulated_history(protocol="independent", seed=5)
        manager = RecoveryManager.from_history(h)
        before = manager.online_recovery_line([0])
        online = manager.crash([0], t=40.0)
        manager.rollback(online.cut)
        from repro.events.event import CheckpointKind

        for event in h.events_by_time():
            if event.is_checkpoint:
                if (
                    event.checkpoint_index == 0
                    or event.checkpoint_kind is CheckpointKind.FINAL
                ):
                    continue
                if event.checkpoint_index <= manager.last_taken(event.pid):
                    continue
                manager.on_checkpoint(event.pid, event.checkpoint_index, event.time)
            elif event.is_send:
                if event.msg_id in manager._records:
                    continue
                manager.on_send(h.message(event.msg_id), event.time)
            elif event.is_deliver:
                if manager._records[event.msg_id].deliver_interval is not None:
                    continue
                manager.on_deliver(h.message(event.msg_id), event.time)
        assert manager.online_recovery_line([0]) == before


class TestRGraphLinePinning:
    """Satellite pins for ``recovery_line_rgraph`` edge shapes."""

    def test_bound_is_last_checkpoint_no_spurious_constraint(self):
        # P0's bound equals its last taken checkpoint; the node above it
        # is the FINAL frontier only when P0 has open events.  A process
        # with *no* events after its last checkpoint must contribute no
        # rollback source at all.
        b = PatternBuilder(2)
        m = b.send(0, 1)
        b.checkpoint(0)
        b.deliver(m)
        h = b.build(close=True)
        crashes = {0: CrashSpec(0)}
        fix = recovery_line(h, crashes)
        assert fix.cut == {0: 1, 1: 1}  # nobody rolls back
        assert recovery_line_rgraph(h, crashes) == fix.cut

    def test_partial_crash_maps_with_at_time(self):
        h = simulated_history(protocol="fdas", seed=7)
        for t in (10.0, 20.0, 30.0):
            for crashed in [(0,), (1,), (0, 2)]:
                crashes = {p: CrashSpec(p, at_time=t) for p in crashed}
                fix = recovery_line(h, crashes)
                assert recovery_line_rgraph(h, crashes) == fix.cut, (t, crashed)

    def test_at_time_bounds_respected(self):
        h = simulated_history(protocol="bhmr", seed=9)
        crashes = {1: CrashSpec(1, at_time=15.0)}
        fix = recovery_line(h, crashes)
        assert fix.cut[1] <= crashes[1].restart_checkpoint(h.closed()).index


class TestEarlyFloor:
    """Satellite: the recovery floor is defined at every instant."""

    def test_floor_before_any_checkpoint_is_initial(self):
        b = PatternBuilder(3)
        b.transmit(0, 1)
        b.checkpoint(1)
        h = b.build(close=True)
        # Builder times are logical counters >= 1: t=0.5 precedes every
        # post-initial checkpoint, so all restart bounds fall back to 0.
        floor = global_recovery_floor(h, at_time=0.5)
        assert floor.cut == {0: 0, 1: 0, 2: 0}

    def test_floor_defined_at_every_time_of_simulated_run(self):
        h = simulated_history(seed=11)
        for t in (0.0, 0.5, 1.0, 5.0, 40.0):
            floor = global_recovery_floor(h, at_time=t)
            assert all(v >= 0 for v in floor.cut.values())

    def test_strict_crashspec_still_rejects_early_crash(self):
        b = PatternBuilder(2)
        b.transmit(0, 1)
        h = b.build(close=True)
        with pytest.raises(PatternError):
            CrashSpec(0, at_time=0.0).restart_checkpoint(h)


def unsafe_pattern():
    """The witness pattern for the old GC rule's unsoundness.

    P0 sends ``m`` in I(0,1) and then checkpoints C(0,1); P1 delivers
    ``m`` and never checkpoints again.  The total-failure floor is
    ``{0: 1, 1: 0}``: ``m`` is sent at the floor but delivered above it
    -- it *crosses*, and any later crash of P1 still needs it replayed.
    """
    b = PatternBuilder(2)
    m = b.send(0, 1)
    b.checkpoint(0)
    b.deliver(m)
    return b.build(close=True), m


class TestUnsafeOldRule:
    def test_floor_and_crossing_shape(self):
        h, m = unsafe_pattern()
        floor = global_recovery_floor(h)
        assert floor.cut == {0: 1, 1: 0}
        assert [x.msg_id for x in floor.messages_to_replay] == [m]

    def test_old_rule_drops_a_message_a_later_line_needs(self):
        """The regression: sender-side-only GC reclaims ``m``, then a
        crash of P1 asks for exactly ``m`` -- an unservable replay."""
        h, m = unsafe_pattern()
        logs = build_sender_logs(h)
        floor = global_recovery_floor(h)
        # The pre-fix rule: drop on send_interval <= floor[src] alone.
        old_rule_dead = [
            mid
            for mid in logs[0]
            if h.send_interval(h.message(mid)) <= floor.cut[0]
        ]
        assert old_rule_dead == [m]  # the old rule WOULD reclaim m ...
        line = recovery_line(h, {1: CrashSpec(1)})
        needed = [x.msg_id for x in replay_plan(h, line.cut).messages()]
        assert m in needed  # ... which this later line must replay.

    def test_new_rule_keeps_the_crossing_message(self):
        h, m = unsafe_pattern()
        logs = build_sender_logs(h)
        report = collect_garbage(h, logs=logs)
        assert report.reclaimed_log_messages == 0
        assert m in logs[0]
        # The later crash's whole plan is servable from the logs.
        line = recovery_line(h, {1: CrashSpec(1)})
        for msg in replay_plan(h, line.cut).messages():
            assert msg.msg_id in logs[msg.src]

    def test_reclaimable_needs_both_sides(self):
        # (send_interval, deliver_interval, floor_src, floor_dst)
        assert reclaimable(1, 1, 1, 1)
        assert not reclaimable(1, 2, 1, 1)  # crosses: delivered above
        assert not reclaimable(2, 1, 1, 1)  # sent above the floor
        assert not reclaimable(0, None, 1, 1)  # in transit forever

    def test_undelivered_below_floor_is_kept(self):
        b = PatternBuilder(2)
        m = b.send(0, 1)  # never delivered: permanently in transit
        b.checkpoint(0)
        b.checkpoint(1)
        h = b.build(close=True)
        logs = build_sender_logs(h)
        collect_garbage(h, logs=logs)
        assert m in logs[0]


class TestOnlineGC:
    def test_online_gc_matches_offline_rule(self):
        h = simulated_history(protocol="fdas", seed=13)
        manager = RecoveryManager.from_history(h)
        gc = manager.collect_garbage()
        offline_floor = global_recovery_floor(h)
        assert gc.floor == offline_floor.cut
        logs = build_sender_logs(h)
        report = collect_garbage(h, logs=logs)
        assert gc.reclaimed_log_messages == report.reclaimed_log_messages
        for pid in range(3):
            assert set(manager.logs[pid]) == set(logs[pid])

    def test_dropped_never_needed_by_any_later_crash(self):
        h = simulated_history(protocol="independent", seed=17)
        manager = RecoveryManager.from_history(h)
        gc = manager.collect_garbage()
        for crashed in crash_subsets(3):
            online = manager.crash(list(crashed), t=40.0)  # raises if unservable
            assert not set(online.to_replay) & set(gc.dropped)

    def test_gc_is_idempotent(self):
        h = simulated_history(seed=19)
        manager = RecoveryManager.from_history(h)
        first = manager.collect_garbage()
        second = manager.collect_garbage()
        assert second.reclaimed_log_messages == 0
        assert second.floor == first.floor
