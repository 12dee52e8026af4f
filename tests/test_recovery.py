"""Recovery tests: crash specs, recovery lines, domino effect, logging."""

import pytest

from repro.events import (
    PatternBuilder,
    figure1_pattern,
    ping_pong_domino_pattern,
)
from repro.recovery import (
    CrashSpec,
    build_sender_logs,
    domino_depth,
    domino_depths_by_rounds,
    domino_report,
    recovery_line,
    replay_plan,
    restart_bounds,
    rollback_distance,
    trim_log,
)
from repro.types import CheckpointId as C
from repro.types import PatternError

I, J, K = 0, 1, 2


class TestCrashSpec:
    def test_restart_from_last_checkpoint(self):
        h = figure1_pattern()
        assert CrashSpec(0).restart_checkpoint(h) == C(0, 3)

    def test_restart_at_time(self):
        h = figure1_pattern()
        # Crash just after C(i,1) (which is the 7th op => time 9.0).
        ev = h.checkpoint_event(C(0, 1))
        spec = CrashSpec(0, at_time=ev.time + 0.5)
        assert spec.restart_checkpoint(h) == C(0, 1)

    def test_crash_before_any_checkpoint_rejected(self):
        h = figure1_pattern()
        with pytest.raises(PatternError):
            CrashSpec(0, at_time=-1.0).restart_checkpoint(h)

    def test_restart_bounds_mixed(self):
        h = figure1_pattern()
        bounds = restart_bounds(h, {1: CrashSpec(1)})
        assert bounds == {0: 3, 1: 3, 2: 3}


class TestRecoveryLine:
    def test_line_is_consistent_and_maximal_under_bounds(self):
        h = figure1_pattern()
        line = recovery_line(h, [0])
        assert line.cut[0] <= 3
        # The recovery line never includes the useless checkpoint C(k,2).
        assert line.cut[2] != 2

    def test_no_crash_means_latest_consistent_cut(self):
        b = PatternBuilder(2)
        b.transmit(0, 1)
        b.checkpoint_all()
        h = b.build(close=True)
        line = recovery_line(h, [])
        assert line.cut == {0: h.last_index(0), 1: h.last_index(1)}
        assert line.events_undone == 0

    def test_orphan_forces_rollback(self):
        # P0 checkpoints, then sends; P1 delivers then checkpoints.
        # Crash of P0 orphanises the message: P1 must fall back.
        b = PatternBuilder(2)
        b.checkpoint(0)  # C(0,1)
        m = b.send(0, 1)
        b.deliver(m)
        b.checkpoint(1)  # C(1,1) depends on the delivery
        h = b.build(close=True)
        spec = CrashSpec(0, at_time=h.checkpoint_event(C(0, 1)).time)
        line = recovery_line(h, {0: spec})
        assert line.cut == {0: 1, 1: 0}

    def test_events_undone_counted(self):
        h = ping_pong_domino_pattern(rounds=3)
        line = recovery_line(h, [0])
        assert line.events_undone > 0

    def test_total_failure_default(self):
        h = figure1_pattern()
        line = recovery_line(h)
        assert set(line.cut) == {0, 1, 2}


class TestDomino:
    def test_ping_pong_cascades_to_start(self):
        h = ping_pong_domino_pattern(rounds=5)
        # P0's volatile tail (the last pong's send) dies with it; the
        # orphan chain then unravels every round.
        line = recovery_line(h, [0])
        assert line.is_total_rollback

    def test_crash_without_volatile_loss_is_harmless(self):
        h = ping_pong_domino_pattern(rounds=5)
        # P1 ends exactly at its last checkpoint: crashing it loses no
        # send, so the latest cut stands.
        line = recovery_line(h, [1])
        assert not line.is_total_rollback
        assert line.events_undone == 0

    def test_depth_grows_with_rounds(self):
        depths = domino_depths_by_rounds(
            ping_pong_domino_pattern, [2, 4, 6], crashed=0
        )
        assert depths[0] < depths[1] < depths[2]

    def test_clean_pattern_has_bounded_depth(self):
        b = PatternBuilder(2)
        for _ in range(5):
            b.transmit(0, 1)
            b.checkpoint_all()
        h = b.build(close=True)
        assert domino_depth(h, 0) == 0

    def test_report_identifies_worst_crash(self):
        h = ping_pong_domino_pattern(rounds=4)
        report = domino_report(h)
        assert report.worst_depth >= 4
        assert report.total_rollback_reached

    def test_rollback_distance_shape(self):
        h = figure1_pattern()
        distance = rollback_distance(h, 0)
        assert set(distance) == {0, 1, 2}
        assert all(d >= 0 for d in distance.values())


class TestSenderLogs:
    def test_logs_partition_messages(self):
        h = figure1_pattern()
        logs = build_sender_logs(h)
        assert sum(len(log) for log in logs.values()) == h.num_messages()

    def test_record_rejects_foreign_message(self):
        h = figure1_pattern()
        logs = build_sender_logs(h)
        m1 = h.figure_names["m1"]  # sent by P0
        assert m1 in logs[0] and m1 not in logs[1]
        for pid, log in logs.items():
            assert all(h.message(mid).src == pid for mid in log)

    def test_replay_plan_of_cut(self):
        h = figure1_pattern()
        plan = replay_plan(h, {0: 1, 1: 1, 2: 1})
        replayed = {m.msg_id for m in plan.messages()}
        # m2 crosses the (1,1,1) line: sent in I(j,1), delivered in I(i,2).
        assert h.figure_names["m2"] in replayed
        assert h.figure_names["m1"] not in replayed
        assert plan.total == len(replayed)

    def test_garbage_collection(self):
        h = figure1_pattern()
        logs = build_sender_logs(h)
        floor = {0: 1, 1: 1, 2: 1}
        dropped = trim_log(logs[0], h, floor)
        # P0 sent m1 in I(i,1), delivered in I(j,1): both at/below the
        # floor, collectable; m5 in I(i,3): sent above it, kept.
        assert dropped == 1
        assert len(logs[0]) == 1

    def test_garbage_collection_keeps_crossing_message(self):
        # m2 is sent by P1 in I(j,1) (at the floor) but delivered by P0
        # in I(i,2) (above it): it crosses the floor and is exactly the
        # message a rollback to the floor must replay -- the sender-side
        # rule alone would wrongly reclaim it.
        h = figure1_pattern()
        logs = build_sender_logs(h)
        floor = {0: 1, 1: 1, 2: 1}
        trim_log(logs[1], h, floor)
        assert h.figure_names["m2"] in logs[1]

    def test_lookup_roundtrip(self):
        h = figure1_pattern()
        logs = build_sender_logs(h)
        mid = h.figure_names["m5"]
        assert mid in logs[0] and h.message(mid).src == 0
