"""Garbage-collection tests: recovery floors, obsolescence, monotonicity."""

import pytest

from repro.analysis import is_consistent_gcp
from repro.events import (
    PatternBuilder,
    figure1_pattern,
    ping_pong_domino_pattern,
)
from repro.recovery import (
    build_sender_logs,
    collect_garbage,
    global_recovery_floor,
    obsolete_checkpoints,
    recovery_line,
    recovery_line_monotone,
)
from repro.sim import Simulation, SimulationConfig
from repro.types import CheckpointId as C
from repro.workloads import RandomUniformWorkload


def simulated_history(protocol="bhmr", seed=4, duration=40.0):
    sim = Simulation(
        RandomUniformWorkload(send_rate=2.0),
        SimulationConfig(n=3, duration=duration, seed=seed, basic_rate=0.4),
    )
    return sim.run(protocol).history


class TestFloor:
    def test_floor_is_consistent(self):
        h = simulated_history()
        floor = global_recovery_floor(h)
        assert is_consistent_gcp(h, floor.cut)

    def test_floor_dominates_single_crash_lines(self):
        """Any (single-crash) recovery line sits at or above the floor."""
        h = simulated_history()
        floor = global_recovery_floor(h)
        for pid in range(3):
            line = recovery_line(h, [pid])
            assert all(line.cut[p] >= floor.cut[p] for p in line.cut)

    def test_domino_pattern_floor_is_initial(self):
        h = ping_pong_domino_pattern(rounds=4)
        floor = global_recovery_floor(h)
        assert floor.is_total_rollback


class TestObsolete:
    def test_obsolete_checkpoints_below_floor(self):
        h = simulated_history()
        floor = global_recovery_floor(h)
        for cid in obsolete_checkpoints(h):
            assert cid.index < floor.cut[cid.pid]

    def test_figure1_nothing_obsolete_when_floor_low(self):
        h = figure1_pattern()
        floor = global_recovery_floor(h)
        obsolete = obsolete_checkpoints(h)
        assert len(obsolete) == sum(floor.cut.values())

    def test_progress_makes_checkpoints_obsolete(self):
        """With causal traffic + per-round checkpoints, the floor tracks
        the frontier and almost everything behind it is reclaimable."""
        b = PatternBuilder(2)
        for _ in range(6):
            b.transmit(0, 1)
            b.transmit(1, 0)
            b.checkpoint_all()
        h = b.build(close=True)
        floor = global_recovery_floor(h)
        assert floor.cut == {0: 6, 1: 6}
        assert len(obsolete_checkpoints(h)) == 12


class TestCollect:
    def test_gc_report_accounting(self):
        h = simulated_history()
        logs = build_sender_logs(h)
        before = sum(len(log) for log in logs.values())
        report = collect_garbage(h, logs)
        after = sum(len(log) for log in logs.values())
        assert report.reclaimed_log_messages == before - after
        assert report.kept_checkpoints + report.reclaimed_checkpoints == (
            h.closed().num_checkpoints()
        )

    def test_gc_without_logs(self):
        h = simulated_history()
        report = collect_garbage(h)
        assert report.reclaimed_log_messages == 0

    def test_kept_logs_cover_future_replays(self):
        """After GC, every message a later recovery needs is still logged."""
        from repro.recovery import CrashSpec, replay_plan

        h = simulated_history()
        logs = build_sender_logs(h)
        collect_garbage(h, logs, at_time=20.0)
        # A crash after the GC time: its replay plan must be coverable.
        line = recovery_line(h, {0: CrashSpec(0, at_time=30.0)})
        plan = replay_plan(h, line.cut)
        for m in plan.messages():
            assert m.msg_id in logs[m.src]


class TestMonotonicity:
    @pytest.mark.parametrize("seed", range(5))
    def test_floor_monotone_in_time(self, seed):
        h = simulated_history(seed=seed)
        assert recovery_line_monotone(h, [5.0, 10.0, 20.0, 30.0, 40.0])

    @pytest.mark.parametrize("protocol", ["bhmr", "independent"])
    def test_monotone_for_any_protocol(self, protocol):
        h = simulated_history(protocol=protocol)
        assert recovery_line_monotone(h, [8.0, 16.0, 24.0, 32.0])
