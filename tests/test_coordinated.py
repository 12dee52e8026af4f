"""Chandy-Lamport coordinated snapshot tests."""

import hashlib
import json

import pytest

from repro.analysis import in_transit_of_cut, is_consistent_gcp
from repro.core import run_chandy_lamport
from repro.events import figure1_pattern
from repro.events.io import history_to_dict
from repro.events.random_pattern import ping_pong_domino_pattern, random_pattern
from repro.types import SimulationError
from repro.workloads import WORKLOADS, RandomUniformWorkload, RingWorkload
from repro.workloads.base import Workload


@pytest.fixture(scope="module")
def result():
    return run_chandy_lamport(
        RandomUniformWorkload(send_rate=2.0),
        n=4,
        duration=80.0,
        seed=5,
        snapshot_period=15.0,
    )


class TestSnapshots:
    def test_snapshots_complete(self, result):
        # 80/15 -> initiations at 15..75: five snapshots.
        assert len(result.snapshots) == 5

    def test_every_cut_is_consistent(self, result):
        for snap in result.snapshots:
            assert set(snap.cut) == {0, 1, 2, 3}
            assert is_consistent_gcp(result.history, snap.cut), snap.snapshot_id

    def test_cuts_advance_monotonically(self, result):
        for a, b in zip(result.snapshots, result.snapshots[1:]):
            assert all(a.cut[p] <= b.cut[p] for p in a.cut)

    def test_channel_states_capture_exactly_the_crossing_messages(self, result):
        for snap in result.snapshots:
            expected = {
                m.msg_id for m in in_transit_of_cut(result.history, snap.cut)
            }
            assert snap.in_transit_ids() == expected, snap.snapshot_id

    def test_channel_states_cover_all_ordered_pairs(self, result):
        for snap in result.snapshots:
            assert len(snap.channel_states) == 4 * 3


class TestControlCost:
    def test_marker_count(self, result):
        # n(n-1) markers per snapshot; all five completed.
        assert result.control_messages == 5 * 4 * 3
        assert result.metrics.control_messages == result.control_messages

    def test_cic_has_no_control_messages_by_construction(self):
        # The contrast the paper draws: CIC piggybacks, never sends.
        from repro.sim import Simulation, SimulationConfig
        from repro.workloads import RandomUniformWorkload as W

        sim = Simulation(W(), SimulationConfig(n=3, duration=20, seed=0))
        res = sim.run("bhmr")
        assert res.metrics.control_messages == 0


class TestRunnerBehaviour:
    def test_deterministic(self):
        a = run_chandy_lamport(RingWorkload(), n=3, duration=30, seed=9)
        b = run_chandy_lamport(RingWorkload(), n=3, duration=30, seed=9)
        assert [s.cut for s in a.snapshots] == [s.cut for s in b.snapshots]

    def test_needs_two_processes(self):
        with pytest.raises(SimulationError):
            run_chandy_lamport(RingWorkload(), n=1, duration=10, seed=0)

    def test_no_snapshot_when_period_exceeds_duration(self):
        res = run_chandy_lamport(
            RingWorkload(), n=3, duration=10, seed=0, snapshot_period=50.0
        )
        assert res.snapshots == []

    def test_history_validates_and_has_app_traffic(self, result):
        assert result.history.num_messages() > 50
        assert result.metrics.messages_delivered > 50


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _snapshot_doc(snap) -> dict:
    return {
        "id": snap.snapshot_id,
        "cut": sorted(snap.cut.items()),
        "channels": sorted([list(k), v] for k, v in snap.channel_states.items()),
        "markers": snap.markers_sent,
    }


class _TimerAtPeriod(Workload):
    """Every process's timer fires at each multiple of ``period`` and
    sends to its right neighbour: the same instants as the marker rounds
    of a run with ``snapshot_period=period``."""

    def __init__(self, period: float) -> None:
        self.period = period

    def on_start(self, ctx):
        for pid in range(ctx.n):
            ctx.set_timer(pid, self.period)

    def on_timer(self, ctx, pid, tag):
        ctx.send(pid, (pid + 1) % ctx.n)
        ctx.set_timer(pid, self.period)


class TestByteIdentityPins:
    """Digests recorded before the runner moved onto the trace generator
    and the builder onto the shared recorder: every history, cut,
    channel state and marker count must come out byte-identical."""

    GRID = {
        "bsp": "3d9f31fa9a3d9e640e09b4c85df4442e7e4ed50eb2f0daa7c3ea97c48915a06e",
        "bursty": "14475ef02a78c1b08bef99bcbce06b363b1a399f774cbd5cae3d7bc2516886bd",
        "client-server": "f6a0524fe38c812b64c341220382c977a9a39d6c784f83bba7d0f5a8f9f6965e",
        "groups": "d8eb901b9c00dfccd7504a3c51a629253fb3138f999de4aa2286cd7958b82c57",
        "master-worker": "359691697361deb79793271c939f099e2d3030bfb46bf7f009f5ac57fe62e034",
        "pipeline": "984153eec9d9b66b1fff730fe7667dd040c5c79c1ad6a7343d373c8bfa1fb271",
        "random": "ff853539ff75a9aeed1eca4ea5cf959a6dbbca65ff7ffded95344a216abb4819",
        "ring": "e4a65b20415ab64e61d9a4b8b80cda8137fdb9b1f221a1490bb588e7848470bd",
    }

    TIMER_TIE = "bb098314382f8465a68f6b6a0034d7f4171179476a701af37280bb949cb011c8"

    PATTERNS = {
        "figure1": "612ffafec3c1e68c26c26fa9d76c74a2708a9af43095e5298b0b4816d7323d0a",
        "domino4": "359aecd22f14fee62f53a35267161626cca36f9f0cf8c258b1f0e2cf9b078e64",
        "random0": "7026e6024be44d07abdbccd5a58df0da3f4554dc7a2c8fc1d7e3ee0d3964e404",
        "random1": "4dbb2da0bb77a00c97034e945498e0d2141f0464772f30c0da4fc67229d1dc45",
        "random2": "63c5e23db301a12f600e9477b825a4fc5555309e15d345e00d27e780beae83d6",
        "random0-open": "cfb1fc6ea14a696ed53ee04dbd8d8888081022a587c1016cf60c20ef37ce075c",
    }

    @pytest.mark.parametrize("name", sorted(GRID))
    def test_chandy_lamport_grid(self, name):
        runs = []
        for n in (2, 4):
            for seed in (0, 1, 5):
                res = run_chandy_lamport(
                    WORKLOADS[name](), n=n, duration=60, seed=seed,
                    snapshot_period=7,
                )
                runs.append({
                    "history": history_to_dict(res.history),
                    "snapshots": [_snapshot_doc(s) for s in res.snapshots],
                    "control": res.control_messages,
                })
        assert _digest(runs) == self.GRID[name]

    def test_timer_tied_with_the_first_marker_round(self):
        """The first marker round is scheduled before the workload's
        ``on_start``, so at a tie the initiator records its state before
        the timer's send (which is then post-snapshot, not in transit)."""
        runs = []
        for n in (2, 4):
            for seed in (0, 1):
                res = run_chandy_lamport(
                    _TimerAtPeriod(7.0), n=n, duration=30, seed=seed,
                    snapshot_period=7,
                )
                runs.append({
                    "history": history_to_dict(res.history),
                    "snapshots": [_snapshot_doc(s) for s in res.snapshots],
                    "control": res.control_messages,
                })
        assert _digest(runs) == self.TIMER_TIE

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_builder_patterns(self, name):
        build = {
            "figure1": figure1_pattern,
            "domino4": lambda: ping_pong_domino_pattern(rounds=4),
            "random0": lambda: random_pattern(seed=0),
            "random1": lambda: random_pattern(seed=1),
            "random2": lambda: random_pattern(seed=2),
            "random0-open": lambda: random_pattern(seed=0, close=False),
        }[name]
        assert _digest(history_to_dict(build())) == self.PATTERNS[name]
