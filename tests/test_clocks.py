"""Unit tests for Lamport clocks, vector clocks, matrix clocks and TDVs."""

import pytest

from repro.clocks import TrackabilityOracle, tdv_snapshots
from repro.events import PatternBuilder, figure1_pattern, random_pattern
from repro.types import CheckpointId
from tests.oracles.lamport import LamportClock, lamport_timestamps
from tests.oracles.matrix import MatrixClock
from tests.oracles.vector import Causality, VectorClock, vector_timestamps


@pytest.fixture
def fig1():
    return figure1_pattern()


class TestLamport:
    def test_tick_monotone(self):
        c = LamportClock()
        assert c.tick() == 1
        assert c.tick() == 2

    def test_merge_jumps_past_received(self):
        c = LamportClock()
        c.tick()
        assert c.merge(10) == 11

    def test_clock_condition_on_history(self, fig1):
        stamps = lamport_timestamps(fig1)
        caus = Causality(fig1)
        for a in fig1.all_events():
            for b in fig1.all_events():
                if caus.precedes(a, b):
                    assert stamps[a.ref] < stamps[b.ref]


class TestVectorClock:
    def test_merge_is_componentwise_max(self):
        v1 = VectorClock(3, [1, 5, 2])
        v2 = VectorClock(3, [4, 0, 2])
        v1.merge(v2)
        assert v1.values == (4, 5, 2)

    def test_comparisons(self):
        small = VectorClock(2, [1, 1])
        big = VectorClock(2, [2, 1])
        other = VectorClock(2, [0, 5])
        assert small < big and small <= big
        assert not big < small
        assert small.concurrent_with(other)

    def test_copy_is_independent(self):
        v = VectorClock(2, [1, 1])
        w = v.copy()
        w.increment(0)
        assert v.values == (1, 1) and w.values == (2, 1)


class TestCausality:
    def test_send_precedes_delivery(self, fig1):
        caus = Causality(fig1)
        for m in fig1.delivered_messages():
            s = fig1.send_event(m)
            d = fig1.deliver_event(m)
            assert caus.precedes(s, d)
            assert not caus.precedes(d, s)

    def test_process_order_is_causal(self, fig1):
        caus = Causality(fig1)
        evs = fig1.events(0)
        assert caus.precedes(evs[0], evs[-1])

    def test_no_event_precedes_itself(self, fig1):
        caus = Causality(fig1)
        for e in fig1.all_events():
            assert not caus.precedes(e, e)

    def test_concurrent_events_exist_in_figure1(self, fig1):
        caus = Causality(fig1)
        # C(i,1) and C(k,1) are causally unrelated in Figure 1.
        assert not caus.checkpoint_precedes(CheckpointId(0, 1), CheckpointId(2, 1))
        assert not caus.checkpoint_precedes(CheckpointId(2, 1), CheckpointId(0, 1))

    def test_checkpoint_precedence_via_message(self, fig1):
        caus = Causality(fig1)
        # m1 carries C(i,0)'s past into P_j before C(j,1).
        assert caus.checkpoint_precedes(CheckpointId(0, 0), CheckpointId(1, 1))

    @pytest.mark.parametrize("seed", range(3))
    def test_precedes_antisymmetric_on_random(self, seed):
        h = random_pattern(n=3, steps=40, seed=seed)
        caus = Causality(h)
        evs = list(h.all_events())
        for a in evs:
            for b in evs:
                assert not (caus.precedes(a, b) and caus.precedes(b, a))

    @pytest.mark.parametrize("seed", range(3))
    def test_vector_clock_characterises_hb(self, seed):
        h = random_pattern(n=3, steps=40, seed=seed)
        caus = Causality(h)
        stamps = vector_timestamps(h)
        for a in h.all_events():
            for b in h.all_events():
                if a.ref == b.ref:
                    continue
                assert caus.precedes(a, b) == (stamps[a.ref] < stamps[b.ref])


class TestMatrixClock:
    def test_diagonal_row_is_own_vector(self):
        m = MatrixClock(0, 2)
        m.local_event()
        m.local_event()
        assert m.own_vector() == (2, 0)

    def test_deliver_merges_sender_knowledge(self):
        a = MatrixClock(0, 2)
        b = MatrixClock(1, 2)
        a.local_event()  # a knows: [1,0]
        piggy = a.snapshot()
        b.deliver(sender=0, piggyback=piggy)
        # b merged a's own row into its own and advanced.
        assert b.own_vector() == (1, 1)
        assert b.row(0) == (1, 0)

    def test_min_known_is_gc_bound(self):
        a = MatrixClock(0, 2)
        a.local_event()
        # a doesn't know whether P1 saw its event yet.
        assert a.min_known(0) == 0


class TestTDV:
    def test_own_entry_equals_checkpoint_index(self, fig1):
        snaps = tdv_snapshots(fig1)
        for cid, vec in snaps.items():
            assert vec[cid.pid] == cid.index

    def test_initial_checkpoints_all_zero(self, fig1):
        snaps = tdv_snapshots(fig1)
        for pid in range(3):
            assert snaps[CheckpointId(pid, 0)] == (0, 0, 0)

    def test_figure1_values(self, fig1):
        snaps = tdv_snapshots(fig1)
        i, j, k = 0, 1, 2
        # C(j,1) saw m1 from I(i,1): TDV[j][i] == 1.
        assert snaps[CheckpointId(j, 1)][i] == 1
        # C(i,2) saw m2 from I(j,1); m2 was sent before deliver(m3), so
        # it does not carry P_k's dependency.
        assert snaps[CheckpointId(i, 2)] == (2, 1, 0)
        # C(k,2) saw m4 (from I(j,2), after m5 from I(i,3)) and m6.
        assert snaps[CheckpointId(k, 2)][j] == 3  # via m6 sent in I(j,3)
        assert snaps[CheckpointId(k, 2)][i] == 3  # via m5 relayed by m4/m6

    def test_trackability_oracle_same_process(self, fig1):
        oracle = TrackabilityOracle(fig1)
        assert oracle.trackable(CheckpointId(0, 1), CheckpointId(0, 2))
        assert oracle.trackable(CheckpointId(0, 2), CheckpointId(0, 2))
        assert not oracle.trackable(CheckpointId(0, 2), CheckpointId(0, 1))

    def test_trackability_oracle_cross_process(self, fig1):
        oracle = TrackabilityOracle(fig1)
        # m1 gives a causal chain C(i,1) -> C(j,1).
        assert oracle.trackable(CheckpointId(0, 1), CheckpointId(1, 1))
        # No causal chain from C(k,1) reaches C(i,2): [m3, m2] is
        # non-causal (send(m2) precedes deliver(m3) at P_j).
        assert not oracle.trackable(CheckpointId(2, 1), CheckpointId(0, 2))

    def test_monotone_along_process(self, fig1):
        snaps = tdv_snapshots(fig1)
        for pid in range(3):
            for idx in range(1, fig1.last_index(pid) + 1):
                prev = snaps[CheckpointId(pid, idx - 1)]
                cur = snaps[CheckpointId(pid, idx)]
                assert all(p <= c for p, c in zip(prev, cur))
