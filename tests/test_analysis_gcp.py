"""Min/max consistent global checkpoint tests, incl. Corollary 4.5 setup."""

import pytest

from repro.analysis import (
    can_belong_to_same_gcp,
    is_consistent_gcp,
    max_consistent_gcp,
    max_gcp_rdt,
    min_consistent_gcp,
    min_gcp_rdt,
)
from repro.clocks import tdv_snapshots
from tests.oracles.vector import Causality
from repro.events import PatternBuilder, figure1_pattern, random_pattern
from repro.types import AnalysisError, CheckpointId as C

I, J, K = 0, 1, 2


@pytest.fixture
def fig1():
    return figure1_pattern()


class TestMinGCP:
    def test_min_gcp_of_initial_checkpoint(self, fig1):
        assert min_consistent_gcp(fig1, [C(I, 0)]) == {0: 0, 1: 0, 2: 0}

    def test_min_gcp_of_ci2_includes_hidden_dependency(self, fig1):
        # TDV_{i,2} = (2,1,0) but the non-causal chain [m3, m2] forces
        # C(k,1) in as well: hidden dependencies break Corollary 4.5 on
        # non-RDT patterns.
        cut = min_consistent_gcp(fig1, [C(I, 2)])
        assert cut == {0: 2, 1: 1, 2: 1}
        assert tdv_snapshots(fig1)[C(I, 2)] == (2, 1, 0)

    def test_useless_checkpoint_has_no_gcp(self, fig1):
        assert min_consistent_gcp(fig1, [C(K, 2)]) is None
        assert max_consistent_gcp(fig1, [C(K, 2)]) is None

    def test_min_result_is_consistent(self, fig1):
        for cid in fig1.checkpoint_ids():
            cut = min_consistent_gcp(fig1, [cid])
            if cut is not None:
                assert is_consistent_gcp(fig1, cut)
                assert cut[cid.pid] == cid.index

    def test_conflicting_fixed_checkpoints(self, fig1):
        assert min_consistent_gcp(fig1, [C(I, 1), C(I, 2)]) is None

    def test_multi_fixed(self, fig1):
        cut = min_consistent_gcp(fig1, [C(I, 1), C(K, 1)])
        assert cut is not None and cut[0] == 1 and cut[2] == 1
        assert is_consistent_gcp(fig1, cut)

    def test_nonexistent_checkpoint_rejected(self, fig1):
        with pytest.raises(AnalysisError):
            min_consistent_gcp(fig1, [C(I, 42)])


class TestMaxGCP:
    def test_max_gcp_of_last_checkpoints(self, fig1):
        # C(i,3) is maximal for P_i: its max GCP pairs with the latest
        # consistent partners.
        cut = max_consistent_gcp(fig1, [C(I, 3)])
        assert cut is not None
        assert cut[0] == 3
        assert is_consistent_gcp(fig1, cut)

    def test_max_result_is_componentwise_geq_min(self, fig1):
        for cid in fig1.checkpoint_ids():
            lo = min_consistent_gcp(fig1, [cid])
            hi = max_consistent_gcp(fig1, [cid])
            if lo is not None and hi is not None:
                assert all(lo[p] <= hi[p] for p in lo)

    def test_max_gcp_respects_orphans(self, fig1):
        cut = max_consistent_gcp(fig1, [C(J, 2)])
        assert cut is not None
        # m5 sent in I(i,3) delivered in I(j,2): keeping C(j,2) requires
        # P_i's cut to be >= 3.
        assert cut[0] == 3


class TestShortcutsAgreeWithFixpoints:
    @pytest.mark.parametrize("seed", range(8))
    def test_min_shortcut_matches(self, seed):
        h = random_pattern(n=3, steps=60, seed=seed)
        for cid in h.checkpoint_ids():
            exact = min_consistent_gcp(h, [cid])
            if exact is not None:
                assert min_gcp_rdt(h, cid) == exact, cid

    @pytest.mark.parametrize("seed", range(8))
    def test_max_shortcut_matches(self, seed):
        h = random_pattern(n=3, steps=60, seed=seed)
        for cid in h.checkpoint_ids():
            exact = max_consistent_gcp(h, [cid])
            if exact is not None:
                assert max_gcp_rdt(h, cid) == exact, cid


class TestNetzerXuExtensibility:
    def test_consistent_pair_extends(self, fig1):
        assert can_belong_to_same_gcp(fig1, [C(K, 1), C(J, 1)])

    def test_zigzag_related_pair_does_not(self, fig1):
        # m1 is sent after C(i,0) and delivered before C(j,1): orphan.
        assert not can_belong_to_same_gcp(fig1, [C(I, 0), C(J, 1)])

    def test_hidden_rollback_dependency_still_coexists(self, fig1):
        # C(k,1) -> C(i,2) is a (hidden) *rollback* dependency via
        # [m3, m2], but no zigzag starts after C(k,1) and lands before
        # C(i,2): the two checkpoints do share the consistent GCP (2,1,1).
        assert can_belong_to_same_gcp(fig1, [C(K, 1), C(I, 2)])
        assert min_consistent_gcp(fig1, [C(I, 2)]) == {0: 2, 1: 1, 2: 1}

    def test_useless_checkpoint_alone_fails(self, fig1):
        assert not can_belong_to_same_gcp(fig1, [C(K, 2)])

    def test_two_checkpoints_same_process(self, fig1):
        assert not can_belong_to_same_gcp(fig1, [C(I, 1), C(I, 2)])
        assert can_belong_to_same_gcp(fig1, [C(I, 1), C(I, 1)])

    @pytest.mark.parametrize("seed", range(6))
    def test_extensibility_matches_fixpoint(self, seed):
        h = random_pattern(n=3, steps=50, seed=seed)
        for a in h.checkpoint_ids():
            for b in h.checkpoint_ids():
                if a.pid >= b.pid:
                    continue
                extendable = can_belong_to_same_gcp(h, [a, b])
                fix = min_consistent_gcp(h, [a, b])
                assert extendable == (fix is not None), (a, b)

    @pytest.mark.parametrize("seed", range(3))
    def test_rdt_makes_causal_unrelatedness_sufficient(self, seed):
        """Noteworthy property (1): under RDT, pairwise non-causally
        related checkpoints always extend to a consistent GCP.

        RDT patterns are obtained by running the BHMR protocol on random
        traffic (Theorem 4.4 guarantees RDT, itself tested elsewhere).
        """
        from repro.analysis import check_rdt
        from repro.sim import Simulation, SimulationConfig
        from repro.workloads import RandomUniformWorkload

        sim = Simulation(
            RandomUniformWorkload(send_rate=1.5),
            SimulationConfig(n=3, duration=25.0, seed=seed, basic_rate=0.3),
        )
        h = sim.run("bhmr").history
        assert check_rdt(h).holds
        caus = Causality(h)
        for a in h.checkpoint_ids():
            for b in h.checkpoint_ids():
                if a.pid >= b.pid:
                    continue
                unrelated = not caus.checkpoint_precedes(
                    a, b
                ) and not caus.checkpoint_precedes(b, a)
                if unrelated:
                    assert can_belong_to_same_gcp(h, [a, b])
