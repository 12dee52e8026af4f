"""RDT checker tests: Figure 1 violations, cross-checked methods, properties."""

import subprocess
import sys

import pytest

from repro import api
from repro.analysis import check_rdt, untracked_pairs
from repro.events import PatternBuilder, figure1_pattern, random_pattern
from repro.graph import RGraph
from repro.types import AnalysisError, CheckpointId as C

I, J, K = 0, 1, 2


class TestFigure1:
    def test_figure1_violates_rdt(self):
        report = check_rdt(figure1_pattern())
        assert not report.holds
        assert not bool(report)

    def test_known_violations_present(self):
        pairs = untracked_pairs(figure1_pattern())
        # Hidden dependency: [m3, m2] with no causal sibling.
        assert (C(K, 1), C(I, 2)) in pairs
        # Backward R-path C(k,3) -> C(k,2) through [m7, m6].
        assert (C(K, 3), C(K, 2)) in pairs

    def test_tracked_paths_not_reported(self):
        pairs = untracked_pairs(figure1_pattern())
        # [m5, m4] has the causal sibling [m5, m6]: tracked.
        assert (C(I, 3), C(K, 2)) not in pairs
        # m1 is a causal chain on its own.
        assert (C(I, 1), C(J, 1)) not in pairs

    def test_methods_agree_on_figure1(self):
        h = figure1_pattern()
        by_tdv = check_rdt(h, method="tdv")
        by_chains = check_rdt(h, method="chains")
        assert {(v.source, v.target) for v in by_tdv.violations} == {
            (v.source, v.target) for v in by_chains.violations
        }

    def test_max_violations_stops_early(self):
        report = check_rdt(figure1_pattern(), max_violations=1)
        assert len(report.violations) == 1 and not report.holds


class TestSimplePatterns:
    def test_no_messages_satisfies_rdt(self):
        b = PatternBuilder(3)
        b.checkpoint_all()
        assert check_rdt(b.build()).holds

    def test_pure_causal_traffic_satisfies_rdt(self):
        b = PatternBuilder(3)
        b.transmit(0, 1)
        b.transmit(1, 2)
        b.checkpoint_all()
        b.transmit(2, 0)
        report = check_rdt(b.build(close=True))
        assert report.holds
        assert report.checked_pairs > 0

    def test_single_noncausal_chain_without_sibling(self):
        # P1 sends m2 before delivering m1: [m1, m2] non-causal, and there
        # is no causal chain from P0's interval to P2.
        b = PatternBuilder(3)
        m1 = b.send(0, 1)
        m2 = b.send(1, 2)
        b.deliver(m1)
        b.deliver(m2)
        h = b.build(close=True)
        report = check_rdt(h)
        assert not report.holds
        assert (C(0, 1), C(2, 1)) in [(v.source, v.target) for v in report.violations]

    def test_sibling_restores_rdt(self):
        # Same as above plus a later causal resend m3 covering the path.
        b = PatternBuilder(3)
        m1 = b.send(0, 1)
        m2 = b.send(1, 2)
        b.deliver(m1)
        m3 = b.send(1, 2)  # sent after deliver(m1): causal sibling [m1, m3]
        b.deliver(m2)
        b.deliver(m3)
        h = b.build(close=True)
        assert check_rdt(h).holds


class TestMethodAgreementProperty:
    @pytest.mark.parametrize("seed", range(10))
    def test_methods_agree_on_random_patterns(self, seed):
        h = random_pattern(n=4, steps=80, seed=seed)
        by_tdv = check_rdt(h, method="tdv")
        by_chains = check_rdt(h, method="chains")
        assert by_tdv.holds == by_chains.holds
        assert {(v.source, v.target) for v in by_tdv.violations} == {
            (v.source, v.target) for v in by_chains.violations
        }


class TestArguments:
    def test_unknown_method_rejected(self):
        with pytest.raises(AnalysisError):
            check_rdt(figure1_pattern(), method="magic")

    def test_external_rgraph_must_match(self):
        h = figure1_pattern()
        other = RGraph(random_pattern(n=2, steps=10, seed=0))
        with pytest.raises(AnalysisError):
            check_rdt(h, rgraph=other)

    def test_external_rgraph_accepted(self):
        h = figure1_pattern()  # already closed
        rg = RGraph(h)
        report = check_rdt(h, rgraph=rg)
        assert not report.holds

    def test_open_history_closed_automatically(self):
        b = PatternBuilder(2)
        m1 = b.send(0, 1)
        m2 = b.send(1, 0)
        b.deliver(m1)
        b.deliver(m2)
        # Non-causal exchange in open intervals; closing must reveal it.
        report = check_rdt(b.build())
        assert report.checked_pairs > 0


def _pairs(report):
    return [(v.source, v.target) for v in report.violations]


class TestVectorizedMethod:
    """``"vectorized"`` is a pinned spelling of the fast pass (the
    committed benchmark calls it): same report as ``"tdv"``, which in
    turn must match the ``"chains"`` oracle pair for pair."""

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_tdv_on_random_patterns(self, seed):
        h = random_pattern(n=4, steps=80, seed=seed)
        a = check_rdt(h, method="tdv")
        b = check_rdt(h, method="vectorized")
        oracle = check_rdt(h, method="chains")
        assert a.holds == b.holds == oracle.holds
        assert a.checked_pairs == b.checked_pairs == oracle.checked_pairs
        assert _pairs(a) == _pairs(b) == _pairs(oracle)

    def test_figure1_violations_identical(self):
        h = figure1_pattern()
        a = check_rdt(h, method="tdv")
        b = check_rdt(h, method="vectorized")
        assert _pairs(a) == _pairs(b) == _pairs(check_rdt(h, method="chains"))
        assert _pairs(a) == sorted(_pairs(a))

    def test_max_violations_respected(self):
        report = check_rdt(figure1_pattern(), method="vectorized", max_violations=1)
        assert len(report.violations) == 1 and not report.holds

    def test_reported_method_name(self):
        report = check_rdt(figure1_pattern(), method="vectorized")
        assert report.method == "vectorized"


class TestFastPassAgainstOracle:
    """The bitset pass vs the definitional chain search, on simulated runs."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("protocol", ["independent", "bhmr", "fdas", "cbr"])
    @pytest.mark.parametrize("workload", ["random", "client-server", "groups"])
    def test_identical_reports_on_sim_histories(self, workload, protocol, seed):
        h = api.run(
            workload, protocol=protocol, n=5, duration=25, seed=seed, basic_rate=0.2
        ).history
        fast = check_rdt(h)
        oracle = check_rdt(h, method="chains")
        assert fast.holds == oracle.holds
        assert _pairs(fast) == _pairs(oracle) == sorted(_pairs(oracle))
        assert fast.checked_pairs == oracle.checked_pairs
        for k in (1, 3):
            assert _pairs(check_rdt(h, max_violations=k)) == _pairs(fast)[:k]

    def test_independent_runs_do_violate(self):
        # Guards the differential above against comparing empty lists only.
        h = api.run(
            "random", protocol="independent", n=5, duration=25, seed=0, basic_rate=0.2
        ).history
        assert len(check_rdt(h).violations) > 3


def test_checking_rdt_never_imports_numpy():
    """numpy is not a declared dependency: the public surface and the
    fast pass must work on an install without it."""
    code = (
        "import sys\n"
        "import repro.api, repro.testing\n"
        "from repro.events import figure1_pattern\n"
        "for method in ('tdv', 'vectorized', 'chains'):\n"
        "    assert not repro.api.analyze_rdt(figure1_pattern(), method=method).holds\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
