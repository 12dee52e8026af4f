"""Performance benchmarks of the analysis substrate itself.

Not a paper artifact, but the practical cost profile a downstream user
cares about: R-graph closure, RDT verification (both characterizations),
zigzag reachability and recovery-line computation on a mid-size run.
"""

import pytest

from repro.analysis import check_rdt, useless_checkpoints
from repro.graph import IncrementalClosure, IncrementalRGraph, RGraph, ZPathAnalyzer
from repro.recovery import recovery_line
from repro.sim import Simulation, SimulationConfig
from repro.workloads import RandomUniformWorkload


@pytest.fixture(scope="module")
def history():
    sim = Simulation(
        RandomUniformWorkload(send_rate=2.0),
        SimulationConfig(n=8, duration=80.0, basic_rate=0.3, seed=2),
    )
    return sim.run("bhmr").history


def test_rgraph_closure(benchmark, history):
    def build():
        rg = RGraph(history)
        first = next(iter(history.checkpoint_ids()))
        rg.reachable_set(first)
        return rg

    rg = benchmark(build)
    assert rg.num_nodes() > 50


def test_check_rdt_tdv(benchmark, history):
    report = benchmark(lambda: check_rdt(history, method="tdv"))
    assert report.holds


def test_check_rdt_chains(benchmark, history):
    report = benchmark(lambda: check_rdt(history, method="chains"))
    assert report.holds


def test_zigzag_single_source(benchmark, history):
    analyzer = ZPathAnalyzer(history)
    source = next(iter(history.checkpoint_ids()))
    benchmark(lambda: analyzer.reach(source, causal=False))


def test_useless_checkpoint_scan(benchmark, history):
    result = benchmark(lambda: useless_checkpoints(history))
    assert result == []


def test_recovery_line(benchmark, history):
    line = benchmark(lambda: recovery_line(history, [0]))
    assert set(line.cut) == set(range(history.num_processes))


def test_incremental_closure_feed(benchmark, history):
    """Cost of maintaining the closure online over the whole edge stream."""
    rg = RGraph(history)
    edges = [(u, v) for u, v in rg._graph.edges()]
    n = rg.num_nodes()

    def feed():
        inc = IncrementalClosure(n)
        for u, v in edges:
            inc.add_edge(u, v)
        return inc

    inc = benchmark(feed)
    batch = rg._graph.transitive_closure()
    assert all(inc.reach_mask(u) == batch.reach_mask(u) for u in range(n))


def test_incremental_rgraph_from_history(benchmark, history):
    """Online R-graph feed (checkpoints + deliveries in time order)."""
    closed = history.closed()
    inc = benchmark(lambda: IncrementalRGraph.from_history(closed))
    assert inc.num_nodes() > 50
    # BHMR guarantees RDT, hence no useless checkpoints.  (A cyclic SCC
    # with one checkpoint per process can still occur and is not a
    # Z-cycle under this edge convention -- so don't assert on cycles.)
    assert inc.useless_checkpoints() == []
    assert inc.cycles() == RGraph(closed).cycles()
