"""Performance benchmarks of the analysis substrate itself.

Not a paper artifact, but the practical cost profile a downstream user
cares about: R-graph closure, RDT verification (both characterizations),
zigzag reachability and recovery-line computation on a mid-size run.
"""

import pytest

from repro.analysis import check_rdt, useless_checkpoints
from repro.graph import IncrementalClosure, IncrementalRGraph, RGraph, ZPathAnalyzer
from repro.obs.tracer import Tracer
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


def closure_feed(history):
    """The node/edge stream ``IncrementalRGraph`` hands its closure, in
    event order: ``None`` for a new node, ``(u, v)`` for an edge."""
    tracer = Tracer()
    IncrementalRGraph.from_history(history, tracer=tracer)
    ids, feed = {}, []
    for event in tracer.events:
        fields = event.fields
        if event.kind == "closure.node":
            ids[(fields["pid"], fields["index"])] = len(ids)
            feed.append(None)
        elif event.kind == "closure.edge":
            feed.append((ids[tuple(fields["src"])], ids[tuple(fields["dst"])]))
    return feed


def test_incremental_closure_feed(benchmark, history):
    """Cost of maintaining the closure online over the whole event-order
    stream, through the bare ``add_node()`` / ``add_edge(u, v)`` API."""
    feed = closure_feed(history.closed())

    def run():
        inc = IncrementalClosure()
        rows = 0
        for edge in feed:
            if edge is None:
                inc.add_node()
            else:
                rows += inc.add_edge(*edge)
        return inc, rows

    inc, rows = benchmark(run)
    edges = sum(edge is not None for edge in feed)
    # Chain discovery found the process chains, so an edge rewrites a
    # handful of rows, not a row per ancestor.
    assert len(inc.state()["low"][0]) == history.num_processes
    assert rows <= 8 * edges


def test_incremental_rgraph_from_history(benchmark, history):
    """Online R-graph feed (checkpoints + deliveries in time order)."""
    closed = history.closed()
    inc = benchmark(lambda: IncrementalRGraph.from_history(closed))
    assert inc.num_nodes() > 50
    assert inc.cycles() == RGraph(closed).cycles()


def test_online_rdt_status_queries(benchmark, history):
    """What ``rdt_status`` reads per query: one probe per node, one set
    lookup."""
    closed = history.closed()
    inc = IncrementalRGraph.from_history(closed)
    useless, cyclic = benchmark(
        lambda: (inc.useless_checkpoints(), inc.has_z_cycle())
    )
    # BHMR guarantees RDT, hence no useless checkpoints.  (A cyclic SCC
    # with one checkpoint per process can still occur and is not a
    # Z-cycle under this edge convention -- so cycles are not asserted
    # absent, only consistent with the batch kernel.)
    assert useless == []
    assert cyclic == bool(RGraph(closed).cycles())
