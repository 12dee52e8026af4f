"""Performance benchmarks of the analysis substrate itself.

Not a paper artifact, but the practical cost profile a downstream user
cares about: R-graph closure, RDT verification (both characterizations),
zigzag reachability and recovery-line computation on a mid-size run.
"""

from time import perf_counter

import pytest

from repro.analysis import check_rdt, useless_checkpoints
from repro.graph import IncrementalClosure, IncrementalRGraph, RGraph, ZPathAnalyzer
from repro.obs.tracer import Tracer
from repro.recovery import recovery_line
from repro.serve.session import ServeSession
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
    """What ``rdt_status`` reads per query: one probe per on-cycle node,
    one set lookup."""
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


# ----------------------------------------------------------------------
# the three online queries at two depths: cost must not follow history
# ----------------------------------------------------------------------
QUERY_DEPTHS = (60.0, 240.0)


def session_at_depth(duration, n=16):
    """A ``bhmr`` session fed the ledger's ``serve_deep`` input shape
    (same generator, ``n=16``) for ``duration`` simulated seconds."""
    from benchmarks.ledger.workloads import trace_ops

    ops, _ = trace_ops(n, duration, seed=0)
    session = ServeSession(f"depth-{duration:g}", n, "bhmr")
    ids = {}
    for op in ops:
        if op[0] == "c":
            session.apply({"kind": "checkpoint", "pid": op[1]})
        elif op[0] == "s":
            reply = session.apply({"kind": "send", "src": op[1], "dst": op[2]})
            ids[op[3]] = reply["msg_id"]
        else:
            session.apply({"kind": "deliver", "msg_id": ids[op[1]]})
    return session


@pytest.fixture(scope="module")
def sessions_by_depth():
    return [session_at_depth(duration) for duration in QUERY_DEPTHS]


def best_ms(fn, reps=200, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        started = perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (perf_counter() - started) / reps)
    return 1e3 * best


@pytest.mark.parametrize("what", ["rdt_status", "z_cycles", "recovery_line"])
def test_online_queries_do_not_grow_with_history(what, sessions_by_depth):
    """Each query kind timed at ``duration`` 60 and 240 and the ratio
    printed.  ``rdt_status`` and ``recovery_line`` are read off the
    on-cycle set, the frontier rows and the tails of the delivery lists,
    so 4x the history must stay well under 4x the time; ``z_cycles``
    lists the cyclic components (O(cyclic nodes * n), and BHMR runs do
    accumulate non-Z cyclic components), so its ratio is only reported."""
    shallow, deep = sessions_by_depth
    events = [len(session.ingest_log) for session in sessions_by_depth]
    ms = [best_ms(lambda: session.query(what)) for session in sessions_by_depth]
    growth, ratio = events[1] / events[0], ms[1] / ms[0]
    print(
        f"\n{what}: {ms[0]:.4f} ms at {events[0]} events -> {ms[1]:.4f} ms "
        f"at {events[1]} events: x{ratio:.2f} the time for x{growth:.2f} "
        f"the history ({deep.manager.rgraph.num_nodes()} nodes)"
    )
    assert growth > 3.5
    if what != "z_cycles":
        assert ratio < growth / 2
