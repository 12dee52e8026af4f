"""Differential tests: incremental closure vs batch Tarjan closure.

The parallel harness and the online analyses are only trustworthy if the
incremental reachability machinery is *bit-identical* to the batch
closure it replaces.  This suite holds them to that contract over
randomized inputs:

* raw digraphs: random edge streams (with interleaved node growth) into
  :class:`IncrementalClosure` vs ``DenseDigraph.transitive_closure``;
* recorded patterns (2-8 processes): batch ``RGraph`` vs the online
  ``IncrementalRGraph`` on reachability, Z-cycle components and all
  three useless-checkpoint detectors, and the RDT checker's fast pass
  vs its definitional oracle (reports included);
* the online graph's O(cyclic nodes) useless-checkpoint query vs the
  quadratic scan of the definition (kept here as its oracle; the
  one-probe-per-node form is ``tests/test_online_vector_queries.py``'s),
  and a structural guard that the closure's chain discovery recovers
  the process chains.

Well over 200 randomized cases total; every assertion is exact equality.
"""

import random

import pytest

from repro.analysis import (
    check_rdt,
    find_z_cycles,
    useless_checkpoints,
    useless_checkpoints_incremental,
    useless_checkpoints_rgraph,
)
from repro.events.random_pattern import random_pattern
from repro.graph import (
    DenseDigraph,
    IncrementalClosure,
    IncrementalRGraph,
    RGraph,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulation, SimulationConfig
from repro.types import CheckpointId
from repro.workloads import RandomUniformWorkload

DIGRAPH_CASES = 120
PATTERN_CASES = 110


def random_digraph_case(rng):
    n0 = rng.randrange(1, 12)
    grow = rng.randrange(0, 6)
    edges = []
    n = n0 + grow
    for _ in range(rng.randrange(0, 3 * n + 1)):
        edges.append((rng.randrange(n), rng.randrange(n)))
    return n0, grow, edges


@pytest.mark.tier2
class TestDigraphDifferential:
    @pytest.mark.parametrize("case", range(DIGRAPH_CASES))
    def test_incremental_matches_batch(self, case):
        rng = random.Random(1000 + case)
        n0, grow, edges = random_digraph_case(rng)
        n = n0 + grow
        batch = DenseDigraph(n)
        inc = IncrementalClosure(n0)
        for _ in range(grow):
            inc.add_node()
        # Duplicate a slice of the edge stream: re-insertion must be a
        # no-op for both reachability and the edge count.
        stream = edges + edges[: len(edges) // 3]
        rng.shuffle(stream)
        for u, v in stream:
            batch.add_edge(u, v)
            inc.add_edge(u, v)
        closure = batch.transitive_closure()
        assert inc.num_edges() == batch.num_edges()
        for u in range(n):
            assert inc.reach_mask(u) == closure.reach_mask(u), (case, u)
            assert inc.on_cycle(u) == closure.on_cycle(u), (case, u)
            assert inc.reachable_set(u) == closure.reachable_set(u)
        assert sorted(map(tuple, inc.cyclic_components())) == sorted(
            map(tuple, closure.cyclic_components())
        )

    def test_interleaved_growth(self):
        """Nodes appended mid-stream participate fully in the closure."""
        rng = random.Random(7)
        for case in range(30):
            inc = IncrementalClosure(2)
            edges = []
            n = 2
            for _ in range(40):
                if rng.random() < 0.25:
                    inc.add_node()
                    n += 1
                else:
                    u, v = rng.randrange(n), rng.randrange(n)
                    inc.add_edge(u, v)
                    edges.append((u, v))
            batch = DenseDigraph(n)
            for u, v in edges:
                batch.add_edge(u, v)
            closure = batch.transitive_closure()
            for u in range(n):
                assert inc.reach_mask(u) == closure.reach_mask(u), (case, u)


def pattern_for(case):
    rng = random.Random(5000 + case)
    return random_pattern(
        n=2 + case % 7,  # 2..8 processes
        steps=20 + rng.randrange(60),
        seed=5000 + case,
        p_send=0.3 + 0.3 * rng.random(),
        p_deliver=0.25 + 0.2 * rng.random(),
        p_checkpoint=0.15 + 0.2 * rng.random(),
    )


def useless_by_quadratic_scan(online):
    """The definition, probed pair by pair: ``C(p, x)`` is useless iff
    some R-path ``C(p,u) -> C(p,v)`` has ``u > x >= v`` (the frontier
    ``last+1`` counts as a source).  Oracle for the probe-the-cyclic-
    nodes ``IncrementalRGraph.useless_checkpoints``."""
    out = set()
    for pid in range(online.num_processes):
        top = online.last_index(pid) + 1
        for u in range(1, top + 1):
            for v in range(u):
                if online.reaches_strictly(
                    CheckpointId(pid, u), CheckpointId(pid, v)
                ):
                    out.update(CheckpointId(pid, x) for x in range(v, u))
    return sorted(out)


def sim_history(protocol, n=8, seed=2):
    sim = Simulation(
        RandomUniformWorkload(send_rate=2.0),
        SimulationConfig(n=n, duration=40.0, basic_rate=0.3, seed=seed),
    )
    return sim.run(protocol).history


class TestOnlineQueriesOnChainRows:
    @pytest.mark.parametrize("case", range(0, PATTERN_CASES, 5))
    def test_useless_checkpoints_match_quadratic_scan(self, case):
        online = IncrementalRGraph.from_history(pattern_for(case))
        assert online.useless_checkpoints() == useless_by_quadratic_scan(online)
        assert online.has_z_cycle() == bool(online.cycles())

    @pytest.mark.parametrize("seed", [2, 3])
    def test_useless_checkpoints_on_a_non_rdt_run(self, seed):
        """Uncoordinated checkpointing does leave useless checkpoints."""
        history = sim_history("independent", seed=seed)
        online = IncrementalRGraph.from_history(history)
        useless = online.useless_checkpoints()
        assert useless and useless == useless_by_quadratic_scan(online)
        assert useless == useless_checkpoints_rgraph(history)

    @pytest.mark.parametrize("protocol", ["bhmr", "cbr", "independent"])
    def test_chain_discovery_recovers_the_process_chains(self, protocol):
        """Counts, not timings: on an R-graph feed the closure finds one
        chain per process and rewrites a handful of rows per edge (the
        bit-per-node kernel it replaced rewrote hundreds)."""
        history = sim_history(protocol)
        metrics = MetricsRegistry()
        online = IncrementalRGraph.from_history(history, metrics=metrics)
        rows = online.state()["closure"]["low"]
        assert {len(row) for row in rows} == {history.num_processes}
        edges = metrics.counter("closure.edges").value
        assert edges >= online.num_edges() > 4 * history.num_processes
        assert metrics.counter("closure.edge_updates").value <= 8 * edges


@pytest.mark.tier2
class TestPatternDifferential:
    @pytest.mark.parametrize("case", range(PATTERN_CASES))
    def test_reachability_zcycles_rdt_bit_identical(self, case):
        history = pattern_for(case)
        batch_rg = RGraph(history)
        # The *online* graph (event feed with frontier nodes) agrees on
        # every real checkpoint.
        online = IncrementalRGraph.from_history(history)
        for cid in history.checkpoint_ids():
            assert online.on_cycle(cid) == batch_rg.on_cycle(cid), (case, cid)
            batch_reach = batch_rg.reachable_set(cid)
            online_reach = {
                c for c in online.reachable_set(cid) if not online.is_frontier(c)
            }
            assert online_reach == batch_reach, (case, cid)

        # Z-cycle detection, all routes.
        assert find_z_cycles(history) == find_z_cycles(history, incremental=True)
        assert online.cycles() == batch_rg.cycles()

        # Useless checkpoints: zigzag detector vs batch R-graph detector
        # vs online incremental detector.
        expected = useless_checkpoints_rgraph(history)
        assert useless_checkpoints(history) == expected
        assert useless_checkpoints_incremental(history) == expected
        assert online.useless_checkpoints() == expected
        assert useless_by_quadratic_scan(online) == expected

    @pytest.mark.parametrize("case", range(0, PATTERN_CASES, 2))
    def test_rdt_verdicts_bit_identical(self, case):
        history = pattern_for(case)
        fast = check_rdt(history)
        oracle = check_rdt(history, method="chains")
        assert fast.holds == oracle.holds
        assert fast.checked_pairs == oracle.checked_pairs
        assert [(v.source, v.target) for v in fast.violations] == [
            (v.source, v.target) for v in oracle.violations
        ]
