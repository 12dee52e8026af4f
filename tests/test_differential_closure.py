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
  vs its definitional oracle (reports included).

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
