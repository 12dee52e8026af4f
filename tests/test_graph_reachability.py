"""Unit tests for the generic digraph closure (SCCs, bitset reachability)."""

import random

from repro.graph.reachability import DenseDigraph


def brute_force_reach(n, edges, u):
    """Plain BFS: everything ``u`` reaches by a non-empty path."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
    seen = set()
    frontier = [u]
    while frontier:
        nxt = []
        for a in frontier:
            for b in adj.get(a, ()):
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


class TestDenseDigraph:
    def test_edges_and_counts(self):
        g = DenseDigraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        assert g.num_edges() == 2
        assert list(g.edges()) == [(0, 1), (1, 2)]
        assert g.successors(0) == {1}
        assert g.predecessors(2) == {1}

    def test_duplicate_edges_collapse(self):
        g = DenseDigraph(2)
        g.add_edge(0, 1)
        g.add_edge(0, 1)
        assert g.num_edges() == 1


class TestSCC:
    def test_dag_has_singleton_sccs(self):
        g = DenseDigraph(4)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        sccs = g.tarjan_scc()
        assert sorted(len(c) for c in sccs) == [1, 1, 1, 1]

    def test_cycle_is_one_scc(self):
        g = DenseDigraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 0)
        sccs = g.tarjan_scc()
        assert sorted(len(c) for c in sccs) == [3]

    def test_reverse_topological_emission(self):
        # 0 -> 1 -> 2: component of 2 must be emitted before 1's, etc.
        g = DenseDigraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        order = [c[0] for c in g.tarjan_scc()]
        assert order.index(2) < order.index(1) < order.index(0)


class TestClosure:
    def test_chain_reachability(self):
        g = DenseDigraph(4)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        closure = g.transitive_closure()
        assert closure.reaches(0, 2)
        assert not closure.reaches(2, 0)
        assert not closure.reaches(0, 3)
        assert closure.reachable_set(0) == {1, 2}

    def test_self_reach_requires_cycle(self):
        g = DenseDigraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        g.add_edge(1, 2)
        closure = g.transitive_closure()
        assert closure.reaches(0, 0) and closure.on_cycle(1)
        assert not closure.on_cycle(2)
        assert closure.reaches_or_equal(2, 2)

    def test_self_loop(self):
        g = DenseDigraph(2)
        g.add_edge(0, 0)
        closure = g.transitive_closure()
        assert closure.on_cycle(0)
        assert not closure.on_cycle(1)
        assert closure.cyclic_components() == [[0]]

    def test_cyclic_components_reported_sorted(self):
        g = DenseDigraph(5)
        g.add_edge(3, 4)
        g.add_edge(4, 3)
        closure = g.transitive_closure()
        assert closure.cyclic_components() == [[3, 4]]

    def test_randomised_against_bfs(self):
        rng = random.Random(42)
        for trial in range(25):
            n = rng.randrange(2, 15)
            edges = set()
            for _ in range(rng.randrange(0, 3 * n)):
                edges.add((rng.randrange(n), rng.randrange(n)))
            g = DenseDigraph(n)
            for a, b in edges:
                g.add_edge(a, b)
            closure = g.transitive_closure()
            for u in range(n):
                expect = brute_force_reach(n, edges, u)
                assert closure.reachable_set(u) == expect, (trial, u, edges)
