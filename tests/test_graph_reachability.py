"""Unit tests for the generic digraph closures (batch bitsets, online chain rows)."""

import random

from repro.graph.reachability import DenseDigraph, IncrementalClosure


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


def growing_digraphs(rng, trials=60):
    """Random growing digraphs, one edge at a time: yields ``(trial,
    closure, n, edges so far, u, v)`` just *before* ``u -> v`` goes in
    (the consumer inserts it).  The stream mixes node growth,
    duplicates, self-loops, tail joins and edges that fragment the
    chain cover."""
    for trial in range(trials):
        n = rng.randrange(1, 5)
        inc = IncrementalClosure(n)
        edges = []
        for _ in range(rng.randrange(5, 40)):
            roll = rng.random()
            if roll < 0.2:
                inc.add_node()
                n += 1
                continue
            if roll < 0.3 and edges:
                u, v = rng.choice(edges)  # duplicate
            elif roll < 0.4:
                u = v = rng.randrange(n)  # self-loop
            else:
                u, v = rng.randrange(n), rng.randrange(n)
            yield trial, inc, n, edges, u, v


def mask_of(nodes):
    mask = 0
    for v in nodes:
        mask |= 1 << v
    return mask


class TestIncrementalClosure:
    def test_self_reach_requires_cycle(self):
        inc = IncrementalClosure(3)
        inc.add_edge(0, 1)
        inc.add_edge(1, 2)
        assert inc.reaches(0, 2) and not inc.reaches(2, 0)
        assert not inc.has_cycle()
        inc.add_edge(1, 0)
        assert inc.has_cycle()
        assert inc.on_cycle(0) and inc.on_cycle(1) and not inc.on_cycle(2)
        assert inc.reaches_or_equal(2, 2) and not inc.reaches(2, 2)
        assert inc.cyclic_components() == [[0, 1]]

    def test_isolated_node_is_unreachable(self):
        inc = IncrementalClosure(2)
        inc.add_edge(0, 0)
        assert inc.reachable_set(0) == {0}
        assert not inc.reaches(0, 1) and not inc.reaches(1, 1)

    def test_new_tail_behind_a_cyclic_predecessor(self):
        """A cyclic chain tail reaches the node appended behind it
        through the lane entry it already has: nothing is rewritten."""
        inc = IncrementalClosure(2)
        assert inc.add_edge(0, 1) == 1
        assert inc.add_edge(1, 0) == 2
        tail = inc.add_node()
        assert inc.add_edge(1, tail) == 0
        assert inc.num_edges() == 3
        assert inc.reachable_set(0) == inc.reachable_set(1) == {0, 1, tail}
        assert inc.reachable_set(tail) == set() and not inc.on_cycle(tail)
        assert inc.cyclic_components() == [[0, 1]]

    def test_add_edge_returns_rows_changed(self):
        """``add_edge`` returns how many nodes' reachability it rewrote,
        checked against BFS before and after every call."""
        tail_joins = 0
        for trial, inc, n, edges, u, v in growing_digraphs(random.Random(99)):
            before = [brute_force_reach(n, edges, w) for w in range(n)]
            fresh = all(v not in edge for edge in edges) and u != v
            edges.append((u, v))
            touched = inc.add_edge(u, v)
            after = [brute_force_reach(n, edges, w) for w in range(n)]
            for w in range(n):
                assert inc.reach_mask(w) == mask_of(after[w]), (trial, edges)
                assert inc.reachable_set(w) == after[w]
                assert inc.on_cycle(w) == (w in after[w])
            state = inc.state()
            if (
                fresh
                and state["chain"][v] == state["chain"][u]
                and state["pos"][v] == state["pos"][u] + 1
            ):
                # v was appended behind its chain's tail u: every
                # ancestor of u reaches it through the lane entry
                # that names u, so only u's own row can change.
                tail_joins += 1
                assert touched == (u not in before[u]), (trial, edges)
            else:
                differ = sum(before[w] != after[w] for w in range(n))
                assert touched == differ, (trial, edges)
        assert tail_joins > 20

    def test_earliest_is_the_first_reached_member_of_each_chain(self):
        """``earliest(u)`` is the row as a vector: per chain ``u``
        reaches, the member of ``reachable_set(u)`` with the smallest
        position -- and ``cyclic_nodes`` is exactly the on-cycle set."""
        fragmented = 0
        for trial, inc, n, edges, u, v in growing_digraphs(random.Random(41)):
            edges.append((u, v))
            inc.add_edge(u, v)
            state = inc.state()
            chain, pos = state["chain"], state["pos"]
            fragmented += len(set(chain)) > 2
            for w in range(n):
                first = {}
                for node in brute_force_reach(n, edges, w):
                    lane = chain[node]
                    if lane not in first or pos[node] < pos[first[lane]]:
                        first[lane] = node
                earliest = inc.earliest(w)
                assert sorted(earliest) == sorted(first.values()), (trial, edges)
                assert len(earliest) == len(set(earliest))
            assert set(inc.cyclic_nodes()) == {
                w for w in range(n) if w in brute_force_reach(n, edges, w)
            }
        assert fragmented > 100

    def test_state_rows_are_dense_per_chain(self):
        inc = IncrementalClosure(4)
        inc.add_edge(0, 1)
        inc.add_edge(2, 3)
        inc.add_edge(1, 3)
        state = inc.state()
        assert state["chain"] == [0, 0, 1, 1] and state["pos"] == [0, 1, 0, 1]
        assert state["low"] == [[1, 1], [-1, 1], [-1, 1], [-1, -1]]
        assert state["pred"] == [[], [0], [], [1, 2]]
        assert state["edges"] == 3
