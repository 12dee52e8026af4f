"""Transitive closure for small directed graphs, cycles allowed.

The R-graph of a checkpoint pattern is a digraph that may contain cycles
(a cycle is exactly how a Z-cycle / useless checkpoint shows up), so the
closure is computed by Tarjan SCC condensation followed by bitset
propagation in reverse topological order.  Bitsets are plain Python
integers, which keeps the per-node union a single ``|`` operation.

The online kernel (:class:`IncrementalClosure`) answers the same queries
under edge-by-edge growth from chain-indexed rows; each kernel is the
other's differential oracle (``tests/test_differential_closure.py``).
"""

from __future__ import annotations

import sys
from collections.abc import Set as AbstractSet
from typing import Dict, Iterable, Iterator, List, Set, Tuple


class SetView(AbstractSet):
    """A zero-copy read-only view over a ``set``.

    Supports containment, iteration, length, comparison and the usual
    set algebra (which returns plain sets) without copying the backing
    set on every access -- adjacency queries sit in hot analysis loops.
    """

    __slots__ = ("_backing",)

    def __init__(self, backing: Set[int]) -> None:
        self._backing = backing

    def __contains__(self, item: object) -> bool:
        return item in self._backing

    def __iter__(self) -> Iterator[int]:
        return iter(self._backing)

    def __len__(self) -> int:
        return len(self._backing)

    @classmethod
    def _from_iterable(cls, iterable) -> Set[int]:
        return set(iterable)

    def __repr__(self) -> str:
        return f"SetView({self._backing!r})"


class DenseDigraph:
    """A digraph over nodes ``0 .. n-1`` with adjacency lists."""

    def __init__(self, n: int) -> None:
        self._n = n
        self._succ: List[Set[int]] = [set() for _ in range(n)]
        self._pred: List[Set[int]] = [set() for _ in range(n)]

    @property
    def n(self) -> int:
        return self._n

    def add_edge(self, u: int, v: int) -> None:
        self._succ[u].add(v)
        self._pred[v].add(u)

    def successors(self, u: int) -> SetView:
        """Read-only view of ``u``'s direct successors (no copy)."""
        return SetView(self._succ[u])

    def predecessors(self, v: int) -> SetView:
        """Read-only view of ``v``'s direct predecessors (no copy)."""
        return SetView(self._pred[v])

    def edges(self) -> Iterable[Tuple[int, int]]:
        for u, outs in enumerate(self._succ):
            for v in sorted(outs):
                yield (u, v)

    def num_edges(self) -> int:
        return sum(len(outs) for outs in self._succ)

    # ------------------------------------------------------------------
    def tarjan_scc(self) -> List[List[int]]:
        """Strongly connected components in reverse topological order.

        Iterative Tarjan (no recursion, safe for large graphs).  The
        returned order has every component appearing *before* any
        component it has edges into -- convenient for closure propagation.
        """
        n = self._n
        index_of = [-1] * n
        lowlink = [0] * n
        on_stack = [False] * n
        stack: List[int] = []
        sccs: List[List[int]] = []
        counter = 0
        for root in range(n):
            if index_of[root] != -1:
                continue
            work: List[Tuple[int, Iterable[int]]] = [(root, iter(self._succ[root]))]
            index_of[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            while work:
                u, it = work[-1]
                advanced = False
                for v in it:
                    if index_of[v] == -1:
                        index_of[v] = lowlink[v] = counter
                        counter += 1
                        stack.append(v)
                        on_stack[v] = True
                        work.append((v, iter(self._succ[v])))
                        advanced = True
                        break
                    if on_stack[v]:
                        lowlink[u] = min(lowlink[u], index_of[v])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[u])
                if lowlink[u] == index_of[u]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == u:
                            break
                    sccs.append(comp)
        return sccs

    def transitive_closure(self) -> "Closure":
        """Reachability of every node, as a :class:`Closure`."""
        sccs = self.tarjan_scc()
        comp_of = [0] * self._n
        for ci, comp in enumerate(sccs):
            for node in comp:
                comp_of[node] = ci
        # Tarjan emits components in reverse topological order: a
        # component is finished only after everything it reaches, so
        # processing sccs in emission order sees successors first.
        comp_reach: List[int] = [0] * len(sccs)
        comp_mask: List[int] = [0] * len(sccs)
        for ci, comp in enumerate(sccs):
            mask = 0
            for node in comp:
                mask |= 1 << node
            comp_mask[ci] = mask
        for ci, comp in enumerate(sccs):
            reach = 0
            cyclic = len(comp) > 1 or any(
                node in self._succ[node] for node in comp
            )
            for node in comp:
                for v in self._succ[node]:
                    cj = comp_of[v]
                    if cj != ci:
                        reach |= comp_mask[cj] | comp_reach[cj]
            if cyclic:
                reach |= comp_mask[ci]
            comp_reach[ci] = reach
        return Closure(comp_reach[comp_of[u]] for u in range(self._n))


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


try:
    popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - 3.9 fallback
    def popcount(mask: int) -> int:
        return bin(mask).count("1")


class Closure:
    """Reachability answers read off per-node bitsets.

    ``reaches(u, v)`` is *strict-or-cyclic*: it reports True for ``u == v``
    only when ``u`` lies on a cycle.  Use ``reaches_or_equal`` for the
    reflexive relation.

    This is the one query surface of both kernels: the batch closure
    (:meth:`DenseDigraph.transitive_closure`) is an instance, the online
    one (:class:`IncrementalClosure`) answers the same methods from
    chain-indexed rows instead of bitsets.
    """

    def __init__(self, node_reach: Iterable[int] = ()) -> None:
        self._reach: List[int] = list(node_reach)

    def reaches(self, u: int, v: int) -> bool:
        return bool(self._reach[u] >> v & 1)

    def reach_mask(self, u: int) -> int:
        """The raw reachability bitset of ``u`` (bit v set iff u -> v)."""
        return self._reach[u]

    def reaches_or_equal(self, u: int, v: int) -> bool:
        return u == v or self.reaches(u, v)

    def reachable_set(self, u: int) -> Set[int]:
        return set(iter_bits(self._reach[u]))

    def on_cycle(self, u: int) -> bool:
        return self.reaches(u, u)

    def cyclic_components(self) -> List[List[int]]:
        """SCCs containing a cycle, each sorted, ordered by smallest node.

        Two on-cycle nodes share a component iff their reach sets are
        equal (each set contains its own node, so equal sets mean mutual
        reachability), hence grouping by bitset recovers the components.
        """
        comps: Dict[int, List[int]] = {}
        for u, mask in enumerate(self._reach):
            if mask >> u & 1:
                comps.setdefault(mask, []).append(u)
        return list(comps.values())


#: "Lane not reached": compares greater than every chain position.
_UNREACHED = sys.maxsize


class IncrementalClosure:
    """Transitive closure maintained online under edge/node insertion.

    Answers every :class:`Closure` query, but instead of a bit per node
    it keeps one *index per chain*.  The closure covers the digraph with
    chains it discovers as edges arrive -- an unassigned ``u`` starts a
    chain, an unassigned ``v`` joins ``u``'s chain when ``u`` is its
    tail and starts its own otherwise -- so consecutive chain members
    are always joined by a real edge, and whatever a node reaches on a
    chain is a *suffix* of it.  A node's row is therefore
    ``{chain: smallest position reached}`` and

        ``reaches(u, v)  <=>  low[u].get(chain[v], inf) <= pos[v]``.

    On an R-graph feed the chains are exactly the process chains
    (succession edges), which makes a row the exact form of a dependency
    vector: one checkpoint index per process.  On an arbitrary digraph
    it degrades to more chains, never to a wrong answer.

    On ``add_edge(u, v)`` any new path uses the edge at least once, and a
    path using it several times can always be shortcut to a single use
    (old prefix to ``u``, the edge, old suffix from ``v``).  So the exact
    update folds ``v``'s row (with ``v`` itself) into ``u`` and every
    ancestor of ``u``; the walk stops at any node the delta does not
    lower, because by closure invariance everything reaching that node
    is already covered.  An insertion that adds nothing new costs O(row).

    This is what lets a simulation append checkpoints and message edges
    as they happen and query trackability online, instead of re-running
    Tarjan + propagation over the full R-graph per query.
    """

    def __init__(self, n: int = 0) -> None:
        self._low: List[Dict[int, int]] = [{} for _ in range(n)]
        # A node has no chain (-1) until its first edge.
        self._chain: List[int] = [-1] * n
        self._pos: List[int] = [0] * n
        self._members: List[List[int]] = []
        self._pred: List[Set[int]] = [set() for _ in range(n)]
        self._on_cycle: Set[int] = set()
        self._num_edges = 0

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._low)

    def add_node(self) -> int:
        """Append an isolated node; returns its index."""
        self._low.append({})
        self._chain.append(-1)
        self._pos.append(0)
        self._pred.append(set())
        return len(self._low) - 1

    def _place(self, node: int, chain: int) -> None:
        """Append ``node`` to ``chain`` (a new chain when out of range)."""
        if chain == len(self._members):
            self._members.append([])
        members = self._members[chain]
        self._chain[node] = chain
        self._pos[node] = len(members)
        members.append(node)

    def add_edge(self, u: int, v: int) -> int:
        """Insert ``u -> v``; returns how many node rows changed (0 for a
        duplicate or already-implied edge), the natural unit of closure
        work for the ``closure.edge_updates`` metric.  A node appended
        behind its chain's tail is reached by the tail's ancestors
        through the lane entry they already hold, with no row change."""
        pred = self._pred
        if u in pred[v]:
            return 0
        pred[v].add(u)
        self._num_edges += 1
        chain, pos, low = self._chain, self._pos, self._low
        if chain[u] < 0:
            self._place(u, len(self._members))
        if chain[v] < 0:
            # Joining behind the tail keeps chain neighbours joined by a
            # real edge (this one), which is what makes reach a suffix.
            # Everything that already reached ``u`` now reaches ``v``
            # through its existing lane entry -- no row changes for it.
            cu = chain[u]
            is_tail = self._members[cu][-1] == u
            self._place(v, cu if is_tail else len(self._members))
        # What v offers (its row, plus v itself) that u lacks.  Only
        # those lanes can lower at an ancestor of u, whose row is
        # lane-wise at or below u's.  The delta is a fresh dict, taken
        # before any mutation: v may itself be among the updated nodes
        # when the edge closes a cycle.
        unreached = _UNREACHED
        row, offer = low[u], low[v]
        delta = {
            lane: at for lane, at in offer.items()
            if row.get(lane, unreached) > at
        }
        cv, pv = chain[v], pos[v]
        if offer.get(cv, unreached) > pv and row.get(cv, unreached) > pv:
            delta[cv] = pv
        if not delta:
            return 0
        on_cycle = self._on_cycle
        lanes = list(delta.items())
        changed = 0
        stack = [u]
        while stack:
            w = stack.pop()
            row = low[w]
            lowered = False
            for lane, at in lanes:
                if row.get(lane, unreached) > at:
                    row[lane] = at
                    lowered = True
            if lowered:
                changed += 1
                if row.get(chain[w], unreached) <= pos[w]:
                    on_cycle.add(w)
                stack.extend(pred[w])
        return changed

    def num_edges(self) -> int:
        return self._num_edges

    # ------------------------------------------------------------------
    # queries (the :class:`Closure` surface)
    # ------------------------------------------------------------------
    def reaches(self, u: int, v: int) -> bool:
        return self._low[u].get(self._chain[v], _UNREACHED) <= self._pos[v]

    def reaches_or_equal(self, u: int, v: int) -> bool:
        return u == v or self.reaches(u, v)

    def reachable_set(self, u: int) -> Set[int]:
        members = self._members
        out: Set[int] = set()
        for lane, at in self._low[u].items():
            out.update(members[lane][at:])
        return out

    def earliest(self, u: int) -> List[int]:
        """The first node ``u`` reaches on each chain it reaches at all.

        The row read as a dependency vector: everything else ``u``
        reaches lies behind one of these nodes on its chain, so a
        caller that only needs "how far down does ``u`` reach on this
        chain" reads O(chains), never O(reach set).
        """
        members = self._members
        return [members[lane][at] for lane, at in self._low[u].items()]

    def reach_mask(self, u: int) -> int:
        """The reachability bitset of ``u`` (bit v set iff u -> v),
        materialised from the row."""
        mask = 0
        for v in self.reachable_set(u):
            mask |= 1 << v
        return mask

    def on_cycle(self, u: int) -> bool:
        return u in self._on_cycle

    def has_cycle(self) -> bool:
        return bool(self._on_cycle)

    def cyclic_nodes(self) -> SetView:
        """Read-only view of the nodes lying on a cycle (no copy)."""
        return SetView(self._on_cycle)

    def cyclic_components(self) -> List[List[int]]:
        """SCCs containing a cycle, each sorted, ordered by smallest node.

        A row determines its reach set, so (as in :class:`Closure`)
        on-cycle nodes share a component iff their rows are equal.
        """
        comps: Dict[frozenset, List[int]] = {}
        for u in sorted(self._on_cycle):
            comps.setdefault(frozenset(self._low[u].items()), []).append(u)
        return list(comps.values())

    # ------------------------------------------------------------------
    # snapshot (hashed by the serve layer's integrity digest)
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """A JSON-safe snapshot of the closure.

        Rows are emitted dense, one entry per chain with ``-1`` for an
        unreached lane; adjacency as sorted predecessor lists.
        """
        lanes = range(len(self._members))
        return {
            "chain": list(self._chain),
            "pos": list(self._pos),
            "low": [[row.get(lane, -1) for lane in lanes] for row in self._low],
            "pred": [sorted(ins) for ins in self._pred],
            "edges": self._num_edges,
        }
