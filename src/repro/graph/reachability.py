"""Transitive closure for small directed graphs, cycles allowed.

The R-graph of a checkpoint pattern is a digraph that may contain cycles
(a cycle is exactly how a Z-cycle / useless checkpoint shows up), so the
closure is computed by Tarjan SCC condensation followed by bitset
propagation in reverse topological order.  Bitsets are plain Python
integers, which keeps the per-node union a single ``|`` operation.
"""

from __future__ import annotations

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
    one (:class:`IncrementalClosure`) a subclass that only adds growth.
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


class IncrementalClosure(Closure):
    """Transitive closure maintained online under edge/node insertion.

    Answers every :class:`Closure` query (it inherits them unchanged)
    but instead of condensing the whole graph per build it updates two
    bitset families edge by edge:

    * ``reach[u]``  -- everything ``u`` strictly reaches;
    * ``rreach[u]`` -- everything that strictly reaches ``u``.

    On ``add_edge(u, v)`` any new path uses the edge at least once, and a
    path using it several times can always be shortcut to a single use
    (old prefix to ``u``, the edge, old suffix from ``v``).  So the exact
    update is: for every ``w`` in ``{u} | rreach[u]``, fold in
    ``{v} | reach[v]`` (and symmetrically for ``rreach``), with both
    deltas snapshotted before mutation.  An insertion that adds nothing
    new (``reach[u]`` already covers the delta) costs O(1).

    This is what lets a simulation append checkpoints and message edges
    as they happen and query trackability online, instead of re-running
    Tarjan + propagation over the full R-graph per query.
    """

    def __init__(self, n: int = 0) -> None:
        super().__init__([0] * n)
        self._rreach: List[int] = [0] * n
        self._succ: List[Set[int]] = [set() for _ in range(n)]
        self._num_edges = 0

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._reach)

    def add_node(self) -> int:
        """Append an isolated node; returns its index."""
        self._reach.append(0)
        self._rreach.append(0)
        self._succ.append(set())
        return len(self._reach) - 1

    def add_edge(self, u: int, v: int) -> int:
        """Insert ``u -> v``; returns how many node bitsets were updated
        (0 for a duplicate or already-implied edge), the natural unit of
        closure work for the ``closure.edge_updates`` metric."""
        if v in self._succ[u]:
            return 0
        self._succ[u].add(v)
        self._num_edges += 1
        delta = self._reach[v] | (1 << v)
        if self._reach[u] & delta == delta:
            # u already reached v and everything past it; by closure
            # invariance so did everything reaching u.  Nothing changes.
            return 0
        rdelta = self._rreach[u] | (1 << u)
        # Snapshot both deltas before mutating: v (or u) may itself be
        # among the updated nodes when the edge closes a cycle.  The bit
        # walks are inlined (no iter_bits generator): this loop runs
        # once per ancestor/descendant per edge and dominates online
        # ingest, where generator resumes double its cost.
        reach = self._reach
        mask = rdelta
        while mask:
            lsb = mask & -mask
            reach[lsb.bit_length() - 1] |= delta
            mask ^= lsb
        rreach = self._rreach
        mask = delta
        while mask:
            lsb = mask & -mask
            rreach[lsb.bit_length() - 1] |= rdelta
            mask ^= lsb
        return popcount(rdelta) + popcount(delta)

    def num_edges(self) -> int:
        return self._num_edges

    def coreach_mask(self, v: int) -> int:
        """The raw co-reachability bitset of ``v`` (bit u set iff u -> v)."""
        return self._rreach[v]

    # ------------------------------------------------------------------
    # snapshot / restore (the serve layer's session eviction)
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """A JSON-safe snapshot of the closure.

        Bitsets serialise as hex strings (they are arbitrary-precision
        integers; JSON numbers are not), adjacency as sorted lists.
        :meth:`from_state` inverts this exactly, so snapshot/restore
        round-trips are bit-identical.
        """
        return {
            "reach": [format(mask, "x") for mask in self._reach],
            "rreach": [format(mask, "x") for mask in self._rreach],
            "succ": [sorted(outs) for outs in self._succ],
            "edges": self._num_edges,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "IncrementalClosure":
        """Rebuild a closure from a :meth:`state` snapshot."""
        inst = cls()
        inst._reach = [int(mask, 16) for mask in state["reach"]]  # type: ignore[union-attr]
        inst._rreach = [int(mask, 16) for mask in state["rreach"]]  # type: ignore[union-attr]
        inst._succ = [set(outs) for outs in state["succ"]]  # type: ignore[union-attr]
        inst._num_edges = int(state["edges"])  # type: ignore[arg-type]
        return inst
