"""The Rollback-Dependency Graph (R-graph) of a pattern.

Definition (paper section 3.1, after Wang): one node per local
checkpoint; a directed edge ``C(i,x) -> C(j,y)`` iff

1. ``i == j`` and ``y == x + 1`` (same-process succession), or
2. ``i != j`` and some message is sent in ``I(i,x)`` and delivered in
   ``I(j,y)``.

The operational meaning of an edge (and hence of any R-path) is rollback
propagation: if ``P_i`` rolls back to a checkpoint *preceding* ``C(i,x)``
then ``P_j`` must roll back to a checkpoint preceding ``C(j,y)``.

A key fact used throughout the analysis layer (Wang's R-graph theorem):
for ``i != j`` or non-trivial paths, ``C(i,x)`` reaches ``C(j,y)`` in the
R-graph **iff** there is a message chain (Z-path in Netzer-Xu's
terminology) from ``C(i,x)`` to some ``C(j,y')`` with ``y' <= y``.  The
test suite cross-checks R-graph reachability against the independent
chain search of :mod:`repro.graph.zpaths` on every random pattern.

Volatile nodes: messages sent or delivered in an interval that is still
open at the end of the history have no closing checkpoint, so by default
they induce no nodes/edges.  Passing ``include_volatile=True`` adds one
virtual checkpoint per process (index ``last_index + 1``) standing for
"the state at the end of the history", which is what recovery analyses
want.  Closed histories (``history.closed()``) need no volatile nodes.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, List, Optional, Set, Tuple

from repro.events.history import History
from repro.graph.reachability import Closure, DenseDigraph
from repro.types import CheckpointId


class RGraph:
    """The rollback-dependency graph of one finished history.

    Reachability comes from one batch Tarjan condensation, built on
    first query.  A pattern that is still growing is the business of
    :class:`~repro.graph.incremental.IncrementalRGraph`, whose online
    closure ``tests/test_differential_closure.py`` holds bit-identical
    to this one.
    """

    def __init__(self, history: History, include_volatile: bool = False) -> None:
        self._history = history
        self._include_volatile = include_volatile
        # Node C(p, x) is offset[p] + x: each process's checkpoints (and
        # its volatile node) are one block of ids, top[p] its last index.
        extra = 1 if include_volatile else 0
        self._top = [
            history.last_index(p) + extra for p in range(history.num_processes)
        ]
        self._offset = [0, *accumulate(t + 1 for t in self._top)]
        self._nodes = [
            CheckpointId(p, x) for p, t in enumerate(self._top) for x in range(t + 1)
        ]
        self._graph = DenseDigraph(len(self._nodes))
        self._build_edges()
        self._closure: Optional[Closure] = None

    def _build_edges(self) -> None:
        add_edge, offset, top = self._graph.add_edge, self._offset, self._top
        # Same-process succession: u -> u + 1 inside each block.
        for base, last in zip(offset, top):
            for u in range(base, base + last):
                add_edge(u, u + 1)
        # Message edges; an open interval without a volatile node has none.
        history = self._history
        for m in history.delivered_messages():
            x, y = history.send_interval(m), history.deliver_interval(m)
            if y is not None and x <= top[m.src] and y <= top[m.dst]:
                add_edge(offset[m.src] + x, offset[m.dst] + y)

    def _id(self, cid: CheckpointId) -> int:
        # Bounds-checked per process: C(p, top[p] + 1) is not C(p + 1, 0).
        if not self.has_node(cid):
            raise KeyError(cid)
        return self._offset[cid.pid] + cid.index

    # ------------------------------------------------------------------
    @property
    def history(self) -> History:
        return self._history

    @property
    def include_volatile(self) -> bool:
        return self._include_volatile

    def nodes(self) -> Tuple[CheckpointId, ...]:
        return tuple(self._nodes)

    def num_nodes(self) -> int:
        return len(self._nodes)

    def num_edges(self) -> int:
        return self._graph.num_edges()

    def is_volatile(self, cid: CheckpointId) -> bool:
        """True if ``cid`` is a virtual end-of-history node."""
        return cid.index > self._history.last_index(cid.pid)

    def has_node(self, cid: CheckpointId) -> bool:
        return cid.pid < len(self._top) and cid.index <= self._top[cid.pid]

    def edges(self) -> Iterable[Tuple[CheckpointId, CheckpointId]]:
        for u, v in self._graph.edges():
            yield (self._nodes[u], self._nodes[v])

    def successors(self, cid: CheckpointId) -> Set[CheckpointId]:
        return {self._nodes[v] for v in self._graph.successors(self._id(cid))}

    def predecessors(self, cid: CheckpointId) -> Set[CheckpointId]:
        return {self._nodes[u] for u in self._graph.predecessors(self._id(cid))}

    # ------------------------------------------------------------------
    def _closure_or_build(self) -> Closure:
        if self._closure is None:
            self._closure = self._graph.transitive_closure()
        return self._closure

    def has_rpath(self, a: CheckpointId, b: CheckpointId) -> bool:
        """True iff an R-path ``a -> b`` exists (non-empty, or ``a == b``).

        Following the paper's usage, the trivial path ``a -> a`` always
        "exists"; a *cyclic* path from ``a`` back to itself is reported by
        :meth:`on_cycle` instead.
        """
        return self._closure_or_build().reaches_or_equal(self._id(a), self._id(b))

    def reaches_strictly(self, a: CheckpointId, b: CheckpointId) -> bool:
        """True iff a non-empty R-path ``a -> b`` exists."""
        return self._closure_or_build().reaches(self._id(a), self._id(b))

    def reachable_set(self, a: CheckpointId) -> Set[CheckpointId]:
        ids = self._closure_or_build().reachable_set(self._id(a))
        return {self._nodes[v] for v in ids}

    def closure_masks(self) -> List[int]:
        """Raw per-node reachability bitsets, in :meth:`nodes` order.

        Bit ``v`` of entry ``u`` is set iff node ``u`` strictly reaches
        node ``v``.  The RDT checker's bitset pass works on these directly.
        """
        closure = self._closure_or_build()
        return [closure.reach_mask(u) for u in range(len(self._nodes))]

    def on_cycle(self, cid: CheckpointId) -> bool:
        return self._closure_or_build().on_cycle(self._id(cid))

    def cycles(self) -> List[List[CheckpointId]]:
        """Strongly connected components containing a cycle.

        Each component sorted; components ordered by smallest member, the
        same order :meth:`IncrementalRGraph.cycles` reports.
        """
        comps = [
            sorted(self._nodes[v] for v in comp)
            for comp in self._closure_or_build().cyclic_components()
        ]
        return sorted(comps, key=lambda comp: comp[0])

    # ------------------------------------------------------------------
    def rpath_pairs(self) -> Iterable[Tuple[CheckpointId, CheckpointId]]:
        """All ordered pairs ``(a, b)``, ``a != b``, with an R-path a -> b."""
        closure = self._closure_or_build()
        for u, a in enumerate(self._nodes):
            for v in sorted(closure.reachable_set(u)):
                if u != v:
                    yield (a, self._nodes[v])

    def to_networkx(self):
        """Export as a ``networkx.DiGraph`` (for visualisation/debugging)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self._nodes)
        g.add_edges_from(self.edges())
        return g

    def __repr__(self) -> str:
        return (
            f"<RGraph nodes={self.num_nodes()} edges={self.num_edges()} "
            f"volatile={self._include_volatile}>"
        )
