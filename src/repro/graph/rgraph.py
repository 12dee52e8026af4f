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

from typing import Dict, Iterable, List, Optional, Set, Tuple

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
        n = history.num_processes
        self._nodes: List[CheckpointId] = []
        self._id_of: Dict[CheckpointId, int] = {}
        for pid in range(n):
            top = history.last_index(pid) + (1 if include_volatile else 0)
            for index in range(top + 1):
                cid = CheckpointId(pid, index)
                self._id_of[cid] = len(self._nodes)
                self._nodes.append(cid)
        self._graph = DenseDigraph(len(self._nodes))
        self._build_edges()
        self._closure: Optional[Closure] = None

    def _build_edges(self) -> None:
        history = self._history
        # Same-process succession edges.
        for pid in range(history.num_processes):
            top = history.last_index(pid) + (1 if self._include_volatile else 0)
            for index in range(top):
                self._graph.add_edge(
                    self._id_of[CheckpointId(pid, index)],
                    self._id_of[CheckpointId(pid, index + 1)],
                )
        # Message edges.
        for m in history.delivered_messages():
            src_cid = CheckpointId(m.src, history.send_interval(m))
            dst_interval = history.deliver_interval(m)
            assert dst_interval is not None
            dst_cid = CheckpointId(m.dst, dst_interval)
            if src_cid in self._id_of and dst_cid in self._id_of:
                self._graph.add_edge(self._id_of[src_cid], self._id_of[dst_cid])

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
        return cid in self._id_of

    def edges(self) -> Iterable[Tuple[CheckpointId, CheckpointId]]:
        for u, v in self._graph.edges():
            yield (self._nodes[u], self._nodes[v])

    def successors(self, cid: CheckpointId) -> Set[CheckpointId]:
        return {self._nodes[v] for v in self._graph.successors(self._id_of[cid])}

    def predecessors(self, cid: CheckpointId) -> Set[CheckpointId]:
        return {self._nodes[u] for u in self._graph.predecessors(self._id_of[cid])}

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
        return self._closure_or_build().reaches_or_equal(
            self._id_of[a], self._id_of[b]
        )

    def reaches_strictly(self, a: CheckpointId, b: CheckpointId) -> bool:
        """True iff a non-empty R-path ``a -> b`` exists."""
        return self._closure_or_build().reaches(self._id_of[a], self._id_of[b])

    def reachable_set(self, a: CheckpointId) -> Set[CheckpointId]:
        ids = self._closure_or_build().reachable_set(self._id_of[a])
        return {self._nodes[v] for v in ids}

    def closure_masks(self) -> List[int]:
        """Raw per-node reachability bitsets, in :meth:`nodes` order.

        Bit ``v`` of entry ``u`` is set iff node ``u`` strictly reaches
        node ``v``.  The RDT checker's bitset pass works on these directly.
        """
        closure = self._closure_or_build()
        return [closure.reach_mask(u) for u in range(len(self._nodes))]

    def on_cycle(self, cid: CheckpointId) -> bool:
        return self._closure_or_build().on_cycle(self._id_of[cid])

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
