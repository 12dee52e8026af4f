"""The dict-keyed R-graph builder: the differential oracle for offset ids.

:class:`repro.graph.rgraph.RGraph` numbers the node ``C(p, x)`` as
``offset[p] + x`` and builds its edges from interval indices alone.  This
module is the builder it replaced, kept as it was: one ``CheckpointId`` per
node, a ``CheckpointId -> int`` table, and every edge endpoint hashed and
looked up in it.  ``tests/test_rgraph_offsets.py`` requires equal
``nodes()``, ``edges()`` and ``closure_masks()`` from both.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.events.history import History
from repro.graph.reachability import DenseDigraph
from repro.types import CheckpointId


class DictRGraph:
    """Nodes, edges and closure bitsets of the R-graph, via an id table."""

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
        # Message edges.  The intervals are read off the events, as
        # ``History.send_interval`` / ``deliver_interval`` used to, so
        # their seq arithmetic is under test too.
        for m in history.delivered_messages():
            src_cid = CheckpointId(m.src, history.interval_of(history.send_event(m)))
            deliver_ev = history.deliver_event(m)
            assert deliver_ev is not None
            dst_interval = history.interval_of(deliver_ev)
            dst_cid = CheckpointId(m.dst, dst_interval)
            if src_cid in self._id_of and dst_cid in self._id_of:
                self._graph.add_edge(self._id_of[src_cid], self._id_of[dst_cid])

    def nodes(self) -> Tuple[CheckpointId, ...]:
        return tuple(self._nodes)

    def edges(self) -> Iterable[Tuple[CheckpointId, CheckpointId]]:
        for u, v in self._graph.edges():
            yield (self._nodes[u], self._nodes[v])

    def closure_masks(self) -> List[int]:
        closure = self._graph.transitive_closure()
        return [closure.reach_mask(u) for u in range(len(self._nodes))]
