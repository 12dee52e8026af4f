"""Online R-graph maintenance over a *growing* pattern.

:class:`repro.graph.rgraph.RGraph` is built once from a finished
history.  :class:`IncrementalRGraph` instead follows a computation as it
happens: processes take checkpoints and deliver messages one at a time,
and reachability / Z-cycle / useless-checkpoint queries are answered
online from an :class:`~repro.graph.reachability.IncrementalClosure`
that is updated edge by edge -- no per-query recondensation.

The online trick is the *frontier node*: for every process the graph
always contains one node for the checkpoint that will close the
currently-open interval (index ``last_index + 1``).  A message delivered
in an open interval hooks onto frontier nodes; when the checkpoint is
actually taken the frontier node simply *becomes* it (same node id) and
a fresh frontier is appended behind a succession edge.  This mirrors how
a CIC protocol sees the pattern: the sender piggybacks its current
interval index, the receiver attributes the delivery to its own open
interval.

Queries that only need "how far down does this node reach" read the
closure row directly: the chains the closure discovers on this feed are
the process chains, so :meth:`IncrementalRGraph.earliest_reached` is a
dependency vector (per process, the first checkpoint reached) at
O(processes), and :meth:`IncrementalRGraph.useless_checkpoints` probes
only the nodes the closure already knows to lie on a cycle.

Fed the events of a closed history in time order
(:meth:`IncrementalRGraph.from_history`), the resulting reachability
over real (non-frontier) checkpoints is bit-identical to the batch
``RGraph`` of that history -- the differential suite in
``tests/test_differential_closure.py`` holds the two to that contract.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro.events.history import History
from repro.graph.reachability import IncrementalClosure
from repro.types import CheckpointId, PatternError, ProcessId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer


class IncrementalRGraph:
    """R-graph of a pattern under construction, with online closure.

    Optionally instrumented: ``tracer`` receives ``closure.node`` /
    ``closure.edge`` events (the latter with the number of node rows the
    closure actually changed), ``metrics`` maintains ``closure.nodes``,
    ``closure.edges`` and ``closure.edge_updates``.  Feed methods accept
    the simulation time ``t`` purely to stamp those events; it defaults
    to 0.0 and has no semantic effect.
    """

    def __init__(
        self,
        n: int,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if n <= 0:
            raise PatternError("an R-graph needs at least one process")
        self._n = n
        self.tracer = tracer
        self.metrics = metrics
        self._closure = IncrementalClosure()
        self._nodes: List[CheckpointId] = []
        self._id_of: Dict[CheckpointId, int] = {}
        # Node ids per process, by checkpoint index (frontier last).
        self._ids_of_pid: List[List[int]] = [[] for _ in range(n)]
        # Index of the last *taken* checkpoint per process; the frontier
        # node sits at last_index + 1.
        self._last_index = [0] * n
        for pid in range(n):
            self._new_node(CheckpointId(pid, 0))
        for pid in range(n):
            self._new_node(CheckpointId(pid, 1))
            self._add_edge(CheckpointId(pid, 0), CheckpointId(pid, 1))

    # ------------------------------------------------------------------
    # construction feed
    # ------------------------------------------------------------------
    def _new_node(self, cid: CheckpointId, t: float = 0.0) -> int:
        node = self._closure.add_node()
        self._id_of[cid] = node
        self._ids_of_pid[cid.pid].append(node)
        self._nodes.append(cid)
        if self.tracer:
            self.tracer.event("closure.node", t, pid=cid.pid, index=cid.index)
        if self.metrics is not None:
            self.metrics.set("closure.nodes", len(self._nodes))
        return node

    def _add_edge(self, a: CheckpointId, b: CheckpointId, t: float = 0.0) -> None:
        touched = self._closure.add_edge(self._id_of[a], self._id_of[b])
        if self.tracer:
            self.tracer.event(
                "closure.edge",
                t,
                src=[a.pid, a.index],
                dst=[b.pid, b.index],
                touched=touched,
            )
        if self.metrics is not None:
            self.metrics.inc("closure.edges")
            self.metrics.inc("closure.edge_updates", touched)

    def take_checkpoint(self, pid: ProcessId, t: float = 0.0) -> CheckpointId:
        """Process ``pid`` takes its next checkpoint.

        The existing frontier node becomes the concrete checkpoint
        ``C(pid, last_index + 1)``; a new frontier is appended with the
        succession edge.  Returns the id of the checkpoint just taken.
        """
        taken = CheckpointId(pid, self._last_index[pid] + 1)
        self._last_index[pid] = taken.index
        frontier = CheckpointId(pid, taken.index + 1)
        self._new_node(frontier, t)
        self._add_edge(taken, frontier, t)
        return taken

    def observe_delivery(
        self,
        src: ProcessId,
        send_interval: int,
        dst: ProcessId,
        deliver_interval: Optional[int] = None,
        t: float = 0.0,
    ) -> None:
        """Record the delivery of one message as an R-graph edge.

        ``send_interval`` is the sender's interval index at send time
        (what CIC protocols piggyback); ``deliver_interval`` defaults to
        the receiver's currently-open interval.  Both may name frontier
        checkpoints -- the edge endpoints solidify when those
        checkpoints are taken.
        """
        if deliver_interval is None:
            deliver_interval = self._last_index[dst] + 1
        if send_interval > self._last_index[src] + 1:
            raise PatternError(
                f"send interval {send_interval} is in P{src}'s future "
                f"(frontier is {self._last_index[src] + 1})"
            )
        if deliver_interval > self._last_index[dst] + 1:
            raise PatternError(
                f"deliver interval {deliver_interval} is in P{dst}'s future "
                f"(frontier is {self._last_index[dst] + 1})"
            )
        self._add_edge(
            CheckpointId(src, send_interval),
            CheckpointId(dst, deliver_interval),
            t,
        )

    @classmethod
    def from_history(
        cls,
        history: History,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> "IncrementalRGraph":
        """Replay a (closed) history's events in time order.

        Equivalent to what a live simulation feed would have produced;
        the closed history guarantees every message edge lands between
        real checkpoints.
        """
        history = history.closed()
        inc = cls(history.num_processes, tracer=tracer, metrics=metrics)
        for event in history.events_by_time():
            if event.is_checkpoint:
                if event.checkpoint_index == 0:
                    continue  # initial checkpoints exist from construction
                taken = inc.take_checkpoint(event.pid, t=event.time)
                assert taken.index == event.checkpoint_index
            elif event.is_deliver:
                m = history.message(event.msg_id)
                inc.observe_delivery(
                    m.src,
                    history.send_interval(m),
                    m.dst,
                    history.deliver_interval(m),
                    t=event.time,
                )
        return inc

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def num_processes(self) -> int:
        return self._n

    def last_index(self, pid: ProcessId) -> int:
        return self._last_index[pid]

    def frontier(self, pid: ProcessId) -> CheckpointId:
        """The node standing for ``pid``'s next (not yet taken) checkpoint."""
        return CheckpointId(pid, self._last_index[pid] + 1)

    def has_node(self, cid: CheckpointId) -> bool:
        return cid in self._id_of

    def num_nodes(self) -> int:
        return len(self._nodes)

    def num_edges(self) -> int:
        return self._closure.num_edges()

    def is_frontier(self, cid: CheckpointId) -> bool:
        return cid.index > self._last_index[cid.pid]

    # ------------------------------------------------------------------
    # online queries
    # ------------------------------------------------------------------
    def has_rpath(self, a: CheckpointId, b: CheckpointId) -> bool:
        """R-path ``a -> b`` (trivial ``a == a`` included), as of now."""
        return self._closure.reaches_or_equal(self._id_of[a], self._id_of[b])

    def reaches_strictly(self, a: CheckpointId, b: CheckpointId) -> bool:
        return self._closure.reaches(self._id_of[a], self._id_of[b])

    def reachable_set(self, a: CheckpointId) -> Set[CheckpointId]:
        ids = self._closure.reachable_set(self._id_of[a])
        return {self._nodes[v] for v in ids}

    def on_cycle(self, cid: CheckpointId) -> bool:
        return self._closure.on_cycle(self._id_of[cid])

    def has_z_cycle(self) -> bool:
        """Any Z-cycle (cyclic SCC) in the pattern so far?"""
        return self._closure.has_cycle()

    def cycles(self) -> List[List[CheckpointId]]:
        """Cyclic SCCs, each sorted, ordered by smallest member."""
        comps = [
            sorted(self._nodes[v] for v in comp)
            for comp in self._closure.cyclic_components()
        ]
        return sorted(comps, key=lambda comp: comp[0])

    def earliest_reached(self, cid: CheckpointId) -> Dict[ProcessId, int]:
        """Per process, the smallest checkpoint index ``cid`` strictly
        R-reaches (processes it does not reach are absent).

        Succession edges make reach along a process a suffix, so this
        is ``cid``'s whole reach set in dependency-vector form, read
        off its closure row in O(chains).  Rows are mapped back through
        the node table rather than assumed one chain per process: a feed
        that fragments a process over several chains still gets the
        minimum over all of them.
        """
        nodes = self._nodes
        first: Dict[ProcessId, int] = {}
        for node in self._closure.earliest(self._id_of[cid]):
            reached = nodes[node]
            pid, index = reached.pid, reached.index
            if first.get(pid, index) >= index:
                first[pid] = index
        return first

    def useless_checkpoints(self) -> List[CheckpointId]:
        """Checkpoints straddled by a backward R-path, as of now.

        ``C(p, x)`` is useless iff there is an R-path ``C(p,u) -> C(p,v)``
        with ``u > x >= v``.  Any such path extends along succession
        edges to ``C(p,x+1) -> C(p,x)``, and the succession edge back
        closes a cycle through ``C(p,x+1)`` -- so only nodes the closure
        already knows to be on a cycle can witness one, and one probe
        per such node decides it: O(cyclic nodes), nothing under RDT.
        The frontier (index last+1) participates as a witness: a chain
        leaving the open interval can already doom taken checkpoints,
        even though its closing checkpoint is pending.
        """
        reaches = self._closure.reaches
        nodes, ids_of_pid = self._nodes, self._ids_of_pid
        useless = []
        for node in self._closure.cyclic_nodes():
            witness = nodes[node]
            below = witness.index - 1
            if below >= 0 and reaches(node, ids_of_pid[witness.pid][below]):
                useless.append(CheckpointId(witness.pid, below))
        useless.sort()
        return useless

    # ------------------------------------------------------------------
    # snapshot (hashed by the serve layer; restore replays the log)
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """A JSON-safe snapshot: nodes, frontier indices, closure."""
        return {
            "n": self._n,
            "last_index": list(self._last_index),
            "nodes": [[cid.pid, cid.index] for cid in self._nodes],
            "closure": self._closure.state(),
        }

    def __repr__(self) -> str:
        return (
            f"<IncrementalRGraph n={self._n} nodes={self.num_nodes()} "
            f"edges={self.num_edges()}>"
        )
