"""Z-cycles and useless checkpoints (Netzer-Xu).

A checkpoint ``C(i,x)`` is *useless* iff it belongs to no consistent
global checkpoint, which happens iff a Z-cycle passes through it: a
message chain whose first message is sent after ``C(i,x)`` (interval
``>= x + 1``) and whose last message is delivered at ``P_i`` before
``C(i,x)`` (interval ``<= x``).

In R-graph terms (this paper's edge convention) such a chain is an
R-path ``C(i,u) -> C(i,v)`` with ``u > v``, which closes a directed
cycle with the succession edges ``v -> v+1 -> ... -> u``; so useless
checkpoints coincide with checkpoints "straddled" by a cyclic SCC of the
R-graph.  Both detectors are provided and cross-checked in tests.

RDT implies Z-cycle freedom: an R-path ``C(i,u) -> C(i,v)`` with
``u > v`` is never on-line trackable (section 4.1.2), so a pattern
satisfying RDT cannot contain one.
"""

from __future__ import annotations

from typing import List, Set

from repro.events.history import History
from repro.graph.incremental import IncrementalRGraph
from repro.graph.rgraph import RGraph
from repro.graph.zpaths import ZPathAnalyzer
from repro.types import CheckpointId


def useless_checkpoints(history: History) -> List[CheckpointId]:
    """All useless checkpoints, via zigzag chain reachability.

    ``C(p, x)`` is useless iff a zigzag chain starts at ``P_p`` in an
    interval ``>= x + 1`` and ends with a delivery at ``P_p`` in an
    interval ``<= x``.
    """
    history = history.closed()
    analyzer = ZPathAnalyzer(history)
    out: List[CheckpointId] = []
    for pid in range(history.num_processes):
        for x in range(history.last_index(pid) + 1):
            source = CheckpointId(pid, x + 1)
            reach = analyzer.reach(source, causal=False, exact_start=False)
            if reach.min_deliver_interval[pid] <= x:
                out.append(CheckpointId(pid, x))
    return out


def useless_checkpoints_rgraph(history: History) -> List[CheckpointId]:
    """Useless checkpoints via R-graph cycles (independent detector).

    ``C(p, x)`` is useless iff the R-graph has a path ``C(p,u) -> C(p,v)``
    with ``u >= x + 1`` and ``v <= x``.  Equivalently: some cyclic SCC of
    the R-graph contains two checkpoints of ``P_p`` straddling ``x``; it
    suffices to scan reachability between checkpoints of each process.
    """
    history = history.closed()
    rgraph = RGraph(history)
    out: Set[CheckpointId] = set()
    for pid in range(history.num_processes):
        top = history.last_index(pid)
        for u in range(1, top + 1):
            for v in range(u):
                if rgraph.reaches_strictly(
                    CheckpointId(pid, u), CheckpointId(pid, v)
                ):
                    # Every checkpoint x with v <= x < u is useless.
                    for x in range(v, u):
                        out.add(CheckpointId(pid, x))
    return sorted(out)


def useless_checkpoints_incremental(history: History) -> List[CheckpointId]:
    """Useless checkpoints via the *online* R-graph (third detector).

    Feeds the history's events in time order into an
    :class:`~repro.graph.incremental.IncrementalRGraph`, exactly as a
    live simulation would, and reads the answer off the incrementally
    maintained closure.  Agrees bit for bit with both batch detectors
    (differential suite); unlike them, the underlying monitor could have
    answered at any prefix of the run without recondensing.
    """
    return IncrementalRGraph.from_history(history.closed()).useless_checkpoints()


def find_z_cycles(
    history: History, incremental: bool = False
) -> List[List[CheckpointId]]:
    """Cyclic strongly connected components of the R-graph.

    Each returned component is a sorted list of mutually-reachable
    checkpoints.  A component containing two checkpoints of the *same*
    process straddles useless checkpoints (see
    :func:`useless_checkpoints_rgraph`); under this edge convention a
    component with one checkpoint per process can occur even in RDT
    patterns and dooms no checkpoint.

    ``incremental=True`` computes the same components from the online
    closure (edge-by-edge updates) instead of batch condensation.
    """
    history = history.closed()
    if incremental:
        return IncrementalRGraph.from_history(history).cycles()
    return RGraph(history).cycles()


def has_z_cycle(history: History, incremental: bool = False) -> bool:
    return bool(find_z_cycles(history, incremental=incremental))
