"""Transitive Dependency Vectors (TDV), computed offline.

The TDV mechanism (section 3.3 of the paper) is *the* on-line tracking
device of RDT theory: process ``i`` keeps ``TDV_i[i]`` equal to the index
of its current checkpoint interval, piggybacks the vector on every
message, and takes the component-wise maximum on every delivery.  The
snapshot ``TDV_{i,x}`` saved when checkpoint ``C(i,x)`` is taken then
records, in entry ``j``, the highest interval index of ``P_j`` reached by
a *causal* message chain ending at ``C(i,x)``.

This module replays the mechanism over a recorded history, independently
of whatever protocol produced it.  It serves two purposes:

* it is the reference oracle against which the protocols' own
  piggybacked vectors are cross-checked in tests, and
* together with R-graph reachability it decides on-line trackability:
  an R-path ``C(i,x) -> C(j,y)`` is trackable iff ``TDV_{j,y}[i] >= x``
  (or trivially when ``i == j`` and ``x <= y``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.events.event import EventKind
from repro.events.history import History
from repro.types import CheckpointId


def event_tdvs(history: History) -> Dict[Tuple[int, int], Tuple[int, ...]]:
    """The TDV value *after* every event, keyed by ``(pid, seq)``.

    For a send event this is the vector piggybacked on the message (the
    causal-past profile of the chain ending with that message); for a
    delivery it includes the merge; for a checkpoint it is the value
    after the own-entry increment.  Used by the visible-characterization
    checkers in :mod:`repro.analysis.characterizations`.
    """
    n = history.num_processes
    current = [[0] * n for _ in range(n)]
    send_tdv: Dict[int, Tuple[int, ...]] = {}
    out: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for ev in history.events_by_time():
        vec = current[ev.pid]
        if ev.kind is EventKind.CHECKPOINT:
            vec[ev.pid] += 1
        elif ev.kind is EventKind.SEND:
            assert ev.msg_id is not None
            send_tdv[ev.msg_id] = tuple(vec)
        elif ev.kind is EventKind.DELIVER:
            assert ev.msg_id is not None
            piggy = send_tdv[ev.msg_id]
            for k in range(n):
                if piggy[k] > vec[k]:
                    vec[k] = piggy[k]
        out[ev.ref] = tuple(vec)
    return out


def message_tdvs(history: History) -> Dict[int, Tuple[int, ...]]:
    """The vector piggybacked on each message (its send-time TDV)."""
    events = event_tdvs(history)
    return {
        m.msg_id: events[(m.src, m.send_seq)]
        for m in history.messages.values()
    }


def tdv_rows(history: History) -> List[List[Tuple[int, ...]]]:
    """The saved vectors as per-process rows: ``rows[i][x] == TDV_{i,x}``.

    Replays the paper's rules in global time order: initialisation sets
    every entry to 0; taking ``C(i,x)`` snapshots the vector then
    increments the own entry; a delivery merges the vector piggybacked at
    the send.  Note ``TDV_{i,x}[i] == x`` always holds.  Flattened, the
    rows are in ``(pid, index)`` order, the R-graph's node-id order.
    """
    n = history.num_processes
    current = [[0] * n for _ in range(n)]
    send_tdv: Dict[int, Tuple[int, ...]] = {}
    rows: List[List[Tuple[int, ...]]] = [[] for _ in range(n)]
    for ev in history.events_by_time():
        vec = current[ev.pid]
        if ev.kind is EventKind.CHECKPOINT:
            # A process's checkpoints come in index order: its event
            # times strictly increase.
            rows[ev.pid].append(tuple(vec))
            vec[ev.pid] += 1
        elif ev.kind is EventKind.SEND:
            assert ev.msg_id is not None
            send_tdv[ev.msg_id] = tuple(vec)
        elif ev.kind is EventKind.DELIVER:
            assert ev.msg_id is not None
            piggy = send_tdv[ev.msg_id]
            for k in range(n):
                if piggy[k] > vec[k]:
                    vec[k] = piggy[k]
    return rows


def tdv_snapshots(history: History) -> Dict[CheckpointId, Tuple[int, ...]]:
    """The saved vector ``TDV_{i,x}`` for every checkpoint of the history,
    keyed by checkpoint: :func:`tdv_rows` as a dict."""
    return {
        CheckpointId(pid, x): vec
        for pid, row in enumerate(tdv_rows(history))
        for x, vec in enumerate(row)
    }


class TrackabilityOracle:
    """Decides on-line trackability of R-paths via offline TDVs.

    ``trackable(a, b)`` answers: *if* an R-path ``a -> b`` exists, is it
    on-line trackable?  (Whether the path exists at all is the R-graph's
    business; combining both is done by :mod:`repro.analysis.rdt`.)
    """

    def __init__(self, history: History) -> None:
        self._snapshots = tdv_snapshots(history)

    def tdv(self, cid: CheckpointId) -> Tuple[int, ...]:
        return self._snapshots[cid]

    def trackable(self, a: CheckpointId, b: CheckpointId) -> bool:
        if a.pid == b.pid:
            if a.index <= b.index:
                return True
            # An R-path C(i,x) -> C(i,y) with x > y is never trackable
            # (section 4.1.2 of the paper).
            return False
        return self._snapshots[b][a.pid] >= a.index
