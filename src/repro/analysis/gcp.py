"""Minimum / maximum consistent global checkpoints.

The classical RDT pay-off (Wang; Corollary 4.5 of the paper): dependency
vectors suffice to compute, for any local checkpoint ``C``, the *minimum*
("first") and *maximum* ("last") consistent global checkpoints containing
``C``.  These underpin software error recovery, causal distributed
breakpoints and output commit.

This module provides:

* exact fixpoint algorithms valid on **arbitrary** patterns
  (:func:`min_consistent_gcp`, :func:`max_consistent_gcp`).  Consistency
  constraints are Horn clauses over per-process cut indices -- "if the
  receiver keeps this delivery, the sender must keep the send" -- so the
  least (resp. greatest) fixpoint is the minimum (resp. maximum)
  consistent cut above (resp. below) the starting point, when one exists;
* R-graph shortcuts valid under RDT (:func:`min_gcp_rdt`,
  :func:`max_gcp_rdt`), matching Wang's reachability formulation;
* the Netzer-Xu extensibility check: a set of checkpoints extends to a
  consistent global checkpoint iff no zigzag path (R-path) links any two
  of them (:func:`can_belong_to_same_gcp`), which under RDT reduces to
  pairwise causal-unrelatedness -- noteworthy property (1) of RDT.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.analysis.consistency import is_consistent_gcp
from repro.events.history import History
from repro.graph.rgraph import RGraph
from repro.types import AnalysisError, CheckpointId, ProcessId


def _check_exists(history: History, cid: CheckpointId) -> None:
    if not history.has_checkpoint(cid):
        raise AnalysisError(f"{cid} does not exist in this history")


def _message_constraints(history: History):
    """Per delivered message: (src, send_interval, dst, deliver_interval).

    The consistency constraint of message ``m`` reads: if the cut of
    ``dst`` is ``>= deliver_interval`` (the delivery is kept) then the
    cut of ``src`` must be ``>= send_interval`` (the send is kept too).
    """
    out = []
    for m in history.delivered_messages():
        deliver_interval = history.deliver_interval(m)
        assert deliver_interval is not None
        out.append((m.src, history.send_interval(m), m.dst, deliver_interval))
    return out


def propagate_rollback(
    history: History, cut: Dict[ProcessId, int]
) -> Dict[ProcessId, int]:
    """Rollback propagation: lower ``cut`` (in place) to the greatest
    consistent cut at or below it, and return it.

    Greatest fixpoint over :func:`_message_constraints`: while some kept
    delivery has an undone send (an orphan), roll its receiver back to
    just before the delivery.  An entry may reach ``-1`` only if the
    initial global checkpoint is not below ``cut``.
    """
    constraints = _message_constraints(history)
    changed = True
    while changed:
        changed = False
        for src, send_iv, dst, deliver_iv in constraints:
            if cut[src] < send_iv and cut[dst] >= deliver_iv:
                cut[dst] = deliver_iv - 1
                changed = True
    return cut


def min_consistent_gcp(
    history: History, fixed: Iterable[CheckpointId]
) -> Optional[Dict[ProcessId, int]]:
    """Least consistent global checkpoint containing all of ``fixed``.

    Returns ``{pid: index}`` or ``None`` when no consistent global
    checkpoint contains the fixed checkpoints (e.g. one of them is
    useless, or two of them are zigzag-related).

    Works on arbitrary (closed) patterns by least-fixpoint iteration:
    start from the fixed indices (0 elsewhere) and raise sender cuts
    until no message is orphan.  If a fixed entry must be raised, the
    request is infeasible.
    """
    history = history.closed()
    cut: Dict[ProcessId, int] = {pid: 0 for pid in range(history.num_processes)}
    fixed_map: Dict[ProcessId, int] = {}
    for cid in fixed:
        _check_exists(history, cid)
        if fixed_map.get(cid.pid, cid.index) != cid.index:
            return None  # two different fixed checkpoints on one process
        fixed_map[cid.pid] = cid.index
        cut[cid.pid] = cid.index
    constraints = _message_constraints(history)
    changed = True
    while changed:
        changed = False
        for src, send_iv, dst, deliver_iv in constraints:
            if cut[dst] >= deliver_iv and cut[src] < send_iv:
                cut[src] = send_iv
                changed = True
    for pid, index in fixed_map.items():
        if cut[pid] != index:
            return None
    for pid in cut:
        if cut[pid] > history.last_index(pid):
            return None  # would need a checkpoint that was never taken
    assert is_consistent_gcp(history, cut)
    return cut


def max_consistent_gcp(
    history: History, fixed: Iterable[CheckpointId]
) -> Optional[Dict[ProcessId, int]]:
    """Greatest consistent global checkpoint containing all of ``fixed``.

    Greatest-fixpoint dual of :func:`min_consistent_gcp`: start from the
    last checkpoint of every non-fixed process and lower receiver cuts
    below any orphan delivery (:func:`propagate_rollback`, the classic
    rollback propagation that
    :func:`repro.recovery.recovery_line.recovery_line` runs from crash
    bounds).
    """
    history = history.closed()
    cut: Dict[ProcessId, int] = {
        pid: history.last_index(pid) for pid in range(history.num_processes)
    }
    fixed_map: Dict[ProcessId, int] = {}
    for cid in fixed:
        _check_exists(history, cid)
        if fixed_map.get(cid.pid, cid.index) != cid.index:
            return None
        fixed_map[cid.pid] = cid.index
        cut[cid.pid] = cid.index
    propagate_rollback(history, cut)
    for pid, index in fixed_map.items():
        if cut[pid] != index:
            return None
    if any(index < 0 for index in cut.values()):
        return None
    assert is_consistent_gcp(history, cut)
    return cut


# ----------------------------------------------------------------------
# R-graph shortcuts, valid under RDT.  Both accept a prebuilt ``rgraph``
# (share one across queries!).
# ----------------------------------------------------------------------
def min_gcp_rdt(
    history: History, cid: CheckpointId, rgraph: Optional[RGraph] = None
) -> Dict[ProcessId, int]:
    """Minimum consistent GCP containing ``cid``, by R-graph reachability.

    Entry ``j`` is the largest ``y`` with an R-path ``C(j,y) -> C(i,x)``
    (0 when none).  Whenever *some* consistent GCP contains ``cid`` this
    equals :func:`min_consistent_gcp` (the backward Horn propagation is
    exactly backward R-graph reachability); when none does (``cid`` on a
    Z-cycle) the result is an inconsistent cut, which the fixpoint
    version detects and this shortcut does not.  Under RDT it furthermore
    equals the saved dependency vector ``TDV_{i,x}`` (Corollary 4.5) --
    that is what makes the quantity *on-line computable* there.
    """
    history = history.closed()
    _check_exists(history, cid)
    if rgraph is None:
        rgraph = RGraph(history)
    cut: Dict[ProcessId, int] = {}
    for pid in range(history.num_processes):
        if pid == cid.pid:
            cut[pid] = cid.index
            continue
        best = 0
        for y in range(history.last_index(pid), 0, -1):
            if rgraph.has_rpath(CheckpointId(pid, y), cid):
                best = y
                break
        cut[pid] = best
    return cut


def max_gcp_rdt(
    history: History, cid: CheckpointId, rgraph: Optional[RGraph] = None
) -> Dict[ProcessId, int]:
    """Maximum consistent GCP containing ``cid``, by R-graph reachability.

    Entry ``j`` is the largest ``y`` such that no zigzag chain starts
    *after* ``C(i,x)`` (first send in interval ``>= x + 1``) and delivers
    at ``P_j`` in an interval ``<= y``; in R-graph terms, no R-path from
    the node ``C(i, x+1)`` to ``C(j,y)``.  (Sends in ``I(i,x)`` itself are
    kept by a rollback to ``C(i,x)``, hence the one-interval shift.)
    Like :func:`min_gcp_rdt`, agrees with :func:`max_consistent_gcp`
    whenever the latter succeeds, and is meaningless when ``cid`` is on a
    Z-cycle.  The ``_rdt`` suffix marks the setting in which the quantity
    is computable on-line from dependency vectors alone.
    """
    history = history.closed()
    _check_exists(history, cid)
    if rgraph is None:
        rgraph = RGraph(history)
    source = CheckpointId(cid.pid, cid.index + 1)
    have_source = history.has_checkpoint(source)
    cut: Dict[ProcessId, int] = {}
    for pid in range(history.num_processes):
        if pid == cid.pid:
            cut[pid] = cid.index
            continue
        chosen = 0
        for y in range(history.last_index(pid), -1, -1):
            if not have_source or not rgraph.reaches_strictly(
                source, CheckpointId(pid, y)
            ):
                chosen = y
                break
        cut[pid] = chosen
    return cut


# ----------------------------------------------------------------------
# Netzer-Xu extensibility
# ----------------------------------------------------------------------
def can_belong_to_same_gcp(history: History, cids: List[CheckpointId]) -> bool:
    """Can the given checkpoints be extended to a consistent GCP?

    Netzer-Xu: yes iff no zigzag path connects any two of them (nor any
    of them to itself).  A Netzer-Xu zigzag from ``C(i,x)`` starts with a
    send *after* ``C(i,x)``; in this paper's R-graph convention that is a
    strict R-path from the node ``C(i, x+1)``, so the check is a closure
    lookup with a one-interval source shift.
    """
    history = history.closed()
    unique = sorted(set(cids))
    by_pid: Dict[ProcessId, CheckpointId] = {}
    for cid in unique:
        _check_exists(history, cid)
        if cid.pid in by_pid:
            return False  # two distinct checkpoints of one process
        by_pid[cid.pid] = cid
    rgraph = RGraph(history)
    for a in unique:
        source = CheckpointId(a.pid, a.index + 1)
        if not history.has_checkpoint(source):
            continue  # closed history: nothing is sent after a's last ckpt
        for b in unique:
            # a == b included: self-reachability means a Z-cycle through a.
            if rgraph.reaches_strictly(source, b):
                return False
    return True
