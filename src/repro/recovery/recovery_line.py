"""Recovery lines: the maximum consistent cut after failures.

Given a set of crashes, the *recovery line* is the latest consistent
global checkpoint in which every crashed process sits at (or before) its
last stable checkpoint.  It is computed by classical rollback
propagation -- the greatest fixpoint :func:`repro.analysis.gcp.propagate_rollback`
that :func:`repro.analysis.gcp.max_consistent_gcp` also runs, started
here from per-process upper bounds instead of pinned values.

The amount of work undone by the rollback quantifies the domino effect;
:mod:`repro.recovery.domino` builds on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.analysis.consistency import in_transit_of_cut, is_consistent_gcp
from repro.analysis.gcp import propagate_rollback
from repro.events.history import History
from repro.recovery.failure import CrashSpec, restart_bounds
from repro.types import CheckpointId, ProcessId


@dataclass
class RecoveryLine:
    """Result of a recovery-line computation."""

    cut: Dict[ProcessId, int]
    events_undone: int
    checkpoints_discarded: int
    messages_to_replay: List  # messages crossing the line (need logging)

    def checkpoint_ids(self) -> List[CheckpointId]:
        return [CheckpointId(pid, index) for pid, index in sorted(self.cut.items())]

    @property
    def is_total_rollback(self) -> bool:
        """True when every process restarts from its initial checkpoint."""
        return all(index == 0 for index in self.cut.values())

    def __repr__(self) -> str:
        line = ", ".join(repr(c) for c in self.checkpoint_ids())
        return f"<RecoveryLine [{line}] undone={self.events_undone}>"


def recovery_line(
    history: History,
    crashes: Union[Dict[ProcessId, CrashSpec], List[ProcessId], None] = None,
) -> RecoveryLine:
    """Compute the recovery line after the given crashes.

    ``crashes`` may be a ``{pid: CrashSpec}`` mapping, a plain list of
    crashed pids (crash at end of history), or ``None`` (every process
    crashes at the end -- a total failure).

    Rollback propagation: start every process at its bound and repeatedly
    lower any process that would otherwise have received an orphan
    message.  The result is the greatest consistent cut below the bounds;
    it always exists (the initial global checkpoint is consistent).
    """
    history = history.closed()
    crash_map = _normalise(history, crashes)
    cut = propagate_rollback(history, restart_bounds(history, crash_map))
    assert is_consistent_gcp(history, cut)
    undone = _events_after(history, cut)
    discarded = sum(
        history.last_index(pid) - index for pid, index in cut.items()
    )
    return RecoveryLine(
        cut=cut,
        events_undone=undone,
        checkpoints_discarded=discarded,
        messages_to_replay=in_transit_of_cut(history, cut),
    )


def _normalise(
    history: History, crashes
) -> Dict[ProcessId, CrashSpec]:
    if crashes is None:
        return {pid: CrashSpec(pid) for pid in range(history.num_processes)}
    if isinstance(crashes, dict):
        return crashes
    return {pid: CrashSpec(pid) for pid in crashes}


def _events_after(history: History, cut: Dict[ProcessId, int]) -> int:
    undone = 0
    for pid in range(history.num_processes):
        limit_seq = history.checkpoint_event(CheckpointId(pid, cut[pid])).seq
        undone += sum(1 for ev in history.events(pid) if ev.seq > limit_seq)
    return undone


def recovery_line_rgraph(
    history: History,
    crashes: Union[Dict[ProcessId, CrashSpec], List[ProcessId], None] = None,
) -> Dict[ProcessId, int]:
    """The recovery line computed via R-graph reachability.

    Independent second implementation (cross-checked against the
    fixpoint in tests): entry ``j`` is the largest ``y <= bound[j]``
    such that no R-path reaches ``C(j,y)`` from any node
    ``C(p, bound[p]+1)`` -- the first checkpoint *above* a bound, whose
    outgoing zigzags are exactly the chains starting with an undone
    send.  This is Wang's rollback propagation read off the closure.
    """
    from repro.graph.rgraph import RGraph

    history = history.closed()
    crash_map = _normalise(history, crashes)
    bounds = restart_bounds(history, crash_map)
    rgraph = RGraph(history)
    sources = [
        CheckpointId(pid, bound + 1)
        for pid, bound in bounds.items()
        if history.has_checkpoint(CheckpointId(pid, bound + 1))
    ]
    cut: Dict[ProcessId, int] = {}
    for pid, bound in bounds.items():
        chosen = 0
        for y in range(bound, -1, -1):
            target = CheckpointId(pid, y)
            if not any(rgraph.reaches_strictly(src, target) for src in sources):
                chosen = y
                break
        cut[pid] = chosen
    return cut


def rollback_distance(history: History, crashed: ProcessId) -> Dict[ProcessId, int]:
    """How many checkpoints each process loses when ``crashed`` fails.

    Convenience metric used by the domino-effect experiment: per process,
    ``last_index - recovery_line_index``.
    """
    line = recovery_line(history, [crashed])
    return {
        pid: history.last_index(pid) - line.cut[pid]
        for pid in range(history.num_processes)
    }
