"""Checkpoint and log garbage collection.

Stable storage is finite: checkpoints (and sender logs) that can never
again appear on a recovery line should be reclaimed.  The safe rule
implemented here rests on a monotonicity fact about rollback
propagation:

    Let ``L`` be the recovery line for a *total* failure at time ``t``
    (every process bounded by its last stable checkpoint).  Any recovery
    line computed later -- for any crash pattern, after any amount of
    further execution -- is componentwise >= ``L``.

Sketch: future messages are sent and delivered in intervals beyond the
current bounds, so they add no orphan constraint below them; ``L``
therefore stays consistent in every extension, and the greatest
consistent cut under the (only growing) future bounds dominates it.
``tests/test_recovery_gc.py`` checks the monotonicity property on
simulated runs by comparing lines at increasing crash times.

Consequently every checkpoint strictly below ``L`` is *obsolete* and
reclaimable, as is every logged message that lies entirely at or below
``L`` **on both sides**: sent in an interval ``<= L[src]`` *and*
delivered in an interval ``<= L[dst]``.  The sender-side condition alone
is not safe: a message sent at or below ``L`` but delivered above it
*crosses* ``L`` (it is exactly one of ``L.messages_to_replay``) and is
still needed by any later line ``L' >= L`` whose receiver entry satisfies
``L'[dst] < deliver_interval`` -- such lines exist whenever the receiver
can still be rolled back into the crossing delivery's interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.events.history import History
from repro.recovery.failure import CrashSpec
from repro.recovery.logging import trim_log
from repro.recovery.recovery_line import RecoveryLine, recovery_line
from repro.types import CheckpointId, MessageId, ProcessId


@dataclass
class GCReport:
    """What a garbage-collection pass reclaimed."""

    line: RecoveryLine
    obsolete_checkpoints: List[CheckpointId]
    kept_checkpoints: int
    reclaimed_log_messages: int = 0

    @property
    def reclaimed_checkpoints(self) -> int:
        return len(self.obsolete_checkpoints)

    def __repr__(self) -> str:
        return (
            f"<GCReport reclaimed={self.reclaimed_checkpoints} ckpts, "
            f"{self.reclaimed_log_messages} log msgs, kept={self.kept_checkpoints}>"
        )


def global_recovery_floor(
    history: History, at_time: Optional[float] = None
) -> RecoveryLine:
    """The total-failure recovery line: the floor future lines never cross.

    Defined at *every* ``at_time``, including instants before a process
    has taken its first post-initial checkpoint: the initial checkpoint
    is always stable, so such a process is simply bounded at index 0
    (``initial_is_stable``) rather than erroring.
    """
    history = history.closed()
    crashes = {
        pid: CrashSpec(pid, at_time=at_time, initial_is_stable=True)
        for pid in range(history.num_processes)
    }
    return recovery_line(history, crashes)


def obsolete_checkpoints(
    history: History, at_time: Optional[float] = None
) -> List[CheckpointId]:
    """Checkpoints strictly below the global recovery floor."""
    floor = global_recovery_floor(history, at_time=at_time)
    out: List[CheckpointId] = []
    for pid, floor_index in floor.cut.items():
        out.extend(CheckpointId(pid, x) for x in range(floor_index))
    return out


def collect_garbage(
    history: History,
    logs: Optional[Dict[ProcessId, Set[MessageId]]] = None,
    at_time: Optional[float] = None,
) -> GCReport:
    """One GC pass: identify obsolete checkpoints, trim sender logs.

    ``logs`` (from :func:`repro.recovery.logging.build_sender_logs` or a
    live deployment) is trimmed in place: messages sent *and delivered*
    at or below the floor can never need replay again.  Messages merely
    sent below it may still cross a later recovery line and are kept
    (see :func:`repro.recovery.logging.reclaimable`).
    """
    history = history.closed()
    floor = global_recovery_floor(history, at_time=at_time)
    obsolete = [
        CheckpointId(pid, x)
        for pid, floor_index in floor.cut.items()
        for x in range(floor_index)
    ]
    total = history.num_checkpoints()
    reclaimed_msgs = 0
    if logs is not None:
        for log in logs.values():
            reclaimed_msgs += trim_log(log, history, floor.cut)
    return GCReport(
        line=floor,
        obsolete_checkpoints=obsolete,
        kept_checkpoints=total - len(obsolete),
        reclaimed_log_messages=reclaimed_msgs,
    )


def recovery_line_monotone(history: History, times: List[float]) -> bool:
    """Check the monotonicity fact underlying GC on one history.

    For increasing crash times, the total-failure recovery lines must be
    componentwise non-decreasing.  Exposed as a function (rather than
    only a test) so users can sanity-check the rule on their own traces.
    """
    history = history.closed()
    previous: Optional[Dict[ProcessId, int]] = None
    for t in sorted(times):
        cut = global_recovery_floor(history, at_time=t).cut
        if previous is not None:
            if any(cut[p] < previous[p] for p in cut):
                return False
        previous = cut
    return True
