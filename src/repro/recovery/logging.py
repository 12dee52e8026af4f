"""Sender-based message logging for in-transit replay.

A consistent recovery line still loses messages that *crossed* it (sent
at or before the line, delivered after it): after rollback the receiver
needs them again but the sender will not re-send.  The classical remedy
is sender-based logging: each sender keeps its outgoing messages in a
volatile log, flushed to stable storage at checkpoints; on recovery,
messages crossing the line are replayed from the senders' logs.

This module implements the bookkeeping: a sender log is the set of ids
of the messages its process sent and still keeps; what can be
garbage-collected once a recovery line advances (the one rule,
:func:`reclaimable`); and the replay plan for a concrete recovery.
Combined with RDT and piecewise determinism this is the setting in
which the paper's reference [4] ("When Piecewise Determinism Is Almost
True") applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set

from repro.analysis.consistency import in_transit_of_cut
from repro.events.event import Message
from repro.events.history import History
from repro.types import MessageId, ProcessId


@dataclass
class ReplayPlan:
    """Messages each sender must replay after a rollback to ``cut``."""

    cut: Dict[ProcessId, int]
    by_sender: Dict[ProcessId, List[Message]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(len(v) for v in self.by_sender.values())

    def messages(self) -> List[Message]:
        out: List[Message] = []
        for pid in sorted(self.by_sender):
            out.extend(self.by_sender[pid])
        return out


def reclaimable(
    send_interval: int, deliver_interval: Optional[int], floor_src: int, floor_dst: int
) -> bool:
    """The one log-GC rule: a logged message is dead iff it lies at or
    below the recovery floor **on both sides** (sent in an interval
    ``<= floor_src`` *and* delivered in one ``<= floor_dst``).

    The sender-side condition alone is NOT safe: a message sent at or
    below the floor but delivered above it *crosses* the floor, and a
    later line ``L' >= floor`` with ``L'[dst] < deliver_interval`` still
    needs it replayed.  An undelivered message (``deliver_interval is
    None``) crosses every future line and is never reclaimable.
    """
    return (
        deliver_interval is not None
        and send_interval <= floor_src
        and deliver_interval <= floor_dst
    )


def trim_log(
    log: Set[MessageId], history: History, floor: Mapping[ProcessId, int]
) -> int:
    """Drop from ``log`` the ids :func:`reclaimable` says no future line
    needs; returns how many were dropped.

    ``floor`` is the cut of an advanced recovery floor (see
    :func:`repro.recovery.gc.global_recovery_floor`).
    """
    dead = []
    for mid in log:
        m = history.message(mid)
        if reclaimable(
            history.send_interval(m),
            history.deliver_interval(m),
            floor[m.src],
            floor[m.dst],
        ):
            dead.append(mid)
    log.difference_update(dead)
    return len(dead)


def build_sender_logs(history: History) -> Dict[ProcessId, Set[MessageId]]:
    """Every process's sender log (the ids it sent) from a recorded history."""
    logs: Dict[ProcessId, Set[MessageId]] = {
        pid: set() for pid in range(history.num_processes)
    }
    for m in history.messages.values():
        logs[m.src].add(m.msg_id)
    return logs


def replay_plan(history: History, cut: Dict[ProcessId, int]) -> ReplayPlan:
    """The messages each sender must replay after rolling back to ``cut``.

    Exactly the messages crossing the cut: sent at or before it,
    delivered after it (or still in transit).
    """
    plan = ReplayPlan(cut=dict(cut))
    for m in in_transit_of_cut(history, cut):
        plan.by_sender.setdefault(m.src, []).append(m)
    for msgs in plan.by_sender.values():
        msgs.sort(key=lambda m: m.send_seq)
    return plan
