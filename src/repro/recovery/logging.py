"""Sender-based message logging for in-transit replay.

A consistent recovery line still loses messages that *crossed* it (sent
at or before the line, delivered after it): after rollback the receiver
needs them again but the sender will not re-send.  The classical remedy
is sender-based logging: each sender keeps its outgoing messages in a
volatile log, flushed to stable storage at checkpoints; on recovery,
messages crossing the line are replayed from the senders' logs.

This module implements the bookkeeping: what must be logged, what can be
garbage-collected once a recovery line advances, and the replay plan for
a concrete recovery.  Combined with RDT and piecewise determinism this
is the setting in which the paper's reference [4] ("When Piecewise
Determinism Is Almost True") applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional

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


class SenderLog:
    """The message log of one process.

    ``stable_upto`` tracks the last checkpoint index whose interval's
    messages are known to be on stable storage; everything later is
    volatile and lost if this process crashes.  It is reported (in
    :meth:`RecoveryManager.state`), never decided on: no recovery or GC
    rule reads it.  Only the crash engine and :func:`build_sender_logs`
    call :meth:`flush`; the serve path never does, so every serve
    snapshot records ``stable_upto == 0``.
    """

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid
        self._messages: Dict[MessageId, Message] = {}
        self.stable_upto: int = 0

    def record(self, m: Message) -> None:
        if m.src != self.pid:
            raise ValueError(f"message {m.msg_id} was not sent by P{self.pid}")
        self._messages[m.msg_id] = m

    def flush(self, checkpoint_index: int) -> None:
        """Mark the log stable up to (the send interval of) a checkpoint."""
        self.stable_upto = max(self.stable_upto, checkpoint_index)

    def __len__(self) -> int:
        return len(self._messages)

    def __contains__(self, msg_id: object) -> bool:
        return msg_id in self._messages

    def __iter__(self) -> Iterator[MessageId]:
        return iter(self._messages)

    def lookup(self, msg_id: MessageId) -> Message:
        return self._messages[msg_id]

    def discard(self, msg_id: MessageId) -> None:
        """Forget ``msg_id`` if it is logged (a no-op otherwise)."""
        self._messages.pop(msg_id, None)

    def collect_garbage(self, history: History, floor: Mapping[ProcessId, int]) -> int:
        """Drop the messages :func:`reclaimable` says no future line needs.

        ``floor`` is the cut of an advanced recovery floor (see
        :func:`repro.recovery.gc.global_recovery_floor`).  Returns the
        number of messages dropped.
        """
        sent, delivered = history.send_interval, history.deliver_interval
        dead = [
            mid
            for mid, m in self._messages.items()
            if reclaimable(sent(m), delivered(m), floor[self.pid], floor[m.dst])
        ]
        for mid in dead:
            del self._messages[mid]
        return len(dead)


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


def build_sender_logs(history: History) -> Dict[ProcessId, SenderLog]:
    """Reconstruct every process's sender log from a recorded history."""
    logs = {pid: SenderLog(pid) for pid in range(history.num_processes)}
    for m in history.messages.values():
        logs[m.src].record(m)
    for pid in range(history.num_processes):
        logs[pid].flush(history.last_index(pid))
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
