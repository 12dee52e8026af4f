"""Recorded checkpoint-and-communication patterns.

A :class:`History` is the pair (computation, set of local checkpoints) of
Definition 2.1 in the paper: per-process event sequences plus the message
relation.  It is the single input type of every analysis algorithm in
:mod:`repro.graph`, :mod:`repro.analysis` and :mod:`repro.recovery`, and
the output type of the simulator.

Interval conventions (see DESIGN.md section 4): interval ``I(i, x)`` is
the set of events strictly between ``C(i, x-1)`` and ``C(i, x)``; the
interval open at the end of the history has index ``last_index(i) + 1``.
``interval_of(event)`` maps any non-checkpoint event to the interval that
contains it, and a checkpoint event ``C(i, x)`` to ``x`` (the interval it
closes).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.events.event import CheckpointKind, Event, EventKind, Message
from repro.types import CheckpointId, MessageId, PatternError, ProcessId


class History:
    """An immutable recorded checkpoint and communication pattern.

    Construct one with :class:`repro.events.builder.PatternBuilder` (for
    hand-crafted patterns) or by running a simulation
    (:class:`repro.sim.simulation.Simulation`).  Direct construction takes
    fully-formed event lists and a message table and validates basic
    well-formedness; call :func:`repro.events.validate.validate_history`
    for the complete structural check.
    """

    def __init__(
        self,
        events: Sequence[Sequence[Event]],
        messages: Dict[MessageId, Message],
    ) -> None:
        self._events: List[Tuple[Event, ...]] = [tuple(seq) for seq in events]
        self._messages: Dict[MessageId, Message] = dict(messages)
        self._n = len(self._events)
        if self._n == 0:
            raise PatternError("a history needs at least one process")
        # Per-process sorted list of checkpoint event seqs, used by
        # interval_of (bisect) and checkpoints().
        self._ckpt_seqs: List[List[int]] = []
        self._ckpt_events: List[List[Event]] = []
        for pid, seq in enumerate(self._events):
            ckpts = [e for e in seq if e.is_checkpoint]
            self._ckpt_seqs.append([e.seq for e in ckpts])
            self._ckpt_events.append(ckpts)
            if not ckpts or ckpts[0].seq != 0 or ckpts[0].checkpoint_index != 0:
                raise PatternError(
                    f"process {pid} must start with initial checkpoint C({pid},0)"
                )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_processes(self) -> int:
        return self._n

    def events(self, pid: ProcessId) -> Tuple[Event, ...]:
        """The full event sequence of one process."""
        return self._events[pid]

    def event(self, pid: ProcessId, seq: int) -> Event:
        return self._events[pid][seq]

    def all_events(self) -> Iterator[Event]:
        """All events of all processes, grouped by process."""
        for seq in self._events:
            yield from seq

    def events_by_time(self) -> List[Event]:
        """All events sorted by ``(time, pid, seq)``.

        Histories guarantee that a send's time is strictly smaller than the
        matching delivery's, so this order is consistent with causality and
        is safe for single-pass vector-clock computations.
        """
        return sorted(self.all_events(), key=lambda e: (e.time, e.pid, e.seq))

    @property
    def messages(self) -> Dict[MessageId, Message]:
        return dict(self._messages)

    def message(self, msg_id: MessageId) -> Message:
        return self._messages[msg_id]

    def num_messages(self) -> int:
        return len(self._messages)

    def delivered_messages(self) -> Iterator[Message]:
        for m in self._messages.values():
            if m.delivered:
                yield m

    def in_transit_messages(self) -> Iterator[Message]:
        for m in self._messages.values():
            if not m.delivered:
                yield m

    # ------------------------------------------------------------------
    # checkpoints and intervals
    # ------------------------------------------------------------------
    def checkpoints(self, pid: ProcessId) -> Tuple[Event, ...]:
        """Checkpoint events of ``pid`` in index order (starting at 0)."""
        return tuple(self._ckpt_events[pid])

    def checkpoint_event(self, cid: CheckpointId) -> Event:
        try:
            return self._ckpt_events[cid.pid][cid.index]
        except IndexError:
            raise PatternError(f"{cid} does not exist") from None

    def has_checkpoint(self, cid: CheckpointId) -> bool:
        return 0 <= cid.pid < self._n and 0 <= cid.index <= self.last_index(cid.pid)

    def last_index(self, pid: ProcessId) -> int:
        """Index of the last checkpoint taken by ``pid``."""
        return len(self._ckpt_seqs[pid]) - 1

    def checkpoint_ids(self) -> Iterator[CheckpointId]:
        """All checkpoints of all processes, in ``(pid, index)`` order."""
        for pid in range(self._n):
            for index in range(self.last_index(pid) + 1):
                yield CheckpointId(pid, index)

    def num_checkpoints(self) -> int:
        return sum(self.last_index(pid) + 1 for pid in range(self._n))

    def checkpoint_counts(self, kind: CheckpointKind) -> List[int]:
        """Per-process count of checkpoints of one :class:`CheckpointKind`."""
        return [
            sum(1 for e in self._ckpt_events[pid] if e.checkpoint_kind is kind)
            for pid in range(self._n)
        ]

    def interval_of(self, event: Event) -> int:
        """Index of the checkpoint interval containing ``event``.

        A checkpoint event ``C(i, x)`` maps to ``x`` (the interval it
        closes); any other event maps to the number of checkpoints of the
        process that precede it, which by construction is the index of the
        next checkpoint to be taken.
        """
        if event.is_checkpoint:
            return event.checkpoint_index  # type: ignore[return-value]
        return bisect_right(self._ckpt_seqs[event.pid], event.seq)

    def open_interval(self, pid: ProcessId) -> int:
        """Index of the interval left open at the end of the history."""
        return self.last_index(pid) + 1

    def has_open_events(self, pid: ProcessId) -> bool:
        """True if events follow the last checkpoint of ``pid``."""
        return self._events[pid][-1].seq > self._ckpt_seqs[pid][-1]

    def is_closed(self) -> bool:
        """True if every process ends with a checkpoint -- i.e. every
        interval that contains events is closed by a checkpoint.  Analyses
        that quantify over R-paths want closed histories (see
        :meth:`closed`).  Messages still in transit are fine: lacking a
        delivery event, they induce no checkpoint dependencies."""
        return not any(self.has_open_events(pid) for pid in range(self._n))

    def closed(self) -> "History":
        """Return a closed copy of this history.

        A FINAL checkpoint is appended to every process whose last
        interval contains events.  This realizes the paper's liveness
        assumption that "after each event a checkpoint will eventually be
        taken" on a finite prefix.  Undelivered messages are kept (their
        send events are part of the computation) but create no
        dependencies.
        """
        if self.is_closed():
            return self
        max_time = max(e.time for e in self.all_events())
        new_events: List[List[Event]] = []
        for pid in range(self._n):
            seq_list = list(self._events[pid])
            if self.has_open_events(pid):
                seq_list.append(
                    Event(
                        pid=pid,
                        seq=len(seq_list),
                        kind=EventKind.CHECKPOINT,
                        time=max_time + 1.0 + pid * 1e-6,
                        checkpoint_index=self.last_index(pid) + 1,
                        checkpoint_kind=CheckpointKind.FINAL,
                    )
                )
            new_events.append(seq_list)
        return History(new_events, self._messages)

    # ------------------------------------------------------------------
    # message/interval cross-references
    # ------------------------------------------------------------------
    def send_event(self, m: Message) -> Event:
        return self._events[m.src][m.send_seq]

    def deliver_event(self, m: Message) -> Optional[Event]:
        if m.deliver_seq is None:
            return None
        return self._events[m.dst][m.deliver_seq]

    def send_interval(self, m: Message) -> int:
        """Interval index ``x`` such that ``send(m)`` belongs to ``I(src, x)``.

        A send is never a checkpoint, so this is :meth:`interval_of` of
        the send event, read off its seq without fetching the event.
        """
        return bisect_right(self._ckpt_seqs[m.src], m.send_seq)

    def deliver_interval(self, m: Message) -> Optional[int]:
        if m.deliver_seq is None:
            return None
        return bisect_right(self._ckpt_seqs[m.dst], m.deliver_seq)

    def messages_sent_in(self, pid: ProcessId, interval: int) -> List[Message]:
        return [
            m
            for m in self._messages.values()
            if m.src == pid and self.send_interval(m) == interval
        ]

    def messages_delivered_in(self, pid: ProcessId, interval: int) -> List[Message]:
        return [
            m
            for m in self._messages.values()
            if m.dst == pid and m.delivered and self.deliver_interval(m) == interval
        ]

    def messages_between(self, src: ProcessId, dst: ProcessId) -> List[Message]:
        return [m for m in self._messages.values() if m.src == src and m.dst == dst]

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def restrict_events(self, cut: Dict[ProcessId, int]) -> Iterator[Event]:
        """Events surviving a rollback to checkpoint indices ``cut``.

        ``cut[pid]`` is a checkpoint index; the surviving events of ``pid``
        are those up to and including ``C(pid, cut[pid])``.
        """
        for pid in range(self._n):
            limit = self._ckpt_seqs[pid][cut[pid]]
            for e in self._events[pid]:
                if e.seq > limit:
                    break
                yield e

    def __repr__(self) -> str:
        nev = sum(len(seq) for seq in self._events)
        return (
            f"<History n={self._n} events={nev} "
            f"messages={len(self._messages)} checkpoints={self.num_checkpoints()}>"
        )


def merge_event_counts(histories: Iterable[History]) -> Dict[str, int]:
    """Aggregate simple counts over several histories (reporting helper)."""
    totals = {"events": 0, "messages": 0, "checkpoints": 0}
    for h in histories:
        totals["events"] += sum(len(h.events(p)) for p in range(h.num_processes))
        totals["messages"] += h.num_messages()
        totals["checkpoints"] += h.num_checkpoints()
    return totals
