"""Recording histories step by step, and hand-crafting patterns.

:class:`Recorder` is the one place a :class:`History` is built event by
event: protocol replay, the crash engine and the live Chandy-Lamport
runner all record through it.  :class:`PatternBuilder` is a tiny
imperative DSL over it, used throughout the test suite to reconstruct
the paper's figures event by event::

    b = PatternBuilder(3)            # processes P0, P1, P2
    m1 = b.send(0, 1)                # P0 sends m1 to P1
    b.checkpoint(1)                  # P1 takes C(1,1)
    b.deliver(m1)                    # m1 arrives at P1 (now in I(1,2))
    h = b.build()

Operations are appended in program order; each gets the next logical
timestamp, so the global time order equals the order of the calls.  A
delivery may only be issued after the corresponding send, which makes any
built history causally consistent by construction.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.events.event import CheckpointKind, Event, EventKind, Message
from repro.events.history import History
from repro.events.validate import validate_history
from repro.types import MessageId, PatternError, ProcessId

#: Minimal spacing between consecutive events of one process; recorded
#: times are macroscopic (O(0.01+)) so nudges never reorder anything.
_EPS = 1e-9


class Recorder:
    """Accumulates per-process event lists with strictly increasing times.

    ``sizes`` maps each message id to its size and is read at
    :meth:`record_send`; callers may keep filling it as they go.  No
    event is recorded on construction: callers record their own initial
    checkpoints, at the time they choose.
    """

    def __init__(self, n: int, sizes: Dict[MessageId, int]) -> None:
        self.n = n
        self.events: List[List[Event]] = [[] for _ in range(n)]
        self.messages: Dict[MessageId, Message] = {}
        self._sizes = sizes
        self._ckpt_index = [0] * n
        self._last_time = [-1.0] * n

    def _time_for(self, pid: ProcessId, requested: float) -> float:
        time = max(requested, self._last_time[pid] + _EPS)
        self._last_time[pid] = time
        return time

    def _append(self, pid: ProcessId, kind: EventKind, time: float, **fields) -> Event:
        ev = Event(
            pid=pid,
            seq=len(self.events[pid]),
            kind=kind,
            time=self._time_for(pid, time),
            **fields,
        )
        self.events[pid].append(ev)
        return ev

    def record_checkpoint(self, pid: int, time: float, kind: CheckpointKind) -> Event:
        if kind is CheckpointKind.INITIAL:
            index = 0
        else:
            self._ckpt_index[pid] += 1
            index = self._ckpt_index[pid]
        return self._append(
            pid,
            EventKind.CHECKPOINT,
            time,
            checkpoint_index=index,
            checkpoint_kind=kind,
        )

    def record_internal(self, pid: int, time: float) -> Event:
        return self._append(pid, EventKind.INTERNAL, time)

    def record_send(self, pid: int, dst: int, msg: int, time: float) -> Event:
        ev = self._append(pid, EventKind.SEND, time, msg_id=msg)
        self.messages[msg] = Message(
            msg_id=msg, src=pid, dst=dst, send_seq=ev.seq, size=self._sizes[msg]
        )
        return ev

    def record_deliver(self, pid: int, sender: int, msg: int, time: float) -> Event:
        m = self.messages[msg]
        ev = self._append(pid, EventKind.DELIVER, time, msg_id=msg)
        # Built directly, not with dataclasses.replace (about 1.6x slower
        # per call): this runs once per delivery on the replay path.
        self.messages[msg] = Message(
            msg_id=m.msg_id,
            src=m.src,
            dst=m.dst,
            send_seq=m.send_seq,
            deliver_seq=ev.seq,
            size=m.size,
        )
        return ev

    def snapshot(self, pid: ProcessId) -> tuple:
        """Opaque restore token for ``pid``'s current recorded state."""
        return (len(self.events[pid]), self._ckpt_index[pid], self._last_time[pid])

    def restore(self, pid: ProcessId, snap: tuple) -> List[Event]:
        """Roll ``pid`` back to a :meth:`snapshot`; returns the undone events.

        Sends after the snapshot are forgotten (their re-execution
        re-records them identically); deliveries after it revert the
        message to in-transit.  Restoring ``_last_time`` is what makes a
        piecewise-deterministic re-execution reproduce byte-identical
        event times.
        """
        n_events, ckpt_index, last_time = snap
        undone = self.events[pid][n_events:]
        del self.events[pid][n_events:]
        self._ckpt_index[pid] = ckpt_index
        self._last_time[pid] = last_time
        for ev in undone:
            if ev.is_send:
                del self.messages[ev.msg_id]
            elif ev.is_deliver:
                # The send side may already be undone (both endpoints
                # rolled back): then there is no entry left to revert.
                m = self.messages.get(ev.msg_id)
                if m is not None:
                    self.messages[ev.msg_id] = replace(m, deliver_seq=None)
        return undone

    def build(self, close: bool) -> History:
        """The recorded (validated) history; ``close=True`` appends FINAL
        checkpoints to open intervals (see :meth:`History.closed`)."""
        history = History(self.events, self.messages)
        if close:
            history = history.closed()
        validate_history(history)
        return history


class PatternBuilder:
    """Incrementally build a :class:`History`.

    Parameters
    ----------
    n:
        Number of processes.  Initial checkpoints ``C(i, 0)`` are created
        automatically, one logical tick each.
    """

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise PatternError("need at least one process")
        self._time = 0.0
        self._sizes: Dict[MessageId, int] = {}
        self._recorder = Recorder(n, self._sizes)
        for pid in range(n):
            self._recorder.record_checkpoint(
                pid, self._next_time(), CheckpointKind.INITIAL
            )

    # ------------------------------------------------------------------
    @property
    def num_processes(self) -> int:
        return self._recorder.n

    def _next_time(self) -> float:
        self._time += 1.0
        return self._time

    def _check_pid(self, pid: ProcessId) -> None:
        if not 0 <= pid < self._recorder.n:
            raise PatternError(f"no such process: {pid}")

    # ------------------------------------------------------------------
    # DSL operations
    # ------------------------------------------------------------------
    def internal(self, pid: ProcessId) -> Event:
        """Append an internal event at ``pid``."""
        self._check_pid(pid)
        return self._recorder.record_internal(pid, self._next_time())

    def send(self, src: ProcessId, dst: ProcessId, size: int = 1) -> MessageId:
        """Append a send event at ``src`` for a new message to ``dst``."""
        self._check_pid(dst)
        if src == dst:
            raise PatternError("a process does not send messages to itself")
        self._check_pid(src)
        msg_id = len(self._sizes)
        self._sizes[msg_id] = size
        self._recorder.record_send(src, dst, msg_id, self._next_time())
        return msg_id

    def deliver(self, msg_id: MessageId) -> Event:
        """Append the delivery event of a previously sent message."""
        m = self._recorder.messages.get(msg_id)
        if m is None:
            raise PatternError(f"unknown message {msg_id}")
        if m.deliver_seq is not None:
            raise PatternError(f"message {msg_id} already delivered")
        return self._recorder.record_deliver(m.dst, m.src, msg_id, self._next_time())

    def transmit(self, src: ProcessId, dst: ProcessId, size: int = 1) -> MessageId:
        """Send and immediately deliver a message (a causal chain of one)."""
        msg_id = self.send(src, dst, size=size)
        self.deliver(msg_id)
        return msg_id

    def checkpoint(
        self, pid: ProcessId, kind: CheckpointKind = CheckpointKind.BASIC
    ) -> int:
        """Append a checkpoint at ``pid``; returns its index."""
        self._check_pid(pid)
        ev = self._recorder.record_checkpoint(pid, self._next_time(), kind)
        return ev.checkpoint_index

    def checkpoint_all(self) -> None:
        """Take one checkpoint on every process (e.g. to close a pattern)."""
        for pid in range(self._recorder.n):
            self.checkpoint(pid)

    # ------------------------------------------------------------------
    def build(self, close: bool = False) -> History:
        """Freeze the pattern into a validated :class:`History`.

        ``close=True`` appends FINAL checkpoints to any process whose last
        interval contains events and drops in-transit messages, producing a
        closed history suitable for whole-pattern analyses.
        """
        return self._recorder.build(close)


def figure1_pattern() -> History:
    """The checkpoint and communication pattern of the paper's Figure 1a.

    Three processes ``i=0, j=1, k=2``; checkpoints ``C(i,0..3)``,
    ``C(j,0..3)``, ``C(k,0..3)`` and messages ``m1..m7`` (ids 0..6 here).
    The figure fixes, in particular:

    * ``m1``: ``I(i,1) -> I(j,1)``; ``m2``: ``I(j,1) -> I(i,2)``
    * ``m3``: ``I(k,1) -> I(j,1)``; ``m4``: ``I(j,2) -> I(k,2)``
    * ``m5``: ``I(i,3) -> I(j,2)`` (orphan w.r.t. ``(C(i,2), C(j,2))``)
    * ``m6``: ``I(j,3) -> I(k,2)``; ``m7``: ``I(k,3) -> I(j,3)``

    It exhibits the non-causal chain ``[m5, m4]`` with causal sibling
    ``[m5, m6]`` and the non-causal chain ``[m3, m2]`` from ``C(k,1)`` to
    ``C(i,2)``.
    """
    i, j, k = 0, 1, 2
    b = PatternBuilder(3)
    # Interval 1 activity.  send(m2) precedes deliver(m3) at P_j, so the
    # junction m3 -> m2 is non-causal (both in I(j,1)): [m3, m2] is a
    # non-causal chain from C(k,1) to C(i,2).
    m1 = b.send(i, j)
    b.deliver(m1)
    m2 = b.send(j, i)
    m3 = b.send(k, j)
    b.deliver(m3)
    # First checkpoints.
    b.checkpoint(i)  # C(i,1)
    b.checkpoint(j)  # C(j,1)
    b.checkpoint(k)  # C(k,1)
    # Interval 2 activity.  send(m4) precedes deliver(m5) at P_j, so
    # [m5, m4] is non-causal; [m5, m6] is its causal sibling.
    b.deliver(m2)  # m2 arrives at i in I(i,2): junction m2 -> m5 is causal
    b.checkpoint(i)  # C(i,2)
    m5 = b.send(i, j)  # sent in I(i,3)
    m4 = b.send(j, k)  # sent in I(j,2), before deliver(m5)
    b.deliver(m5)  # delivered at j in I(j,2): orphan w.r.t. (C(i,2), C(j,2))
    b.checkpoint(j)  # C(j,2)
    m6 = b.send(j, k)  # sent in I(j,3), after deliver(m5): causal sibling
    b.deliver(m4)  # both delivered at k in I(k,2)
    b.deliver(m6)
    b.checkpoint(k)  # C(k,2)
    m7 = b.send(k, j)  # sent in I(k,3)
    b.deliver(m7)  # delivered at j in I(j,3): junction m4 -> m7 is causal
    b.checkpoint(i)  # C(i,3)
    b.checkpoint(j)  # C(j,3)
    b.checkpoint(k)  # C(k,3)
    history = b.build()
    # Expose the figure's message names for tests: m1..m7 -> ids.
    history.figure_names = {  # type: ignore[attr-defined]
        "m1": m1, "m2": m2, "m3": m3, "m4": m4, "m5": m5, "m6": m6, "m7": m7,
    }
    return history
