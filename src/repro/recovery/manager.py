"""The online recovery manager: recovery lines from *live* state.

The paper's operational payoff is that under RDT a recovery line can be
determined **on-line**, from visible (piggybackable) dependency
information, at the instant a failure strikes -- no post-mortem analysis
of a finished history.  :class:`RecoveryManager` realises that: it
follows a running computation event by event (checkpoints, sends,
deliveries), maintaining

* a live :class:`~repro.graph.incremental.IncrementalRGraph` whose
  frontier nodes stand for every process's currently-open interval,
* one record per sent message and its intervals (a
  :class:`~repro.serve.session.ServeSession` reads it: :meth:`sent_message`),
* live per-process sender logs (the ids each process sent and still
  keeps), and
* the interval bookkeeping needed to turn a crash into a rollback.

At crash time, :meth:`crash` answers from that live state alone: the
recovery line (rollback propagation read off the incremental closure,
survivors bounded by their frontier, crashed processes by their last
taken checkpoint), the messages that cross it (the replay plan, served
from the sender logs), and the rollback metrics.  The differential suite
cross-checks every such answer against the offline
:func:`repro.recovery.recovery_line.recovery_line` fixpoint on the
closed prefix history.

Neither answer scans the history.  A closure row is a dependency vector
(per process, the first checkpoint reached), so the line is the
lane-wise min over the crashed frontiers' rows minus one, bounded above
by where each process stands -- O(n * |crashed|).  A message crossing a
cut is still in transit or was delivered above the cut, so the manager
keeps the in-transit records and, per receiver, the delivered records in
delivery order (intervals never decrease along one list): the plan
filters the former and walks each receiver's tail back to the cut, and
:meth:`rollback` pops those same tails -- O(in-transit + deliveries
undone).  Both indexes are derived from the records and stay out of
:meth:`state`.  The scans they replaced are the oracles of
``tests/test_online_vector_queries.py``.

:meth:`collect_garbage` runs the one log-GC rule,
:func:`~repro.recovery.logging.reclaimable`, online: messages are
reclaimed only when sent *and* delivered at or below the current
total-failure floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.events.event import Message
from repro.graph.incremental import IncrementalRGraph
from repro.recovery.logging import reclaimable
from repro.types import MessageId, ProcessId, RecoveryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.history import History
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer


@dataclass
class OnlineRecovery:
    """One crash handled online: the line, the plan, the damage."""

    time: float
    crashed: Tuple[ProcessId, ...]
    cut: Dict[ProcessId, int]
    bounds: Dict[ProcessId, int]
    events_undone: int
    rollback_depth: Dict[ProcessId, int]
    to_replay: List[MessageId] = field(default_factory=list)

    @property
    def max_depth(self) -> int:
        return max(self.rollback_depth.values(), default=0)

    @property
    def total_depth(self) -> int:
        return sum(self.rollback_depth.values())

    def __repr__(self) -> str:
        who = ",".join(f"P{p}" for p in self.crashed)
        return (
            f"<OnlineRecovery {who}@t={self.time:g} cut={self.cut} "
            f"undone={self.events_undone} replay={len(self.to_replay)}>"
        )


@dataclass
class OnlineGC:
    """One online garbage-collection pass over the sender logs."""

    floor: Dict[ProcessId, int]
    reclaimed_log_messages: int
    dropped: List[MessageId] = field(default_factory=list)


class _MessageRecord:
    """Live interval bookkeeping for one sent message."""

    __slots__ = ("message", "send_interval", "deliver_interval")

    def __init__(self, message: Message, send_interval: int) -> None:
        self.message = message
        self.send_interval = send_interval
        self.deliver_interval: Optional[int] = None


class RecoveryManager:
    """Follows a live run; answers recovery questions at crash time.

    Feed it with :meth:`on_checkpoint` / :meth:`on_send` /
    :meth:`on_deliver` in event order (the crash-injected replay engine
    in :mod:`repro.sim.crashes` does this; :meth:`from_history` replays
    a recorded history's feed for offline cross-checks).  After a
    rollback, the *same* events are fed again as the resumed execution
    re-runs them; the manager recognises re-taken checkpoints by index
    and the incremental closure absorbs re-inserted edges as no-ops, so
    by piecewise determinism the live graph always equals the graph of
    the current prefix.
    """

    def __init__(
        self,
        n: int,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.n = n
        self.rgraph = IncrementalRGraph(n, tracer=tracer, metrics=metrics)
        self.logs: Dict[ProcessId, Set[MessageId]] = {pid: set() for pid in range(n)}
        self.tracer = tracer
        self.metrics = metrics
        self._records: Dict[MessageId, _MessageRecord] = {}
        # The replay-plan indexes (derived from ``_records``, never
        # snapshotted): what is still in transit, and per receiver what
        # was delivered, in delivery order -- deliver intervals along
        # one list never decrease, so the deliveries above any cut are
        # a tail of it.
        self._in_transit: Dict[MessageId, _MessageRecord] = {}
        self._delivered_to: List[List[_MessageRecord]] = [[] for _ in range(n)]
        # Events recorded per process, and the running count at the
        # moment each checkpoint (index-aligned, incl. the checkpoint
        # event itself) was taken.  Initial checkpoints count as one
        # event, mirroring the recorder/History convention.
        self._event_count: List[int] = [1] * n
        self._count_at_ckpt: List[List[int]] = [[1] for _ in range(n)]
        #: Every message id ever dropped by online GC (for safety audits).
        self.gc_dropped: Set[MessageId] = set()

    # ------------------------------------------------------------------
    # live feed
    # ------------------------------------------------------------------
    def last_taken(self, pid: ProcessId) -> int:
        """Index of ``pid``'s last taken (stable) checkpoint."""
        return len(self._count_at_ckpt[pid]) - 1

    def open_events(self, pid: ProcessId) -> int:
        """Events in ``pid``'s currently-open interval (volatile tail)."""
        return self._event_count[pid] - self._count_at_ckpt[pid][-1]

    def on_checkpoint(self, pid: ProcessId, index: int, t: float = 0.0) -> None:
        """``pid`` took checkpoint ``index`` (its next, or a re-take).

        A re-execution after rollback re-takes checkpoints the graph has
        already seen; those update the bookkeeping but not the graph.
        """
        expected = self.last_taken(pid) + 1
        if index != expected:
            raise RecoveryError(
                f"P{pid} took checkpoint {index}, expected {expected}"
            )
        self._event_count[pid] += 1
        self._count_at_ckpt[pid].append(self._event_count[pid])
        if index > self.rgraph.last_index(pid):
            self.rgraph.take_checkpoint(pid, t=t)

    def on_send(self, message: Message, t: float = 0.0) -> None:
        """``message`` was just sent: log it, remember its interval."""
        send_interval = self.last_taken(message.src) + 1
        record = _MessageRecord(message, send_interval)
        self._records[message.msg_id] = self._in_transit[message.msg_id] = record
        self.logs[message.src].add(message.msg_id)
        self._event_count[message.src] += 1

    def sent_message(self, msg_id: MessageId) -> Optional[Message]:
        """The message sent as ``msg_id``, or ``None`` if none was."""
        record = self._records.get(msg_id)
        return None if record is None else record.message

    def on_deliver(self, message: Message, t: float = 0.0) -> None:
        """``message`` was just delivered: hook its R-graph edge.

        ``KeyError`` for a message never sent or not in transit any more.
        """
        record = self._in_transit.pop(message.msg_id)
        deliver_interval = self.last_taken(message.dst) + 1
        record.deliver_interval = deliver_interval
        self._delivered_to[message.dst].append(record)
        self._event_count[message.dst] += 1
        self.rgraph.observe_delivery(
            message.src, record.send_interval, message.dst, deliver_interval, t=t
        )

    @classmethod
    def from_history(
        cls,
        history: "History",
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> "RecoveryManager":
        """Replay a recorded history's feed in time order.

        FINAL checkpoints are *not* fed: they are the closure's stand-in
        for open intervals, which the live manager represents by its
        frontier state.
        """
        from repro.events.event import CheckpointKind

        manager = cls(history.num_processes, tracer=tracer, metrics=metrics)
        for event in history.events_by_time():
            if event.is_checkpoint:
                if (
                    event.checkpoint_index == 0
                    or event.checkpoint_kind is CheckpointKind.FINAL
                ):
                    continue
                manager.on_checkpoint(event.pid, event.checkpoint_index, event.time)
            elif event.is_send:
                manager.on_send(history.message(event.msg_id), event.time)
            elif event.is_deliver:
                manager.on_deliver(history.message(event.msg_id), event.time)
        return manager

    # ------------------------------------------------------------------
    # online answers
    # ------------------------------------------------------------------
    def _bounds(self, crashed: Set[ProcessId]) -> Dict[ProcessId, int]:
        """Rollback upper bounds: crashed at their last stable
        checkpoint, survivors at their frontier (volatile state kept)."""
        bounds: Dict[ProcessId, int] = {}
        for pid in range(self.n):
            last = self.last_taken(pid)
            if pid in crashed:
                bounds[pid] = last
            else:
                bounds[pid] = last + 1 if self.open_events(pid) else last
        return bounds

    def online_recovery_line(
        self, crashed: Sequence[ProcessId]
    ) -> Dict[ProcessId, int]:
        """The recovery line, from the live graph alone.

        Wang's rollback propagation read off the incremental closure:
        the rollback sources are the *frontier* nodes of crashed
        processes with a volatile tail (their open interval is exactly
        what the crash destroys); entry ``j`` of the line is the largest
        ``y <= bound[j]`` no source R-reaches strictly.  What a source
        reaches on a process is a suffix of it (succession edges), so
        that is the lane-wise min of the bound and each source's
        earliest-reached index minus one -- O(n * |crashed|), a read of
        the sources' dependency vectors.  A survivor entry equal to
        ``last_taken + 1`` means "keep the volatile state, do not roll
        back at all".
        """
        crashed_set = set(crashed)
        cut = self._bounds(crashed_set)
        rgraph = self.rgraph
        for source in crashed_set:
            if not self.open_events(source):
                continue
            reached = rgraph.earliest_reached(rgraph.frontier(source))
            for pid, first in reached.items():
                if first <= cut[pid]:
                    cut[pid] = max(first - 1, 0)
        return cut

    def replay_plan_ids(self, cut: Dict[ProcessId, int]) -> List[MessageId]:
        """Messages crossing ``cut``: sent at/below, not delivered at/below.

        Such a message is either still in transit or was delivered above
        the cut, i.e. sits at the tail of its receiver's delivery list:
        O(in-transit + deliveries the cut undoes), not O(messages).
        """
        out = [
            mid
            for mid, record in self._in_transit.items()
            if record.send_interval <= cut[record.message.src]
        ]
        for dst, delivered in enumerate(self._delivered_to):
            line = cut[dst]
            for record in reversed(delivered):
                if record.deliver_interval <= line:
                    break
                if record.send_interval <= cut[record.message.src]:
                    out.append(record.message.msg_id)
        return sorted(out)

    def crash(self, pids: Sequence[ProcessId], t: float = 0.0) -> OnlineRecovery:
        """Handle the simultaneous failure of ``pids`` at time ``t``.

        Computes the line and the plan from live state and verifies the
        plan is fully served by the sender logs -- the call that an
        unsafe log GC makes fail.  The caller performs the actual
        rollback (:meth:`rollback` plus its own recorder/protocol state).
        """
        cut = self.online_recovery_line(pids)
        bounds = self._bounds(set(pids))
        undone = 0
        depth: Dict[ProcessId, int] = {}
        for pid in range(self.n):
            last = self.last_taken(pid)
            if cut[pid] > last:  # survivor keeping its volatile state
                depth[pid] = 0
                continue
            depth[pid] = last - cut[pid]
            undone += self._event_count[pid] - self._count_at_ckpt[pid][cut[pid]]
        plan = self.replay_plan_ids(cut)
        for mid in plan:
            src = self._records[mid].message.src
            if mid not in self.logs[src]:
                raise RecoveryError(
                    f"message m{mid} crosses the recovery line but is gone "
                    f"from P{src}'s sender log (unsafely garbage-collected?)"
                )
        return OnlineRecovery(
            time=t,
            crashed=tuple(sorted(set(pids))),
            cut=cut,
            bounds=bounds,
            events_undone=undone,
            rollback_depth=depth,
            to_replay=plan,
        )

    def rollback(self, cut: Dict[ProcessId, int]) -> None:
        """Roll the manager's bookkeeping back to ``cut``.

        The live graph is *not* rolled back: the resumed execution
        re-takes the same checkpoints and re-inserts the same edges
        (piecewise determinism), so its closure stays exact.  Deliveries
        above the cut revert to in-transit (popped off their receiver's
        tail), then messages sent above the cut are forgotten (their
        re-sends re-record them): O(in-transit + deliveries undone).
        ``cut`` must be consistent, as every recovery line is.
        """
        for pid in range(self.n):
            if cut[pid] > self.last_taken(pid):
                continue  # no rollback for this process
            del self._count_at_ckpt[pid][cut[pid] + 1 :]
            self._event_count[pid] = self._count_at_ckpt[pid][cut[pid]]
        in_transit = self._in_transit
        for dst, delivered in enumerate(self._delivered_to):
            line = cut[dst]
            while delivered and delivered[-1].deliver_interval > line:
                record = delivered.pop()
                record.deliver_interval = None
                in_transit[record.message.msg_id] = record
        # ``cut`` is consistent (a recovery line has no orphans), so a
        # message sent above it was delivered above it or not at all:
        # every dead send is in transit by now.
        dead_sends = [
            mid
            for mid, record in in_transit.items()
            if record.send_interval > cut[record.message.src]
        ]
        for mid in dead_sends:
            src = in_transit.pop(mid).message.src
            del self._records[mid]
            self.logs[src].discard(mid)

    # ------------------------------------------------------------------
    # online garbage collection (the safe rule, live)
    # ------------------------------------------------------------------
    def recovery_floor(self) -> Dict[ProcessId, int]:
        """The online total-failure line: every process crashed now."""
        return self.online_recovery_line(list(range(self.n)))

    def collect_garbage(self) -> OnlineGC:
        """Trim the sender logs at the current floor with
        :func:`~repro.recovery.logging.reclaimable`, so every future
        :meth:`crash` can still serve its replay plan."""
        floor = self.recovery_floor()
        dropped: List[MessageId] = []
        for mid, record in self._records.items():
            src, dst = record.message.src, record.message.dst
            if mid in self.logs[src] and reclaimable(
                record.send_interval, record.deliver_interval, floor[src], floor[dst]
            ):
                self.logs[src].discard(mid)
                dropped.append(mid)
        self.gc_dropped.update(dropped)
        if self.metrics is not None:
            self.metrics.inc("recovery.gc_reclaimed", len(dropped))
        return OnlineGC(
            floor=floor,
            reclaimed_log_messages=len(dropped),
            dropped=sorted(dropped),
        )

    # ------------------------------------------------------------------
    # snapshot (hashed by ``repro.serve.snapshots``; restore replays the log)
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """A JSON-safe snapshot of the whole live state.

        Messages serialise once (under ``records``, together with their
        interval bookkeeping); sender-log membership is stored by id.
        The integrity digest of ``repro.serve.snapshots`` hashes this
        document; restore replays the ingest log and must arrive at the
        same one.
        """
        records = [
            [
                int(mid),
                rec.message.src,
                rec.message.dst,
                rec.message.send_seq,
                rec.message.size,
                rec.send_interval,
                rec.deliver_interval,
            ]
            for mid, rec in sorted(self._records.items())
        ]
        return {
            "n": self.n,
            "rgraph": self.rgraph.state(),
            "records": records,
            "event_count": list(self._event_count),
            "count_at_ckpt": [list(counts) for counts in self._count_at_ckpt],
            "logs": {str(pid): sorted(log) for pid, log in self.logs.items()},
            "gc_dropped": sorted(self.gc_dropped),
        }

    def __repr__(self) -> str:
        logged = sum(len(log) for log in self.logs.values())
        return (
            f"<RecoveryManager n={self.n} "
            f"ckpts={[self.last_taken(p) for p in range(self.n)]} "
            f"logged={logged}>"
        )
