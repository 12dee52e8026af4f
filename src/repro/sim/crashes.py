"""Crash-injected replay: online recovery around the protocol fold.

:func:`replay_with_recovery` is :func:`repro.sim.replay.replay` with a
fault model.  It folds a protocol family over the same
protocol-independent trace, but a :class:`~repro.sim.faults.CrashSchedule`
interrupts the fold: at each scheduled instant the named processes lose
their volatile state, and an *online* recovery is carried out against the
live bookkeeping of a :class:`~repro.recovery.manager.RecoveryManager` --
the recovery line read off the live incremental R-graph, the crossing
messages checked against the live sender logs, the rollback applied to
the actual recorder/protocol state, and the lost suffix re-executed.

Because the computation is piecewise deterministic (each process's
behaviour is a function of its state and its inputs, and the replayed
messages carry the original contents), the re-execution reproduces the
pre-crash events *exactly* -- same checkpoints, same piggybacks, same
event times -- so a crash-injected run converges back onto the crash-free
history.  The engine exploits this twice:

* the live R-graph is **not** rolled back -- re-execution re-inserts the
  same nodes and edges, which the incremental closure absorbs as no-ops,
  so the graph always equals the graph of the current prefix;
* the final history of a crash-injected run equals the crash-free
  history of the same trace, which the differential tests assert.

Every crash is cross-checked (``cross_check=True``) against the offline
:func:`repro.recovery.recovery_line.recovery_line` fixpoint on the
closed prefix history -- the paper's claim that RDT makes the *visible*
(online) determination agree with the global (offline) one, executed on
every injected failure.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.analysis.metrics import RunMetrics
from repro.core.piggyback import Piggyback
from repro.core.protocol import CheckpointProtocol, ProtocolFamily
from repro.events.event import CheckpointKind
from repro.events.history import History
from repro.obs.profile import NULL_PROFILER
from repro.recovery.failure import CrashSpec
from repro.recovery.manager import OnlineRecovery, RecoveryManager
from repro.recovery.recovery_line import recovery_line
from repro.sim.faults import CrashSchedule
from repro.sim.replay import apply_op, finish_fold, trace_recorder
from repro.sim.trace import Trace, TraceOp, TraceOpKind
from repro.types import MessageId, ProcessId, RecoveryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import Profiler
    from repro.obs.tracer import Tracer


@dataclass
class CrashRecord:
    """One injected crash group, fully recovered."""

    online: OnlineRecovery
    offline_cut: Optional[Dict[ProcessId, int]]
    events_reexecuted: int

    @property
    def time(self) -> float:
        return self.online.time

    @property
    def crashed(self) -> Tuple[ProcessId, ...]:
        return self.online.crashed

    @property
    def messages_replayed(self) -> int:
        return len(self.online.to_replay)

    def __repr__(self) -> str:
        return (
            f"<CrashRecord {self.online!r} reexec={self.events_reexecuted}>"
        )


@dataclass
class RecoveryReplayResult:
    """Outcome of one crash-injected protocol replay."""

    protocol_name: str
    history: History
    family: ProtocolFamily
    metrics: RunMetrics
    crashes: List[CrashRecord]
    manager: RecoveryManager
    schedule: CrashSchedule

    @property
    def total_events_undone(self) -> int:
        return sum(c.online.events_undone for c in self.crashes)

    @property
    def total_messages_replayed(self) -> int:
        return sum(c.messages_replayed for c in self.crashes)

    @property
    def max_rollback_depth(self) -> int:
        return max((c.online.max_depth for c in self.crashes), default=0)

    @property
    def total_rollback_depth(self) -> int:
        return sum(c.online.total_depth for c in self.crashes)

    def __repr__(self) -> str:
        return (
            f"<RecoveryReplayResult {self.protocol_name}: "
            f"crashes={len(self.crashes)} undone={self.total_events_undone} "
            f"replayed={self.total_messages_replayed}>"
        )


@dataclass
class _Snapshot:
    """Stable storage of one process at one checkpoint.

    ``gidx`` is the index (into the consumed-op list) of the trace op
    during whose processing the checkpoint was taken; ``-1`` for the
    initial checkpoint.  When that op is a delivery, the checkpoint was
    forced *before* it: the snapshot state excludes the delivery, so
    re-execution from it must first re-apply the delivery half of op
    ``gidx`` (without re-running the forcing predicate -- the checkpoint
    is already part of the restored state).
    """

    proto: CheckpointProtocol
    recorder: tuple
    gidx: int


class _CrashEngine:
    """The crash-injected fold (see module docstring), and the sink of
    its family's steps."""

    def __init__(
        self,
        trace: Trace,
        protocol_factory: Callable[[ProcessId, int], CheckpointProtocol],
        schedule: CrashSchedule,
        cross_check: bool,
        gc_every_ops: Optional[int],
        tracer: Optional["Tracer"],
        metrics: Optional["MetricsRegistry"],
    ) -> None:
        self.trace = trace
        self.n = trace.n
        self.schedule = schedule
        self.cross_check = cross_check
        self.gc_every_ops = gc_every_ops
        self.tracer = tracer
        self.metrics = metrics
        self.family = ProtocolFamily(protocol_factory, trace.n, tracer, metrics)
        self.recorder = trace_recorder(trace)
        # The manager gets no tracer: its live graph re-absorbs edges
        # during re-execution, and closure.* re-emissions would make the
        # trace depend on internal dedup details rather than the run.
        self.manager = RecoveryManager(trace.n, metrics=metrics)
        self.piggybacks: Dict[MessageId, Piggyback] = {}
        self.consumed: List[TraceOp] = []
        self.records: List[CrashRecord] = []
        #: Index into ``consumed`` of the op being applied (snapshot gidx).
        self._gidx = -1
        # Initial checkpoints C(p, 0) are stable from the start.
        self.snapshots: List[List[_Snapshot]] = [[] for _ in range(trace.n)]
        for pid in range(trace.n):
            self._take_snapshot(pid)

    # ------------------------------------------------------------------
    # the fold
    # ------------------------------------------------------------------
    def run(self) -> None:
        groups = self.schedule.groups()
        gi = 0
        for op in self.trace:
            while gi < len(groups) and groups[gi][0] <= op.time:
                self._handle_crash(*groups[gi])
                gi += 1
            self.consumed.append(op)
            self._apply_op(op, len(self.consumed) - 1)
            if (
                self.gc_every_ops
                and len(self.consumed) % self.gc_every_ops == 0
            ):
                self.manager.collect_garbage()
        while gi < len(groups):
            self._handle_crash(*groups[gi])
            gi += 1

    def _take_snapshot(self, pid: ProcessId) -> None:
        self.snapshots[pid].append(
            _Snapshot(
                proto=copy.deepcopy(self.family[pid]),
                recorder=self.recorder.snapshot(pid),
                gidx=self._gidx,
            )
        )

    def _apply_op(
        self, op: TraceOp, gidx: int, deliver_only: bool = False
    ) -> None:
        """One trace op, first execution and re-execution alike.

        ``deliver_only`` re-applies just the delivery half of an op whose
        forced-before-delivery checkpoint is part of the restored state.
        """
        self._gidx = gidx
        if not deliver_only:
            apply_op(self.family, op, self.piggybacks, self)
            return
        # The restored protocol state already took this arrival's forced
        # checkpoint, so the arrival step (predicate, then checkpoint)
        # must not run again: only its delivery half is left to do.
        self.family[op.pid].on_receive(self.piggybacks[op.msg_id], op.peer)
        self.record_deliver(op.pid, op.peer, op.msg_id, op.time)

    # -- the family's sink ---------------------------------------------
    def record_checkpoint(self, pid: int, time: float, kind: CheckpointKind) -> None:
        ev = self.recorder.record_checkpoint(pid, time, kind)
        assert ev.checkpoint_index is not None
        self.manager.on_checkpoint(pid, ev.checkpoint_index, ev.time)
        self._take_snapshot(pid)

    def record_send(self, pid: int, dst: int, msg: int, time: float) -> None:
        ev = self.recorder.record_send(pid, dst, msg, time)
        self.manager.on_send(self.recorder.messages[msg], ev.time)

    def record_deliver(self, pid: int, sender: int, msg: int, time: float) -> None:
        ev = self.recorder.record_deliver(pid, sender, msg, time)
        self.manager.on_deliver(self.recorder.messages[msg], ev.time)

    # ------------------------------------------------------------------
    # crash handling
    # ------------------------------------------------------------------
    def _handle_crash(self, t: float, pids: List[ProcessId]) -> None:
        tracer = self.tracer
        metrics = self.metrics
        if tracer:
            tracer.event("recovery.crash", t, crashed=sorted(pids))
        if metrics is not None:
            metrics.inc("recovery.crashes")
        online = self.manager.crash(pids, t)

        offline_cut: Optional[Dict[ProcessId, int]] = None
        if self.cross_check:
            offline_cut = self._offline_cross_check(online, pids)

        if tracer:
            tracer.event(
                "recovery.line",
                t,
                crashed=list(online.crashed),
                cut=[online.cut[p] for p in range(self.n)],
                bounds=[online.bounds[p] for p in range(self.n)],
                undone=online.events_undone,
                depth=[online.rollback_depth[p] for p in range(self.n)],
            )
        if metrics is not None:
            metrics.inc("recovery.events_undone", online.events_undone)
            metrics.inc("recovery.messages_replayed", len(online.to_replay))
            metrics.observe("recovery.rollback_depth", online.max_depth)

        reexec = self._rollback(online)
        for gidx, op, deliver_only in reexec:
            self._apply_op(op, gidx, deliver_only=deliver_only)

        if tracer:
            tracer.event(
                "recovery.replay",
                t,
                replayed=len(online.to_replay),
                reexecuted=len(reexec),
            )
        if metrics is not None:
            metrics.inc("recovery.ops_reexecuted", len(reexec))
        self.records.append(
            CrashRecord(
                online=online,
                offline_cut=offline_cut,
                events_reexecuted=len(reexec),
            )
        )

    def _offline_cross_check(
        self, online: OnlineRecovery, pids: List[ProcessId]
    ) -> Dict[ProcessId, int]:
        """The offline fixpoint on the closed prefix must agree."""
        prefix = History(self.recorder.events, self.recorder.messages).closed()
        offline = recovery_line(
            prefix, {pid: CrashSpec(pid) for pid in pids}
        )
        if dict(offline.cut) != online.cut:
            raise RecoveryError(
                f"online/offline recovery lines disagree at t={online.time}: "
                f"online={online.cut} offline={dict(offline.cut)}"
            )
        offline_plan = sorted(m.msg_id for m in offline.messages_to_replay)
        if offline_plan != online.to_replay:
            raise RecoveryError(
                f"online/offline replay plans disagree at t={online.time}: "
                f"online={online.to_replay} offline={offline_plan}"
            )
        return dict(offline.cut)

    def _rollback(
        self, online: OnlineRecovery
    ) -> List[Tuple[int, TraceOp, bool]]:
        """Restore every rolled-back process; return the re-execution list.

        The list holds ``(gidx, op, deliver_only)`` sorted by the ops'
        original global positions, so re-sends precede re-deliveries
        exactly as they did the first time.
        """
        cut = online.cut
        undone_events = 0
        reexec: List[Tuple[int, TraceOp, bool]] = []
        for pid in range(self.n):
            last = self.manager.last_taken(pid)
            if cut[pid] > last:
                continue  # survivor keeping its volatile state
            if cut[pid] == last and not self.manager.open_events(pid):
                continue  # already sitting exactly on its line checkpoint
            snap = self.snapshots[pid][cut[pid]]
            del self.snapshots[pid][cut[pid] + 1 :]
            # Restore a *copy*: the stored snapshot must stay pristine in
            # case a later crash rolls back to this checkpoint again.
            self.family.members[pid] = copy.deepcopy(snap.proto)
            undone_events += len(self.recorder.restore(pid, snap.recorder))
            if snap.gidx >= 0 and self.consumed[snap.gidx].kind is TraceOpKind.DELIVER:
                reexec.append((snap.gidx, self.consumed[snap.gidx], True))
            for i in range(snap.gidx + 1, len(self.consumed)):
                if self.consumed[i].pid == pid:
                    reexec.append((i, self.consumed[i], False))
        if undone_events != online.events_undone:
            raise RecoveryError(
                "internal inconsistency: recorder undid "
                f"{undone_events} events, online line predicted "
                f"{online.events_undone}"
            )
        self.manager.rollback(cut)
        reexec.sort(key=lambda item: item[0])
        return reexec


def replay_with_recovery(
    trace: Trace,
    protocol_factory: Callable[[ProcessId, int], CheckpointProtocol],
    schedule: CrashSchedule,
    close: bool = True,
    cross_check: bool = True,
    gc_every_ops: Optional[int] = None,
    tracer: Optional["Tracer"] = None,
    metrics: Optional["MetricsRegistry"] = None,
    profiler: Optional["Profiler"] = None,
) -> RecoveryReplayResult:
    """Replay ``trace`` under a protocol while injecting ``schedule``.

    Parameters beyond :func:`repro.sim.replay.replay`'s:

    ``schedule``
        The deterministic fault model; each crash group triggers one
        online recovery (line, rollback, log replay, re-execution).
    ``cross_check``
        Verify, at every crash, that the online recovery line and replay
        plan equal the offline fixpoint on the closed prefix history
        (raises :class:`repro.types.RecoveryError` on disagreement).
    ``gc_every_ops``
        If set, run the online sender-log garbage collector (safe
        both-sides rule) every that many consumed trace ops -- crashes
        then also exercise "replay after GC".

    Emits ``recovery.crash`` / ``recovery.line`` / ``recovery.replay``
    trace events and the ``recovery.*`` metric family.
    """
    profiler = profiler or NULL_PROFILER
    engine = _CrashEngine(
        trace,
        protocol_factory,
        schedule,
        cross_check=cross_check,
        gc_every_ops=gc_every_ops,
        tracer=tracer,
        metrics=metrics,
    )
    with profiler.phase("simulate"):
        engine.run()
    history, run_metrics = finish_fold(engine.recorder, engine.family, close, profiler)
    return RecoveryReplayResult(
        protocol_name=engine.family.name,
        history=history,
        family=engine.family,
        metrics=run_metrics,
        crashes=engine.records,
        manager=engine.manager,
        schedule=engine.schedule,
    )
