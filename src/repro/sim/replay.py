"""Replaying a trace under a checkpointing protocol.

Folds one protocol family (one instance per process) over a
protocol-independent trace, producing the recorded
:class:`repro.events.history.History` -- sends and deliveries verbatim,
basic checkpoints verbatim, plus the protocol's forced checkpoints
inserted immediately before the deliveries (or after the sends, for
checkpoint-after-send protocols) that triggered them.

Because the trace is shared, replaying it under several protocols is the
exact analogue of the paper's simulation study: identical communication
pattern, identical basic checkpoints, only the forced checkpoints
differ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.analysis.metrics import RunMetrics, metrics_from_history
from repro.obs.profile import NULL_PROFILER
from repro.core.piggyback import Piggyback
from repro.core.protocol import CheckpointProtocol, ProtocolFamily
from repro.events.event import CheckpointKind, Event, EventKind, Message
from repro.events.history import History
from repro.events.validate import validate_history
from repro.sim.trace import Trace, TraceOp, TraceOpKind
from repro.types import MessageId, ProcessId, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import Profiler
    from repro.obs.tracer import Tracer

#: Minimal spacing between consecutive events of one process; trace op
#: times are macroscopic (O(0.01+)) so nudges never reorder anything.
_EPS = 1e-9


class Recorder:
    """Accumulates per-process event lists with strictly increasing times;
    the replayer's sink for the family's steps."""

    def __init__(self, trace: Trace) -> None:
        self.n = n = trace.n
        self.events: List[List[Event]] = [[] for _ in range(n)]
        self.messages: Dict[MessageId, Message] = {}
        self._sizes = {
            op.msg_id: op.size for op in trace if op.kind is TraceOpKind.SEND
        }
        self._ckpt_index = [0] * n
        self._last_time = [-1.0] * n
        for pid in range(n):
            self.record_checkpoint(pid, 0.0, CheckpointKind.INITIAL)

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

    def record_send(self, pid: int, dst: int, msg: int, time: float) -> Event:
        ev = self._append(pid, EventKind.SEND, time, msg_id=msg)
        self.messages[msg] = Message(
            msg_id=msg, src=pid, dst=dst, send_seq=ev.seq, size=self._sizes[msg]
        )
        return ev

    def record_deliver(self, pid: int, sender: int, msg: int, time: float) -> Event:
        m = self.messages[msg]
        ev = self._append(pid, EventKind.DELIVER, time, msg_id=msg)
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
        history = History(self.events, self.messages)
        if close:
            history = history.closed()
        validate_history(history)
        return history


@dataclass
class ReplayResult:
    """Outcome of one protocol replay."""

    protocol_name: str
    history: History
    family: ProtocolFamily
    metrics: RunMetrics

    def __repr__(self) -> str:
        return (
            f"<ReplayResult {self.protocol_name}: "
            f"forced={self.metrics.forced_checkpoints} "
            f"basic={self.metrics.basic_checkpoints}>"
        )


def replay(
    trace: Trace,
    protocol_factory: Callable[[ProcessId, int], CheckpointProtocol],
    close: bool = True,
    tracer: Optional["Tracer"] = None,
    metrics: Optional["MetricsRegistry"] = None,
    profiler: Optional["Profiler"] = None,
) -> ReplayResult:
    """Replay ``trace`` under the protocol built by ``protocol_factory``.

    The family's steps run the contract documented in
    :mod:`repro.core.protocol`; the recorder is their sink.

    Observability (all optional, each free when unset): ``tracer`` and
    ``metrics`` go to the family, whose steps emit the ``proto.*`` events
    (``proto.predicate`` carries the piggyback *input* and the decision,
    making every forced checkpoint auditable) and the ``replay.*``
    counters; ``profiler`` attributes the fold to ``simulate`` and
    history building to ``closure``.
    """
    profiler = profiler or NULL_PROFILER
    family = ProtocolFamily(protocol_factory, trace.n, tracer=tracer, metrics=metrics)
    recorder = Recorder(trace)
    piggybacks: Dict[MessageId, Piggyback] = {}
    with profiler.phase("simulate"):
        for op in trace:
            apply_op(family, op, piggybacks, recorder)
    history, run_metrics = finish_fold(recorder, family, close, profiler)
    return ReplayResult(
        protocol_name=family.name, history=history, family=family, metrics=run_metrics
    )


def apply_op(
    family: ProtocolFamily, op: TraceOp, piggybacks: Dict[MessageId, Piggyback], sink
) -> None:
    """Run the family's step for one trace op; ``piggybacks`` holds every
    sent message's piggyback by message id."""
    if op.kind is TraceOpKind.SEND:
        piggybacks[op.msg_id] = family.send(op.pid, op.peer, op.msg_id, op.time, sink)
    elif op.kind is TraceOpKind.DELIVER:
        family.arrive(op.pid, op.peer, op.msg_id, piggybacks[op.msg_id], op.time, sink)
    else:
        family.checkpoint(op.pid, op.time, sink)


def finish_fold(
    recorder: Recorder, family: ProtocolFamily, close: bool, profiler: "Profiler"
) -> Tuple[History, RunMetrics]:
    """The end of every fold: the history and its metrics, whose FORCED
    count must equal the protocols' own count."""
    with profiler.phase("closure"):
        history = recorder.build(close)
    metrics = metrics_from_history(
        history,
        protocol=family.name,
        piggyback_bits_total=family.total_piggyback_bits(),
    )
    if metrics.forced_checkpoints != family.total_forced():
        raise SimulationError(
            "internal inconsistency: history records "
            f"{metrics.forced_checkpoints} forced checkpoints, protocols "
            f"counted {family.total_forced()}"
        )
    return history, metrics


def replay_many(
    trace: Trace,
    factories: Dict[str, Callable[[ProcessId, int], CheckpointProtocol]],
    close: bool = True,
) -> Dict[str, ReplayResult]:
    """Replay one trace under several protocols (the comparison setup)."""
    return {
        name: replay(trace, factory, close=close)
        for name, factory in factories.items()
    }
