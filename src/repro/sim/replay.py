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

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING

from repro.analysis.metrics import RunMetrics, metrics_from_history
from repro.obs.profile import NULL_PROFILER
from repro.core.piggyback import Piggyback
from repro.core.protocol import CheckpointProtocol, ProtocolFamily
from repro.events.builder import Recorder
from repro.events.event import CheckpointKind
from repro.events.history import History
from repro.sim.trace import Trace, TraceOp, TraceOpKind
from repro.types import MessageId, ProcessId, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import Profiler
    from repro.obs.tracer import Tracer


def trace_recorder(trace: Trace) -> Recorder:
    """A recorder sized for ``trace``'s messages, holding every initial
    checkpoint ``C(p, 0)`` at time 0."""
    recorder = Recorder(
        trace.n, {op.msg_id: op.size for op in trace if op.kind is TraceOpKind.SEND}
    )
    for pid in range(trace.n):
        recorder.record_checkpoint(pid, 0.0, CheckpointKind.INITIAL)
    return recorder


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
    recorder = trace_recorder(trace)
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
