"""Trace generation: run a workload on the kernel, record the pattern.

This is phase one of every simulation: the workload's sends, the
channels' delivery times and the basic-checkpoint timers are resolved
into a protocol-independent :class:`repro.sim.trace.Trace`.  Phase two
(:mod:`repro.sim.replay`) folds any protocol over the trace.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Hashable, List, Optional, TYPE_CHECKING

from repro.sim.channel import ChannelMap
from repro.sim.kernel import Scheduler
from repro.sim.netfaults import NetFaultModel
from repro.sim.trace import Trace, TraceOp, TraceOpKind
from repro.sim.transport import NetReport, ReliableTransport, TransportConfig
from repro.types import MessageId, ProcessId, SimulationError
from repro.workloads.base import Workload, WorkloadContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer


class _GeneratorContext(WorkloadContext):
    """The concrete WorkloadContext used during generation."""

    def __init__(self, generator: "TraceGenerator") -> None:
        self._g = generator
        self.n = generator.n
        self.rng = generator.rng

    @property
    def now(self) -> float:
        return self._g.scheduler.now

    def send(
        self,
        src: ProcessId,
        dst: ProcessId,
        size: int = 1,
        payload: Any = None,
    ) -> MessageId:
        return self._g.record_send(src, dst, size, payload)

    def set_timer(self, pid: ProcessId, delay: float, tag: Hashable = None) -> None:
        self._g.scheduler.schedule(
            delay, lambda: self._g.fire_timer(pid, tag)
        )

    def payload_of(self, msg_id: MessageId) -> Any:
        return self._g.payloads.get(msg_id)

    def stop(self) -> None:
        self._g.stopped = True


class TraceGenerator:
    """Generates one trace from one workload.

    Parameters
    ----------
    n:
        Number of processes.
    workload:
        The application behaviour.
    duration:
        Simulated time horizon; sends stop at the horizon, deliveries of
        already-sent messages still land (channels are reliable).
    seed:
        Master seed (one RNG drives workload choices, delays and basic
        checkpoint timers deterministically).
    basic_rate:
        Mean number of *basic* checkpoints per process per time unit
        (exponential inter-checkpoint times); 0 disables basic
        checkpoints.
    channels:
        Delay/FIFO behaviour; defaults to non-FIFO exponential(1).
    max_events:
        Safety valve for runaway workloads.
    net_faults:
        Optional :class:`repro.sim.netfaults.NetFaultModel`.  When set,
        physical transmissions are lossy/duplicating/reordering/
        partitionable and a :class:`repro.sim.transport.
        ReliableTransport` recovers exactly-once delivery on top, so the
        recorded trace still satisfies the reliable-channel model --
        only delivery *times* (and possibly which sends happen, since
        the workload reacts to deliveries) change.  The transport's
        randomness draws from its own stream mixed from ``(seed,
        net_faults.seed)``, keeping runs byte-deterministic.
    transport:
        Retransmission policy when ``net_faults`` is set (default
        :class:`~repro.sim.transport.TransportConfig`).
    """

    def __init__(
        self,
        n: int,
        workload: Workload,
        duration: float = 100.0,
        seed: int = 0,
        basic_rate: float = 0.1,
        channels: Optional[ChannelMap] = None,
        max_events: int = 1_000_000,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
        net_faults: Optional[NetFaultModel] = None,
        transport: Optional[TransportConfig] = None,
    ) -> None:
        if n <= 0:
            raise SimulationError("need at least one process")
        self.n = n
        self.workload = workload
        self.duration = duration
        self.rng = random.Random(seed)
        self.basic_rate = basic_rate
        self.channels = channels if channels is not None else ChannelMap(n)
        self.max_events = max_events
        self.tracer = tracer
        self.metrics = metrics
        self.scheduler = Scheduler(tracer=tracer, metrics=metrics)
        self.ops: List[TraceOp] = []
        self.payloads: Dict[MessageId, Any] = {}
        self.stopped = False
        self._next_msg = 0
        self._ctx = _GeneratorContext(self)
        self.transport: Optional[ReliableTransport] = None
        self.net_report: Optional[NetReport] = None
        if net_faults is not None:
            self.transport = ReliableTransport(
                scheduler=self.scheduler,
                channels=self.channels,
                model=net_faults,
                config=transport if transport is not None else TransportConfig(),
                deliver=self.record_deliver,
                rng=net_faults.rng_for(seed),
                tracer=tracer,
                metrics=metrics,
            )
        elif transport is not None:
            raise SimulationError(
                "a transport config only applies with net_faults set"
            )

    # ------------------------------------------------------------------
    # recording callbacks
    # ------------------------------------------------------------------
    def record_send(
        self, src: ProcessId, dst: ProcessId, size: int, payload: Any
    ) -> MessageId:
        if not (0 <= src < self.n and 0 <= dst < self.n) or src == dst:
            raise SimulationError(f"bad send {src}->{dst}")
        if self.stopped or self.scheduler.now > self.duration:
            # Horizon reached: drop silently (workload is winding down).
            return -1
        msg_id = self._next_msg
        self._next_msg += 1
        now = self.scheduler.now
        self.ops.append(
            TraceOp(now, TraceOpKind.SEND, src, peer=dst, msg_id=msg_id, size=size)
        )
        if self.tracer:
            self.tracer.event("sim.send", now, src=src, dst=dst, msg=msg_id)
        if self.metrics is not None:
            self.metrics.inc("generate.sends")
        self.payloads[msg_id] = payload
        if self.transport is not None:
            self.transport.send(msg_id, src, dst)
        else:
            arrival = self.channels.arrival_time(src, dst, now, self.rng)
            self.scheduler.schedule_at(
                arrival, lambda: self.record_deliver(msg_id, src, dst)
            )
        return msg_id

    def record_deliver(
        self, msg_id: MessageId, src: ProcessId, dst: ProcessId
    ) -> None:
        now = self.scheduler.now
        self.ops.append(
            TraceOp(now, TraceOpKind.DELIVER, dst, peer=src, msg_id=msg_id)
        )
        if self.tracer:
            self.tracer.event("sim.deliver", now, src=src, dst=dst, msg=msg_id)
        if self.metrics is not None:
            self.metrics.inc("generate.deliveries")
        if not self.stopped:
            self.workload.on_deliver(self._ctx, dst, src, msg_id)

    def fire_timer(self, pid: ProcessId, tag: Hashable) -> None:
        if self.stopped or self.scheduler.now > self.duration:
            return
        self.workload.on_timer(self._ctx, pid, tag)

    def _basic_checkpoint(self, pid: ProcessId) -> None:
        if self.stopped or self.scheduler.now > self.duration:
            return
        self.ops.append(
            TraceOp(self.scheduler.now, TraceOpKind.BASIC_CHECKPOINT, pid)
        )
        if self.tracer:
            self.tracer.event("sim.basic", self.scheduler.now, pid=pid)
        if self.metrics is not None:
            self.metrics.inc("generate.basic_checkpoints")
        self._schedule_basic(pid)

    def _schedule_basic(self, pid: ProcessId) -> None:
        delay = self.rng.expovariate(self.basic_rate)
        self.scheduler.schedule(delay, lambda: self._basic_checkpoint(pid))

    # ------------------------------------------------------------------
    def generate(self) -> Trace:
        """Run the workload and return the recorded trace."""
        self.channels.reset()  # per-run isolation for shared channel maps
        if self.basic_rate > 0:
            for pid in range(self.n):
                self._schedule_basic(pid)
        self.workload.on_start(self._ctx)
        # Run past the horizon so in-flight messages land; timers and
        # checkpoints self-censor beyond the horizon.  The transport's
        # retransmission watchdog bounds its events, so the queue drains
        # even under 100% loss or a permanent partition.
        self.scheduler.run(max_events=self.max_events)
        if self.transport is not None:
            self.net_report = self.transport.finalize()
        # Hand the ops over and keep none: the generator sits in a
        # reference cycle (``_ctx._g``), and a list left here would keep
        # every op alive until a cyclic GC pass, long after the trace.
        ops, self.ops = self.ops, []
        return Trace(self.n, [op for op in ops if op.msg_id != -1])


def generate_trace(
    n: int,
    workload: Workload,
    duration: float = 100.0,
    seed: int = 0,
    basic_rate: float = 0.1,
    channels: Optional[ChannelMap] = None,
    net_faults: Optional[NetFaultModel] = None,
    transport: Optional[TransportConfig] = None,
) -> Trace:
    """One-call convenience wrapper around :class:`TraceGenerator`."""
    return TraceGenerator(
        n,
        workload,
        duration=duration,
        seed=seed,
        basic_rate=basic_rate,
        channels=channels,
        net_faults=net_faults,
        transport=transport,
    ).generate()
