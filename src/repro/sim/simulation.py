"""High-level simulation façade.

:class:`Simulation` wires a workload, a channel model and a basic
checkpoint rate into a reusable, seeded scenario: generate the trace
once, replay it under any number of protocols, and get recorded
histories plus metrics back.  This is the entry point that the
examples, the benchmarks and most tests use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.registry import protocol_factory
from repro.obs.profile import NULL_PROFILER
from repro.sim.channel import ChannelMap
from repro.sim.delays import DelayModel, Exponential
from repro.sim.generate import TraceGenerator
from repro.sim.netfaults import NetFaultModel
from repro.sim.transport import NetReport, TransportConfig
from repro.sim.replay import ReplayResult, replay
from repro.sim.trace import Trace
from repro.types import SimulationError
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import Profiler
    from repro.obs.tracer import Tracer
    from repro.sim.crashes import RecoveryReplayResult
    from repro.sim.faults import CrashSchedule


@dataclass
class SimulationConfig:
    """Everything that defines a scenario (all defaults are sensible).

    Attributes
    ----------
    n:
        Number of processes.
    duration:
        Simulated time horizon.
    seed:
        Master seed; two runs with equal config are identical.
    basic_rate:
        Mean basic checkpoints per process per time unit (the paper's
        simulation knob: how often applications checkpoint on their own).
    delay:
        Channel delay distribution.
    fifo:
        Whether channels preserve order (CIC protocols do not need it).
        Under ``net_faults`` this turns on the transport's per-link FIFO
        *reconstruction* instead (same observable guarantee).
    max_events:
        Kernel safety valve.
    net_faults:
        Optional :class:`~repro.sim.netfaults.NetFaultModel`: run the
        scenario over an unreliable physical network, with the reliable
        transport (:mod:`repro.sim.transport`) recovering the paper's
        channel abstraction.  ``None`` (the default) is the ideal
        reliable network.
    transport:
        Retransmission policy when ``net_faults`` is set.
    """

    n: int = 4
    duration: float = 100.0
    seed: int = 0
    basic_rate: float = 0.1
    delay: DelayModel = field(default_factory=lambda: Exponential(mean=1.0))
    fifo: bool = False
    max_events: int = 1_000_000
    net_faults: Optional[NetFaultModel] = None
    transport: Optional[TransportConfig] = None

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise SimulationError("n must be positive")
        if self.duration <= 0:
            raise SimulationError("duration must be positive")
        if self.basic_rate < 0:
            raise SimulationError("basic_rate must be non-negative")
        if self.transport is not None and self.net_faults is None:
            raise SimulationError("transport= only applies with net_faults=")


class Simulation:
    """One seeded scenario: a workload under a configuration.

    The optional observability instruments attach to every phase the
    scenario drives: trace generation (``sim.*`` events, ``generate``
    phase), protocol replay (``proto.*`` events, ``simulate``/``closure``
    phases).  All three default to off and cost nothing then.
    """

    def __init__(
        self,
        workload: Workload,
        config: Optional[SimulationConfig] = None,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
        profiler: Optional["Profiler"] = None,
    ):
        self.workload = workload
        self.config = config if config is not None else SimulationConfig()
        self.tracer = tracer
        self.metrics = metrics
        self.profiler = profiler
        self._trace: Optional[Trace] = None
        self._net_report: Optional[NetReport] = None

    @property
    def trace(self) -> Trace:
        """The protocol-independent trace (generated lazily, cached)."""
        if self._trace is None:
            cfg = self.config
            generator = TraceGenerator(
                cfg.n,
                self.workload,
                duration=cfg.duration,
                seed=cfg.seed,
                basic_rate=cfg.basic_rate,
                channels=ChannelMap(cfg.n, delay=cfg.delay, fifo=cfg.fifo),
                max_events=cfg.max_events,
                tracer=self.tracer,
                metrics=self.metrics,
                net_faults=cfg.net_faults,
                transport=cfg.transport,
            )
            with (self.profiler or NULL_PROFILER).phase("generate"):
                self._trace = generator.generate()
            self._net_report = generator.net_report
        return self._trace

    @property
    def net_report(self) -> Optional[NetReport]:
        """Physical-layer statistics of the generated trace.

        ``None`` until the trace exists, and for reliable-network runs.
        """
        self.trace  # force generation
        return self._net_report

    def run(self, protocol: str, close: bool = True) -> ReplayResult:
        """Replay the scenario under one protocol (registry name)."""
        return replay(
            self.trace,
            protocol_factory(protocol),
            close=close,
            tracer=self.tracer,
            metrics=self.metrics,
            profiler=self.profiler,
        )

    def run_factory(self, factory, close: bool = True) -> ReplayResult:
        """Replay under a protocol given as a ``(pid, n) -> protocol``
        factory (for classes not in the registry, e.g. user protocols
        under conformance testing or parameterised variants)."""
        return replay(
            self.trace,
            factory,
            close=close,
            tracer=self.tracer,
            metrics=self.metrics,
            profiler=self.profiler,
        )

    def compare(
        self, protocols: List[str], close: bool = True
    ) -> Dict[str, ReplayResult]:
        """Replay the same trace under several protocols."""
        return {name: self.run(name, close=close) for name in protocols}

    def run_with_crashes(
        self,
        protocol: str,
        schedule: "CrashSchedule",
        close: bool = True,
        cross_check: bool = True,
        gc_every_ops: Optional[int] = None,
    ) -> "RecoveryReplayResult":
        """Replay under one protocol while injecting a crash schedule.

        The trace is the same protocol-independent pattern :meth:`run`
        uses (crashes never alter what the application *would* do --
        piecewise determinism); the fold around it gains failures and
        online recoveries.  See
        :func:`repro.sim.crashes.replay_with_recovery`.
        """
        from repro.sim.crashes import replay_with_recovery

        return replay_with_recovery(
            self.trace,
            protocol_factory(protocol),
            schedule,
            close=close,
            cross_check=cross_check,
            gc_every_ops=gc_every_ops,
            tracer=self.tracer,
            metrics=self.metrics,
            profiler=self.profiler,
        )


def run_scenario(
    workload: Workload,
    protocol: str,
    config: Optional[SimulationConfig] = None,
) -> ReplayResult:
    """One-call convenience: build, generate, replay."""
    return Simulation(workload, config).run(protocol)
