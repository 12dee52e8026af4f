"""The blessed public surface of the reproduction, in one module.

Everything a user (or the CLI, or the examples) needs rides behind four
keyword-only entrypoints plus the analysis and observability types:

* :func:`run` -- one workload under one protocol, returns the
  :class:`~repro.sim.replay.ReplayResult`;
* :func:`compare` -- several protocols over the same traces, returns the
  :class:`~repro.harness.experiment.ComparisonResult`;
* :func:`sweep` -- a figure-style parameter sweep through the parallel
  cached runner, returns the :class:`~repro.harness.sweep.SweepResult`;
* :func:`recover` -- a crash-injected run with online recovery, returns
  the :class:`~repro.sim.crashes.RecoveryReplayResult`;
* :func:`analyze_rdt` / :func:`find_z_cycles` /
  :func:`useless_checkpoints` -- the paper's offline characterizations;
* :class:`Tracer` / :mod:`metrics <repro.obs.metrics>` /
  :class:`Profiler` -- the observability instruments, accepted by every
  entrypoint via ``tracer=`` / ``metrics=`` / ``profiler=``.

Scenario arguments are uniform across entrypoints: a workload is named
by its registry string (``workload="random"``, constructor overrides in
``workload_args``), or passed as a ready :class:`Workload` instance or
zero-argument factory; the environment is either an explicit
:class:`SimulationConfig` via ``config=`` or the common knobs ``n`` /
``duration`` / ``seed`` / ``basic_rate``.  When a workload is named by
string, sweep scenarios stay picklable, so the process-pool backend
works out of the box.

Deeper layers (:mod:`repro.sim`, :mod:`repro.harness`, :mod:`repro.graph`)
remain importable for power users, but this module is the surface the
CLI and examples are built on and the one the README documents.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Sequence, Union

from repro.analysis import check_rdt, find_z_cycles, useless_checkpoints
from repro.analysis.rdt import RDTReport
from repro.events.history import History
from repro.harness.experiment import ComparisonResult, compare_protocols
from repro.harness.runner import ResultCache, RunnerStats, run_sweep
from repro.harness.sweep import SweepResult
from repro.obs import metrics  # noqa: F401  (re-exported module)
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.profile import Profiler
from repro.obs.tracer import Tracer
from repro.sim import (
    CrashSchedule,
    LinkFaults,
    NetFaultModel,
    Partition,
    RecoveryReplayResult,
    ReplayResult,
    Simulation,
    SimulationConfig,
    TransportConfig,
)
from repro.core.registry import PROTOCOLS
from repro.serve.client import Client
from repro.serve.router import Router, RouterConfig
from repro.serve.server import CheckpointServer, ServerConfig, ServerHandle
from repro.types import SimulationError
from repro.workloads import WORKLOADS
from repro.workloads.base import Workload

__all__ = [
    "ComparisonResult",
    "CrashSchedule",
    "LinkFaults",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NetFaultModel",
    "Partition",
    "Profiler",
    "RDTReport",
    "RecoveryReplayResult",
    "ReplayResult",
    "ResultCache",
    "RouterConfig",
    "RunnerStats",
    "ServerConfig",
    "ServerHandle",
    "SimulationConfig",
    "SweepResult",
    "Tracer",
    "TransportConfig",
    "analyze_rdt",
    "compare",
    "connect",
    "find_z_cycles",
    "metrics",
    "recover",
    "run",
    "serve",
    "sweep",
    "useless_checkpoints",
]

#: How a caller may specify the workload of a scenario.
WorkloadSpec = Union[str, Workload, Callable[[], Workload]]


def _validate_protocols(names: Sequence[str]) -> None:
    """Every protocol name must be in the registry, or SimulationError.

    The registry itself raises :class:`~repro.types.ProtocolError`; the
    api surface promises the single exception type
    :class:`SimulationError` for bad scenario arguments, naming the bad
    key and listing the valid entries.
    """
    for name in names:
        if name not in PROTOCOLS:
            known = ", ".join(sorted(PROTOCOLS))
            raise SimulationError(f"unknown protocol {name!r}; known: {known}")


# ----------------------------------------------------------------------
# scenario plumbing (module-level classes so sweep cells stay picklable)
# ----------------------------------------------------------------------
class _WorkloadFactory:
    """Builds the named registry workload; picklable by construction."""

    def __init__(self, name: str, kwargs: Dict[str, object]) -> None:
        if name not in WORKLOADS:
            known = ", ".join(sorted(WORKLOADS))
            raise SimulationError(f"unknown workload {name!r}; known: {known}")
        self.name = name
        self.kwargs = dict(kwargs)

    def __call__(self) -> Workload:
        return WORKLOADS[self.name](**self.kwargs)


class _ConstFactory:
    """Wraps a ready workload instance (one scenario, reused per seed)."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload

    def __call__(self) -> Workload:
        return self.workload


def _workload_factory(
    workload: WorkloadSpec, workload_args: Optional[Dict[str, object]]
) -> Callable[[], Workload]:
    if isinstance(workload, str):
        return _WorkloadFactory(workload, workload_args or {})
    if workload_args:
        raise SimulationError(
            "workload_args only apply when the workload is named by string"
        )
    if isinstance(workload, Workload):
        return _ConstFactory(workload)
    if callable(workload):
        return workload
    raise SimulationError(f"cannot build a workload from {workload!r}")


def _resolve_config(
    config: Optional[SimulationConfig],
    n: Optional[int],
    duration: Optional[float],
    seed: Optional[int],
    basic_rate: Optional[float],
    net_faults: Optional[NetFaultModel] = None,
    transport: Optional[TransportConfig] = None,
) -> SimulationConfig:
    """An explicit config wins; otherwise the common knobs fill defaults."""
    if config is not None:
        if any(
            v is not None
            for v in (n, duration, seed, basic_rate, net_faults, transport)
        ):
            raise SimulationError(
                "pass either config= or the n/duration/seed/basic_rate/"
                "net_faults/transport knobs, not both"
            )
        return config
    kwargs: Dict[str, object] = {}
    if n is not None:
        kwargs["n"] = n
    if duration is not None:
        kwargs["duration"] = duration
    if seed is not None:
        kwargs["seed"] = seed
    if basic_rate is not None:
        kwargs["basic_rate"] = basic_rate
    if net_faults is not None:
        kwargs["net_faults"] = net_faults
    if transport is not None:
        kwargs["transport"] = transport
    return SimulationConfig(**kwargs)  # type: ignore[arg-type]


class _ScenarioAt:
    """``x -> (workload factory, config)`` varying one config field.

    Picklable whenever the workload factory is, which keeps the default
    sweep eligible for the process-pool backend.
    """

    VARIABLE = ("n", "duration", "seed", "basic_rate")

    def __init__(
        self,
        make_workload: Callable[[], Workload],
        base_config: SimulationConfig,
        x_label: str,
    ) -> None:
        if x_label not in self.VARIABLE:
            raise SimulationError(
                f"cannot sweep {x_label!r}; sweepable: {', '.join(self.VARIABLE)}"
            )
        self.make_workload = make_workload
        self.config_kwargs = dict(base_config.__dict__)
        self.x_label = x_label

    def __call__(self, x: object):
        kwargs = dict(self.config_kwargs)
        kwargs[self.x_label] = int(x) if self.x_label == "n" else x
        return self.make_workload, SimulationConfig(**kwargs)


# ----------------------------------------------------------------------
# entrypoints
# ----------------------------------------------------------------------
def run(
    workload: WorkloadSpec = "random",
    *,
    protocol: str = "bhmr",
    workload_args: Optional[Dict[str, object]] = None,
    config: Optional[SimulationConfig] = None,
    n: Optional[int] = None,
    duration: Optional[float] = None,
    seed: Optional[int] = None,
    basic_rate: Optional[float] = None,
    net_faults: Optional[NetFaultModel] = None,
    transport: Optional[TransportConfig] = None,
    close: bool = True,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    profiler: Optional[Profiler] = None,
) -> ReplayResult:
    """Simulate one workload under one protocol; return the replay.

    ``net_faults`` runs the scenario over an unreliable physical network
    (loss/duplication/reordering/partitions per the model) with the
    reliable transport recovering exactly-once delivery; the returned
    history still satisfies the paper's channel model.
    """
    _validate_protocols([protocol])
    sim = Simulation(
        _workload_factory(workload, workload_args)(),
        _resolve_config(config, n, duration, seed, basic_rate, net_faults, transport),
        tracer=tracer,
        metrics=metrics,
        profiler=profiler,
    )
    return sim.run(protocol, close=close)


def compare(
    workload: WorkloadSpec = "random",
    *,
    protocols: Sequence[str] = ("bhmr", "fdas", "cbr"),
    baseline: str = "fdas",
    seeds: Sequence[int] = (0, 1, 2),
    verify_rdt: bool = False,
    workload_args: Optional[Dict[str, object]] = None,
    config: Optional[SimulationConfig] = None,
    n: Optional[int] = None,
    duration: Optional[float] = None,
    basic_rate: Optional[float] = None,
    scenario: Optional[str] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    profiler: Optional[Profiler] = None,
) -> ComparisonResult:
    """Replay the same traces under several protocols, aggregated over seeds."""
    _validate_protocols([*protocols, baseline])
    make_workload = _workload_factory(workload, workload_args)
    if scenario is None:
        scenario = workload if isinstance(workload, str) else "scenario"
    return compare_protocols(
        make_workload,
        _resolve_config(config, n, duration, None, basic_rate),
        protocols,
        baseline=baseline,
        seeds=seeds,
        scenario=scenario,
        verify_rdt=verify_rdt,
        tracer=tracer,
        metrics=metrics,
        profiler=profiler,
    )


def sweep(
    workload: WorkloadSpec = "random",
    *,
    xs: Sequence[object] = (0.05, 0.1, 0.2, 0.5),
    x_label: str = "basic_rate",
    protocols: Sequence[str] = ("bhmr",),
    baseline: str = "fdas",
    seeds: Sequence[int] = (0, 1),
    verify_rdt: bool = False,
    workers: Optional[int] = None,
    cell_timeout: Optional[float] = None,
    cache: Union[ResultCache, str, None, bool] = False,
    workload_args: Optional[Dict[str, object]] = None,
    config: Optional[SimulationConfig] = None,
    n: Optional[int] = None,
    duration: Optional[float] = None,
    basic_rate: Optional[float] = None,
    scenario_at=None,
    progress: Optional[Callable[[str], None]] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    profiler: Optional[Profiler] = None,
) -> SweepResult:
    """R as a function of one swept scenario knob, via the cached runner.

    ``x_label`` names the :class:`SimulationConfig` field the sweep
    varies (default the paper's ``basic_rate``); ``scenario_at``
    overrides the scenario factory entirely for custom sweeps.

    ``workers`` sizes the process pool: ``1`` runs serial and in
    process; ``None`` lets the runner decide (parallel over the visible
    CPUs when the cells are picklable, serial otherwise -- results are
    bit-identical either way).  ``cache``
    defaults to off; pass a path or :class:`ResultCache` to memoise
    cells, or ``None`` to honour the ``REPRO_SWEEP_CACHE`` env var.
    ``cell_timeout`` bounds one cell's wall time on the process backend;
    crashed or hung workers are retried with backoff (see
    :func:`repro.harness.runner.run_sweep`).
    """
    _validate_protocols([*protocols, baseline])
    if scenario_at is None:
        scenario_at = _ScenarioAt(
            _workload_factory(workload, workload_args),
            _resolve_config(config, n, duration, None, basic_rate),
            x_label,
        )
    return run_sweep(
        x_label,
        xs,
        scenario_at,
        protocols,
        baseline=baseline,
        seeds=seeds,
        verify_rdt=verify_rdt,
        workers=workers,
        cell_timeout=cell_timeout,
        cache=cache,
        progress=progress,
        tracer=tracer,
        metrics=metrics,
        profiler=profiler,
    )


def recover(
    workload: WorkloadSpec = "random",
    *,
    protocol: str = "bhmr",
    crashes: Union["CrashSchedule", int] = 1,
    crash_seed: int = 0,
    cross_check: bool = True,
    gc_every_ops: Optional[int] = None,
    workload_args: Optional[Dict[str, object]] = None,
    config: Optional[SimulationConfig] = None,
    n: Optional[int] = None,
    duration: Optional[float] = None,
    seed: Optional[int] = None,
    basic_rate: Optional[float] = None,
    net_faults: Optional[NetFaultModel] = None,
    transport: Optional[TransportConfig] = None,
    close: bool = True,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    profiler: Optional[Profiler] = None,
) -> RecoveryReplayResult:
    """Simulate one scenario while injecting crashes and recovering online.

    ``crashes`` is either a ready :class:`CrashSchedule` or an integer
    count of crashes to draw deterministically from ``crash_seed`` (the
    draw is independent of the scenario seed, so the same fault pattern
    can be injected under different protocols).  Each crash triggers an
    online recovery -- recovery line from the live R-graph, rollback,
    sender-log replay, re-execution -- and, with ``cross_check`` (the
    default), is verified against the offline fixpoint on the prefix
    history.  ``gc_every_ops`` additionally runs the safe online
    sender-log garbage collector at that op cadence.
    """
    _validate_protocols([protocol])
    resolved = _resolve_config(
        config, n, duration, seed, basic_rate, net_faults, transport
    )
    if isinstance(crashes, int):
        schedule = CrashSchedule.random(
            resolved.n, resolved.duration, count=crashes, seed=crash_seed
        )
    else:
        schedule = crashes
    sim = Simulation(
        _workload_factory(workload, workload_args)(),
        resolved,
        tracer=tracer,
        metrics=metrics,
        profiler=profiler,
    )
    return sim.run_with_crashes(
        protocol,
        schedule,
        close=close,
        cross_check=cross_check,
        gc_every_ops=gc_every_ops,
    )


def serve(
    config: Union[ServerConfig, RouterConfig, None] = None,
    *,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    **knobs: object,
) -> ServerHandle:
    """Start the online checkpointing service on a background thread.

    The deployment is either a ready ``config`` or the ``knobs`` that
    build one: with ``shard_procs`` among them a :class:`RouterConfig`,
    otherwise a :class:`ServerConfig`.  Those dataclasses own every
    knob's default and rule (listed in ``docs/SERVICE.md``); a knob the
    chosen dataclass does not have, a knob beside ``config=``, or a
    value its rules refuse raises :class:`SimulationError`.

    The returned :class:`~repro.serve.server.ServerHandle` is a context
    manager whose exit performs a graceful drain (every acknowledged
    frame applied, all sessions snapshotted); ``handle.address`` /
    ``handle.connect_address()`` give where to point :func:`connect`.
    ``port=0`` (the default) binds an ephemeral TCP port;
    ``unix_path=`` serves on a Unix socket instead.  ``wal_dir=``
    enables the durable ingest WAL: every acknowledged frame is fsynced
    (in ``fsync_batch``-record group commits) before its ack, and a
    restarted server replays the WAL so a ``kill -9`` loses nothing
    acknowledged.  ``shard_procs=`` switches to multi-process scale-out:
    N ``repro serve`` shard processes (consistent-hash session
    ownership, each with its own WAL and snapshot store under
    ``data_dir=``, which becomes required) supervised by an asyncio
    router whose ``ping`` publishes the shard table clients route by;
    a dead shard degrades only its key range (clients see retryable
    ``shard_down``) and is respawned after WAL replay.  See
    ``docs/SERVICE.md`` for the wire protocol, durability and sharding
    semantics.
    """
    if config is None:
        kind = RouterConfig if "shard_procs" in knobs else ServerConfig
        names = {field.name for field in dataclasses.fields(kind)}
        unknown = sorted(set(knobs) - names)
        if unknown:
            raise SimulationError(
                f"{kind.__name__} has no knob {', '.join(unknown)}; "
                f"known: {', '.join(sorted(names))}"
            )
        config = kind(**knobs)
    elif knobs:
        raise SimulationError(
            "pass either config= or the individual server knobs, not "
            f"both (got config= and {', '.join(sorted(knobs))})"
        )
    if isinstance(config, RouterConfig):
        server = Router(config, tracer=tracer, metrics=metrics)
    else:
        server = CheckpointServer(config, tracer=tracer, metrics=metrics)
    return ServerHandle(server)


def connect(address: str, *, timeout: Optional[float] = 10.0) -> Client:
    """A blocking client for a running service.

    ``address`` is ``"host:port"`` or ``"unix:/path"`` (what
    :meth:`ServerHandle.connect_address` returns).  Raises a plain
    :class:`ConnectionError` -- promptly, never a hang -- when nothing
    listens there.
    """
    return Client(address, timeout=timeout)


def analyze_rdt(
    history: History,
    *,
    method: str = "tdv",
    max_violations: Optional[int] = None,
) -> RDTReport:
    """Check Rollback-Dependency Trackability of a recorded pattern.

    A keyword-only wrapper over :func:`repro.analysis.check_rdt` (which
    additionally accepts a prebuilt R-graph).
    """
    return check_rdt(history, method=method, max_violations=max_violations)
