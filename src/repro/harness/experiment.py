"""Protocol-comparison experiments: the paper's measurement methodology.

One *comparison* = one workload scenario, one seed, every protocol
replayed over the same trace; the paper's headline statistic is

    R = forced(P) / forced(FDAS)

averaged over several seeds.  :func:`compare_protocols` produces the per
-protocol aggregate rows; :func:`ratio_table` boils them down to R.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING

from repro.analysis import check_rdt
from repro.obs.profile import NULL_PROFILER
from repro.sim import Simulation, SimulationConfig
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import Profiler
    from repro.obs.tracer import Tracer


@dataclass
class ProtocolAggregate:
    """Per-protocol numbers aggregated over seeds of one scenario."""

    protocol: str
    seeds: int
    forced_total: int
    basic_total: int
    messages_total: int
    piggyback_bits_total: int
    rdt_ok: bool
    ratio_to_baseline: Optional[float] = None
    forced_per_seed: List[int] = field(default_factory=list)
    ratio_per_seed: List[Optional[float]] = field(default_factory=list)

    @property
    def ratio_mean(self) -> Optional[float]:
        values = [r for r in self.ratio_per_seed if r is not None]
        if not values:
            return None
        return sum(values) / len(values)

    @property
    def ratio_stddev(self) -> Optional[float]:
        values = [r for r in self.ratio_per_seed if r is not None]
        if len(values) < 2:
            return None
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        return var ** 0.5

    @property
    def forced_per_message(self) -> float:
        if self.messages_total == 0:
            return 0.0
        return self.forced_total / self.messages_total

    @property
    def piggyback_bits_per_message(self) -> float:
        if self.messages_total == 0:
            return 0.0
        return self.piggyback_bits_total / self.messages_total

    def as_row(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "forced": self.forced_total,
            "basic": self.basic_total,
            "forced/msg": round(self.forced_per_message, 4),
            "R": None
            if self.ratio_to_baseline is None
            else round(self.ratio_to_baseline, 3),
            "bits/msg": round(self.piggyback_bits_per_message, 1),
            "RDT": "yes" if self.rdt_ok else "NO",
        }

    def to_dict(self) -> Dict[str, object]:
        """Field-for-field dict; canonical-JSON safe and round-trippable."""
        return {
            "protocol": self.protocol,
            "seeds": self.seeds,
            "forced_total": self.forced_total,
            "basic_total": self.basic_total,
            "messages_total": self.messages_total,
            "piggyback_bits_total": self.piggyback_bits_total,
            "rdt_ok": self.rdt_ok,
            "ratio_to_baseline": self.ratio_to_baseline,
            "forced_per_seed": list(self.forced_per_seed),
            "ratio_per_seed": list(self.ratio_per_seed),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "ProtocolAggregate":
        return cls(**doc)  # type: ignore[arg-type]


@dataclass
class ComparisonResult:
    """All protocols on one scenario (aggregated over seeds)."""

    scenario: str
    protocols: List[ProtocolAggregate]
    baseline: str

    def aggregate(self, protocol: str) -> ProtocolAggregate:
        for agg in self.protocols:
            if agg.protocol == protocol:
                return agg
        raise KeyError(protocol)

    def ratio(self, protocol: str) -> Optional[float]:
        return self.aggregate(protocol).ratio_to_baseline

    def rows(self) -> List[Dict[str, object]]:
        return [agg.as_row() for agg in self.protocols]

    def to_dict(self) -> Dict[str, object]:
        """The canonical document -- also the result cache's payload
        (via :func:`repro.obs.jsonio.canonical_bytes`)."""
        return {
            "scenario": self.scenario,
            "baseline": self.baseline,
            "protocols": [agg.to_dict() for agg in self.protocols],
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "ComparisonResult":
        return cls(
            scenario=doc["scenario"],  # type: ignore[arg-type]
            baseline=doc["baseline"],  # type: ignore[arg-type]
            protocols=[
                ProtocolAggregate.from_dict(entry)
                for entry in doc["protocols"]  # type: ignore[union-attr]
            ],
        )


def compare_protocols(
    make_workload: Callable[[], Workload],
    config: SimulationConfig,
    protocols: Sequence[str],
    baseline: str = "fdas",
    seeds: Sequence[int] = (0, 1, 2),
    scenario: str = "scenario",
    verify_rdt: bool = False,
    tracer: Optional["Tracer"] = None,
    metrics: Optional["MetricsRegistry"] = None,
    profiler: Optional["Profiler"] = None,
) -> ComparisonResult:
    """Replay every protocol over the same traces, aggregate over seeds.

    ``verify_rdt=True`` additionally runs the RDT checker on every
    produced pattern (slower; benchmarks enable it on smaller runs).
    The baseline is included automatically if absent from ``protocols``.

    The observability instruments thread down into generation and replay
    (see :class:`repro.sim.Simulation`); RDT verification is attributed
    to the ``analyze`` phase.  None of them changes a single result.
    """
    profiler = profiler or NULL_PROFILER
    names = list(protocols)
    if baseline not in names:
        names.append(baseline)
    totals = {
        name: {
            "forced": 0,
            "basic": 0,
            "messages": 0,
            "bits": 0,
            "rdt": True,
            "per_seed": [],
        }
        for name in names
    }
    for seed in seeds:
        cfg_kwargs = dict(config.__dict__)
        cfg_kwargs["seed"] = seed
        sim = Simulation(
            make_workload(),
            SimulationConfig(**cfg_kwargs),
            tracer=tracer,
            metrics=metrics,
            profiler=profiler,
        )
        for name in names:
            res = sim.run(name)
            bucket = totals[name]
            bucket["forced"] += res.metrics.forced_checkpoints
            bucket["basic"] += res.metrics.basic_checkpoints
            bucket["messages"] += res.metrics.messages_delivered
            bucket["bits"] += res.metrics.piggyback_bits_total
            bucket["per_seed"].append(res.metrics.forced_checkpoints)
            if verify_rdt:
                with profiler.phase("analyze"):
                    holds = check_rdt(res.history, max_violations=1).holds
                if not holds:
                    bucket["rdt"] = False
                if metrics is not None:
                    metrics.inc("analyze.rdt_checks")
    baseline_forced = totals[baseline]["forced"]
    baseline_per_seed = totals[baseline]["per_seed"]
    aggregates = []
    for name in names:
        bucket = totals[name]
        ratio = (
            bucket["forced"] / baseline_forced if baseline_forced > 0 else None
        )
        ratio_per_seed = [
            f / b if b > 0 else None
            for f, b in zip(bucket["per_seed"], baseline_per_seed)
        ]
        aggregates.append(
            ProtocolAggregate(
                protocol=name,
                seeds=len(seeds),
                forced_total=bucket["forced"],
                basic_total=bucket["basic"],
                messages_total=bucket["messages"],
                piggyback_bits_total=bucket["bits"],
                rdt_ok=bool(bucket["rdt"]),
                ratio_to_baseline=ratio,
                forced_per_seed=list(bucket["per_seed"]),
                ratio_per_seed=ratio_per_seed,
            )
        )
    return ComparisonResult(scenario=scenario, protocols=aggregates, baseline=baseline)
