"""Conformance kit for user-supplied protocol implementations.

Anyone adding a protocol (see docs/SIMULATOR.md) can validate it against
the framework's contract and -- if it claims RDT or Z-cycle freedom --
against its own guarantee, without writing bespoke tests:

    from repro.testing import conformance_report, assert_conformant

    report = conformance_report(MyProtocol)
    assert_conformant(MyProtocol)          # raises on first failure

The kit runs the protocol through hand-driven driver sequences
(contract checks) and through simulated scenarios (guarantee checks).
The library's own test suite applies it to every registered protocol,
so the kit is itself exercised continuously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Type

from repro.analysis.rdt import check_rdt
from repro.analysis.zcycle import useless_checkpoints
from repro.core.protocol import CheckpointProtocol
from repro.sim.simulation import Simulation, SimulationConfig
from repro.types import ProtocolError, ReproError
from repro.workloads.random_uniform import RandomUniformWorkload


class ConformanceError(ReproError):
    """A protocol implementation violates the framework contract."""


@dataclass
class ConformanceReport:
    protocol: str
    passed: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed

    def __repr__(self) -> str:
        status = "OK" if self.ok else f"FAILED ({', '.join(self.failed)})"
        return f"<ConformanceReport {self.protocol}: {status}>"


def _check(report: ConformanceReport, name: str, fn: Callable[[], None]) -> None:
    try:
        fn()
    except AssertionError as exc:
        report.failed.append(f"{name}: {exc}")
    except ReproError as exc:
        # A protocol broken enough to trip the framework's own internal
        # invariants (driver cross-checks, validation) is non-conformant.
        report.failed.append(f"{name}: {type(exc).__name__}: {exc}")
    else:
        report.passed.append(name)


def _contract_basics(cls: Type[CheckpointProtocol]) -> None:
    proto = cls(0, 3)
    assert proto.current_interval == 1, "fresh protocol must sit in interval 1"
    assert proto.saved_tdv(0) == (0, 0, 0), "C(i,0) must save the zero vector"
    pb = proto.on_send(1)
    assert pb.size_bits() >= 0, "piggyback size must be non-negative"
    assert proto.sent_to[1], "on_send must set sent_to (base contract)"
    decision1 = proto.wants_forced_checkpoint(pb, sender=1)
    decision2 = proto.wants_forced_checkpoint(pb, sender=1)
    assert decision1 == decision2, "forcing predicate must be repeatable"
    interval_before = proto.current_interval
    proto.on_receive(pb, sender=1)
    assert proto.current_interval == interval_before, (
        "on_receive must not open a new interval"
    )
    proto.on_checkpoint(forced=False)
    assert proto.current_interval == interval_before + 1, (
        "on_checkpoint must advance the interval"
    )
    assert not proto.after_first_send, "on_checkpoint must reset sent_to"


def _contract_errors(cls: Type[CheckpointProtocol]) -> None:
    try:
        cls(5, 2)
    except ProtocolError:
        pass
    else:
        raise AssertionError("out-of-range pid must raise ProtocolError")
    proto = cls(0, 2)
    try:
        proto.on_send(0)
    except ProtocolError:
        pass
    else:
        raise AssertionError("self-send must raise ProtocolError")


def _determinism(cls: Type[CheckpointProtocol]) -> None:
    def run():
        sim = Simulation(
            RandomUniformWorkload(send_rate=1.5),
            SimulationConfig(n=3, duration=15.0, seed=7, basic_rate=0.3),
        )
        res = sim.run_factory(lambda pid, n: cls(pid, n))
        return res.metrics.forced_checkpoints

    assert run() == run(), "same seed must reproduce the same forcing"


def _guarantees(cls: Type[CheckpointProtocol], seeds, duration) -> None:
    for seed in seeds:
        sim = Simulation(
            RandomUniformWorkload(send_rate=2.0),
            SimulationConfig(n=4, duration=duration, seed=seed, basic_rate=0.3),
        )
        res = sim.run_factory(lambda pid, n: cls(pid, n))
        if cls.ensures_rdt:
            report = check_rdt(res.history, max_violations=2)
            assert report.holds, (
                f"claims RDT but violates it (seed {seed}): "
                f"{report.violations[:2]}"
            )
        if getattr(cls, "ensures_zcf", False) or cls.ensures_rdt:
            assert useless_checkpoints(res.history) == [], (
                f"claims Z-cycle freedom but leaves useless checkpoints "
                f"(seed {seed})"
            )


def conformance_report(
    cls: Type[CheckpointProtocol],
    seeds=(0, 1, 2),
    duration: float = 20.0,
) -> ConformanceReport:
    """Run every conformance check; collect pass/fail per check."""
    report = ConformanceReport(protocol=getattr(cls, "name", cls.__name__))
    _check(report, "contract-basics", lambda: _contract_basics(cls))
    _check(report, "contract-errors", lambda: _contract_errors(cls))
    _check(report, "determinism", lambda: _determinism(cls))
    _check(report, "guarantees", lambda: _guarantees(cls, seeds, duration))
    return report


def assert_conformant(
    cls: Type[CheckpointProtocol], seeds=(0, 1, 2), duration: float = 20.0
) -> None:
    """Raise :class:`ConformanceError` on the first failed check."""
    report = conformance_report(cls, seeds=seeds, duration=duration)
    if not report.ok:
        raise ConformanceError("; ".join(report.failed))
