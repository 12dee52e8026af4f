"""Network-fault robustness: what reliability costs, and what survives it.

Two tables for the PR-4 subsystem:

* **Retransmission overhead vs loss rate** -- the reliable transport
  buys exactly-once delivery with retransmissions; this sweeps the loss
  rate and reports attempts/message, retransmits, drops and degraded
  links.  The overhead must grow with the loss rate and stay zero on a
  faultless network.

* **R under reordering** -- the forced-checkpoint ratio of
  bhmr/fdas/independent over traffic that crossed a heavily reordering
  (non-FIFO amplified) network.  Because faults resolve at generation
  time and the transport restores the reliable-channel model, the
  paper's ordering ``forced(bhmr) <= forced(fdas)`` must be untouched.
"""

import statistics

import pytest

from repro.core import protocol_factory
from repro.harness import render_table
from repro.sim import NetFaultModel, Simulation, SimulationConfig, replay
from repro.workloads import RandomUniformWorkload

N = 4
DURATION = 60.0
SEEDS = (0, 1)
LOSS_RATES = [0.0, 0.1, 0.2, 0.4]
PROTOCOLS = ["bhmr", "fdas", "independent"]
BASELINE = "fdas"


def faulty_sim(seed, loss=0.0, duplicate=0.0, reorder=0.0, net_seed=1):
    return Simulation(
        RandomUniformWorkload(send_rate=1.5),
        SimulationConfig(
            n=N,
            duration=DURATION,
            seed=seed,
            basic_rate=0.2,
            net_faults=NetFaultModel.uniform(
                loss=loss, duplicate=duplicate, reorder=reorder, seed=net_seed
            ),
        ),
    )


@pytest.fixture(scope="module")
def loss_sweep():
    points = []
    for loss in LOSS_RATES:
        reports = []
        for seed in SEEDS:
            sim = faulty_sim(seed, loss=loss)
            sim.trace
            reports.append(sim.net_report)
        points.append(
            {
                "loss": loss,
                "attempts/msg": statistics.mean(
                    r.attempts / r.sent for r in reports
                ),
                "retransmits": sum(r.retransmits for r in reports),
                "dropped": sum(r.dropped for r in reports),
                "degraded": sum(len(r.degraded) for r in reports),
                "undelivered": sum(len(r.undelivered) for r in reports),
            }
        )
    return points


def test_retransmission_overhead_vs_loss(benchmark, emit, loss_sweep):
    emit(
        render_table(
            [
                {**p, "attempts/msg": round(p["attempts/msg"], 3)}
                for p in loss_sweep
            ],
            title=f"Reliability cost vs loss rate (random, n={N})",
        )
    )
    by_loss = {p["loss"]: p for p in loss_sweep}
    # A faultless network drops nothing; only spurious retransmits (ack
    # round-trips outliving the RTO) pad the attempt count, and barely.
    assert by_loss[0.0]["dropped"] == 0
    assert by_loss[0.0]["attempts/msg"] < 1.15
    # The overhead is monotone in the loss rate...
    attempts = [p["attempts/msg"] for p in loss_sweep]
    assert attempts == sorted(attempts)
    retrans = [p["retransmits"] for p in loss_sweep]
    assert retrans == sorted(retrans)
    # ...and retransmission outlasts uniform loss: every message lands
    # (high loss may starve some *acks*, flagging delivered messages as
    # degraded, but nothing goes undelivered).
    assert all(p["undelivered"] == 0 for p in loss_sweep)
    benchmark(lambda: faulty_sim(0, loss=0.2).trace)


@pytest.fixture(scope="module")
def reorder_comparison():
    """Per-protocol forced totals over heavily reordered traffic."""
    forced = {p: 0 for p in PROTOCOLS}
    messages = 0
    for seed in SEEDS:
        sim = faulty_sim(seed, duplicate=0.2, reorder=0.6, net_seed=3)
        trace = sim.trace
        messages += trace.num_messages()
        for protocol in PROTOCOLS:
            result = replay(trace, protocol_factory(protocol))
            forced[protocol] += result.metrics.forced_checkpoints
    return forced, messages


def test_r_under_reordering(benchmark, emit, reorder_comparison):
    forced, messages = reorder_comparison
    rows = [
        {
            "protocol": protocol,
            "forced": forced[protocol],
            "R": round(forced[protocol] / forced[BASELINE], 3),
        }
        for protocol in PROTOCOLS
    ]
    emit(
        render_table(
            rows,
            title=(
                f"R under a reordering network (random, n={N}, "
                f"{messages} delivered msgs)"
            ),
        )
    )
    # The transport re-established the reliable-channel model, so the
    # paper's ordering survives the chaos below it.
    assert forced["independent"] == 0
    assert 0 < forced["bhmr"] <= forced[BASELINE]
    benchmark(
        lambda: replay(
            faulty_sim(0, reorder=0.6, net_seed=3).trace,
            protocol_factory("bhmr"),
        )
    )
