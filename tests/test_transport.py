"""Unit tests for the reliable transport over a faulty physical layer.

The transport's one-line contract: whatever the network does below,
the protocol layer above sees each application message **exactly once**
(in per-link order when FIFO reconstruction is on), and a run always
terminates -- the watchdog degrades hopeless links instead of retrying
forever.  These tests drive the transport through the real generator on
small scenarios and check the contract directly on the recorded traces.
"""

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.sim import (
    ChannelMap,
    NetFaultModel,
    Partition,
    Simulation,
    SimulationConfig,
    TraceGenerator,
    TraceOpKind,
    TransportConfig,
)
from repro.types import SimulationError
from repro.workloads import RandomUniformWorkload


def faulty_sim(
    loss=0.0,
    duplicate=0.0,
    reorder=0.0,
    partitions=(),
    n=4,
    duration=25.0,
    seed=0,
    net_seed=0,
    fifo=False,
    transport=None,
    tracer=None,
    metrics=None,
):
    model = NetFaultModel.uniform(
        loss=loss,
        duplicate=duplicate,
        reorder=reorder,
        partitions=partitions,
        seed=net_seed,
    )
    return Simulation(
        RandomUniformWorkload(send_rate=1.0),
        SimulationConfig(
            n=n,
            duration=duration,
            seed=seed,
            basic_rate=0.1,
            fifo=fifo,
            net_faults=model,
            transport=transport,
        ),
        tracer=tracer,
        metrics=metrics,
    )


def link_sequences(trace):
    """Per-link msg-id sequences: ``(sends, deliveries)`` keyed by link."""
    sends, delivers = {}, {}
    for op in trace:
        if op.kind is TraceOpKind.SEND:
            sends.setdefault((op.pid, op.peer), []).append(op.msg_id)
        elif op.kind is TraceOpKind.DELIVER:
            delivers.setdefault((op.peer, op.pid), []).append(op.msg_id)
    return sends, delivers


# ----------------------------------------------------------------------
# the exactly-once contract
# ----------------------------------------------------------------------
def test_lossy_run_delivers_exactly_once():
    sim = faulty_sim(loss=0.3, duplicate=0.2, reorder=0.3)
    trace = sim.trace
    sends = [op.msg_id for op in trace if op.kind is TraceOpKind.SEND]
    delivers = [op.msg_id for op in trace if op.kind is TraceOpKind.DELIVER]
    assert len(set(delivers)) == len(delivers), "a message delivered twice"
    assert set(delivers) <= set(sends)
    report = sim.net_report
    assert report.sent == len(sends)
    assert report.delivered == len(delivers)
    # Whatever was not delivered was explicitly abandoned by the watchdog.
    assert set(report.undelivered) == set(sends) - set(delivers)
    assert set(report.undelivered) <= set(report.degraded)


def test_faultless_transport_is_lossless():
    """A zero-rate model still routes through the transport -- and then
    every message arrives exactly once with nothing dropped.  (Spurious
    retransmits -- ack round-trips outliving the RTO -- may still
    happen; they must be suppressed, never redelivered.)"""
    sim = faulty_sim()
    trace = sim.trace
    report = sim.net_report
    assert report.sent == report.delivered == trace.num_messages()
    assert report.dropped == report.duplicated == 0
    assert report.undelivered == () and report.degraded_links == ()


def test_duplication_is_suppressed():
    sim = faulty_sim(duplicate=1.0, net_seed=2)
    trace = sim.trace
    report = sim.net_report
    # Duplication is per physical attempt (retransmits duplicate too)...
    assert report.duplicated == report.attempts
    assert report.delivered == report.sent  # ...but delivered once each
    delivers = [op.msg_id for op in trace if op.kind is TraceOpKind.DELIVER]
    assert len(set(delivers)) == len(delivers)


# ----------------------------------------------------------------------
# watchdog / liveness
# ----------------------------------------------------------------------
def test_total_loss_terminates_and_degrades():
    metrics = MetricsRegistry()
    tracer = Tracer()
    sim = faulty_sim(loss=1.0, duration=15.0, tracer=tracer, metrics=metrics)
    trace = sim.trace  # would hang forever without the watchdog
    report = sim.net_report
    assert trace.num_deliveries() == 0
    assert report.delivered == 0
    assert set(report.undelivered) == set(report.degraded)
    assert len(report.degraded) == report.sent
    degraded_events = tracer.of_kind("net.degraded")
    assert len(degraded_events) == report.sent
    counters = metrics.snapshot().counters
    assert counters["net.degraded_links"] == len(report.degraded_links)
    assert counters["net.dropped"] >= report.sent  # every attempt dropped


def test_permanent_partition_degrades_only_cut_links():
    tracer = Tracer()
    sim = faulty_sim(
        partitions=(Partition(0, 1, start=0.0),), duration=20.0, tracer=tracer
    )
    sim.trace
    report = sim.net_report
    assert set(report.degraded_links) <= {(0, 1), (1, 0)}
    assert len(report.degraded_links) >= 1
    for ev in tracer.of_kind("net.degraded"):
        assert ev.fields["forever"] is True


def test_transient_partition_heals():
    """Messages sent inside a short window retransmit past it and land:
    nothing is degraded, nothing is lost for good."""
    sim = faulty_sim(
        partitions=(Partition(0, 1, start=5.0, end=10.0),), duration=30.0
    )
    sim.trace
    report = sim.net_report
    assert report.undelivered == ()
    assert report.degraded_links == ()
    assert report.dropped > 0  # the window did cut transmissions
    assert report.retransmits > 0  # ...which the transport retried


def test_attempts_are_bounded_by_watchdog():
    cfg = TransportConfig(max_attempts=3, rto=0.5)
    sim = faulty_sim(loss=1.0, duration=10.0, transport=cfg)
    sim.trace
    report = sim.net_report
    assert report.attempts == 3 * report.sent


# ----------------------------------------------------------------------
# FIFO reconstruction
# ----------------------------------------------------------------------
def test_fifo_reconstruction_orders_links():
    sim = faulty_sim(loss=0.25, duplicate=0.2, reorder=0.5, fifo=True, seed=5)
    trace = sim.trace
    sends, delivers = link_sequences(trace)
    undelivered = set(sim.net_report.undelivered)
    for link, sent_ids in sends.items():
        expected = [m for m in sent_ids if m not in undelivered]
        assert delivers.get(link, []) == expected, link


def test_unordered_delivery_actually_happens_without_fifo():
    """The FIFO test above is vacuous unless the same scenario without
    reconstruction does reorder some link -- pin that it does."""
    sim = faulty_sim(loss=0.25, duplicate=0.2, reorder=0.5, fifo=False, seed=5)
    sends, delivers = link_sequences(sim.trace)
    undelivered = set(sim.net_report.undelivered)
    inversions = sum(
        delivers.get(link, []) != [m for m in ids if m not in undelivered]
        for link, ids in sends.items()
    )
    assert inversions > 0


def test_fifo_channel_map_orders_links_without_simulation():
    """FIFO is a property of the ChannelMap the generator is handed: a
    direct ``generate_trace`` under net faults must keep per-link send
    order too, not only a run that goes through ``Simulation``."""
    model = NetFaultModel.uniform(loss=0.2, duplicate=0.1, reorder=0.3, seed=0)
    out_of_order = 0
    for seed in range(5):
        gen = TraceGenerator(
            4,
            RandomUniformWorkload(send_rate=1.0),
            duration=25.0,
            seed=seed,
            channels=ChannelMap(4, fifo=True),
            net_faults=model,
        )
        sends, delivers = link_sequences(gen.generate())
        undelivered = set(gen.net_report.undelivered)
        out_of_order += sum(
            delivers.get(link, []) != [m for m in ids if m not in undelivered]
            for link, ids in sends.items()
        )
    assert out_of_order == 0


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_equal_seeds_byte_identical_net_events():
    def run():
        tracer = Tracer()
        sim = faulty_sim(
            loss=0.3, duplicate=0.2, reorder=0.3, seed=11, net_seed=4,
            tracer=tracer,
        )
        sim.run("bhmr")
        return tracer.dumps()

    first, second = run(), run()
    assert first == second
    assert '"kind":"net.' in first


def test_net_seed_changes_the_run():
    def ops(net_seed):
        sim = faulty_sim(loss=0.3, seed=11, net_seed=net_seed)
        return [(op.time, op.kind, op.pid, op.msg_id) for op in sim.trace]

    assert ops(1) != ops(2)


# ----------------------------------------------------------------------
# config plumbing and validation
# ----------------------------------------------------------------------
def test_transport_config_validation():
    with pytest.raises(SimulationError):
        TransportConfig(rto=0.0)
    with pytest.raises(SimulationError):
        TransportConfig(rto=5.0, max_rto=1.0)
    with pytest.raises(SimulationError):
        TransportConfig(backoff=0.5)
    with pytest.raises(SimulationError):
        TransportConfig(jitter=-0.1)
    with pytest.raises(SimulationError):
        TransportConfig(max_attempts=0)
    cfg = TransportConfig(rto=1.0, backoff=2.0, max_rto=5.0)
    assert cfg.timeout(1) == 1.0
    assert cfg.timeout(2) == 2.0
    assert cfg.timeout(4) == 5.0  # capped


def test_transport_requires_net_faults():
    with pytest.raises(SimulationError):
        SimulationConfig(transport=TransportConfig())
    with pytest.raises(SimulationError):
        TraceGenerator(
            2, RandomUniformWorkload(), transport=TransportConfig()
        )


def test_channel_map_reset_gives_per_run_isolation():
    """A reused (FIFO) ChannelMap must not leak arrival floors from one
    generation into the next: with reset-on-generate, two runs through
    the same map record identical traces."""
    shared = ChannelMap(3, fifo=True)

    def ops():
        gen = TraceGenerator(
            3,
            RandomUniformWorkload(send_rate=1.0),
            duration=15.0,
            seed=2,
            basic_rate=0.1,
            channels=shared,
        )
        return [(op.time, op.kind, op.pid, op.msg_id) for op in gen.generate()]

    assert ops() == ops()
    assert shared._last_arrival  # the run did exercise the FIFO floors
    shared.reset()
    assert not shared._last_arrival
