"""Trace generation and protocol replay tests."""

import gc

import pytest

from repro.core import protocol_factory
from repro.events import CheckpointKind, validate_history
from repro.sim import (
    Simulation,
    SimulationConfig,
    Trace,
    TraceOp,
    TraceOpKind,
    generate_trace,
    replay,
    replay_many,
)
from repro.types import SimulationError
from repro.workloads import RandomUniformWorkload


def small_config(**kw):
    defaults = dict(n=3, duration=30.0, seed=5, basic_rate=0.2)
    defaults.update(kw)
    return SimulationConfig(**defaults)


class TestTraceValidation:
    def test_rejects_double_send(self):
        ops = [
            TraceOp(1.0, TraceOpKind.SEND, 0, peer=1, msg_id=0),
            TraceOp(2.0, TraceOpKind.SEND, 0, peer=1, msg_id=0),
        ]
        with pytest.raises(SimulationError):
            Trace(2, ops)

    def test_rejects_unsent_delivery(self):
        ops = [TraceOp(1.0, TraceOpKind.DELIVER, 1, peer=0, msg_id=7)]
        with pytest.raises(SimulationError):
            Trace(2, ops)

    def test_rejects_endpoint_mismatch(self):
        ops = [
            TraceOp(1.0, TraceOpKind.SEND, 0, peer=1, msg_id=0),
            TraceOp(2.0, TraceOpKind.DELIVER, 0, peer=1, msg_id=0),
        ]
        with pytest.raises(SimulationError):
            Trace(2, ops)

    def test_sorts_by_time(self):
        ops = [
            TraceOp(2.0, TraceOpKind.DELIVER, 1, peer=0, msg_id=0),
            TraceOp(1.0, TraceOpKind.SEND, 0, peer=1, msg_id=0),
        ]
        t = Trace(2, ops)
        assert t.ops[0].kind is TraceOpKind.SEND


class TestGeneration:
    def test_deterministic_given_seed(self):
        w = RandomUniformWorkload()
        t1 = generate_trace(3, w, duration=20, seed=9)
        t2 = generate_trace(3, RandomUniformWorkload(), duration=20, seed=9)
        assert [repr(op) for op in t1] == [repr(op) for op in t2]

    def test_different_seeds_differ(self):
        t1 = generate_trace(3, RandomUniformWorkload(), duration=20, seed=1)
        t2 = generate_trace(3, RandomUniformWorkload(), duration=20, seed=2)
        assert [repr(op) for op in t1] != [repr(op) for op in t2]

    def test_all_messages_eventually_delivered(self):
        t = generate_trace(4, RandomUniformWorkload(), duration=30, seed=3)
        assert t.num_messages() == t.num_deliveries()

    def test_basic_rate_zero_means_no_basic(self):
        t = generate_trace(
            3, RandomUniformWorkload(), duration=20, seed=0, basic_rate=0.0
        )
        assert t.num_basic_checkpoints() == 0

    def test_higher_rate_more_checkpoints(self):
        lo = generate_trace(
            3, RandomUniformWorkload(), duration=50, seed=0, basic_rate=0.05
        )
        hi = generate_trace(
            3, RandomUniformWorkload(), duration=50, seed=0, basic_rate=1.0
        )
        assert hi.num_basic_checkpoints() > lo.num_basic_checkpoints()


class TestReplay:
    def test_histories_validate(self):
        sim = Simulation(RandomUniformWorkload(), small_config())
        for name in ("bhmr", "fdas", "cas", "independent"):
            res = sim.run(name)
            validate_history(res.history)

    def test_trace_content_is_preserved(self):
        sim = Simulation(RandomUniformWorkload(), small_config())
        res = sim.run("bhmr")
        t = sim.trace
        assert res.metrics.messages_delivered == t.num_deliveries()
        assert res.metrics.basic_checkpoints == t.num_basic_checkpoints()

    def test_forced_checkpoints_marked(self):
        sim = Simulation(RandomUniformWorkload(), small_config())
        res = sim.run("cbr")
        forced = res.history.checkpoint_counts(CheckpointKind.FORCED)
        assert sum(forced) == res.metrics.forced_checkpoints > 0

    def test_same_trace_under_protocols_same_messages(self):
        sim = Simulation(RandomUniformWorkload(), small_config())
        results = sim.compare(["bhmr", "fdas"])
        a, b = results["bhmr"].history, results["fdas"].history
        assert sorted(a.messages) == sorted(b.messages)
        for mid in a.messages:
            assert a.message(mid).src == b.message(mid).src
            assert a.message(mid).dst == b.message(mid).dst

    def test_independent_adds_no_checkpoints(self):
        sim = Simulation(RandomUniformWorkload(), small_config())
        res = sim.run("independent")
        assert res.metrics.forced_checkpoints == 0
        assert res.metrics.piggyback_bits_total == 0

    def test_replay_many_shares_trace(self):
        t = generate_trace(3, RandomUniformWorkload(), duration=20, seed=2)
        results = replay_many(
            t, {name: protocol_factory(name) for name in ("bhmr", "fdas")}
        )
        assert set(results) == {"bhmr", "fdas"}

    def test_replay_unclosed(self):
        t = generate_trace(3, RandomUniformWorkload(), duration=20, seed=2)
        res = replay(t, protocol_factory("bhmr"), close=False)
        validate_history(res.history)

    def test_piggyback_accounting_positive_for_tdv_family(self):
        sim = Simulation(RandomUniformWorkload(), small_config())
        res = sim.run("fdas")
        n = small_config().n
        per_msg = res.metrics.piggyback_bits_per_message
        assert per_msg == pytest.approx(32 * n)


class TestSimulationFacade:
    def test_trace_cached(self):
        sim = Simulation(RandomUniformWorkload(), small_config())
        assert sim.trace is sim.trace

    def test_config_validation(self):
        with pytest.raises(SimulationError):
            SimulationConfig(n=0)
        with pytest.raises(SimulationError):
            SimulationConfig(duration=-1)
        with pytest.raises(SimulationError):
            SimulationConfig(basic_rate=-0.1)

    def test_run_scenario_helper(self):
        from repro.sim import run_scenario

        res = run_scenario(
            RandomUniformWorkload(), "bhmr", small_config(duration=10)
        )
        assert res.protocol_name == "bhmr"


class TestGeneratorKeepsNoOps:
    def test_ops_die_with_their_trace(self):
        # The generator is in a reference cycle (its workload context
        # points back at it), so with the cyclic collector off anything
        # it kept would outlive the simulation and its trace.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            sim = Simulation(RandomUniformWorkload(), small_config())
            made = {id(op) for op in sim.trace}
            assert made
            del sim
            left = [
                obj for obj in gc.get_objects()
                if isinstance(obj, TraceOp) and id(obj) in made
            ]
        finally:
            if was_enabled:
                gc.enable()
        assert left == []
