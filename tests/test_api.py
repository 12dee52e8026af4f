"""The ``repro.api`` facade: signatures, equivalences, serialization."""

import pytest

from repro import api
from repro.harness import compare_protocols, ratio_sweep
from repro.harness.experiment import ComparisonResult
from repro.harness.runner import RunnerStats
from repro.harness.sweep import SweepResult
from repro.sim import Simulation, SimulationConfig
from repro.types import SimulationError
from repro.workloads import RandomUniformWorkload


class TestRun:
    def test_matches_direct_simulation(self):
        config = SimulationConfig(n=3, duration=15.0, seed=4, basic_rate=0.3)
        direct = Simulation(RandomUniformWorkload(), config).run("bhmr")
        via_api = api.run(
            workload="random", protocol="bhmr",
            n=3, duration=15.0, seed=4, basic_rate=0.3,
        )
        assert via_api.metrics == direct.metrics

    def test_workload_instance_and_factory(self):
        for spec in (RandomUniformWorkload(), RandomUniformWorkload):
            result = api.run(spec, protocol="fdas", n=3, duration=10.0)
            assert result.protocol_name == "fdas"

    def test_workload_args_reach_the_constructor(self):
        quiet = api.run(
            workload="random", workload_args={"send_rate": 0.2},
            n=3, duration=20.0,
        )
        busy = api.run(
            workload="random", workload_args={"send_rate": 3.0},
            n=3, duration=20.0,
        )
        assert busy.metrics.messages_delivered > quiet.metrics.messages_delivered

    def test_unknown_workload_raises(self):
        with pytest.raises(SimulationError, match="unknown workload"):
            api.run(workload="nope")

    def test_workload_args_require_a_name(self):
        with pytest.raises(SimulationError):
            api.run(RandomUniformWorkload(), workload_args={"send_rate": 1.0})

    def test_config_exclusive_with_knobs(self):
        with pytest.raises(SimulationError):
            api.run(config=SimulationConfig(n=3), n=4)

    def test_explicit_config_accepted(self):
        result = api.run(config=SimulationConfig(n=3, duration=10.0))
        assert result.metrics.num_processes == 3


class TestCompare:
    def test_matches_compare_protocols(self):
        config = SimulationConfig(n=3, duration=12.0, basic_rate=0.3)
        direct = compare_protocols(
            RandomUniformWorkload, config, ("bhmr", "fdas"),
            seeds=(0, 1), scenario="random",
        )
        via_api = api.compare(
            workload="random", protocols=("bhmr", "fdas"), seeds=(0, 1),
            n=3, duration=12.0, basic_rate=0.3,
        )
        assert via_api.to_dict() == direct.to_dict()

    def test_round_trips_through_dict(self):
        comp = api.compare(n=3, duration=10.0, seeds=(0,))
        again = ComparisonResult.from_dict(comp.to_dict())
        assert again.to_dict() == comp.to_dict()
        assert again.ratio("bhmr") == comp.ratio("bhmr")


class TestSweep:
    def test_serial_backend_matches_ratio_sweep(self):
        def scenario_at(rate):
            return RandomUniformWorkload, SimulationConfig(
                n=3, duration=10.0, basic_rate=rate
            )

        direct = ratio_sweep(
            "basic_rate", (0.1, 0.4), scenario_at, ("bhmr",), seeds=(0,)
        )
        via_api = api.sweep(
            workload="random", xs=(0.1, 0.4), protocols=("bhmr",),
            seeds=(0,), n=3, duration=10.0, workers=1,
        )
        assert via_api.ratio_series() == direct.ratio_series()
        assert via_api.forced_series() == direct.forced_series()

    def test_auto_and_serial_backends_agree(self):
        kwargs = dict(
            workload="random", xs=(0.1, 0.4), protocols=("bhmr",),
            seeds=(0,), n=3, duration=10.0,
        )
        serial = api.sweep(workers=1, **kwargs)
        auto = api.sweep(**kwargs)
        assert [c.to_dict() for c in serial.comparisons] == [
            c.to_dict() for c in auto.comparisons
        ]

    def test_sweeping_n_coerces_int(self):
        sweep = api.sweep(
            workload="random", xs=(3, 4), x_label="n",
            protocols=("bhmr",), seeds=(0,), duration=8.0, workers=1,
        )
        assert sweep.xs == [3, 4]
        assert all(
            agg.forced_total >= 0
            for comp in sweep.comparisons
            for agg in comp.protocols
        )

    def test_unsweepable_label_raises(self):
        with pytest.raises(SimulationError, match="sweep"):
            api.sweep(x_label="protocol_name", xs=(1,))

    def test_round_trips_through_dict_with_stats(self):
        sweep = api.sweep(
            workload="random", xs=(0.1,), protocols=("bhmr",), seeds=(0,),
            n=3, duration=8.0, metrics=api.MetricsRegistry(),
        )
        assert sweep.stats is not None and sweep.stats.metrics is not None
        doc = sweep.to_dict()
        again = SweepResult.from_dict(doc)
        assert again.to_dict() == doc
        assert isinstance(again.stats, RunnerStats)
        assert again.stats.metrics.counters == sweep.stats.metrics.counters

    def test_obs_instruments_surface_in_caller_objects(self):
        registry = api.MetricsRegistry()
        profiler = api.Profiler()
        api.sweep(
            workload="random", xs=(0.1, 0.3), protocols=("bhmr",),
            seeds=(0,), n=3, duration=8.0,
            metrics=registry, profiler=profiler,
        )
        snap = registry.snapshot()
        assert snap.counters["sweep.cells_run"] == 2
        assert snap.counters["replay.forced"] > 0
        phases = profiler.snapshot()
        assert {"generate", "simulate"} <= set(phases)
        assert all(v >= 0 for v in phases.values())


class TestAnalyze:
    def test_analyze_rdt_wrapper(self):
        result = api.run(protocol="fdas", n=3, duration=10.0)
        report = api.analyze_rdt(result.history)
        assert report.holds

    def test_reexports_are_the_real_objects(self):
        from repro.analysis import find_z_cycles, useless_checkpoints
        from repro.obs import MetricsRegistry, Profiler, Tracer

        assert api.find_z_cycles is find_z_cycles
        assert api.useless_checkpoints is useless_checkpoints
        assert api.Tracer is Tracer
        assert api.MetricsRegistry is MetricsRegistry
        assert api.Profiler is Profiler


class TestRunnerStatsSerialization:
    def test_round_trip_without_metrics(self):
        stats = RunnerStats(
            workers=2, mode="process", cells_total=4, cache_hits=1,
            cell_seconds=[0.1, 0.2, 0.3], wall_seconds=0.4, note="x",
            phase_seconds={"simulate": 0.25},
        )
        again = RunnerStats.from_dict(stats.to_dict())
        assert again.to_dict() == stats.to_dict()
        assert again.cells_run == 3


class TestErrorPaths:
    """Bad registry keys fail loudly: the message names the bad key and
    lists what the registry actually knows, so a typo is self-serviced."""

    def test_unknown_workload_message_lists_registry(self):
        from repro import WORKLOADS

        with pytest.raises(SimulationError) as err:
            api.run(workload="ringg", n=3, duration=10.0)
        message = str(err.value)
        assert "'ringg'" in message
        for name in WORKLOADS:
            assert name in message

    def test_unknown_protocol_message_lists_registry(self):
        from repro import PROTOCOLS

        with pytest.raises(SimulationError) as err:
            api.run(protocol="bmhr", n=3, duration=10.0)
        message = str(err.value)
        assert "'bmhr'" in message
        for name in PROTOCOLS:
            assert name in message

    def test_sweep_validates_protocols_before_simulating(self):
        with pytest.raises(SimulationError, match="unknown protocol 'nope'"):
            api.sweep(xs=[0.1], protocols=["nope"], n=3, duration=10.0)

    def test_connect_dead_socket_raises_connection_error(self, tmp_path):
        import time

        started = time.monotonic()
        with pytest.raises(ConnectionError, match="cannot connect"):
            api.connect(f"unix:{tmp_path}/gone.sock", timeout=2.0)
        assert time.monotonic() - started < 5.0
