"""Harness tests: comparisons, sweeps, rendering."""

import pytest

from repro.analysis import check_rdt
from repro.harness import (
    compare_protocols,
    ratio_sweep,
    render_ascii_plot,
    render_series,
    render_table,
)
from repro.sim import Simulation, SimulationConfig
from repro.workloads import RandomUniformWorkload


def small_cfg(**kw):
    defaults = dict(n=3, duration=25.0, basic_rate=0.25)
    defaults.update(kw)
    return SimulationConfig(**defaults)


class TestCompareProtocols:
    @pytest.fixture(scope="class")
    def comparison(self):
        return compare_protocols(
            lambda: RandomUniformWorkload(send_rate=1.5),
            small_cfg(),
            protocols=["bhmr", "fdas", "cbr"],
            seeds=(0, 1),
            scenario="unit",
            verify_rdt=True,
        )

    def test_baseline_has_ratio_one(self, comparison):
        assert comparison.ratio("fdas") == pytest.approx(1.0)

    def test_bhmr_ratio_at_most_one(self, comparison):
        assert comparison.ratio("bhmr") <= 1.0

    def test_rdt_verified(self, comparison):
        for agg in comparison.protocols:
            assert agg.rdt_ok, agg.protocol

    def test_rows_render(self, comparison):
        table = render_table(comparison.rows(), title="unit")
        assert "bhmr" in table and "R" in table

    def test_aggregate_lookup(self, comparison):
        assert comparison.aggregate("cbr").forced_total > 0
        with pytest.raises(KeyError):
            comparison.aggregate("nope")

    def test_rdt_ok_equals_full_check_per_history(self):
        # The comparison stops each check at the first violation; its
        # verdict must still be the full checker's on every history.
        protocols = ["bhmr", "fdas", "cbr", "independent"]
        seeds = (0, 1, 2)
        comp = compare_protocols(
            lambda: RandomUniformWorkload(send_rate=1.5),
            small_cfg(),
            protocols=protocols,
            seeds=seeds,
            verify_rdt=True,
        )
        reports = {
            name: [
                check_rdt(
                    Simulation(
                        RandomUniformWorkload(send_rate=1.5), small_cfg(seed=seed)
                    ).run(name).history
                )
                for seed in seeds
            ]
            for name in protocols
        }
        for name in protocols:
            expected = all(report.holds for report in reports[name])
            assert comp.aggregate(name).rdt_ok == expected, name
        # The cell has histories an early stop cuts short.
        assert max(len(r.violations) for r in reports["independent"]) > 1

    def test_baseline_added_automatically(self):
        comp = compare_protocols(
            lambda: RandomUniformWorkload(),
            small_cfg(duration=10.0),
            protocols=["bhmr"],
            seeds=(0,),
        )
        assert {a.protocol for a in comp.protocols} == {"bhmr", "fdas"}


class TestRatioSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        def scenario_at(rate):
            return (
                lambda: RandomUniformWorkload(send_rate=1.0),
                small_cfg(basic_rate=rate, duration=20.0),
            )

        return ratio_sweep(
            "basic_rate",
            [0.1, 0.5],
            scenario_at,
            protocols=["bhmr"],
            seeds=(0, 1),
        )

    def test_series_shape(self, sweep):
        series = sweep.ratio_series()
        assert set(series) == {"bhmr"}
        assert len(series["bhmr"]) == 2

    def test_min_max(self, sweep):
        assert sweep.min_ratio("bhmr") <= sweep.max_ratio("bhmr")

    def test_forced_series_includes_baseline(self, sweep):
        assert "fdas" in sweep.forced_series()

    def test_render_series(self, sweep):
        text = render_series(
            "basic_rate", sweep.xs, sweep.ratio_series(), title="sweep"
        )
        assert "basic_rate" in text and "bhmr" in text


class TestRendering:
    def test_empty_table(self):
        assert "(empty)" in render_table([])

    def test_none_rendered_as_dash(self):
        table = render_table([{"a": None, "b": 1}])
        assert "-" in table

    def test_float_formatting(self):
        assert "0.123" in render_table([{"x": 0.1234}])

    def test_ascii_plot(self):
        text = render_ascii_plot(
            [1, 2], {"p": [0.5, None]}, width=10, title="plot"
        )
        assert "#" in text and "(n/a)" in text


class TestPerSeedStatistics:
    @pytest.fixture(scope="class")
    def comparison(self):
        return compare_protocols(
            lambda: RandomUniformWorkload(send_rate=1.5),
            small_cfg(),
            protocols=["bhmr"],
            seeds=(0, 1, 2),
        )

    def test_per_seed_forced_sums_to_total(self, comparison):
        agg = comparison.aggregate("bhmr")
        assert sum(agg.forced_per_seed) == agg.forced_total
        assert len(agg.forced_per_seed) == 3

    def test_ratio_mean_close_to_pooled_ratio(self, comparison):
        agg = comparison.aggregate("bhmr")
        assert agg.ratio_mean is not None
        assert abs(agg.ratio_mean - agg.ratio_to_baseline) < 0.1

    def test_stddev_defined_for_multiple_seeds(self, comparison):
        agg = comparison.aggregate("bhmr")
        assert agg.ratio_stddev is not None and agg.ratio_stddev >= 0

    def test_stddev_none_for_single_seed(self):
        comp = compare_protocols(
            lambda: RandomUniformWorkload(),
            small_cfg(duration=10.0),
            protocols=["bhmr"],
            seeds=(0,),
        )
        agg = comp.aggregate("bhmr")
        assert agg.ratio_stddev is None
        assert agg.ratio_mean is not None

    def test_baseline_per_seed_ratio_is_one(self, comparison):
        agg = comparison.aggregate("fdas")
        assert all(r == 1.0 for r in agg.ratio_per_seed)


class TestSweepEdges:
    def test_min_max_ratio_none_when_unknown_protocol(self):
        def scenario_at(rate):
            return (
                lambda: RandomUniformWorkload(),
                small_cfg(basic_rate=rate, duration=8.0),
            )

        sweep = ratio_sweep(
            "r", [0.2], scenario_at, protocols=["bhmr"], seeds=(0,)
        )
        assert sweep.min_ratio("nonexistent") is None
        assert sweep.max_ratio("nonexistent") is None

    def test_baseline_excluded_from_ratio_series(self):
        def scenario_at(rate):
            return (
                lambda: RandomUniformWorkload(),
                small_cfg(basic_rate=rate, duration=8.0),
            )

        sweep = ratio_sweep(
            "r", [0.2], scenario_at, protocols=["bhmr"], seeds=(0,)
        )
        assert "fdas" not in sweep.ratio_series()
