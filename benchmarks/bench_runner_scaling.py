"""Serial vs parallel vs cached wall time of the sweep runner.

Tracks the tentpole claim of the parallel harness: fanning sweep cells
out over worker processes cuts wall time roughly linearly in the worker
count (on hardware that has the cores), and a warm content-addressed
cache answers the whole sweep in milliseconds -- with results
bit-identical to the serial path in every mode.

The speedup assertion is conditional on visible CPUs: on a single-core
runner the parallel pool cannot beat serial wall time, so there we only
pin result parity and record the measured times in ``extra_info``.
"""

import os
import time

import pytest

from repro.harness import ratio_sweep, render_runner_stats, run_sweep
from repro.sim import SimulationConfig
from repro.workloads import RandomUniformWorkload

PROTOCOLS = ["bhmr", "bhmr-nosimple"]
SEEDS = (0, 1)
XS = [0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.7, 1.0]  # 8 cells for 4 workers
PARALLEL_WORKERS = 4


def scenario_at_rate(rate):
    return (
        lambda: RandomUniformWorkload(send_rate=1.0),
        SimulationConfig(n=8, duration=40.0, basic_rate=rate),
    )


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def serial_run():
    start = time.perf_counter()
    sweep = ratio_sweep(
        "basic_rate", XS, scenario_at_rate, PROTOCOLS, seeds=SEEDS
    )
    return sweep, time.perf_counter() - start


def test_parallel_matches_serial_and_scales(benchmark, emit, serial_run):
    serial_sweep, serial_s = serial_run

    def parallel():
        return run_sweep(
            "basic_rate",
            XS,
            scenario_at_rate,
            PROTOCOLS,
            seeds=SEEDS,
            workers=PARALLEL_WORKERS,
            cache=False,
        )

    parallel_sweep = benchmark.pedantic(parallel, rounds=1, iterations=1)
    parallel_s = parallel_sweep.stats.wall_seconds
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    cpus = _cpus()
    benchmark.extra_info.update(
        cpus=cpus,
        workers=PARALLEL_WORKERS,
        serial_s=round(serial_s, 3),
        parallel_s=round(parallel_s, 3),
        speedup=round(speedup, 2),
    )
    emit(
        render_runner_stats(
            parallel_sweep.stats,
            title=(
                f"Runner scaling -- serial {serial_s:.2f}s vs "
                f"{PARALLEL_WORKERS} workers {parallel_s:.2f}s "
                f"(speedup {speedup:.2f}x on {cpus} CPU(s))"
            ),
        )
    )
    # Identical results, not just statistically close.
    assert parallel_sweep.ratio_series() == serial_sweep.ratio_series()
    assert parallel_sweep.forced_series() == serial_sweep.forced_series()
    if cpus >= 4:
        assert speedup >= 2.0, f"expected >= 2x at 4 workers, got {speedup:.2f}x"
    elif cpus >= 2:
        assert speedup >= 1.3, f"expected >= 1.3x at 2+ CPUs, got {speedup:.2f}x"


def test_warm_cache_short_circuits(benchmark, emit, serial_run, tmp_path_factory):
    serial_sweep, serial_s = serial_run
    cache_dir = tmp_path_factory.mktemp("sweep-cache")
    cold = run_sweep(
        "basic_rate",
        XS,
        scenario_at_rate,
        PROTOCOLS,
        seeds=SEEDS,
        workers=1,
        cache=cache_dir,
    )
    assert cold.stats.cache_hits == 0

    warm = benchmark(
        lambda: run_sweep(
            "basic_rate",
            XS,
            scenario_at_rate,
            PROTOCOLS,
            seeds=SEEDS,
            workers=1,
            cache=cache_dir,
        )
    )
    assert warm.stats.cache_hits == len(XS)
    assert warm.ratio_series() == serial_sweep.ratio_series()
    assert warm.forced_series() == cold.forced_series()
    warm_s = warm.stats.wall_seconds
    benchmark.extra_info.update(
        serial_s=round(serial_s, 3),
        warm_cache_s=round(warm_s, 4),
        cache_speedup=round(serial_s / warm_s, 1) if warm_s > 0 else None,
    )
    emit(
        f"Warm cache: {len(XS)} cells in {warm_s * 1000:.1f} ms "
        f"(cold serial {serial_s:.2f}s)"
    )
    # A warm cache must beat rerunning the cells by a wide margin.
    assert warm_s < serial_s / 5
