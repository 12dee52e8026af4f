"""Wide seeded fuzz campaign over the whole pipeline.

Cheap but broad: many seeds x workloads x protocols, each run passed
through the (vectorized) RDT checker and spot-checked for Corollary 4.5.
Complements the hypothesis suites: those shrink counterexamples well,
this one covers realistic traffic at volume.
"""

import pytest

from repro.analysis import check_rdt, min_consistent_gcp
from repro.events import CheckpointKind
from repro.sim import Simulation, SimulationConfig
from repro.types import CheckpointId
from repro.workloads import (
    BurstyWorkload,
    ClientServerWorkload,
    OverlappingGroupsWorkload,
    RandomUniformWorkload,
)

CAMPAIGN = [
    ("random", lambda: RandomUniformWorkload(send_rate=2.0), 4),
    ("bursty", lambda: BurstyWorkload(), 4),
    ("groups", lambda: OverlappingGroupsWorkload(group_size=3, overlap=1), 6),
    ("client-server", lambda: ClientServerWorkload(pipeline=2), 4),
]


@pytest.mark.parametrize("env,make,n", CAMPAIGN)
@pytest.mark.parametrize("protocol", ["bhmr", "bhmr-nosimple", "fdas"])
def test_rdt_fuzz_campaign(env, make, n, protocol):
    """15 seeds per (environment, protocol) cell, through the fast pass."""
    for seed in range(15):
        sim = Simulation(
            make(),
            SimulationConfig(
                n=n, duration=25.0, seed=1000 + seed, basic_rate=0.3
            ),
        )
        res = sim.run(protocol)
        report = check_rdt(res.history)
        assert report.holds, (env, protocol, seed, report.violations[:2])


@pytest.mark.parametrize("seed", range(10))
def test_corollary_45_fuzz(seed):
    """Spot-check min-GCP-on-the-fly on one random checkpoint per run."""
    import random

    rng = random.Random(seed)
    sim = Simulation(
        RandomUniformWorkload(send_rate=2.0),
        SimulationConfig(n=4, duration=25.0, seed=2000 + seed, basic_rate=0.3),
    )
    res = sim.run("bhmr")
    candidates = [
        CheckpointId(pid, ev.checkpoint_index)
        for pid in range(4)
        for ev in res.history.checkpoints(pid)
        if ev.checkpoint_kind is not CheckpointKind.FINAL
    ]
    cid = rng.choice(candidates)
    assert min_consistent_gcp(res.history, [cid]) == res.family[
        cid.pid
    ].min_gcp_of(cid.index)
