"""repro: communication-induced checkpointing with RDT.

Reproduction of Baldoni-Helary-Mostefaoui-Raynal's communication-induced
checkpointing protocol ensuring Rollback-Dependency Trackability, the
surrounding RDT theory (visible characterizations), the FDAS/classical
protocol family it is compared against, and the simulation testbed that
regenerates the paper's evaluation.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.  The most commonly used names are re-exported
here; subpackages hold the full API:

* :mod:`repro.events` -- computations, messages, checkpoint patterns;
* :mod:`repro.clocks` -- transitive dependency vectors (TDVs);
* :mod:`repro.graph` -- R-graph and message-chain (Z-path) engines;
* :mod:`repro.analysis` -- consistency, RDT, Z-cycles, min/max GCPs;
* :mod:`repro.recovery` -- crashes, recovery lines, domino, logging;
* :mod:`repro.core` -- the protocols (BHMR, FDAS, classical, CL);
* :mod:`repro.sim` -- the discrete-event testbed;
* :mod:`repro.workloads` -- the evaluation environments;
* :mod:`repro.harness` -- comparisons, sweeps, tables;
* :mod:`repro.obs` -- tracing, metrics, profiling instruments;
* :mod:`repro.api` -- the blessed high-level facade (start here).
"""

from repro.analysis import (
    can_belong_to_same_gcp,
    check_rdt,
    find_z_cycles,
    is_consistent_gcp,
    is_consistent_pair,
    max_consistent_gcp,
    min_consistent_gcp,
    useless_checkpoints,
)
from repro.core import (
    PROTOCOLS,
    RDT_FAMILY,
    BHMRProtocol,
    CheckpointProtocol,
    FDASProtocol,
    make_protocol,
    run_chandy_lamport,
)
from repro.events import (
    History,
    PatternBuilder,
    figure1_pattern,
    random_pattern,
    validate_history,
)
from repro.graph import RGraph, ZPathAnalyzer
from repro.obs import MetricsRegistry, MetricsSnapshot, Profiler, Tracer
from repro.recovery import CrashSpec, domino_report, recovery_line
from repro.sim import ReplayResult, Simulation, SimulationConfig, run_scenario
from repro.types import (
    AnalysisError,
    CheckpointId,
    PatternError,
    ProtocolError,
    ReproError,
    SimulationError,
)
from repro.workloads import WORKLOADS

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "BHMRProtocol",
    "CheckpointId",
    "CheckpointProtocol",
    "CrashSpec",
    "FDASProtocol",
    "History",
    "MetricsRegistry",
    "MetricsSnapshot",
    "PROTOCOLS",
    "Profiler",
    "PatternBuilder",
    "PatternError",
    "ProtocolError",
    "RDT_FAMILY",
    "ReplayResult",
    "ReproError",
    "RGraph",
    "Simulation",
    "SimulationConfig",
    "SimulationError",
    "Tracer",
    "WORKLOADS",
    "ZPathAnalyzer",
    "__version__",
    "can_belong_to_same_gcp",
    "check_rdt",
    "domino_report",
    "figure1_pattern",
    "find_z_cycles",
    "is_consistent_gcp",
    "is_consistent_pair",
    "make_protocol",
    "max_consistent_gcp",
    "min_consistent_gcp",
    "random_pattern",
    "recovery_line",
    "run_chandy_lamport",
    "run_scenario",
    "useless_checkpoints",
    "validate_history",
]
