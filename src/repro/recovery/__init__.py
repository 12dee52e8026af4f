"""Rollback recovery: crashes, recovery lines, domino effect, logging."""

from repro.recovery.domino import (
    DominoReport,
    domino_depth,
    domino_depths_by_rounds,
    domino_report,
)
from repro.recovery.failure import CrashSpec, restart_bounds
from repro.recovery.gc import (
    GCReport,
    collect_garbage,
    global_recovery_floor,
    obsolete_checkpoints,
    recovery_line_monotone,
)
from repro.recovery.logging import (
    ReplayPlan,
    build_sender_logs,
    replay_plan,
    trim_log,
)
from repro.recovery.manager import OnlineGC, OnlineRecovery, RecoveryManager
from repro.recovery.recovery_line import (
    RecoveryLine,
    recovery_line,
    recovery_line_rgraph,
    rollback_distance,
)

__all__ = [
    "CrashSpec",
    "DominoReport",
    "GCReport",
    "collect_garbage",
    "global_recovery_floor",
    "obsolete_checkpoints",
    "recovery_line_monotone",
    "OnlineGC",
    "OnlineRecovery",
    "RecoveryLine",
    "RecoveryManager",
    "ReplayPlan",
    "build_sender_logs",
    "domino_depth",
    "domino_depths_by_rounds",
    "domino_report",
    "recovery_line",
    "recovery_line_rgraph",
    "replay_plan",
    "restart_bounds",
    "rollback_distance",
    "trim_log",
]
