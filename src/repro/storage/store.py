"""Stable-storage model: what checkpoints and logs actually cost.

Checkpointing literature measures protocols in forced-checkpoint counts;
operators measure them in bytes of stable storage.  This module models
the per-process stable store -- checkpoint records plus the sender
message log -- with simple, explicit cost parameters, so the garbage
collection machinery (:mod:`repro.recovery.gc`) can be evaluated in the
unit that matters.  The log is a set of message ids, trimmed by
:func:`~repro.recovery.logging.trim_log` (the one reclaim rule) and by
nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.types import CheckpointId, MessageId, ProcessId, ReproError


class StorageError(ReproError):
    """Stable-store misuse (double write, unknown discard...)."""


@dataclass(frozen=True)
class CheckpointRecord:
    cid: CheckpointId
    bytes: int
    written_at: float


class StableStore:
    """One process's stable storage: checkpoints + sender log.

    The byte counters cover the checkpoints (``usage_bytes`` is a running
    total, kept by write and discard); the timeline prices ``log``.
    """

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid
        self._checkpoints: Dict[int, CheckpointRecord] = {}
        self.log: Set[MessageId] = set()
        self.bytes_written = 0
        self.peak_bytes = 0
        self._usage = 0

    # ------------------------------------------------------------------
    def write_checkpoint(self, cid: CheckpointId, size: int, now: float) -> None:
        if cid.pid != self.pid:
            raise StorageError(f"{cid} does not belong to P{self.pid}")
        if cid.index in self._checkpoints:
            raise StorageError(f"{cid} already on stable storage")
        self._checkpoints[cid.index] = CheckpointRecord(cid, size, now)
        self.bytes_written += size
        self._usage += size
        self.peak_bytes = max(self.peak_bytes, self._usage)

    def discard_checkpoint(self, index: int) -> int:
        try:
            size = self._checkpoints.pop(index).bytes
        except KeyError:
            raise StorageError(
                f"P{self.pid} has no checkpoint {index} on stable storage"
            ) from None
        self._usage -= size
        return size

    # ------------------------------------------------------------------
    def checkpoint_indices(self) -> List[int]:
        return sorted(self._checkpoints)

    def usage_bytes(self) -> int:
        return self._usage

    def __repr__(self) -> str:
        return (
            f"<StableStore P{self.pid} ckpts={len(self._checkpoints)} "
            f"log={len(self.log)} bytes={self.usage_bytes()}>"
        )
