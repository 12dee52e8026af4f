"""Storage-over-time simulation: replaying a run against stable stores.

Walks a recorded history in time order, writing every checkpoint (and,
optionally, logging every sent message) to the per-process stable
stores, and periodically running the recovery-floor garbage collector.
The output is the storage footprint curve of the run -- the quantity an
operator provisions for -- under a chosen GC policy.

The interesting systems fact this surfaces (benchmarked in
``benchmarks/bench_storage.py``): a checkpointing protocol's value shows
up here twice.  More forced checkpoints cost more writes, but a faster-
advancing recovery floor reclaims more -- and the floor advances with
the *consistency* of recent checkpoints, which is what the protocols
buy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.events.event import EventKind
from repro.events.history import History
from repro.recovery.gc import global_recovery_floor
from repro.recovery.logging import trim_log
from repro.storage.store import StableStore
from repro.types import CheckpointId, ProcessId


@dataclass
class StorageReport:
    """Outcome of a storage timeline simulation."""

    samples: List[Tuple[float, int]]  # (time, total bytes on stable storage)
    peak_bytes: int
    final_bytes: int
    bytes_written: int
    bytes_reclaimed: int
    gc_runs: int
    stores: Dict[ProcessId, StableStore] = field(repr=False, default_factory=dict)

    def __repr__(self) -> str:
        return (
            f"<StorageReport peak={self.peak_bytes} final={self.final_bytes} "
            f"written={self.bytes_written} reclaimed={self.bytes_reclaimed} "
            f"gc_runs={self.gc_runs}>"
        )


def simulate_storage(
    history: History,
    checkpoint_bytes: int = 4096,
    message_bytes: int = 64,
    log_messages: bool = True,
    gc_interval: Optional[float] = None,
) -> StorageReport:
    """Replay the run against stable stores under a GC policy.

    ``gc_interval=None`` disables garbage collection (storage grows
    monotonically); otherwise the floor-based collector runs every
    ``gc_interval`` simulated time units, discarding checkpoints
    strictly below the floor and the log entries
    :func:`~repro.recovery.logging.reclaimable` frees (judging them by
    their final deliver interval is exact: a message delivered after the
    GC time lands above that time's floor).
    """
    history = history.closed()
    n = history.num_processes
    stores = {pid: StableStore(pid) for pid in range(n)}
    log_written = 0
    samples: List[Tuple[float, int]] = []
    reclaimed = 0
    gc_runs = 0
    next_gc = gc_interval

    def total() -> int:
        return sum(
            store.usage_bytes() + message_bytes * len(store.log)
            for store in stores.values()
        )

    def run_gc(now: float) -> int:
        nonlocal gc_runs
        gc_runs += 1
        floor = global_recovery_floor(history, at_time=now)
        freed = 0
        for pid, store in stores.items():
            for index in store.checkpoint_indices():
                if index < floor.cut[pid]:
                    freed += store.discard_checkpoint(index)
            freed += message_bytes * trim_log(store.log, history, floor.cut)
        return freed

    for ev in history.events_by_time():
        if next_gc is not None and ev.time > next_gc:
            reclaimed += run_gc(next_gc)
            samples.append((next_gc, total()))
            assert gc_interval is not None
            next_gc += gc_interval
        if ev.kind is EventKind.CHECKPOINT:
            assert ev.checkpoint_index is not None
            stores[ev.pid].write_checkpoint(
                CheckpointId(ev.pid, ev.checkpoint_index), checkpoint_bytes, ev.time
            )
            samples.append((ev.time, total()))
        elif ev.kind is EventKind.SEND and log_messages:
            assert ev.msg_id is not None
            stores[ev.pid].log.add(ev.msg_id)
            log_written += message_bytes
            samples.append((ev.time, total()))

    return StorageReport(
        samples=samples,
        peak_bytes=max((bytes_ for _, bytes_ in samples), default=0),
        final_bytes=total(),
        bytes_written=sum(s.bytes_written for s in stores.values()) + log_written,
        bytes_reclaimed=reclaimed,
        gc_runs=gc_runs,
        stores=stores,
    )
