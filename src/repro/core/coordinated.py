"""Coordinated snapshots: Chandy-Lamport (1985), as a baseline.

The paper contrasts communication-induced checkpointing with coordinated
approaches ("the coordination is achieved at the price of
synchronization by means of additional control messages", citing
Chandy-Lamport [3]).  To quantify that price, this module implements the
classic marker algorithm end to end:

* a single initiator (P0) starts a snapshot periodically;
* on its first marker (or on initiation) a process records its state --
  i.e. takes a checkpoint -- and sends a marker on every outgoing
  channel;
* between its own recording and the marker's arrival on an incoming
  channel, messages received on that channel are recorded as the
  channel's state.

Channels must be FIFO for markers to delimit channel states correctly;
the runner enforces that.  Each completed snapshot yields a global
checkpoint (one local checkpoint per process) plus the in-transit
messages per channel -- and the test suite verifies the cut is always a
consistent global checkpoint capturing exactly the crossing messages.

Unlike the CIC protocols, this runs *live* (control messages interleave
with application traffic), so it cannot be a replay of a finished trace:
the runner is a :class:`repro.sim.generate.TraceGenerator` whose markers
share the generator's scheduler, FIFO channels and RNG, and whose
events go through the one :class:`repro.events.builder.Recorder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.metrics import RunMetrics, metrics_from_history
from repro.events.builder import Recorder
from repro.events.event import CheckpointKind
from repro.events.history import History
from repro.sim.channel import ChannelMap
from repro.sim.delays import DelayModel
from repro.sim.generate import TraceGenerator
from repro.types import MessageId, ProcessId, SimulationError
from repro.workloads.base import Workload


@dataclass
class SnapshotRecord:
    """One completed Chandy-Lamport snapshot."""

    snapshot_id: int
    cut: Dict[ProcessId, int]
    channel_states: Dict[Tuple[ProcessId, ProcessId], List[MessageId]]
    markers_sent: int

    def in_transit_ids(self) -> Set[MessageId]:
        out: Set[MessageId] = set()
        for msgs in self.channel_states.values():
            out.update(msgs)
        return out


@dataclass
class CoordinatedResult:
    """Outcome of a live Chandy-Lamport run."""

    history: History
    snapshots: List[SnapshotRecord]
    control_messages: int
    metrics: RunMetrics


class ChandyLamportRunner(TraceGenerator):
    """Runs a workload live, taking periodic coordinated snapshots.

    The workload runs on the generator (no basic checkpoints); markers
    travel the same FIFO channels as application messages.
    """

    def __init__(
        self,
        workload: Workload,
        n: int,
        duration: float = 100.0,
        seed: int = 0,
        snapshot_period: float = 20.0,
        delay: Optional[DelayModel] = None,
    ) -> None:
        if n <= 1:
            raise SimulationError("Chandy-Lamport needs at least two processes")
        super().__init__(
            n,
            workload,
            duration=duration,
            seed=seed,
            basic_rate=0.0,
            channels=ChannelMap(n, delay=delay, fifo=True),
        )
        self.snapshot_period = snapshot_period
        self._sizes: Dict[MessageId, int] = {}
        self.recorder = Recorder(n, self._sizes)
        for pid in range(n):
            self.recorder.record_checkpoint(pid, 0.0, CheckpointKind.INITIAL)
        # Chandy-Lamport state.  Per process, its incoming channels still
        # being recorded: (snapshot_id, src) -> message ids received so far.
        self._recording: List[Dict[Tuple[int, ProcessId], List[MessageId]]] = [
            {} for _ in range(n)
        ]
        self._snapshot_seq = 0
        self._snapshots: Dict[int, SnapshotRecord] = {}
        self._pending_channels: Dict[int, int] = {}
        self.control_messages = 0

    # ------------------------------------------------------------------
    # application traffic, recorded as it happens
    # ------------------------------------------------------------------
    def record_send(
        self, src: ProcessId, dst: ProcessId, size: int, payload: Any
    ) -> MessageId:
        msg_id = super().record_send(src, dst, size, payload)
        if msg_id != -1:
            self._sizes[msg_id] = size
            self.recorder.record_send(src, dst, msg_id, self.scheduler.now)
        return msg_id

    def record_deliver(
        self, msg_id: MessageId, src: ProcessId, dst: ProcessId
    ) -> None:
        self.recorder.record_deliver(dst, src, msg_id, self.scheduler.now)
        for (_, rsrc), log in self._recording[dst].items():
            if rsrc == src:
                log.append(msg_id)
        super().record_deliver(msg_id, src, dst)

    # ------------------------------------------------------------------
    # Chandy-Lamport proper
    # ------------------------------------------------------------------
    def _send_marker(self, src: ProcessId, dst: ProcessId, snapshot_id: int):
        self.control_messages += 1
        arrival = self.channels.arrival_time(src, dst, self.scheduler.now, self.rng)
        self.scheduler.schedule_at(
            arrival, lambda: self._on_marker(dst, src, snapshot_id)
        )

    def _record_and_flood(
        self, pid: ProcessId, snapshot_id: int, first_marker_src: Optional[ProcessId]
    ) -> None:
        ev = self.recorder.record_checkpoint(
            pid, self.scheduler.now, CheckpointKind.FORCED
        )
        self._snapshots[snapshot_id].cut[pid] = ev.checkpoint_index
        for src in range(self.n):
            if src != pid and src != first_marker_src:
                self._recording[pid][(snapshot_id, src)] = []
        for dst in range(self.n):
            if dst != pid:
                self._send_marker(pid, dst, snapshot_id)

    def _initiate_snapshot(self) -> None:
        if self.stopped or self.scheduler.now > self.duration:
            return
        snapshot_id = self._snapshot_seq
        self._snapshot_seq += 1
        self._snapshots[snapshot_id] = SnapshotRecord(
            snapshot_id=snapshot_id, cut={}, channel_states={}, markers_sent=0
        )
        # Each non-initiator closes (n-1) incoming channels; the
        # initiator closes all its (n-1) incoming channels too.
        self._pending_channels[snapshot_id] = self.n * (self.n - 1)
        self._record_and_flood(0, snapshot_id, first_marker_src=None)
        self.scheduler.schedule(self.snapshot_period, self._initiate_snapshot)

    def _on_marker(self, pid: ProcessId, src: ProcessId, snapshot_id: int):
        snap = self._snapshots[snapshot_id]
        if pid not in snap.cut:
            # First marker: record now; channel src -> pid is empty.
            self._record_and_flood(pid, snapshot_id, first_marker_src=src)
            snap.channel_states[(src, pid)] = []
        else:
            log = self._recording[pid].pop((snapshot_id, src), [])
            snap.channel_states[(src, pid)] = log
        self._pending_channels[snapshot_id] -= 1

    # ------------------------------------------------------------------
    def run(self) -> CoordinatedResult:
        if self.snapshot_period > 0:
            self.scheduler.schedule(self.snapshot_period, self._initiate_snapshot)
        self.generate()
        history = self.recorder.build(close=True)
        complete = [
            snap
            for sid, snap in sorted(self._snapshots.items())
            if self._pending_channels[sid] == 0
        ]
        for snap in complete:
            snap.markers_sent = self.n * (self.n - 1)
        metrics = metrics_from_history(
            history, protocol="chandy-lamport", control_messages=self.control_messages
        )
        return CoordinatedResult(
            history=history,
            snapshots=complete,
            control_messages=self.control_messages,
            metrics=metrics,
        )


def run_chandy_lamport(
    workload: Workload,
    n: int,
    duration: float = 100.0,
    seed: int = 0,
    snapshot_period: float = 20.0,
    delay: Optional[DelayModel] = None,
) -> CoordinatedResult:
    """Convenience wrapper: build the runner and run it."""
    return ChandyLamportRunner(
        workload,
        n,
        duration=duration,
        seed=seed,
        snapshot_period=snapshot_period,
        delay=delay,
    ).run()
