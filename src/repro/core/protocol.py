"""The checkpointing-protocol framework.

A :class:`CheckpointProtocol` instance is the per-process control state
of one communication-induced checkpointing protocol.  A
:class:`ProtocolFamily` holds one per process and *executes* the driver
contract, which mirrors the paper's Figure 6, emitting the ``proto.*``
trace events and ``replay.*`` counters on the way.  Every driver (the
trace replayer :mod:`repro.sim.replay`, the crash engine
:mod:`repro.sim.crashes`, the served session :mod:`repro.serve.session`,
or your own event loop) calls the family's steps and passes a *sink*
whose ``record_checkpoint(pid, time, kind)``, ``record_send(pid, dst,
msg, time)`` and ``record_deliver(pid, sender, msg, time)`` perform
its own effects, at the points the contract interleaves them:

1. construct the family -- statement (S0), *after* which the driver
   records the initial checkpoints ``C(i,0)`` itself;
2. :meth:`ProtocolFamily.checkpoint`, a basic checkpoint: call
   :meth:`~CheckpointProtocol.on_checkpoint`, then the sink records it;
3. :meth:`ProtocolFamily.send` (statement S1): call ``on_send``, whose
   piggyback rides on the message; the sink records the send; then a
   checkpoint-after-send protocol takes its FORCED checkpoint;
4. :meth:`ProtocolFamily.arrive`, an arrival carrying piggyback ``pb``
   (statement S2): if ``wants_forced_checkpoint``, a FORCED checkpoint
   (``on_checkpoint``, then the sink); then ``on_receive``, and the
   sink delivers.

Protocols never block, reorder or drop messages and add no control
messages: they only decide "checkpoint before this delivery or not" --
exactly the CIC model of the paper.  (The coordinated Chandy-Lamport
baseline, which *does* use control messages, lives outside this
framework in :mod:`repro.core.coordinated`.)

All protocols expose their transitive dependency vector, so the driver
can (a) cross-check it against the offline reference and (b) harvest the
on-the-fly minimum-global-checkpoint vectors of Corollary 4.5.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.piggyback import Piggyback
from repro.events.event import CheckpointKind
from repro.types import MessageId, ProcessId, ProtocolError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer


class CheckpointProtocol(abc.ABC):
    """Per-process protocol state and decision logic."""

    #: Registry name, overridden by concrete classes.
    name: str = "abstract"
    #: Does the protocol guarantee RDT of the resulting pattern?
    ensures_rdt: bool = True
    #: Does the piggyback carry the TDV (making saved vectors meaningful
    #: across processes, e.g. for Corollary 4.5)?
    carries_tdv: bool = True

    def __init__(self, pid: ProcessId, n: int) -> None:
        if not 0 <= pid < n:
            raise ProtocolError(f"pid {pid} out of range for n={n}")
        self.pid = pid
        self.n = n
        # TDV_i[i] is the index of the current interval == index of the
        # next checkpoint; entry starts at 1 because C(i,0) is taken at
        # initialisation (S0).
        self.tdv: List[int] = [0] * n
        self.tdv[pid] = 1
        #: Saved TDV copies, one per taken checkpoint (index-aligned).
        self._saved_tdv: List[Tuple[int, ...]] = [tuple([0] * n)]
        #: Forced-checkpoint decisions taken so far (for metrics).
        self.forced_count = 0
        self.piggyback_bits_sent = 0
        #: Interval-local communication flags, maintained by the base
        #: class for every protocol: they feed both the classical
        #: predicates (NRAS/CBR/FDI) and predicate introspection.
        self.sent_to: List[bool] = [False] * n
        self.deliveries_in_interval = 0

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def current_interval(self) -> int:
        return self.tdv[self.pid]

    @property
    def next_checkpoint_index(self) -> int:
        return self.tdv[self.pid]

    def saved_tdv(self, index: int) -> Tuple[int, ...]:
        """``TDV_{i,index}``: the vector saved at checkpoint ``index``.

        For protocols of the TDV family this is also the minimum
        consistent global checkpoint containing ``C(i, index)``
        (Corollary 4.5) when the protocol ensures RDT.
        """
        return self._saved_tdv[index]

    def min_gcp_of(self, index: int) -> Dict[ProcessId, int]:
        """Corollary 4.5's on-the-fly minimum consistent GCP."""
        vec = self.saved_tdv(index)
        return {pid: vec[pid] for pid in range(self.n)}

    # interval-local introspection ------------------------------------
    @property
    def after_first_send(self) -> bool:
        """FDAS's flag, derivable from ``sent_to``."""
        return any(self.sent_to)

    @property
    def had_communication(self) -> bool:
        """Any send or delivery in the current interval (FDI's flag)."""
        return self.after_first_send or self.deliveries_in_interval > 0

    # ------------------------------------------------------------------
    # driver API
    # ------------------------------------------------------------------
    def on_checkpoint(self, forced: bool = False) -> None:
        """A checkpoint (basic or forced) was just recorded.

        Saves the current TDV (its value *at* the checkpoint), opens the
        next interval and resets the interval-local flags; subclasses
        extend with their own resets and must call
        ``super().on_checkpoint(forced)``.
        """
        if forced:
            self.forced_count += 1
        self._saved_tdv.append(tuple(self.tdv))
        self.tdv[self.pid] += 1
        self.sent_to = [False] * self.n
        self.deliveries_in_interval = 0

    def on_send(self, dst: ProcessId) -> Piggyback:
        """Statement S1: note the send, return the piggyback snapshot.

        The base implementation maintains ``sent_to`` and delegates the
        snapshot to :meth:`make_piggyback`.
        """
        if dst == self.pid:
            raise ProtocolError("a process does not send messages to itself")
        self.sent_to[dst] = True
        return self._count_piggyback(self.make_piggyback(dst))

    @abc.abstractmethod
    def make_piggyback(self, dst: ProcessId) -> Piggyback:
        """Snapshot the control information to ride on a message."""

    @abc.abstractmethod
    def wants_forced_checkpoint(self, pb: Piggyback, sender: ProcessId) -> bool:
        """The protocol's forcing predicate, evaluated on arrival.

        Must be side-effect free: the driver may call it any number of
        times before committing to the delivery.
        """

    def wants_checkpoint_after_send(self) -> bool:
        """Checkpoint-after-send hook (only Wu-Fuchs's CAS returns True)."""
        return False

    def on_receive(self, pb: Piggyback, sender: ProcessId) -> None:
        """Update control state from the piggyback, just before delivery.

        Called after the forced checkpoint, if the predicate demanded
        one.  Subclasses extend and must call ``super().on_receive``.
        """
        self.deliveries_in_interval += 1

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _merge_tdv(self, other: Tuple[int, ...]) -> None:
        for k in range(self.n):
            if other[k] > self.tdv[k]:
                self.tdv[k] = other[k]

    def _count_piggyback(self, pb: Piggyback) -> Piggyback:
        self.piggyback_bits_sent += pb.size_bits()
        return pb

    def __repr__(self) -> str:
        return f"<{type(self).__name__} P{self.pid} interval={self.current_interval}>"


class ProtocolFamily:
    """One protocol instance per process, and the contract's steps."""

    def __init__(
        self,
        factory,
        n: int,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.members: List[CheckpointProtocol] = [factory(pid, n) for pid in range(n)]
        self.n = n
        self.tracer = tracer
        self.metrics = metrics

    def __getitem__(self, pid: ProcessId) -> CheckpointProtocol:
        return self.members[pid]

    @property
    def name(self) -> str:
        return self.members[0].name if self.members else "empty"

    def total_forced(self) -> int:
        return sum(p.forced_count for p in self.members)

    def total_piggyback_bits(self) -> int:
        return sum(p.piggyback_bits_sent for p in self.members)

    # -- the contract's steps (module docstring) -------------------------
    def checkpoint(self, pid: ProcessId, time: float, sink) -> int:
        """Step 2: a basic checkpoint of ``pid``; returns its index."""
        proto = self.members[pid]
        proto.on_checkpoint(forced=False)
        sink.record_checkpoint(pid, time, CheckpointKind.BASIC)
        index = proto.tdv[pid] - 1
        if self.tracer:
            self._trace("proto.ckpt", time, pid, ckpt="basic", index=index)
        if self.metrics is not None:
            self.metrics.inc("replay.basic")
            self.metrics.inc(f"replay.basic.p{pid}")
        return index

    def send(
        self, pid: ProcessId, dst: ProcessId, msg: MessageId, time: float, sink
    ) -> Piggyback:
        """Step 3: ``pid`` sends ``msg`` to ``dst``; returns its piggyback."""
        proto = self.members[pid]
        pb = proto.on_send(dst)
        sink.record_send(pid, dst, msg, time)
        if self.metrics is not None:
            self.metrics.inc("replay.piggyback_bits", pb.size_bits())
        if proto.wants_checkpoint_after_send():
            self._force(pid, time, msg, "after_send", sink)
        return pb

    def arrive(
        self,
        pid: ProcessId,
        sender: ProcessId,
        msg: MessageId,
        pb: Piggyback,
        time: float,
        sink,
    ) -> bool:
        """Step 4: ``msg`` from ``sender`` arrives at ``pid``; returns
        whether a checkpoint was forced before its delivery."""
        proto = self.members[pid]
        forced = proto.wants_forced_checkpoint(pb, sender)
        if self.tracer:
            self._trace(
                "proto.predicate",
                time,
                pid,
                sender=sender,
                msg=msg,
                piggyback=pb,
                forced=forced,
            )
        if self.metrics is not None:
            self.metrics.inc("replay.predicate_evals")
        if forced:
            self._force(pid, time, msg, "predicate", sink)
        proto.on_receive(pb, sender)
        sink.record_deliver(pid, sender, msg, time)
        return forced

    def _force(
        self, pid: ProcessId, time: float, msg: MessageId, cause: str, sink
    ) -> None:
        proto = self.members[pid]
        proto.on_checkpoint(forced=True)
        sink.record_checkpoint(pid, time, CheckpointKind.FORCED)
        if self.tracer:
            index = proto.tdv[pid] - 1
            self._trace("proto.forced", time, pid, cause=cause, msg=msg, index=index)
        if self.metrics is not None:
            self.metrics.inc("replay.forced")
            self.metrics.inc(f"replay.forced.p{pid}")

    def _trace(self, kind: str, time: float, pid: ProcessId, **fields: object) -> None:
        self.tracer.event(kind, time, protocol=self.name, pid=pid, **fields)
