"""A reliable transport over the unreliable physical layer.

:class:`ReliableTransport` recovers the paper's channel abstraction --
every application message delivered exactly once, after a finite delay --
on top of a :class:`repro.sim.netfaults.NetFaultModel` that loses,
duplicates, reorders and partitions physical transmissions.  The recipe
is the classical one:

* every physical copy carries the message id; the receiver keeps a
  delivered-set and hands each id to the protocol layer **exactly
  once** (duplicates are re-acked, never re-delivered);
* the receiver acks the first copy it sees (acks ride the reverse link
  and are lossy too; a lost ack is healed by the sender's retransmission
  provoking a fresh ack);
* the sender retransmits on a timer with exponential backoff and seeded
  jitter until acked -- or until the **liveness watchdog** gives up
  after ``max_attempts`` tries and flags the link ``net.degraded``
  instead of retrying forever, which is what keeps the scheduler from
  deadlocking under a permanent partition or 100% loss;
* over a FIFO :class:`~repro.sim.channel.ChannelMap` the receiver
  additionally reconstructs per-link FIFO order from transport sequence
  numbers, releasing held messages when a predecessor is delivered or
  abandoned.

Every random decision (loss rolls, duplicate rolls, per-copy delays,
retransmission jitter) draws from the single RNG handed in by the
caller, so a faulty run is byte-deterministic in its seeds.  The
protocol layer above sees only the ``deliver`` callback -- by the time a
message reaches a protocol, the network might as well have been the
paper's reliable one.  That is the invariant the tier-2 differential
suite (``tests/test_differential_netfaults.py``) enforces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.sim.channel import ChannelMap
from repro.sim.kernel import Scheduler
from repro.sim.netfaults import NetFaultModel
from repro.types import MessageId, ProcessId, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

Link = Tuple[ProcessId, ProcessId]


@dataclass(frozen=True)
class TransportConfig:
    """Retransmission policy of the reliable transport.

    ``rto`` is the initial retransmission timeout, multiplied by
    ``backoff`` after each attempt and capped at ``max_rto``; each timer
    adds seeded jitter uniform in ``[0, jitter * current_rto]`` to break
    synchronisation.  ``max_attempts`` is the watchdog bound: a message
    still unacked after that many physical attempts abandons the send
    and flags its link degraded.
    """

    rto: float = 4.0
    backoff: float = 2.0
    max_rto: float = 30.0
    jitter: float = 0.25
    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.rto <= 0 or self.max_rto < self.rto:
            raise SimulationError(f"bad rto/max_rto: {self.rto}/{self.max_rto}")
        if self.backoff < 1.0:
            raise SimulationError(f"backoff must be >= 1: {self.backoff}")
        if self.jitter < 0:
            raise SimulationError(f"jitter must be >= 0: {self.jitter}")
        if self.max_attempts < 1:
            raise SimulationError(
                f"max_attempts must be >= 1: {self.max_attempts}"
            )

    def timeout(self, attempt: int) -> float:
        """The backoff timeout after physical attempt number ``attempt``."""
        return min(self.rto * self.backoff ** (attempt - 1), self.max_rto)


@dataclass
class NetReport:
    """What the physical layer did during one run (plain counts)."""

    sent: int = 0
    delivered: int = 0
    attempts: int = 0
    retransmits: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    acks_sent: int = 0
    acks_lost: int = 0
    degraded: Tuple[MessageId, ...] = ()
    degraded_links: Tuple[Link, ...] = ()
    undelivered: Tuple[MessageId, ...] = ()

    def __repr__(self) -> str:
        return (
            f"<NetReport sent={self.sent} delivered={self.delivered} "
            f"retransmits={self.retransmits} dropped={self.dropped} "
            f"degraded_links={len(self.degraded_links)}>"
        )


class _Pending:
    """Sender-side state of one in-flight application message."""

    __slots__ = ("msg_id", "src", "dst", "seq", "attempts", "acked", "abandoned")

    def __init__(self, msg_id: MessageId, src: ProcessId, dst: ProcessId, seq: int):
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.seq = seq  # per-link transport sequence number
        self.attempts = 0
        self.acked = False
        self.abandoned = False

    @property
    def done(self) -> bool:
        return self.acked or self.abandoned


class ReliableTransport:
    """Exactly-once delivery over a faulty network, on the sim kernel.

    Parameters
    ----------
    scheduler, channels:
        The simulation kernel and the delay model of the physical links
        (the same :class:`ChannelMap` a reliable run would use; a FIFO
        map turns on per-link FIFO reconstruction at the receiver).
    model:
        The physical fault model.
    config:
        Retransmission policy.
    deliver:
        ``(msg_id, src, dst) -> None`` -- the protocol-layer delivery
        hook, invoked exactly once per message (in per-link seq order
        when ``channels.fifo``).
    rng:
        The seeded stream all physical randomness draws from.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        channels: ChannelMap,
        model: NetFaultModel,
        config: TransportConfig,
        deliver: Callable[[MessageId, ProcessId, ProcessId], None],
        rng: random.Random,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.scheduler = scheduler
        self.channels = channels
        self.model = model
        self.config = config
        self._deliver = deliver
        self.rng = rng
        self.tracer = tracer
        self.metrics = metrics
        self._pending: Dict[MessageId, _Pending] = {}
        self._received: Set[MessageId] = set()
        self._next_seq: Dict[Link, int] = {}
        # FIFO reconstruction state, per link: the next seq to release
        # and the buffer of arrived-but-held (seq -> message) entries.
        self._fifo_next: Dict[Link, int] = {}
        self._fifo_held: Dict[Link, Dict[int, MessageId]] = {}
        self._abandoned_seqs: Dict[Link, Set[int]] = {}
        self._degraded_links: List[Link] = []
        self.report = NetReport()

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def send(self, msg_id: MessageId, src: ProcessId, dst: ProcessId) -> None:
        """Accept one application message for reliable delivery."""
        link = (src, dst)
        seq = self._next_seq.get(link, 0)
        self._next_seq[link] = seq + 1
        pending = _Pending(msg_id, src, dst, seq)
        self._pending[msg_id] = pending
        self.report.sent += 1
        self._attempt(pending)

    def _attempt(self, pending: _Pending) -> None:
        """One physical transmission attempt (and its retry timer)."""
        if pending.done:
            return
        cfg = self.config
        if pending.attempts >= cfg.max_attempts:
            self._abandon(pending)
            return
        pending.attempts += 1
        now = self.scheduler.now
        self.report.attempts += 1
        if pending.attempts > 1:
            self.report.retransmits += 1
            if self.tracer:
                self.tracer.event(
                    "net.retransmit",
                    now,
                    msg=pending.msg_id,
                    src=pending.src,
                    dst=pending.dst,
                    attempt=pending.attempts,
                )
            if self.metrics is not None:
                self.metrics.inc("net.retransmits")
        self._transmit(pending)
        # The retry timer always arms; it self-cancels if the ack lands
        # first.  Jitter breaks retransmission synchronisation across
        # links without costing determinism (it draws from the run RNG).
        timeout = cfg.timeout(pending.attempts)
        timeout += self.rng.uniform(0.0, cfg.jitter * timeout)
        self.scheduler.schedule(timeout, lambda: self._attempt(pending))

    def _transmit(self, pending: _Pending) -> None:
        """Push one copy (or none, or two) of the message onto the wire."""
        now = self.scheduler.now
        src, dst = pending.src, pending.dst
        faults = self.model.link(src, dst)
        if self.model.is_cut(src, dst, now):
            self._drop(pending, "partition")
            return
        if faults.loss and self.rng.random() < faults.loss:
            self._drop(pending, "loss")
            return
        copies = 1
        if faults.duplicate and self.rng.random() < faults.duplicate:
            copies = 2
            self.report.duplicated += 1
            if self.tracer:
                self.tracer.event(
                    "net.dup", now, msg=pending.msg_id, src=src, dst=dst
                )
            if self.metrics is not None:
                self.metrics.inc("net.duplicated")
        for _ in range(copies):
            delay = self.channels.delay.sample(self.rng)
            if faults.reorder and self.rng.random() < faults.reorder:
                delay += self.rng.expovariate(1.0 / faults.reorder_delay)
                self.report.reordered += 1
            self.scheduler.schedule(delay, lambda: self._arrive_physical(pending))

    def _drop(self, pending: _Pending, cause: str) -> None:
        self.report.dropped += 1
        if self.tracer:
            self.tracer.event(
                "net.drop",
                self.scheduler.now,
                msg=pending.msg_id,
                src=pending.src,
                dst=pending.dst,
                cause=cause,
                attempt=pending.attempts,
            )
        if self.metrics is not None:
            self.metrics.inc("net.dropped")

    def _abandon(self, pending: _Pending) -> None:
        """The watchdog: give up on the message, degrade the link.

        The send stays recorded in the trace with no delivery (the trace
        model allows in-flight messages); the link is flagged so callers
        can tell "slow network" from "gave up".  This bound on attempts
        is what guarantees the event queue drains under 100% loss.
        """
        pending.abandoned = True
        link = (pending.src, pending.dst)
        self.report.degraded = self.report.degraded + (pending.msg_id,)
        if self.tracer:
            self.tracer.event(
                "net.degraded",
                self.scheduler.now,
                msg=pending.msg_id,
                src=pending.src,
                dst=pending.dst,
                attempts=pending.attempts,
                forever=self.model.cut_forever(
                    pending.src, pending.dst, self.scheduler.now
                ),
            )
        if link not in self._degraded_links:
            self._degraded_links.append(link)
            if self.metrics is not None:
                self.metrics.inc("net.degraded_links")
        if self.channels.fifo and pending.msg_id not in self._received:
            # Leave no hole: successors held behind the abandoned seq
            # must still go out (in order).
            self._abandoned_seqs.setdefault(link, set()).add(pending.seq)
            self._fifo_release(link)

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def _arrive_physical(self, pending: _Pending) -> None:
        """One physical copy reached the receiver."""
        msg_id = pending.msg_id
        link = (pending.src, pending.dst)
        first = msg_id not in self._received
        if first and not pending.abandoned:
            self._received.add(msg_id)
            if self.channels.fifo:
                self._fifo_held.setdefault(link, {})[pending.seq] = msg_id
                self._fifo_release(link)
            else:
                self._deliver_up(msg_id, pending.src, pending.dst)
        # First copy or duplicate, the receiver always (re-)acks: a
        # duplicate arriving means the sender has not seen our ack yet.
        self._send_ack(pending)

    def _deliver_up(self, msg_id: MessageId, src: ProcessId, dst: ProcessId) -> None:
        self.report.delivered += 1
        if self.tracer:
            self.tracer.event(
                "net.deliver", self.scheduler.now, msg=msg_id, src=src, dst=dst
            )
        self._deliver(msg_id, src, dst)

    def _fifo_release(self, link: Link) -> None:
        """Release the in-order prefix of held/abandoned seqs on ``link``."""
        held = self._fifo_held.setdefault(link, {})
        abandoned = self._abandoned_seqs.setdefault(link, set())
        nxt = self._fifo_next.get(link, 0)
        while True:
            if nxt in held:
                msg_id = held.pop(nxt)
                self._deliver_up(msg_id, link[0], link[1])
            elif nxt in abandoned:
                abandoned.discard(nxt)
            else:
                break
            nxt += 1
        self._fifo_next[link] = nxt

    def _send_ack(self, pending: _Pending) -> None:
        """Ack ``pending`` back over the (equally faulty) reverse link."""
        now = self.scheduler.now
        src, dst = pending.dst, pending.src  # reverse direction
        self.report.acks_sent += 1
        faults = self.model.link(src, dst)
        if self.model.is_cut(src, dst, now) or (
            faults.loss and self.rng.random() < faults.loss
        ):
            self.report.acks_lost += 1
            if self.tracer:
                self.tracer.event(
                    "net.drop",
                    now,
                    msg=pending.msg_id,
                    src=src,
                    dst=dst,
                    cause="ack",
                    attempt=pending.attempts,
                )
            if self.metrics is not None:
                self.metrics.inc("net.dropped")
            return
        delay = self.channels.delay.sample(self.rng)
        self.scheduler.schedule(delay, lambda: self._ack_arrive(pending))

    def _ack_arrive(self, pending: _Pending) -> None:
        if pending.done:
            return
        pending.acked = True
        if self.tracer:
            self.tracer.event(
                "net.ack",
                self.scheduler.now,
                msg=pending.msg_id,
                src=pending.src,
                dst=pending.dst,
                attempts=pending.attempts,
            )

    # ------------------------------------------------------------------
    def finalize(self) -> NetReport:
        """Seal and return the run's :class:`NetReport`.

        Called after the scheduler drains; every message must have
        resolved to delivered or abandoned (anything else would mean the
        watchdog failed its liveness duty).
        """
        undelivered = tuple(
            msg_id
            for msg_id, p in sorted(self._pending.items())
            if msg_id not in self._received
        )
        for msg_id, p in sorted(self._pending.items()):
            if not p.done and msg_id not in self._received:
                raise SimulationError(
                    f"transport liveness violated: message {msg_id} neither "
                    "delivered nor abandoned after the run drained"
                )
        self.report.undelivered = undelivered
        self.report.degraded_links = tuple(self._degraded_links)
        return self.report
