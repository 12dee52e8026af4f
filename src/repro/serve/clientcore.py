"""The client's request core: every client decision that is not I/O.

:class:`~repro.serve.client.AsyncClient` is the one transport over a
:class:`RequestCore` (:class:`~repro.serve.client.Client` is a blocking
face over it).  The core allocates seqs and builds frames; adopts
the routing table from a ``ping`` reply (the :data:`HANDSHAKE` and every
refresh) and names each session frame's owner; refuses unwritten a
frame whose owner has no connection -- only ``up`` shards are dialled
-- with ``shard_down``, or ``shard_degraded`` once the router parked the
shard; says when a reply means the table may be stale (re-ping the
router); refuses every frame once a connection's framing is untrusted,
until the transport reconnects; and runs the retry budget, seeded
jittered backoff and half-open circuit breaker of the retrying call
(``AsyncClient.call``, which ``Client.request`` runs).

It owns no socket and reads no clock -- the transport passes clock readings
in -- so tests drive it with a fake clock, and ``tools/lint_imports.py``
fails if it imports ``socket``, ``asyncio``, ``select`` or ``time``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Collection, Dict, List, Mapping, Optional, Tuple

from repro.serve import wire
from repro.serve.shardmap import DEGRADED, UP, ShardTable
from repro.types import ReproError


class ReplyError(ReproError):
    """The server answered ``ok: false``; ``code`` is its error code."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


class RequestTimeout(ReproError):
    """The server did not answer within the client's deadline.

    Retryable -- but only over a new connection (``reconnect()`` or
    ``resume()``): the request may be half-sent or its reply
    half-received, so the connection's framing can no longer be
    trusted.  The client invalidates every connection when raising
    this; calling again without reconnecting raises
    :class:`ConnectionError`.
    """


class CircuitOpen(ReproError):
    """The client's circuit breaker is open: recent calls failed at the
    transport level, so this call failed fast without touching the
    socket.  Retryable after the cooldown -- the next call past it is a
    half-open probe."""

    def __init__(self, remaining_s: float) -> None:
        super().__init__(
            f"circuit open after consecutive transport failures; "
            f"probe allowed in {remaining_s:.3f}s"
        )
        self.remaining_s = remaining_s


class FrameTooLarge(ReproError):
    """A request encodes past ``wire.MAX_FRAME``: refused before a byte
    was written, so the connection stays up and the breaker ignores it."""

    def __init__(self, error: wire.FrameError) -> None:
        super().__init__(f"request refused unwritten: {error}")


#: Error codes of frames that never reached the session's owner -- the
#: peer refused it as not its own (``moved``) or the owner had no
#: connection (``shard_down``) -- so a resend cannot double-apply, and
#: the routing table may be stale.  Deliberately excludes
#: ``shard_degraded`` (terminal until an operator acts) and
#: ``overloaded`` (shedding means *back off*, a policy the caller owns).
RETRYABLE_CODES = frozenset({"shard_down", "moved"})

#: The one connect handshake: the client pings the peer (seq 0) before
#: its first frame; a router answers with the table to route by.
HANDSHAKE: Mapping[str, object] = {"kind": "ping", "seq": 0}


@dataclass(eq=False)
class RequestCore:
    """One client's request state and resilience policy.

    The fields are the knobs both client faces accept by name:

    * ``retries`` -- resends of a refused-unwritten frame (a code in
      :data:`RETRYABLE_CODES`) before its refusal is raised;
    * ``retry_delay``, ``backoff_cap``, ``backoff_seed`` -- the pause
      before resend ``k`` is ``min(backoff_cap, retry_delay * 2**(k-1))``
      scaled by a uniform jitter in [0.5, 1) from an RNG seeded by
      ``backoff_seed``: a restarting shard is neither hammered nor
      waited on forever, synchronised clients fan out, and a chaos cell
      replays identically;
    * ``circuit_threshold``, ``circuit_cooldown`` -- the breaker, opt-in
      (``circuit_threshold > 0``): after that many *consecutive*
      transport-level failures (timeouts, connection errors, exhausted
      retryable refusals) calls fail fast with :class:`CircuitOpen` for
      ``circuit_cooldown`` seconds; the first call after the cooldown is
      a half-open probe that closes the circuit on success and re-opens
      it on failure;
    * ``tracer``, ``metrics`` -- ``serve.client.*`` events and counters.
    """

    retries: int = 8
    retry_delay: float = 0.25
    backoff_cap: float = 2.0
    backoff_seed: int = 0
    circuit_threshold: int = 0
    circuit_cooldown: float = 1.0
    tracer: Any = None
    metrics: Any = None

    def __post_init__(self) -> None:
        self.seq = 0  # the last seq handed out; the handshake's is 0
        #: The router's table; None while the dialled peer is a server.
        self.table: Optional[ShardTable] = None
        #: What broke the connection's framing; None while it is trusted.
        self.invalid: Optional[str] = None
        self.failures = 0  # consecutive transport-level failures
        self._open_until: Optional[float] = None
        self._half_open = False
        self._rng = random.Random(f"client-backoff:{self.backoff_seed}")
        self._clock = 0  # trace event ordering, not wall time

    def _trace(self, kind: str, **fields: object) -> None:
        if self.tracer is not None:
            self._clock += 1
            self.tracer.event(kind, self._clock, **fields)

    def _inc(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name)

    # ------------------------------------------------------------------
    # frames and routing
    # ------------------------------------------------------------------
    def frame(self, kind: str, **fields: object) -> Dict[str, object]:
        """The next request frame; ``None`` fields are left out."""
        self.seq += 1
        doc: Dict[str, object] = {"kind": kind, "seq": self.seq}
        for key, value in fields.items():
            if value is not None:
                doc[key] = value
        return doc

    def adopt(
        self, pong: Mapping[str, object], live: Collection[int]
    ) -> List[Tuple[int, str]]:
        """Route by the table in a ``ping`` reply (a server's has none);
        returns the ``(shard, address)`` pairs to dial: the shards the
        table says are up that ``live`` has no connection to."""
        self.table = table = ShardTable.from_ping(pong)
        if table is None:
            return []
        return [
            (shard, address)
            for shard, (address, state) in enumerate(zip(table.addresses, table.states))
            if state == UP and shard not in live
        ]

    def owner(self, kind: object, session: object) -> Optional[int]:
        """The shard a ``kind`` frame for ``session`` goes to; None for
        the dialled peer (no table, a sessionless kind, or no session
        -- the peer refuses that ``bad_request``)."""
        table = self.table
        if table is None or kind not in wire.SESSION_KINDS or not isinstance(session, str):
            return None
        return table.layout.owner(session)

    def unreachable(self, seq: object, shard: int) -> Dict[str, object]:
        """The refusal of a frame whose owner has no connection: never
        written, so retryable unless the router parked the shard."""
        state = self.table.states[shard]  # type: ignore[union-attr]
        code = "shard_degraded" if state == DEGRADED else "shard_down"
        detail = f"shard {shard} ({state}) is not connected; frame not sent"
        return wire.error_reply(seq, code, detail)

    def stale(self, reply: Mapping[str, object]) -> bool:
        """Whether ``reply`` says to re-ping the router for a new table:
        the owner refused the frame, or the client had no connection to it."""
        return self.table is not None and reply.get("error") in (
            "moved", "shard_down", "shard_degraded"
        )

    def invalidate(self, cause: str) -> None:
        """The framing can no longer be trusted; the first cause sticks."""
        if self.invalid is None:
            self.invalid = cause

    def invalidated(self) -> ConnectionError:
        return ConnectionError(
            f"connection invalidated after {self.invalid}; reconnect first"
        )

    # ------------------------------------------------------------------
    # retry, backoff and the breaker
    # ------------------------------------------------------------------
    def backoff(self, attempt: int) -> float:
        """The seeded, jittered pause before resend ``attempt`` (1-based)."""
        base = min(self.backoff_cap, self.retry_delay * (2 ** (attempt - 1)))
        return base * (0.5 + self._rng.random() / 2.0)

    def admit(self, now: float) -> None:
        """Start one retrying call at ``now`` or raise :class:`CircuitOpen`;
        the first call past the cooldown is the half-open probe."""
        if self._open_until is None:
            return
        if now < self._open_until:
            self._inc("serve.client.circuit_rejected")
            raise CircuitOpen(self._open_until - now)
        self._open_until = None
        self._half_open = True
        self._trace("serve.client.circuit", state="half_open")

    def failed(self, now: float) -> None:
        """Count a transport-level failure at ``now``."""
        self.failures += 1
        if self.circuit_threshold <= 0:
            return
        if self._half_open or self.failures >= self.circuit_threshold:
            self._open_until = now + self.circuit_cooldown
            self._half_open = False
            self._trace(
                "serve.client.circuit",
                state="open",
                failures=self.failures,
                cooldown_s=self.circuit_cooldown,
            )
            self._inc("serve.client.circuit_open")

    def settle(
        self, kind: str, reply: Mapping[str, object], attempt: int, now: float
    ) -> Optional[float]:
        """Decide a retrying call's raw ``reply`` to its resend number
        ``attempt`` (0: the first send): None when it is the answer, the
        pause before resending a retryable refusal, or raise its
        :class:`ReplyError`.  A first ``moved`` is resent at once: the
        refresh it triggered names the owner, and only a repeated one
        (the router mid-rebalance) backs off."""
        ok, code = reply.get("ok", False), str(reply.get("error", "error"))
        if ok or code not in RETRYABLE_CODES:
            # The answer, or an application error: the service is up.
            self.failures = 0
            if self._half_open:
                self._half_open = False
                self._trace("serve.client.circuit", state="closed")
            if ok:
                return None
        elif attempt < self.retries:
            first_moved = code == "moved" and attempt == 0
            delay = 0.0 if first_moved else self.backoff(attempt + 1)
            self._trace(
                "serve.client.retry",
                op=kind,
                code=code,
                attempt=attempt + 1,
                delay_s=round(delay, 6),
            )
            self._inc("serve.client.retries")
            return delay
        else:
            # Budget exhausted on a refusal: a service-health signal the
            # breaker must see.
            self.failed(now)
        raise ReplyError(code, str(reply.get("detail", "")))
