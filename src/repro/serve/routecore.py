"""The router core: every decision of a sharded deployment's router.

:class:`~repro.serve.router.Router` drives one :class:`RouteCore`.  The
driver owns the shard processes, their admin links, the listener and
the file work; the core decides what to do with them:

* **supervision** -- one state per shard (``UP`` / ``DOWN`` /
  ``DEGRADED``) and its death stamps.  The driver reports each process
  exit, start and failed respawn with the clock reading; the core
  answers when the shard may respawn -- a capped exponential backoff,
  forgiven by a full :data:`FLAP_WINDOW` of uptime -- or parks it for
  good once it crash-loops past the trip wire;
* **answers and moves** -- ``ping`` (with the
  :class:`~repro.serve.shardmap.ShardTable` clients route by),
  ``stats``, the router's own refusals, and a ``rebalance``'s checks
  and the map it plans; that map becomes the map only when the driver
  reports the move done;
* **the reconcile decision** -- from the stored layout and the shard
  directories present: the fast path, a fresh layout, or a full pass
  that re-homes every session to its owner under :attr:`RouteCore.map`.

It owns no socket, process or file and imports no clock, so tests drive
supervision with a fake clock; ``tools/lint_imports.py`` fails it on a
``socket`` / ``asyncio`` / ``select`` / ``time`` import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.serve import wire
from repro.serve.shardmap import DEGRADED, DOWN, UP, ShardMap, ShardTable

Doc = Dict[str, object]

#: Pause before respawning a dead shard; each consecutive death doubles
#: it up to :data:`RESTART_BACKOFF_CAP`.  WAL replay is exactly the work
#: a tight respawn loop would thrash.
RESTART_BACKOFF = 0.2
RESTART_BACKOFF_CAP = 5.0
#: The crash-loop trip wire: more than :data:`FLAP_MAX_RESTARTS` deaths
#: (failed respawns included) inside ``FLAP_WINDOW`` seconds park the
#: shard ``DEGRADED`` -- a deterministic crash (corrupt WAL, bad binary,
#: poisoned session) would otherwise flap forever.  A process that stays
#: up a full window forgives the deaths before it.
FLAP_WINDOW = 30.0
FLAP_MAX_RESTARTS = 5

#: The reconcile decisions (:meth:`RouteCore.reconcile`).
FAST, FRESH, FULL = "fast", "fresh", "full"


@dataclass
class Supervised:
    """One shard as its supervisor sees it."""

    state: str = DOWN
    #: Process exits seen (``stats``); failed respawns are not exits.
    restarts: int = 0
    #: Clock readings of the deaths inside the flap window.
    deaths: List[float] = field(default_factory=list)
    #: The pause before the last respawn; 0 once forgiven.
    backoff: float = 0.0
    #: When the current process came up, and when a DOWN one may respawn.
    since: float = 0.0
    respawn_at: Optional[float] = None


class RouteCore:
    """The layout, each shard's supervision state, and the answers
    built from them."""

    def __init__(self, layout: ShardMap) -> None:
        self.map = layout
        self.shards = [Supervised() for _ in range(layout.shards)]

    def count(self, state: str) -> int:
        return sum(1 for s in self.shards if s.state == state)

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def started(self, k: int, now: float) -> None:
        """Shard ``k``'s process holds its layout and is published."""
        shard = self.shards[k]
        shard.state, shard.since, shard.respawn_at = UP, now, None

    def exited(self, k: int, now: float) -> Optional[float]:
        """Shard ``k``'s process died: when to respawn it, or None --
        parked ``DEGRADED``."""
        shard = self.shards[k]
        shard.restarts += 1
        if now - shard.since >= FLAP_WINDOW:
            shard.backoff = 0.0
        return self._died(shard, now)

    def spawn_failed(self, k: int, now: float) -> Optional[float]:
        """A respawn of shard ``k`` failed; it counts as a death."""
        return self._died(self.shards[k], now)

    def _died(self, shard: Supervised, now: float) -> Optional[float]:
        shard.deaths = [t for t in shard.deaths if now - t <= FLAP_WINDOW]
        shard.deaths.append(now)
        if len(shard.deaths) > FLAP_MAX_RESTARTS:
            shard.state, shard.respawn_at = DEGRADED, None
            return None
        shard.backoff = (
            min(RESTART_BACKOFF_CAP, 2 * shard.backoff)
            if shard.backoff else RESTART_BACKOFF
        )
        shard.state, shard.respawn_at = DOWN, now + shard.backoff
        return shard.respawn_at

    def due(self, k: int, now: float) -> bool:
        """Whether shard ``k`` is down and its backoff has elapsed."""
        shard = self.shards[k]
        return shard.respawn_at is not None and now >= shard.respawn_at

    # ------------------------------------------------------------------
    # answers
    # ------------------------------------------------------------------
    def answer(self, doc: Doc, addresses: Sequence[str]) -> Doc:
        """The reply to any frame but ``stats`` and ``rebalance``:
        ``ping`` (clients dial ``addresses``), ``bye``, or a refusal --
        the router carries no session frame."""
        seq, kind = doc.get("seq"), doc.get("kind")
        if kind == "ping":
            reply: Doc = {
                "ok": True,
                "seq": seq,
                "pong": True,
                "role": "router",
                "shards": len(self.shards),
                "shards_up": self.count(UP),
                "degraded": [
                    k for k, s in enumerate(self.shards) if s.state == DEGRADED
                ],
            }
            table = ShardTable(
                self.map, addresses, [s.state for s in self.shards]
            )
            reply.update(table.ping_fields())
            return reply
        if kind == "bye":
            return {"ok": True, "seq": seq, "bye": True}
        if kind not in wire.SESSION_KINDS:
            return wire.error_reply(seq, "bad_request", f"unknown kind {kind!r}")
        session_id = doc.get("session")
        if not isinstance(session_id, str) or not session_id:
            return wire.error_reply(seq, "bad_request", "missing session field")
        return wire.error_reply(
            seq,
            "moved",
            "the router carries no session frames; ping it for the shard "
            "table and send the frame to the owning shard",
        )

    def stats(
        self,
        seq: object,
        pongs: Sequence[Doc],
        pids: Sequence[Optional[int]],
        connections: int,
    ) -> Doc:
        """The ``stats`` reply, from each shard's own ``ping`` reply
        (empty when it is not up) and process id."""
        return {
            "ok": True,
            "seq": seq,
            "router": True,
            "shards": [
                {
                    "shard": k,
                    "up": s.state == UP,
                    "pid": pid,
                    # Session frames the shard's current process answered.
                    "forwarded": int(pong.get("answered", 0)),  # type: ignore[arg-type]
                    "restarts": s.restarts,
                    "degraded": s.state == DEGRADED,
                }
                for k, (s, pong, pid) in enumerate(zip(self.shards, pongs, pids))
            ],
            "shed": sum(int(pong.get("shed", 0)) for pong in pongs),  # type: ignore[arg-type]
            "connections": connections,
            "layout": self.map.to_doc(),
        }

    # ------------------------------------------------------------------
    # moves
    # ------------------------------------------------------------------
    def plan_rebalance(self, doc: Doc) -> Union[Doc, ShardMap]:
        """The reply to a ``rebalance`` that moves nothing -- a no-op or
        a refusal -- or the map once the session has moved."""
        seq, session_id, target = doc.get("seq"), doc.get("session"), doc.get("target")
        if not isinstance(session_id, str) or not session_id:
            return wire.error_reply(seq, "bad_request", "missing session field")
        if not isinstance(target, int) or not 0 <= target < len(self.shards):
            return wire.error_reply(
                seq,
                "bad_request",
                f"target must be a shard index 0..{len(self.shards) - 1}",
            )
        source = self.map.owner(session_id)
        if source == target:
            return {
                "ok": True, "seq": seq, "session": session_id,
                "moved": False, "shard": target,
            }
        if self.shards[source].state != UP or self.shards[target].state != UP:
            return wire.error_reply(
                seq, "shard_down", "both shards must be up to rebalance"
            )
        overrides = dict(self.map.overrides)
        if self.map.ring_owner(session_id) == target:
            overrides.pop(session_id, None)
        else:
            overrides[session_id] = target
        return ShardMap(self.map.shards, self.map.replicas, overrides)

    def moved(self, doc: Doc, layout: ShardMap, snapshot_reply: Doc) -> Doc:
        """The ``rebalance`` ``doc`` is done (the old owner's retiring
        ``snapshot`` answered ``snapshot_reply``): ``layout`` becomes
        the map."""
        session_id = str(doc["session"])
        reply: Doc = {
            "ok": True,
            "seq": doc.get("seq"),
            "session": session_id,
            "moved": True,
            "from": self.map.owner(session_id),
            "shard": layout.owner(session_id),
            "events": snapshot_reply.get("events"),
            "digest": snapshot_reply.get("digest"),
        }
        self.map = layout
        return reply

    # ------------------------------------------------------------------
    # offline reconcile
    # ------------------------------------------------------------------
    def reconcile(
        self, stored: Optional[ShardMap], present: Sequence[int]
    ) -> Tuple[str, List[int]]:
        """What start must do to the data dir, given the layout stored
        there and the indices of its shard directories; and which of
        those directories are orphans (the layout no longer has them).

        :data:`FAST` when the stored layout is :attr:`map` (so it has no
        override) and there is no orphan: each shard recovers its own
        WAL untouched.  :data:`FRESH` for an empty data dir: only the
        layout is saved.  Otherwise :data:`FULL`: every session moves to
        its owner under :attr:`map`.
        """
        orphans = [k for k in present if k >= self.map.shards]
        if stored == self.map and not orphans:
            return FAST, orphans
        if stored is None and not present:
            return FRESH, orphans
        return FULL, orphans
