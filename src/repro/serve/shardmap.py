"""Consistent-hash shard ownership: which shard process owns a session.

The router, every shard process and every client must agree, forever
and across restarts, on the mapping ``session id -> shard index``.  Anything
ambient (dict iteration order, interpreter hash randomisation, wall
clock) is therefore banned from the construction; the ring is a pure
function of ``(shards, replicas)`` built from SHA-256, so two processes
that agree on those two integers agree on every placement -- and the
serialized form (:meth:`ShardMap.to_doc`) lets them *prove* it instead
of assuming it.

Why a consistent-hash ring rather than ``crc32(session) % shards`` (the
in-process worker pool's rule): when the shard count changes across a
restart, a modulus reshuffles nearly every session, while the ring
moves only the sessions whose arc changed owner -- the "rollback scope
follows ownership" discipline needs that locality, because every moved
session pays a snapshot-verified re-home (see ``router.py``).

On top of the ring sits one small escape hatch: an explicit
``overrides`` table written by the ``rebalance`` admin verb.  A session
in ``overrides`` lives where the table says, not where the ring says;
the table is part of the serialized document, so a router restart
cannot silently forget a migration.  The startup reconcile pass --
decided by :meth:`RouteCore.reconcile
<repro.serve.routecore.RouteCore.reconcile>`, performed by
:meth:`Router._reconcile <repro.serve.router.Router._reconcile>` --
folds overrides back into ring placement by physically moving the
sessions, then clears the table -- overrides are a migration in flight,
not a second source of truth.

:class:`ShardTable` is what clients route by: the layout plus each
shard's address and supervision state, as the router's ``ping``
publishes them.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.jsonio import canonical_dumps
from repro.serve.disk import Disk
from repro.types import SimulationError

#: Ring points per shard.  64 keeps the worst/best shard load ratio
#: within ~20% for realistic session counts while the ring stays small
#: enough to rebuild on every start (shards * replicas points).
DEFAULT_REPLICAS = 64


def _point(label: str) -> int:
    """A ring position: the first 8 bytes of SHA-256, big-endian.

    SHA-256 rather than ``hash()``: Python's string hashing is
    randomized per process (PYTHONHASHSEED), and the whole design rests
    on every process computing identical placements.
    """
    return int.from_bytes(
        hashlib.sha256(label.encode("utf-8")).digest()[:8], "big"
    )


class ShardMap:
    """Deterministic session-id -> shard-index map (ring + overrides)."""

    def __init__(
        self,
        shards: int,
        replicas: int = DEFAULT_REPLICAS,
        overrides: Optional[Dict[str, int]] = None,
    ) -> None:
        if shards <= 0:
            raise SimulationError(f"shard count must be positive, got {shards}")
        if replicas <= 0:
            raise SimulationError(
                f"replica count must be positive, got {replicas}"
            )
        self.shards = shards
        self.replicas = replicas
        self.overrides: Dict[str, int] = dict(overrides or {})
        for sid, shard in self.overrides.items():
            if not 0 <= shard < shards:
                raise SimulationError(
                    f"override {sid!r} -> {shard} outside 0..{shards - 1}"
                )
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(replicas):
                points.append((_point(f"shard:{shard}:{replica}"), shard))
        points.sort()
        self._ring_points = [p for p, _ in points]
        self._ring_owners = [s for _, s in points]

    # ------------------------------------------------------------------
    def ring_owner(self, session_id: str) -> int:
        """Placement by the ring alone, ignoring overrides."""
        where = bisect_right(self._ring_points, _point(session_id))
        if where == len(self._ring_points):
            where = 0  # wrap: past the last point owns from the first
        return self._ring_owners[where]

    def owner(self, session_id: str) -> int:
        """The shard index that owns ``session_id`` right now."""
        override = self.overrides.get(session_id)
        if override is not None:
            return override
        return self.ring_owner(session_id)

    # ------------------------------------------------------------------
    def to_doc(self) -> Dict[str, object]:
        """The serialized layout (canonical-JSON-safe)."""
        return {
            "version": 1,
            "shards": self.shards,
            "replicas": self.replicas,
            "overrides": dict(sorted(self.overrides.items())),
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, object]) -> "ShardMap":
        if doc.get("version") != 1:
            raise SimulationError(
                f"unsupported shardmap version {doc.get('version')!r}"
            )
        overrides = doc.get("overrides") or {}
        return cls(
            int(doc["shards"]),  # type: ignore[arg-type]
            int(doc.get("replicas", DEFAULT_REPLICAS)),  # type: ignore[arg-type]
            {str(k): int(v) for k, v in dict(overrides).items()},  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Persist atomically to ``path`` (see ``Disk.write_atomic``)."""
        Disk().write_atomic(path, canonical_dumps(self.to_doc()).encode())

    @classmethod
    def load(cls, path: Union[str, Path]) -> Optional["ShardMap"]:
        """The layout stored at ``path``, or None if none exists."""
        data = Disk().read(path)
        return None if data is None else cls.from_doc(json.loads(data))

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ShardMap) and self.to_doc() == other.to_doc()
        )

    def __repr__(self) -> str:
        return (
            f"<ShardMap shards={self.shards} replicas={self.replicas} "
            f"overrides={len(self.overrides)}>"
        )


#: A shard's state in a router's ``ping``: serving, restarting (its
#: supervisor will respawn it), or parked for good (crash-looping).
UP, DOWN, DEGRADED = "up", "down", "degraded"


class ShardTable:
    """A client's routing table, as a router's ``ping`` publishes it:
    the layout, and per shard where to dial it and its state.  There is
    no epoch: a shard's ``moved`` refusal is what tells a client its
    table went stale."""

    def __init__(
        self, layout: ShardMap, addresses: Sequence[str], states: Sequence[str]
    ) -> None:
        if not len(addresses) == len(states) == layout.shards:
            raise SimulationError(
                f"{layout.shards} shards need one address and state each"
            )
        self.layout = layout
        self.addresses = list(addresses)
        self.states = list(states)

    def ping_fields(self) -> Dict[str, object]:
        """The fields a router adds to its ``ping`` reply."""
        return {
            "layout": self.layout.to_doc(),
            "table": [
                {"shard": k, "address": address, "state": state}
                for k, (address, state) in enumerate(zip(self.addresses, self.states))
            ],
        }

    @classmethod
    def from_ping(cls, reply: Mapping[str, object]) -> Optional["ShardTable"]:
        """The table in a ``ping`` reply; None unless a router sent it."""
        if reply.get("role") != "router":
            return None
        try:
            rows = sorted(reply["table"], key=lambda row: row["shard"])  # type: ignore[arg-type,index]
            return cls(
                ShardMap.from_doc(reply["layout"]),  # type: ignore[arg-type]
                [str(row["address"]) for row in rows],
                [str(row["state"]) for row in rows],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed router table: {exc!r}") from None
