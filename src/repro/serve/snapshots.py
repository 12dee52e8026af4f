"""Session snapshot/restore: how idle sessions leave and re-enter RAM.

A snapshot is one canonical-JSON document: the session's identity, its
recorded ingest log, and an integrity digest of the live
:meth:`RecoveryManager.state() <repro.recovery.manager.RecoveryManager.state>`
at snapshot time.  Restore replays the log through a fresh session --
the ingest stream is the source of truth, and replay is deterministic
by construction -- then recomputes the digest and refuses to resume a
session whose rebuilt state does not match bit for bit.  That check is
what turns "replay should be deterministic" from a hope into an
enforced invariant at every eviction/restore cycle.

The store keeps one ``<session>.json`` per snapshot on a disk: in
memory by default (eviction frees the live closure rows, protocol
matrices and sender logs, keeping only the compact log), or in a
directory, so a server can survive a restart with its sessions intact.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List, Optional, TYPE_CHECKING, Union

from repro.obs.jsonio import canonical_bytes
from repro.serve.disk import Disk, MemoryDisk
from repro.serve.session import ServeSession
from repro.types import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer
    from repro.serve.wal import RecoveredSession


#: Snapshot document version.  It names the digest preimage (the shape
#: of ``RecoveryManager.state()``), so it changes whenever that does.
SNAPSHOT_VERSION = 4


def state_digest(session: ServeSession) -> str:
    """SHA-256 over the canonical manager state (the replay invariant)."""
    return hashlib.sha256(canonical_bytes(session.manager.state())).hexdigest()


def snapshot_doc(session: ServeSession, wal_seq: int = -1) -> Dict[str, object]:
    """The session as one canonical-JSON-safe snapshot document.

    ``wal_seq`` is the ingest-WAL watermark the snapshot covers: every
    WAL record of this session with seq at or below it is contained in
    ``log``, so segments whose records are all covered by such
    watermarks are reclaimable (see ``IngestWal.truncate_covered``).
    ``-1`` means "no WAL" (or nothing of this session logged yet).
    """
    return {
        "version": SNAPSHOT_VERSION,
        "session": session.session_id,
        "n": session.n,
        "protocol": session.protocol_name,
        "events": len(session.ingest_log),
        "log": [dict(op) for op in session.ingest_log],
        "wal_seq": wal_seq,
        "digest": state_digest(session),
    }


def restore_session(
    doc: Dict[str, object],
    tracer: Optional["Tracer"] = None,
    metrics: Optional["MetricsRegistry"] = None,
) -> ServeSession:
    """Rebuild a live session from a snapshot document.

    Raises :class:`SimulationError` if the replayed state's digest does
    not match the snapshot's (a nondeterminism bug upstream, or a
    corrupted snapshot) -- resuming silently from diverged state is the
    one failure mode this layer must never allow.  A document of another
    ``version`` is refused by name first: its digest was taken over a
    different preimage and could only fail that check misleadingly.
    """
    if doc.get("version") != SNAPSHOT_VERSION:
        raise SimulationError(
            f"snapshot of session {doc.get('session')!r} has version "
            f"{doc.get('version')!r}; this build reads version "
            f"{SNAPSHOT_VERSION} only"
        )
    session = ServeSession.replay_log(
        str(doc["session"]),
        int(doc["n"]),  # type: ignore[arg-type]
        str(doc["protocol"]),
        doc["log"],  # type: ignore[arg-type]
        tracer=tracer,
        metrics=metrics,
    )
    rebuilt = state_digest(session)
    if rebuilt != doc["digest"]:
        raise SimulationError(
            f"snapshot of session {doc['session']!r} failed integrity check: "
            f"replayed digest {rebuilt[:12]} != stored {str(doc['digest'])[:12]}"
        )
    return session


def rebuild_session(
    recovered: "RecoveredSession",
    snapshot: Optional[Dict[str, object]],
    metrics: Optional["MetricsRegistry"] = None,
) -> ServeSession:
    """The live session a WAL recovery proves: a digest-checked
    :func:`restore_session` of its snapshot, then the WAL tail applied op
    by op on top; a replay of the whole log when there is no snapshot.

    A server recovering its own WAL and a router re-homing sessions
    across a resize both rebuild through here, so neither can carry a
    damaged snapshot forward under a fresh digest.
    """
    if snapshot is None:
        return ServeSession.replay_log(
            recovered.session_id,
            recovered.n,
            recovered.protocol,
            recovered.log,
            metrics=metrics,
        )
    session = restore_session(snapshot, metrics=metrics)
    for op in recovered.log[len(session.ingest_log):]:
        session.apply(dict(op))
    return session


#: An id that is its own snapshot file name (``<id>.json``, 255 bytes).
_SAFE_ID = re.compile(r"[A-Za-z0-9._-]{1,250}")


class SnapshotStore:
    """Keyed snapshot storage: one ``<name>.json`` per session in
    ``directory`` on a :class:`~repro.serve.disk.Disk` -- or, with no
    directory, on a :class:`~repro.serve.disk.MemoryDisk`."""

    def __init__(
        self, directory: Union[str, Path, None] = None, disk: Optional[Disk] = None
    ) -> None:
        self._directory = Path(directory or "snapshots")
        self._disk = disk or (Disk() if directory is not None else MemoryDisk())
        # Also drops the temporary file a crash mid-save can leave.
        self._disk.mkdir(self._directory)

    def _path(self, session_id: str) -> Path:
        """Injective, at most 255 bytes: a safe id is its own name, any
        other is ``%`` and its SHA-256, which no safe id can be."""
        if _SAFE_ID.fullmatch(session_id) is None:
            digest = hashlib.sha256(session_id.encode("utf-8", "surrogatepass"))
            session_id = "%" + digest.hexdigest()
        return self._directory / f"{session_id}.json"

    def save(
        self, session: ServeSession, wal_seq: int = -1
    ) -> Dict[str, object]:
        doc = snapshot_doc(session, wal_seq=wal_seq)
        self.put(session.session_id, doc)
        return doc

    def put(self, session_id: str, doc: Dict[str, object]) -> None:
        """Store an already-built snapshot document verbatim.

        The re-home path of a sharded deployment moves snapshot
        documents between per-shard stores without a live session in
        hand; integrity still holds because :func:`restore_session`
        verifies the digest on the way back in.
        """
        self._disk.write_atomic(self._path(session_id), canonical_bytes(doc))

    def load(self, session_id: str) -> Optional[Dict[str, object]]:
        """The session's snapshot document, or None; one holding another
        session is refused (:class:`SimulationError`), not served."""
        data = self._disk.read(self._path(session_id))
        if data is None:
            return None
        doc = json.loads(data)
        if doc.get("session") != session_id:
            raise SimulationError(
                f"snapshot file for session {session_id!r} holds session "
                f"{doc.get('session')!r}"
            )
        return doc

    def load_all(self) -> Dict[str, Dict[str, object]]:
        """Every stored snapshot document, by session id."""
        return {
            sid: doc for sid in self.known() if (doc := self.load(sid)) is not None
        }

    def pop(self, session_id: str) -> Optional[Dict[str, object]]:
        """Load and forget (a restored session owns its state again)."""
        doc = self.load(session_id)
        if doc is not None:
            self.discard(session_id)
        return doc

    def discard(self, session_id: str) -> None:
        self._disk.unlink(self._path(session_id))

    def known(self) -> List[str]:
        return sorted(
            str(json.loads(self._disk.read(self._directory / name))["session"])  # type: ignore[arg-type]
            for name in self._disk.listdir(self._directory)
            if name.endswith(".json")
        )

    def __contains__(self, session_id: str) -> bool:
        return self._disk.read(self._path(session_id)) is not None

    def __repr__(self) -> str:
        return f"<SnapshotStore {self._directory} sessions={len(self.known())}>"
