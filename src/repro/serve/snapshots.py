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

The store itself is either in-memory (the default: eviction frees the
live closure rows, protocol matrices and sender logs, keeping only
the compact log) or directory-backed (one ``<session>.json`` per
snapshot), so a server can survive a restart with its sessions intact.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, List, Optional, TYPE_CHECKING, Union

from repro.obs.jsonio import canonical_bytes, canonical_dumps
from repro.serve.session import ServeSession
from repro.types import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer


#: Snapshot document version.  It names the digest preimage (the shape
#: of ``RecoveryManager.state()``), so it changes whenever that does.
SNAPSHOT_VERSION = 3


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


class SnapshotStore:
    """Keyed snapshot storage, in-memory or directory-backed."""

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self._directory = Path(directory) if directory is not None else None
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
            # A crash mid-save can leave a *.json.tmp behind; the real
            # snapshot (if any) is intact, so stale temps are garbage.
            for stale in self._directory.glob("*.json.tmp"):
                stale.unlink()
        self._docs: Dict[str, Dict[str, object]] = {}

    def _path(self, session_id: str) -> Path:
        assert self._directory is not None
        safe = "".join(
            c if c.isalnum() or c in "-_." else "_" for c in session_id
        )
        return self._directory / f"{safe}.json"

    def save(
        self, session: ServeSession, wal_seq: int = -1
    ) -> Dict[str, object]:
        doc = snapshot_doc(session, wal_seq=wal_seq)
        if self._directory is not None:
            self._write_atomic(self._path(session.session_id), doc)
        else:
            self._docs[session.session_id] = doc
        return doc

    @staticmethod
    def _write_atomic(path: Path, doc: Dict[str, object]) -> None:
        """Write-then-rename so a crash never leaves a torn snapshot.

        A ``kill -9`` between any two syscalls here leaves either the
        previous snapshot intact or the new one complete -- never a
        partially-written file that would halt recovery.  The payload
        is fsynced before the rename and the directory entry after it,
        so the rename itself is durable too.

        Deliberate trade-off: these fsyncs run synchronously on the
        caller's thread, which on the server is the event loop (the
        snapshot path is sync end to end, so the async-blocking lint
        rule does not see it -- see ``tools/lint_determinism.py``).
        Unlike the per-frame WAL fsync, which the group committer
        routes through an executor, snapshots are rare (idle eviction,
        explicit ``snapshot`` frames, shutdown) and the durability
        ordering requires the write to complete before the eviction or
        ack proceeds; stalling the loop for one bounded barrier is the
        simple, correct choice until profiling says otherwise.
        """
        import os

        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(canonical_dumps(doc))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def put(self, session_id: str, doc: Dict[str, object]) -> None:
        """Store an already-built snapshot document verbatim.

        The re-home path of a sharded deployment moves snapshot
        documents between per-shard stores without a live session in
        hand; integrity still holds because :func:`restore_session`
        verifies the digest on the way back in.
        """
        if self._directory is not None:
            self._write_atomic(self._path(session_id), doc)
        else:
            self._docs[session_id] = doc

    def load(self, session_id: str) -> Optional[Dict[str, object]]:
        if self._directory is not None:
            path = self._path(session_id)
            if not path.exists():
                return None
            import json

            return json.loads(path.read_text(encoding="utf-8"))
        return self._docs.get(session_id)

    def pop(self, session_id: str) -> Optional[Dict[str, object]]:
        """Load and forget (a restored session owns its state again)."""
        doc = self.load(session_id)
        if doc is not None:
            self.discard(session_id)
        return doc

    def discard(self, session_id: str) -> None:
        if self._directory is not None:
            path = self._path(session_id)
            if path.exists():
                path.unlink()
        else:
            self._docs.pop(session_id, None)

    def known(self) -> List[str]:
        if self._directory is not None:
            import json

            return sorted(
                str(json.loads(p.read_text(encoding="utf-8"))["session"])
                for p in self._directory.glob("*.json")
            )
        return sorted(self._docs)

    def __contains__(self, session_id: str) -> bool:
        return self.load(session_id) is not None

    def __repr__(self) -> str:
        where = self._directory or "memory"
        return f"<SnapshotStore {where} sessions={len(self.known())}>"
