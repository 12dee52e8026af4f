"""The server core: every daemon decision that is not I/O.

:class:`~repro.serve.server.CheckpointServer` drives one
:class:`ServerCore`.  The core answers ``bye`` / ``ping`` / ``layout``
/ ``bad_request`` / ``moved`` at once and queues any other frame on the
shard its session hashes to -- one session's frames apply in arrival
order, distinct sessions interleave -- or sheds it ``overloaded`` at
``queue_depth``; it applies, snapshots, retires, restores and evicts
sessions, rebuilds the ones the WAL proves at open, and chooses at
shutdown between snapshotting everything and the degraded path.

**The durability order is the order of a step's effects.**  A step
(:meth:`ServerCore.step`) applies its shard's frames in arrival order --
appending each mutation to the WAL -- up to the first *barrier* item
(a ``snapshot`` frame or an idle sweep), whose snapshot must contain no
record that is not yet durable.  Its effects are then one ``Sync`` of
the WAL through the last record it appended, and only after that the
replies, one write per connection (:meth:`ServerCore.finish`).  A
barrier therefore runs at the head of the next step, behind a Sync.  A
failed Sync halts the server: the step's held replies, and every later
session frame, are refused ``wal_failure``, and shutdown skips the
snapshot pass, whose watermarks would otherwise cover frames that were
never durably acked.

It owns no socket and imports no clock (the driver passes one in), so
tests drive it with a fake clock, its WAL and store on a crash-faithful
fake disk, and a Sync they can fail; ``tools/lint_imports.py`` fails it on a ``socket`` /
``asyncio`` / ``select`` / ``time`` import.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.serve import wire
from repro.serve.session import ServeSession, SessionError
from repro.serve.shardmap import ShardMap
from repro.serve.snapshots import SnapshotStore, rebuild_session, restore_session
from repro.serve.wal import IngestWal, recover_sessions
from repro.types import ReproError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer
    from repro.serve.server import ServerConfig

Doc = Dict[str, object]


@dataclass
class Step:
    """One step of a shard: ``(frame, connection, reply)`` held back.

    ``sync`` is the WAL seq that must be durable before any reply
    leaves (None: the step appended nothing).  A ``None`` reply was
    never applied -- the server had halted -- and is refused.
    """

    held: List[Tuple[Doc, object, Optional[Doc]]] = field(default_factory=list)
    sync: Optional[int] = None


class ServerCore:
    """One daemon's sessions, shard queues and durability bookkeeping.

    ``clock`` returns seconds on a monotonic scale; it stamps idle
    bookkeeping and, with ``metrics``, the latency histograms.
    """

    def __init__(
        self,
        config: "ServerConfig",
        store: SnapshotStore,
        clock: Callable[[], float],
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.config = config
        self.store = store
        self.clock = clock
        self.tracer = tracer
        self.metrics = metrics
        self.wal: Optional[IngestWal] = None
        self.sessions: Dict[str, ServeSession] = {}
        #: Per shard: ``(frame, connection)`` in arrival order; ``None``
        #: is an idle sweep.
        self.queues: List[Deque[Optional[Tuple[Doc, object]]]] = [
            deque() for _ in range(config.workers)
        ]
        #: What broke the WAL (ENOSPC, EIO...); the server is halted
        #: from then on, since acks could no longer be made durable.
        self.failed: Optional[BaseException] = None
        self.shed_frames = 0
        #: Session frames this server owned and answered (``ping``).
        self.answered_frames = 0
        self._activity: Dict[str, float] = {}
        #: A router's layout and this shard's index; None owns everything.
        self._layout: Optional[ShardMap] = None
        self._shard_index = 0
        #: Per session: highest WAL seq holding one of its records.
        self._wal_tail: Dict[str, int] = {}
        #: Per session: WAL seq its newest durable snapshot covers.
        self._snap_marks: Dict[str, int] = {}
        #: Sessions rebuilt from WAL/snapshot replay at open.
        self._recovered: Dict[str, int] = {}
        self._tick = 0  # server-side trace clock (one per traced event)

    def _trace(self, kind: str, **fields: object) -> None:
        if self.tracer:
            self._tick += 1
            self.tracer.event(kind, float(self._tick), **fields)

    def _gauge_sessions(self) -> None:
        if self.metrics is not None:
            self.metrics.set("serve.sessions", len(self.sessions))

    def _shard_of(self, session_id: str) -> int:
        return zlib.crc32(session_id.encode("utf-8")) % self.config.workers

    # ------------------------------------------------------------------
    # open and shutdown
    # ------------------------------------------------------------------
    def recover(self, wal: IngestWal) -> None:
        """Adopt the opened ``wal`` and rebuild every session it proves,
        on top of the newest valid snapshots.  Damage beyond a torn
        (never-acknowledged) tail was already raised by opening it."""
        self.wal = wal
        snapshots = self.store.load_all()
        recovered = recover_sessions(wal.recovered, snapshots)
        for sid in sorted(recovered):
            rec = recovered[sid]
            snap = snapshots.get(sid)
            session = rebuild_session(rec, snap, metrics=self.metrics)
            if snap is not None:
                self._snap_marks[sid] = int(snap.get("wal_seq", -1))  # type: ignore[arg-type]
            self.sessions[sid] = session
            self._wal_tail[sid] = self._recovered[sid] = rec.wal_seq
            self._trace(
                "serve.wal.recover",
                session=sid,
                events=len(session.ingest_log),
                wal_seq=rec.wal_seq,
                from_snapshot=rec.from_snapshot,
            )
        if wal.repaired_tail:
            self._trace("serve.wal.repair", dropped=wal.repaired_tail)
        if self.metrics is not None:
            self.metrics.set("serve.wal.durable_seq", wal.durable_seq)
            self.metrics.set("serve.wal.recovered_sessions", len(recovered))
            records = sum(len(rec.log) for rec in recovered.values())
            self.metrics.set("serve.wal.recovered_records", records)
        self._gauge_sessions()

    def shutdown(self) -> Dict[str, int]:
        """Snapshot every live session -- or, halted, none -- and close
        the WAL; returns ``{session_id: ingested event count}``.

        Called once every queued frame is answered, so every record is
        durable: each step that appended one ended with its Sync.  After
        a WAL failure the durable prefix plus the old snapshots already
        describe exactly the acked state, and a snapshot now would
        stamp its watermark over frames whose acks never left.
        """
        summary = {
            sid: len(session.ingest_log)
            for sid, session in sorted(self.sessions.items())
        }
        if self.failed is None:
            for session in self.sessions.values():
                self._save_snapshot(session)
        else:
            self._trace(
                "serve.stop.degraded", sessions=len(summary), error=str(self.failed)
            )
        if self.wal is not None:
            try:
                self.wal.close()
            except Exception:  # noqa: BLE001 - the disk already failed
                if self.failed is None:
                    raise
        self._trace("serve.stop", sessions=len(summary))
        self.sessions.clear()
        return summary

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def dispatch(self, doc: Doc, conn: object) -> Tuple[Optional[Doc], Optional[int], bool]:
        """Route one inbound frame: ``(reply, shard, close)``.

        ``reply`` is written at once; otherwise the frame was queued on
        ``shard``, whose worker is to be woken.  ``close``: stop reading
        the connection -- after ``bye``, and once the server halted
        (its queued frame is then refused in order, behind the replies
        the connection is already owed).
        """
        seq, kind, session_id = doc.get("seq"), doc.get("kind"), doc.get("session")
        if kind == "bye":
            reply: Doc = {"ok": True, "seq": seq, "bye": True}
        elif kind == "ping":
            # A halted daemon is *degraded*, not unreachable, and the
            # difference is exactly what a supervisor needs to see.
            reply = {
                "ok": True,
                "seq": seq,
                "pong": True,
                "role": "server",
                "sessions": len(self.sessions),
                "degraded": self.failed is not None,
                "answered": self.answered_frames,
                "shed": self.shed_frames,
            }
        elif kind == "layout":
            reply = self._adopt_layout(doc)
        elif kind not in wire.SESSION_KINDS:
            reply = wire.error_reply(seq, "bad_request", f"unknown kind {kind!r}")
        elif not isinstance(session_id, str) or not session_id:
            reply = wire.error_reply(seq, "bad_request", "missing session field")
        # Before the queue and the store, so a session retired here is
        # never restored from its leftover snapshot.  The retiring
        # snapshot itself is how the router takes a session away.
        elif (
            self._layout is not None
            and self._layout.owner(session_id) != self._shard_index
            and not (kind == "snapshot" and doc.get("retire"))
        ):
            reply = wire.error_reply(
                seq, "moved", f"shard {self._shard_index} does not own "
                f"session {session_id!r}; ping the router for its table",
            )
        else:
            self.answered_frames += 1
            shard = self._shard_of(session_id)
            queue = self.queues[shard]
            if len(queue) < self.config.queue_depth:
                queue.append((doc, conn))
                if self.metrics is not None:
                    self.metrics.set("serve.queue_depth", max(map(len, self.queues)))
                return None, shard, self.failed is not None
            self.shed_frames += 1
            self._trace("serve.shed", session=session_id, frame=kind, seq=seq)
            if self.metrics is not None:
                self.metrics.inc("serve.shed")
            reply = wire.error_reply(seq, "overloaded", "session shard queue is full; retry")
        return reply, None, kind == "bye"

    def _adopt_layout(self, doc: Doc) -> Doc:
        """Take the ownership a router pushes: ``layout`` is a
        :meth:`ShardMap.to_doc` document, ``shard`` this process's index."""
        seq, shard = doc.get("seq"), doc.get("shard")
        try:
            layout = ShardMap.from_doc(doc["layout"])  # type: ignore[arg-type]
            if type(shard) is not int or not 0 <= shard < layout.shards:
                raise ValueError(f"shard {shard!r} outside 0..{layout.shards - 1}")
        except (KeyError, AttributeError, TypeError, ValueError, SimulationError) as exc:
            return wire.error_reply(seq, "bad_request", f"bad layout: {exc}")
        self._layout, self._shard_index = layout, shard
        self._trace("serve.layout", shard=shard, overrides=len(layout.overrides))
        return {"ok": True, "seq": seq, "shard": shard}

    def tick(self) -> None:
        """The idle timer fired: queue one sweep on every shard that has
        none pending, behind its in-flight frames (a full shard is not
        idle enough to matter)."""
        for queue in self.queues:
            if len(queue) < self.config.queue_depth and None not in queue:
                queue.append(None)

    # ------------------------------------------------------------------
    # steps
    # ------------------------------------------------------------------
    def step(self, shard: int) -> Optional[Step]:
        """Apply ``shard``'s queued frames up to its first barrier that
        this step's appends would precede; None when the queue is empty."""
        queue, wal = self.queues[shard], self.wal
        if not queue:
            return None
        start = wal.last_seq if wal is not None else -1
        step = Step()
        while queue:
            item = queue[0]
            if wal is not None and wal.last_seq != start and (
                item is None or item[0].get("kind") == "snapshot"
            ):
                break  # the barrier heads the next step, behind a Sync
            queue.popleft()
            if item is None:
                if self.failed is None:
                    self._sweep(shard)
                continue
            doc, conn = item
            step.held.append((doc, conn, None if self.failed is not None else self._handle(doc)))
        if wal is not None and wal.last_seq != start:
            step.sync = wal.last_seq
        return step

    def finish(
        self, step: Step, error: Optional[BaseException] = None
    ) -> Dict[object, List[Doc]]:
        """The writes of ``step`` once its Sync is done -- ``error`` if
        it failed, which halts the server -- grouped per connection in
        arrival order.  A held reply whose records never became durable
        is refused: its durability is unknown, so the client must treat
        the frame as unacked and resend after recovery.  The halt
        matches the WAL's own halt-over-degrade policy: in-memory
        sessions are ahead of the durable record from here on."""
        if error is not None and self.failed is None:
            self.failed = error
            self._trace("serve.wal.failed", error=str(error))
            if self.metrics is not None:
                self.metrics.inc("serve.wal.failures")
        writes: Dict[object, List[Doc]] = {}
        for doc, conn, reply in step.held:
            if reply is None or error is not None:
                reply = wire.error_reply(
                    doc.get("seq"),
                    "wal_failure",
                    f"ingest WAL commit failed ({self.failed}); "
                    f"frame not durable, treat as unacknowledged",
                )
            writes.setdefault(conn, []).append(reply)
        return writes

    def _sweep(self, shard: int) -> None:
        """Snapshot and drop ``shard``'s sessions idle for ``idle_timeout``
        as of now -- a frame applied since the tick keeps its session."""
        now = self.clock()
        for sid, last in list(self._activity.items()):
            if now - last < self.config.idle_timeout or self._shard_of(sid) != shard:  # type: ignore[operator]
                continue
            session = self.sessions[sid]
            self._save_snapshot(session)
            del self.sessions[sid], self._activity[sid]
            self._trace("serve.evict", session=sid, events=len(session.ingest_log))
            if self.metrics is not None:
                self.metrics.inc("serve.evictions")
            self._gauge_sessions()

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def _handle(self, doc: Doc) -> Doc:
        """Apply one session frame against its session."""
        seq = doc.get("seq")
        kind = str(doc.get("kind"))
        session_id = str(doc.get("session"))
        started = self.clock() if self.metrics is not None else 0.0
        try:
            if kind == "hello":
                return self._handle_hello(doc)
            session = self._resolve(session_id)
            self._touch(session_id)
            if kind == "query":
                what = str(doc.get("what"))
                asked = self.clock() if self.metrics is not None else 0.0
                result = session.query(what, crashed=doc.get("crashed"))
                if self.metrics is not None:
                    # One histogram per kind (an unknown kind raised).
                    self.metrics.observe(
                        f"serve.query.{what}_s", self.clock() - asked
                    )
                    self.metrics.inc("serve.queries")
                return {"ok": True, "seq": seq, "result": result}
            if kind == "snapshot":
                snap = self._save_snapshot(session)
                reply = {
                    "ok": True,
                    "seq": seq,
                    "events": snap["events"],
                    "digest": snap["digest"],
                }
                if self.wal is not None:
                    reply["wal_seq"] = snap["wal_seq"]
                if doc.get("retire"):
                    # Re-home support ("snapshot, truncate, re-home"):
                    # the caller is moving this session elsewhere, so
                    # the live copy must not linger -- a later frame
                    # would otherwise resume from stale state.  The
                    # snapshot itself stays in the store: WAL segments
                    # may have been truncated against its watermark,
                    # and recovery needs it to keep the chain sound.
                    del self.sessions[session_id]
                    self._activity.pop(session_id, None)
                    self._trace(
                        "serve.retire",
                        session=session_id,
                        events=snap["events"],
                    )
                    self._gauge_sessions()
                    reply["retired"] = True
                return reply
            reply = session.apply(doc)
            if self.metrics is not None:
                self.metrics.inc("serve.ingest")
            if self.wal is not None:
                # Log exactly what the session recorded; the reply is
                # held back by its step until this record is durable.
                record = self.wal.append(
                    session_id,
                    len(session.ingest_log) - 1,
                    session.ingest_log[-1],
                )
                self._wal_tail[session_id] = record.seq
                reply["wal_seq"] = record.seq
                if self.metrics is not None:
                    self.metrics.inc("serve.wal.appends")
            reply["seq"] = seq
            return reply
        except (ReproError, SessionError) as exc:
            code = "bad_session" if isinstance(exc, SessionError) else "error"
            return wire.error_reply(seq, code, str(exc))
        except Exception:  # noqa: BLE001 - a worker must never die
            return wire.error_reply(seq, "internal", "internal error")
        finally:
            if self.metrics is not None:
                self.metrics.observe("serve.latency_s", self.clock() - started)

    def _handle_hello(self, doc: Doc) -> Doc:
        seq = doc.get("seq")
        session_id = str(doc.get("session"))
        live = self.sessions.get(session_id)
        resumed = False
        if live is None and session_id in self.store:
            live = self._restore(session_id)
            resumed = True
        if live is None:
            n = doc.get("n")
            protocol = doc.get("protocol", "bhmr")
            session = ServeSession(
                session_id,
                n if isinstance(n, int) else -1,
                str(protocol),
                tracer=None,
                metrics=self.metrics,
            )
            self.sessions[session_id] = live = session
            if self.wal is not None:
                # Session creation is a mutation too: without it the
                # WAL tail could name a session recovery knows nothing
                # about (n? protocol?), which would be a chain gap.
                record = self.wal.append(
                    session_id,
                    -1,
                    {
                        "kind": "hello",
                        "n": session.n,
                        "protocol": session.protocol_name,
                    },
                )
                self._wal_tail[session_id] = record.seq
                if self.metrics is not None:
                    self.metrics.inc("serve.wal.appends")
            self._gauge_sessions()
        else:
            n = doc.get("n")
            protocol = doc.get("protocol")
            if (n is not None and n != live.n) or (
                protocol is not None and protocol != live.protocol_name
            ):
                return wire.error_reply(
                    seq,
                    "session_mismatch",
                    f"session {session_id!r} is n={live.n} "
                    f"protocol={live.protocol_name}",
                )
        self._touch(session_id)
        reply: Doc = {
            "ok": True,
            "seq": seq,
            "session": session_id,
            "n": live.n,
            "protocol": live.protocol_name,
            "resumed": resumed,
            "events": len(live.ingest_log),
        }
        if self.wal is not None:
            # Recovery-aware reconnect: the client learns exactly how
            # far the durable record reaches (its last acked frame is
            # at or below this) and whether the session was rebuilt
            # from the WAL after a crash.
            reply["wal_seq"] = self._wal_tail.get(session_id, -1)
            reply["recovered"] = session_id in self._recovered
        return reply

    def _resolve(self, session_id: str) -> ServeSession:
        session = self.sessions.get(session_id)
        if session is not None:
            return session
        if session_id in self.store:
            return self._restore(session_id)
        raise SessionError(
            f"unknown session {session_id!r}; send a hello frame first"
        )

    def _restore(self, session_id: str) -> ServeSession:
        # With a WAL the snapshot must outlive the restore: segments at
        # or below its watermark may already be reclaimed, so deleting
        # it would orphan the durable prefix it covers.  Without a WAL
        # the restored session owns its state again (old behaviour).
        if self.wal is not None:
            doc = self.store.load(session_id)
        else:
            doc = self.store.pop(session_id)
        assert doc is not None
        session = restore_session(doc, metrics=self.metrics)
        self.sessions[session_id] = session
        self._trace(
            "serve.restore", session=session_id, events=len(session.ingest_log)
        )
        if self.metrics is not None:
            self.metrics.inc("serve.restores")
        self._gauge_sessions()
        return session

    def _touch(self, session_id: str) -> None:
        # Only worth bookkeeping when eviction can actually happen.
        if self.config.idle_timeout is not None:
            self._activity[session_id] = self.clock()

    def _save_snapshot(self, session: ServeSession) -> Doc:
        """Snapshot one session and reclaim fully-covered WAL segments.

        Only ever at the head of a step or at shutdown, behind a Sync:
        the recorded ``wal_seq`` watermark asserts that every logged
        frame in the snapshot is durable, and truncation relies on it.
        """
        session_id = session.session_id
        wal_seq = self._wal_tail.get(session_id, -1)
        snap = self.store.save(session, wal_seq=wal_seq)
        self._trace(
            "serve.snapshot",
            session=session_id,
            events=snap["events"],
            wal_seq=wal_seq,
        )
        if self.wal is not None:
            self._snap_marks[session_id] = wal_seq
            removed = self.wal.truncate_covered(dict(self._snap_marks))
            if removed:
                self._trace("serve.wal.truncate", segments=removed)
                if self.metrics is not None:
                    self.metrics.inc(
                        "serve.wal.truncated_segments", len(removed)
                    )
        return snap
