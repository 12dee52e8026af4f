"""The asyncio checkpointing daemon.

One event loop, many sessions, bounded memory:

* **Sharded session actors.**  Each session is pinned to exactly one of
  ``workers`` worker tasks (stable CRC of the session id), so one
  session's operations apply strictly in arrival order with no locks,
  while distinct sessions interleave freely across the pool.
* **Backpressure, never unbounded queues.**  Each shard's queue is
  bounded (``queue_depth``); a frame arriving at a full shard is *shed*
  -- refused with an ``overloaded`` error reply, counted in
  ``serve.shed`` and traced -- instead of buffered without limit.  A
  shed frame is not acknowledged, so clients can simply retry.
* **Idle eviction.**  Sessions idle past ``idle_timeout`` are
  snapshotted to the :class:`~repro.serve.snapshots.SnapshotStore` and
  dropped from RAM; the next frame naming them restores transparently
  (with a digest check on the replayed state).
* **Graceful drain.**  :meth:`CheckpointServer.stop` stops intake,
  drains every shard queue -- every frame already read gets its reply,
  so no acknowledged frame is ever lost -- snapshots all live sessions
  and only then closes connections.
* **Ownership, when sharded.**  After a router's ``layout`` frame, a
  frame for a session this shard does not own is refused ``moved``; a
  server that never got a layout owns every session.

Blocking calls are banned inside this package's coroutines by
``tools/lint_determinism.py``; wall-clock use is confined to the event
loop's monotonic clock (idle bookkeeping) and ``perf_counter``
latency histograms, neither of which touches a deterministic artifact.
"""

from __future__ import annotations

import asyncio
import threading
import zlib
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING, Union

from repro.serve import wire
from repro.serve.client import format_address
from repro.serve.session import ServeSession, SessionError
from repro.serve.shardmap import ShardMap
from repro.serve.snapshots import SnapshotStore, restore_session
from repro.serve.wal import IngestWal, WalCommitter, recover_sessions
from repro.types import ReproError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

#: Address of a running server: ``("tcp", host, port)`` or ``("unix", path)``.
Address = Tuple[str, ...]


@dataclass
class ServerConfig:
    """Tunables of one daemon instance (defaults suit tests and demos).

    The one declaration of every single-process knob's default and
    rule: :class:`~repro.serve.router.RouterConfig` takes its per-shard
    defaults from here and validates them by these rules, and
    ``repro.api.serve`` / ``repro serve`` restate neither.

    ``port=0`` binds an ephemeral TCP port; ``unix_path`` switches to a
    Unix socket instead.  ``idle_timeout=None`` disables eviction;
    ``snapshot_dir=None`` keeps snapshots in memory.
    """

    host: str = "127.0.0.1"
    port: int = 0
    unix_path: Optional[str] = None
    workers: int = 4
    queue_depth: int = 256
    idle_timeout: Optional[float] = None
    snapshot_dir: Optional[str] = None
    #: Directory of the durable ingest WAL; ``None`` disables the WAL
    #: (acks then promise nothing across an OS-level crash).
    wal_dir: Optional[str] = None
    #: Max records retired per WAL fsync (the group-commit batch cap).
    fsync_batch: int = 64

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise SimulationError("workers must be positive")
        if self.queue_depth <= 0:
            raise SimulationError("queue_depth must be positive")
        if self.idle_timeout is not None and self.idle_timeout <= 0:
            raise SimulationError("idle_timeout must be positive (or None)")
        if self.fsync_batch <= 0:
            raise SimulationError("fsync_batch must be positive")


#: Outgoing bytes buffered before a worker awaits ``drain()``.  Writes
#: are synchronous on the loop (whole frames, so they never interleave);
#: draining only past this mark batches many replies per syscall wakeup.
_WRITE_HIGH_WATER = 256 * 1024


class _Conn:
    """Per-connection write state: coalesced writes, pending count.

    Workers ``push`` encoded replies onto an app-level list and
    ``flush_writes`` once per processed batch -- one ``send`` syscall
    carries a whole batch of replies instead of one each.  ``done`` is
    only called after the flush, so ``drained`` set implies every
    acknowledged reply has reached the transport.
    """

    __slots__ = ("writer", "pending", "drained", "_out")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.pending = 0
        self.drained = asyncio.Event()
        self.drained.set()
        self._out: List[bytes] = []

    def push(self, doc: Dict[str, object]) -> None:
        if not self.writer.is_closing():
            self._out.append(wire.encode_frame(doc))

    async def flush_writes(self) -> None:
        if not self._out:
            return
        data = b"".join(self._out)
        self._out.clear()
        if self.writer.is_closing():
            return
        self.writer.write(data)
        transport = self.writer.transport
        if (
            transport is not None
            and transport.get_write_buffer_size() > _WRITE_HIGH_WATER
        ):
            await self.writer.drain()

    async def reply(self, doc: Dict[str, object]) -> None:
        self.push(doc)
        await self.flush_writes()

    def enqueue(self) -> None:
        self.pending += 1
        self.drained.clear()

    def done(self) -> None:
        self.pending -= 1
        if self.pending == 0:
            self.drained.set()


class CheckpointServer:
    """The online checkpointing service (see module docstring)."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self.tracer = tracer
        self.metrics = metrics
        self.sessions: Dict[str, ServeSession] = {}
        self.store = SnapshotStore(self.config.snapshot_dir)
        self._activity: Dict[str, float] = {}
        self._queues: List[asyncio.Queue] = []
        self._workers: List[asyncio.Task] = []
        self._housekeeper: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: set = set()
        self._readers: set = set()
        self._stopping = False
        self._stopped = False
        self._tick = 0  # server-side trace clock (one per traced event)
        self.shed_frames = 0
        self.ingested_frames = 0
        #: Session frames this server owned and answered (``ping``).
        self.answered_frames = 0
        #: A router's layout and this shard's index; None owns everything.
        self._layout: Optional[ShardMap] = None
        self._shard_index = 0
        # --- durable ingest WAL (built in start(); None = disabled) ---
        self.wal: Optional[IngestWal] = None
        self._committer: Optional[WalCommitter] = None
        #: Per session: highest WAL seq holding one of its records.
        self._wal_tail: Dict[str, int] = {}
        #: Per session: WAL seq its newest durable snapshot covers.
        self._snap_marks: Dict[str, int] = {}
        #: Sessions rebuilt from WAL/snapshot replay at startup.
        self._recovered: Dict[str, int] = {}
        self.recovered_records = 0
        #: The exception that broke the WAL (ENOSPC, EIO...), once a
        #: group commit has failed; the server is halted-over-degraded
        #: from then on (see :meth:`_fail_wal`).
        self._wal_failed: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Address:
        """Bind, spawn the worker pool, start accepting; returns address.

        With ``wal_dir`` set, crash recovery runs *before* the listener
        binds: the WAL is verified (halting on any non-tail damage),
        replayed on top of the newest valid snapshots, and every
        acknowledged frame is live again before the first client can
        connect.
        """
        if self._server is not None:
            raise SimulationError("server already started")
        if self.config.wal_dir is not None:
            self._open_wal()
        self._queues = [
            asyncio.Queue(maxsize=self.config.queue_depth)
            for _ in range(self.config.workers)
        ]
        self._workers = [
            asyncio.ensure_future(self._worker(shard))
            for shard in range(self.config.workers)
        ]
        if self.config.idle_timeout is not None:
            self._housekeeper = asyncio.ensure_future(self._housekeep())
        if self.config.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._serve_conn, path=self.config.unix_path
            )
            self.address: Address = ("unix", self.config.unix_path)
        else:
            self._server = await asyncio.start_server(
                self._serve_conn, host=self.config.host, port=self.config.port
            )
            sock = self._server.sockets[0]
            host, port = sock.getsockname()[:2]
            self.address = ("tcp", host, port)
        self._trace("serve.start", address=list(self.address))
        return self.address

    def _open_wal(self) -> None:
        """Open/verify the WAL and rebuild every session it proves.

        Damage beyond a torn (never-acknowledged) tail raises
        :class:`~repro.serve.wal.WalCorruption` out of :meth:`start` --
        the server halts rather than serving silently-wrong state.
        """
        assert self.config.wal_dir is not None
        self.wal = IngestWal(self.config.wal_dir)
        self._committer = WalCommitter(
            self.wal, fsync_batch=self.config.fsync_batch
        )
        snapshots: Dict[str, Dict[str, object]] = {}
        for sid in self.store.known():
            doc = self.store.load(sid)
            if doc is not None:
                snapshots[sid] = doc
        recovered = recover_sessions(self.wal.recovered, snapshots)
        for sid in sorted(recovered):
            rec = recovered[sid]
            snap = snapshots.get(sid)
            if snap is not None:
                # Digest-checked replay of the snapshot prefix, then
                # the WAL tail applied op by op on top of it.
                session = restore_session(snap, metrics=self.metrics)
                for op in rec.log[len(session.ingest_log):]:
                    session.apply(dict(op))
            else:
                session = ServeSession.replay_log(
                    sid, rec.n, rec.protocol, rec.log, metrics=self.metrics
                )
            self.sessions[sid] = session
            self._wal_tail[sid] = rec.wal_seq
            if snap is not None:
                self._snap_marks[sid] = int(snap.get("wal_seq", -1))  # type: ignore[arg-type]
            self._recovered[sid] = rec.wal_seq
            self.recovered_records += len(rec.log)
            self._trace(
                "serve.wal.recover",
                session=sid,
                events=len(session.ingest_log),
                wal_seq=rec.wal_seq,
                from_snapshot=rec.from_snapshot,
            )
        if self.wal.repaired_tail:
            self._trace(
                "serve.wal.repair", dropped=self.wal.repaired_tail
            )
        if self.metrics is not None:
            self.metrics.set("serve.wal.durable_seq", self.wal.durable_seq)
            self.metrics.set("serve.wal.recovered_sessions", len(recovered))
            self.metrics.set(
                "serve.wal.recovered_records", self.recovered_records
            )
        self._gauge_sessions()

    async def stop(self) -> Dict[str, int]:
        """Graceful drain; returns ``{session_id: ingested event count}``.

        Intake stops first (listener closed, readers refuse new
        frames), then every shard queue drains -- frames already read
        are applied and replied to -- then all live sessions are
        snapshotted to the store and connections closed.
        """
        if self._stopped:
            return {}
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for queue in self._queues:
            await queue.join()
        # Let each connection flush replies that workers just produced.
        for conn in list(self._conns):
            await conn.drained.wait()
        if self._housekeeper is not None:
            self._housekeeper.cancel()
        for task in self._workers:
            task.cancel()
        summary = {
            sid: len(session.ingest_log)
            for sid, session in sorted(self.sessions.items())
        }
        if self.wal is not None and self._wal_failed is None:
            # Workers committed their final batches during the drain;
            # this is a belt-and-braces flush before snapshotting.
            try:
                self.wal.sync()
            except Exception as exc:  # noqa: BLE001 - failing disk
                self._fail_wal(exc)
        if self._wal_failed is None:
            for session in self.sessions.values():
                self._save_snapshot(session)
        else:
            # Snapshotting after a WAL failure would stamp wal_seq
            # watermarks over frames that were never durably acked,
            # resurrecting them as phantoms on recovery.  The durable
            # prefix + the old snapshots already describe exactly the
            # acked state; leave them be.
            self._trace(
                "serve.stop.degraded", sessions=len(summary),
                error=str(self._wal_failed),
            )
        if self.wal is not None:
            if self._wal_failed is None:
                self.wal.close()
            else:
                try:
                    self.wal.close()
                except Exception:  # noqa: BLE001 - the disk already failed
                    pass
        self._trace("serve.stop", sessions=len(summary))
        self.sessions.clear()
        for conn in list(self._conns):
            conn.writer.close()
        for task in list(self._readers):
            task.cancel()
        self._stopped = True
        return summary

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _trace(self, kind: str, **fields: object) -> None:
        if self.tracer:
            self._tick += 1
            self.tracer.event(kind, float(self._tick), **fields)

    def _gauge_sessions(self) -> None:
        if self.metrics is not None:
            self.metrics.set("serve.sessions", len(self.sessions))

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _shard_of(self, session_id: str) -> int:
        return zlib.crc32(session_id.encode("utf-8")) % self.config.workers

    async def _serve_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(writer)
        self._conns.add(conn)
        self._readers.add(asyncio.current_task())
        self._trace("serve.conn", mark="open")
        if self.metrics is not None:
            self.metrics.set("serve.connections", len(self._conns))
        try:
            await self._read_loop(reader, conn)
        except (wire.FrameError, ConnectionError, asyncio.CancelledError):
            pass
        finally:
            await conn.drained.wait()
            self._conns.discard(conn)
            self._readers.discard(asyncio.current_task())
            self._trace("serve.conn", mark="close")
            if self.metrics is not None:
                self.metrics.set("serve.connections", len(self._conns))
            if not writer.is_closing():
                writer.close()

    async def _read_loop(self, reader: asyncio.StreamReader, conn: _Conn) -> None:
        # Chunked reads through a FrameBuffer instead of two
        # ``readexactly`` awaits per frame: one loop wakeup dispatches
        # every frame the chunk completed, which is where most of the
        # per-frame asyncio overhead went.
        buffer = wire.FrameBuffer()
        while not self._stopping:
            doc = buffer.next_doc()
            if doc is None:
                data = await reader.read(65536)
                if not data:
                    if buffer.pending():
                        raise wire.FrameError("connection closed mid-frame")
                    return
                buffer.feed(data)
                continue
            if not await self._dispatch(doc, conn):
                return

    async def _dispatch(self, doc: Dict[str, object], conn: _Conn) -> bool:
        """Route one inbound frame; returns False when the conn should close."""
        seq = doc.get("seq")
        kind = doc.get("kind")
        if kind == "bye":
            await conn.reply({"ok": True, "seq": seq, "bye": True})
            return False
        if kind == "ping":
            # Health probes must answer even when the WAL has failed:
            # a halted daemon is *degraded*, not unreachable, and the
            # difference is exactly what a supervisor needs to see.
            await conn.reply(
                {
                    "ok": True,
                    "seq": seq,
                    "pong": True,
                    "role": "server",
                    "sessions": len(self.sessions),
                    "degraded": self._wal_failed is not None,
                    "answered": self.answered_frames,
                    "shed": self.shed_frames,
                }
            )
            return True
        if kind == "layout":
            await conn.reply(self._adopt_layout(doc))
            return True
        if self._wal_failed is not None:
            # Halted (see _fail_wal): refuse rather than accept frames
            # whose acks could never be made durable.
            await conn.reply(self._wal_failed_reply(doc))
            return False
        if kind not in wire.SESSION_KINDS:
            await conn.reply(
                wire.error_reply(seq, "bad_request", f"unknown kind {kind!r}")
            )
            return True
        session_id = doc.get("session")
        if not isinstance(session_id, str) or not session_id:
            await conn.reply(
                wire.error_reply(seq, "bad_request", "missing session field")
            )
            return True
        # Before the queue and the store, so a session retired here is
        # never restored from its leftover snapshot.  The retiring
        # snapshot itself is how the router takes a session away.
        if (
            self._layout is not None
            and self._layout.owner(session_id) != self._shard_index
            and not (kind == "snapshot" and doc.get("retire"))
        ):
            await conn.reply(wire.error_reply(
                seq, "moved", f"shard {self._shard_index} does not own "
                f"session {session_id!r}; ping the router for its table",
            ))
            return True
        self.answered_frames += 1
        queue = self._queues[self._shard_of(session_id)]
        try:
            conn.enqueue()
            queue.put_nowait((doc, conn))
        except asyncio.QueueFull:
            conn.done()
            self.shed_frames += 1
            self._trace("serve.shed", session=session_id, frame=kind, seq=seq)
            if self.metrics is not None:
                self.metrics.inc("serve.shed")
            await conn.reply(
                wire.error_reply(
                    seq, "overloaded", "session shard queue is full; retry"
                )
            )
        else:
            if self.metrics is not None:
                self.metrics.set(
                    "serve.queue_depth",
                    max(q.qsize() for q in self._queues),
                )
        return True

    def _adopt_layout(self, doc: Dict[str, object]) -> Dict[str, object]:
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

    # ------------------------------------------------------------------
    # shard workers
    # ------------------------------------------------------------------
    async def _worker(self, shard: int) -> None:
        queue = self._queues[shard]
        while True:
            # Batch: one await wakes the worker, then everything already
            # queued on the shard is processed without further switches,
            # and each connection gets one coalesced write per batch.
            #
            # Durability ordering (the WAL contract):
            #   1. apply + WAL-append every frame of the batch, replies
            #      held back;
            #   2. group-commit the WAL (one fsync covers the batch);
            #   3. only then push the replies -- an ack on the wire
            #      implies its record is on disk.
            # Snapshot and eviction frames get a commit barrier *first*
            # so a snapshot can never contain a frame that is not yet
            # durable (which a crash would otherwise resurrect as a
            # phantom the client was never acked for).
            items = [await queue.get()]
            while True:
                try:
                    items.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            replies: List[Tuple[_Conn, Dict[str, object]]] = []
            touched: List[_Conn] = []
            for item in items:
                doc, conn = item
                if self._wal_failed is not None:
                    # Halted: nothing gets applied or acked any more,
                    # but every already-queued frame still gets an
                    # explicit error instead of a silent hang.
                    if conn is not None:
                        replies.append((conn, self._wal_failed_reply(doc)))
                        if not any(c is conn for c in touched):
                            touched.append(conn)
                    continue
                if conn is None:  # internal housekeeping op
                    # Durability before snapshot: an eviction snapshot
                    # must never cover a frame that is not yet durable.
                    if await self._commit_wal_guarded():
                        self._evict_if_idle(str(doc["session"]))
                    continue
                if doc.get("kind") == "snapshot":
                    if not await self._commit_wal_guarded():
                        replies.append((conn, self._wal_failed_reply(doc)))
                        if not any(c is conn for c in touched):
                            touched.append(conn)
                        continue
                try:
                    if self.metrics is not None:
                        started = perf_counter()
                        reply = self._handle(doc)
                        self.metrics.observe(
                            "serve.latency_s", perf_counter() - started
                        )
                    else:
                        reply = self._handle(doc)
                    replies.append((conn, reply))
                except asyncio.CancelledError:
                    raise
                except Exception:  # noqa: BLE001 - a worker must never die
                    replies.append(
                        (
                            conn,
                            wire.error_reply(
                                doc.get("seq"), "internal", "internal error"
                            ),
                        )
                    )
                if not any(c is conn for c in touched):
                    touched.append(conn)
            if self._wal_failed is None and not await self._commit_wal_guarded():
                # The batch's records never became durable, so none of
                # the held-back acks may leave: every frame of the
                # batch is answered with an explicit wal_failure error
                # instead (its durability is unknown; the client must
                # treat it as unacked and resend after recovery).
                replies = [
                    (conn, self._wal_failed_reply(doc))
                    for doc, conn in items
                    if conn is not None
                ]
            for conn, reply in replies:
                try:
                    conn.push(reply)
                except Exception:  # noqa: BLE001
                    pass
            for conn in touched:
                try:
                    await conn.flush_writes()
                except (ConnectionError, OSError):
                    pass
            for item in items:
                if item[1] is not None:
                    item[1].done()
                queue.task_done()

    async def _commit_wal_guarded(self) -> bool:
        """:meth:`_commit_wal`, halting the server on commit failure.

        Returns True when everything appended is durable.  A failing
        disk (ENOSPC, EIO...) must not kill the shard worker silently
        -- that would hang every queued frame with no reply while the
        in-memory state ran ahead of the durable record.  Instead the
        failure trips :meth:`_fail_wal` once, and callers answer their
        held-back frames with explicit errors.
        """
        try:
            await self._commit_wal()
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - any disk/OS failure
            self._fail_wal(exc)
            return False
        return True

    def _fail_wal(self, exc: BaseException) -> None:
        """Halt over degrade: the WAL can no longer make acks durable.

        In-memory sessions are ahead of the durable record (frames were
        applied whose commit failed), so continuing to serve -- or
        snapshotting at shutdown, which would stamp a watermark over
        never-acked frames -- would fabricate durability.  Intake stops
        (listener closed, dispatch refuses frames), queued frames get
        ``wal_failure`` errors, and :meth:`stop` skips the snapshot
        pass.  Matches the WAL's own halt-over-degrade policy.
        """
        if self._wal_failed is not None:
            return
        self._wal_failed = exc
        self._trace("serve.wal.failed", error=str(exc))
        if self.metrics is not None:
            self.metrics.inc("serve.wal.failures")
        if self._server is not None:
            self._server.close()

    def _wal_failed_reply(self, doc: Dict[str, object]) -> Dict[str, object]:
        return wire.error_reply(
            doc.get("seq"),
            "wal_failure",
            f"ingest WAL commit failed ({self._wal_failed}); "
            f"frame not durable, treat as unacknowledged",
        )

    async def _commit_wal(self) -> None:
        """Make every appended WAL record durable; no-op without a WAL."""
        if self._committer is None or self.wal is None:
            return
        target = self.wal.last_seq
        if self.wal.durable_seq >= target:
            return
        started = perf_counter()
        await self._committer.commit(target)
        self._trace("serve.wal.commit", seq=self.wal.durable_seq)
        for segment in self.wal.drain_rotations():
            self._trace("serve.wal.rotate", segment=segment)
        if self.metrics is not None:
            self.metrics.observe(
                "serve.wal.commit_s", perf_counter() - started
            )
            self.metrics.inc("serve.wal.commits")
            self.metrics.set("serve.wal.durable_seq", self.wal.durable_seq)

    def _handle(self, doc: Dict[str, object]) -> Dict[str, object]:
        """Apply one sharded frame against its session (sync, in-shard)."""
        seq = doc.get("seq")
        kind = str(doc.get("kind"))
        session_id = str(doc.get("session"))
        try:
            if kind == "hello":
                return self._handle_hello(doc)
            session = self._resolve(session_id)
            self._touch(session_id)
            if kind == "query":
                what = str(doc.get("what"))
                started = perf_counter() if self.metrics is not None else 0.0
                result = session.query(what, crashed=doc.get("crashed"))
                if self.metrics is not None:
                    # One histogram per kind (an unknown kind raised).
                    self.metrics.observe(
                        f"serve.query.{what}_s", perf_counter() - started
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
            self.ingested_frames += 1
            if self.metrics is not None:
                self.metrics.inc("serve.ingest")
            if self.wal is not None:
                # Log exactly what the session recorded; the reply is
                # held back by the worker until this record is durable.
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

    def _handle_hello(self, doc: Dict[str, object]) -> Dict[str, object]:
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
        reply: Dict[str, object] = {
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

    # ------------------------------------------------------------------
    # idle eviction
    # ------------------------------------------------------------------
    def _touch(self, session_id: str) -> None:
        # Only worth bookkeeping when eviction can actually happen.
        if self.config.idle_timeout is not None:
            self._activity[session_id] = asyncio.get_running_loop().time()

    async def _housekeep(self) -> None:
        assert self.config.idle_timeout is not None
        interval = self.config.idle_timeout / 2
        while True:
            await asyncio.sleep(interval)
            now = asyncio.get_running_loop().time()
            for session_id in list(self.sessions):
                last = self._activity.get(session_id, now)
                if now - last < self.config.idle_timeout:
                    continue
                queue = self._queues[self._shard_of(session_id)]
                try:
                    # Routed through the shard so eviction serialises
                    # with in-flight operations of the same session.
                    queue.put_nowait(({"session": session_id}, None))
                except asyncio.QueueFull:
                    continue  # busy shard: not idle enough to matter

    def _save_snapshot(self, session: ServeSession) -> Dict[str, object]:
        """Snapshot one session and reclaim fully-covered WAL segments.

        Callers on the async path must run a WAL commit barrier first
        (the worker does): the recorded ``wal_seq`` watermark asserts
        that every logged frame in the snapshot is durable, and
        truncation below relies on it.
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

    def _evict_if_idle(self, session_id: str) -> None:
        session = self.sessions.get(session_id)
        if session is None:
            return
        now = asyncio.get_running_loop().time()
        last = self._activity.get(session_id, now)
        if (
            self.config.idle_timeout is None
            or now - last < self.config.idle_timeout
        ):
            return
        self._save_snapshot(session)
        del self.sessions[session_id]
        self._activity.pop(session_id, None)
        self._trace(
            "serve.evict", session=session_id, events=len(session.ingest_log)
        )
        if self.metrics is not None:
            self.metrics.inc("serve.evictions")
        self._gauge_sessions()

    def __repr__(self) -> str:
        state = "stopped" if self._stopped else (
            "stopping" if self._stopping else
            ("listening" if self._server else "new")
        )
        return (
            f"<CheckpointServer {state} sessions={len(self.sessions)} "
            f"workers={self.config.workers}>"
        )


# ----------------------------------------------------------------------
# thread-hosted server (the sync facade behind ``repro.api.serve``)
# ----------------------------------------------------------------------
class ServerHandle:
    """A daemon running on its own event-loop thread.

    The handle is a context manager: ``with api.serve() as handle``
    guarantees a graceful drain on exit.  ``handle.address`` is ready
    as soon as the constructor returns.
    """

    def __init__(self, server: CheckpointServer) -> None:
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            raise SimulationError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        if not self._started.is_set():
            raise SimulationError("server failed to start within 10s")
        self.summary: Dict[str, int] = {}

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        self._loop.run_forever()
        self._loop.close()

    @property
    def address(self) -> Address:
        return self.server.address

    def connect_address(self) -> str:
        """The address in the textual form the clients parse."""
        return format_address(self.address)

    def close(self, timeout: float = 30.0) -> Dict[str, int]:
        """Gracefully drain and stop; returns per-session event counts."""
        if not self._thread.is_alive():
            return self.summary
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
        self.summary = future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        return self.summary

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<ServerHandle {self.connect_address()} {self.server!r}>"


def serve_in_thread(
    config: Optional[ServerConfig] = None,
    tracer: Optional["Tracer"] = None,
    metrics: Optional["MetricsRegistry"] = None,
) -> ServerHandle:
    """Start a daemon on a background thread; returns its handle."""
    return ServerHandle(CheckpointServer(config, tracer=tracer, metrics=metrics))
