"""Multi-process scale-out: N shard processes behind one asyncio router.

The single-process :class:`~repro.serve.server.CheckpointServer` shards
sessions across asyncio worker *tasks* -- true parallelism stops at the
GIL.  This module promotes those shards to *processes*: the router
accepts client connections, routes every frame to the shard process
that owns its session (:class:`~repro.serve.shardmap.ShardMap`), and
fans replies back.  Each shard is a stock ``repro serve`` daemon with
its **own WAL directory and snapshot store** under
``data_dir/shard-<k>/``, so the ack ⇒ durable contract of the ingest
WAL holds per shard exactly as it does single-process.

Design rules the implementation leans on:

* **Byte passthrough.**  Frames are forwarded verbatim in both
  directions (:class:`~repro.serve.wire.RawFrameBuffer` finds the
  boundaries; nothing is re-encoded), so a sharded deployment answers
  byte-identically to a single-process one -- which is exactly what the
  differential suite asserts.  The router decodes request payloads once
  (it needs ``session``/``kind``/``seq`` to route) and reply payloads
  once (to settle its in-flight bookkeeping); the bytes on the wire are
  the shard's own.
* **Per-(connection, shard) uplinks.**  Each client connection gets its
  own connection to every shard it talks to, so client-chosen ``seq``
  values never collide inside a shard connection and replies need no
  rewriting.  Reply pumps forward only *whole frames* to the client --
  error frames the router itself writes (``overloaded``,
  ``shard_down``) may interleave with pump output, and a partial frame
  in between would corrupt the stream.
* **Failure is a key range, not the service.**  A shard process that
  dies (or halts on ``wal_failure``) takes down only its sessions: the
  router fails that shard's in-flight frames with ``shard_down``
  (retryable -- the frame was refused, not half-applied), answers the
  same for new frames, and the supervisor respawns the process, which
  replays its WAL before binding.  Other shards never notice.
* **Handoff is "snapshot, truncate, re-home".**  The ``rebalance``
  admin verb quiesces a session, has the old owner write an
  integrity-checked snapshot (advancing its WAL watermark and
  truncating covered segments) and retire its live copy, copies the
  snapshot into the new owner's store, and records the move as a
  shardmap override persisted in ``data_dir/shardmap.json``.  When the
  shard count changes across a restart the same discipline runs
  offline for every session whose ring arc moved
  (:meth:`Router._reconcile`).
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.obs.jsonio import canonical_dumps
from repro.serve import wire
from repro.serve.client import AsyncClient, ReplyError
from repro.serve.server import ServerConfig
from repro.serve.session import ServeSession
from repro.serve.shardmap import DEFAULT_REPLICAS, ShardMap
from repro.serve.snapshots import SnapshotStore, snapshot_doc
from repro.serve.wal import read_wal, recover_sessions
from repro.types import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

#: ``("tcp", host, port)`` or ``("unix", path)`` (same shape as the server's).
Address = Tuple


@dataclass
class RouterConfig:
    """Knobs for a sharded deployment.

    The per-shard knobs (``workers``, ``queue_depth``, ``idle_timeout``,
    ``fsync_batch``) are passed straight through to each shard's
    ``repro serve`` process, which always runs with its WAL under
    ``data_dir``.  They take :class:`ServerConfig`'s defaults and rules,
    except that ``workers`` defaults to 1: parallelism comes from
    processes here, not loop tasks.
    """

    host: str = ServerConfig.host
    port: int = ServerConfig.port
    unix_path: Optional[str] = ServerConfig.unix_path
    shard_procs: int = 2
    data_dir: str = ""
    replicas: int = DEFAULT_REPLICAS
    workers: int = 1
    queue_depth: int = ServerConfig.queue_depth
    idle_timeout: Optional[float] = ServerConfig.idle_timeout
    fsync_batch: int = ServerConfig.fsync_batch
    #: Shed with ``overloaded`` once this many bytes sit unsent in a
    #: shard uplink's transport buffer (the shard's pipe is backed up).
    shed_bytes: int = 1 << 20
    #: How long one shard process may take to bind its socket (WAL
    #: replay happens before the bind, so recovery time counts).
    spawn_timeout: float = 30.0
    #: Base pause before respawning a dead shard; each consecutive
    #: death doubles it up to ``restart_backoff_cap``.
    restart_backoff: float = 0.2
    #: Ceiling on the exponential respawn backoff.
    restart_backoff_cap: float = 5.0
    #: Crash-loop trip wire: more than ``flap_max_restarts`` deaths
    #: (including failed respawns) inside ``flap_window`` seconds parks
    #: the shard in a terminal ``shard_degraded`` state instead of
    #: respawning forever.  ``flap_max_restarts = 0`` disables the wire.
    flap_window: float = 30.0
    flap_max_restarts: int = 5

    def __post_init__(self) -> None:
        if self.shard_procs <= 0:
            raise SimulationError(
                f"shard_procs must be positive, got {self.shard_procs}"
            )
        if not self.data_dir:
            raise SimulationError(
                "a sharded deployment needs data_dir (per-shard WAL and "
                "snapshot directories live under it)"
            )
        # The shards' own rules, checked here so a bad per-shard knob
        # fails before any directory or process exists.
        ServerConfig(
            workers=self.workers,
            queue_depth=self.queue_depth,
            idle_timeout=self.idle_timeout,
            fsync_batch=self.fsync_batch,
        )


class _Shard:
    """One shard process and the router's view of it."""

    def __init__(self, index: int, directory: Path) -> None:
        self.index = index
        self.dir = directory
        self.sock_path = directory / "serve.sock"
        self.proc: Optional[subprocess.Popen] = None
        self.up = asyncio.Event()
        self.forwarded = 0
        self.restarts = 0
        #: Terminal: the crash-loop trip wire fired; no more respawns.
        self.degraded = False
        #: ``loop.time()`` stamps of recent deaths/failed respawns
        #: (trimmed to what the trip wire can possibly need).
        self.restart_times: List[float] = []

    @property
    def wal_dir(self) -> Path:
        return self.dir / "wal"

    @property
    def snaps_dir(self) -> Path:
        return self.dir / "snaps"


class _Uplink:
    """One connection from one client conn to one shard process."""

    def __init__(
        self,
        shard: _Shard,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.shard = shard
        self.reader = reader
        self.writer = writer
        #: seq-key (canonical JSON text of the request's seq) ->
        #: session id, insertion-ordered; what ``shard_down`` answers
        #: for when the shard dies mid-flight.
        self.outstanding: Dict[str, str] = {}
        self.pump: Optional[asyncio.Task] = None
        self.closed = False


class _ClientConn:
    """Router-side state of one accepted client connection."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.uplinks: Dict[int, _Uplink] = {}
        self.closing = False


def _seq_key(seq: object) -> str:
    """The canonical JSON text of a ``seq`` value (the bookkeeping key).

    Request side computes it from the decoded value; the reply side
    reads it straight off the reply bytes (:func:`_reply_seq_text`).
    Canonical JSON guarantees both sides of the same value produce the
    same text.
    """
    if type(seq) is int:  # the common case; excludes bool on purpose
        return str(seq)
    return canonical_dumps(seq)


_NUMBER_START = frozenset(b"-0123456789")
_VALUE_END = frozenset(b",}")


def _reply_seq_text(payload: bytes) -> Optional[str]:
    """The canonical text of a reply's top-level ``seq`` value, sliced
    straight out of the payload without a JSON parse.

    Sound for shard replies because they are canonically encoded: keys
    are sorted, an unescaped ``"seq":`` byte run cannot occur inside a
    string value (the quote would be escaped), and every reply key
    sorting after ``"seq"`` carries a scalar -- so the *last* match is
    the top-level one.  Returns None for exotic seq values (objects,
    arrays, literals); the caller falls back to a full parse.  A miss
    only staled bookkeeping either way: the frame is forwarded verbatim
    regardless.
    """
    idx = payload.rfind(b'"seq":')
    if idx < 0:
        return None
    start = idx + 6
    if start >= len(payload):
        return None
    first = payload[start]
    if first in _NUMBER_START:
        end = start + 1
        while end < len(payload) and payload[end] not in _VALUE_END:
            end += 1
        return payload[start:end].decode("ascii")
    if first == 0x22:  # a string seq: scan to the closing quote
        end = start + 1
        while end < len(payload):
            byte = payload[end]
            if byte == 0x5C:  # backslash: skip the escaped character
                end += 2
                continue
            if byte == 0x22:
                return payload[start : end + 1].decode("ascii")
            end += 1
    return None


#: Routing-cache backstop: a client spraying distinct session ids must
#: not grow router memory without bound.
_OWNER_CACHE_LIMIT = 65536


class Router:
    """The sharded front end; duck-compatible with
    :class:`~repro.serve.server.CheckpointServer` for
    :class:`~repro.serve.server.ServerHandle` (``start``/``stop``/
    ``address``)."""

    def __init__(
        self,
        config: RouterConfig,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.config = config
        self.tracer = tracer
        self.metrics = metrics
        # Resolved eagerly: shard processes run with cwd inside their
        # own shard directory, so every path handed to them (socket,
        # WAL, snapshots) must be absolute or it would re-resolve
        # under the child's cwd.
        self.data_dir = Path(config.data_dir).resolve()
        self.shed_frames = 0
        self.reconciled_sessions = 0
        self._map = ShardMap(config.shard_procs, config.replicas)
        #: session id -> shard index, memoizing the ring hash (one
        #: sha256 per *frame* otherwise); cleared whenever overrides
        #: change.
        self._owner_cache: Dict[str, int] = {}
        self._shards: List[_Shard] = []
        self._conns: Set[_ClientConn] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._supervisors: List[asyncio.Task] = []
        self._migrating: Set[str] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = False
        self._stopped = False
        self.address: Address = ()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _trace(self, kind: str, **fields: object) -> None:
        if self.tracer is not None:
            self.tracer.event(kind, 0.0, **fields)

    def _layout_path(self) -> Path:
        return self.data_dir / "shardmap.json"

    def _shard_dir(self, index: int) -> Path:
        return self.data_dir / f"shard-{index:02d}"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Address:
        self.data_dir.mkdir(parents=True, exist_ok=True)
        loop = asyncio.get_running_loop()
        # Layout reconciliation is pure blocking file work done before
        # any shard runs; off the loop so a thread-hosted start stays
        # responsive.
        await loop.run_in_executor(None, self._reconcile)
        self._shards = [
            _Shard(k, self._shard_dir(k)) for k in range(self.config.shard_procs)
        ]
        try:
            await asyncio.gather(*(self._spawn(s) for s in self._shards))
        except BaseException:
            for shard in self._shards:
                self._kill(shard)
            raise
        for shard in self._shards:
            task = asyncio.ensure_future(self._supervise(shard))
            self._supervisors.append(task)
        if self.config.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._serve_conn, path=self.config.unix_path
            )
            self.address = ("unix", self.config.unix_path)
        else:
            self._server = await asyncio.start_server(
                self._serve_conn, host=self.config.host, port=self.config.port
            )
            sock = self._server.sockets[0]
            host, port = sock.getsockname()[:2]
            self.address = ("tcp", host, port)
        self._trace(
            "serve.router.start",
            address=list(self.address),
            shards=len(self._shards),
        )
        if self.metrics is not None:
            self.metrics.set("serve.shard.procs", len(self._shards))
        return self.address

    async def stop(self) -> Dict[str, int]:
        """Graceful stop: drain shards via SIGINT, merge their summaries."""
        if self._stopped:
            return {}
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._supervisors:
            task.cancel()
        if self._supervisors:
            await asyncio.gather(*self._supervisors, return_exceptions=True)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        summary: Dict[str, int] = {}
        loop = asyncio.get_running_loop()
        for shard in self._shards:
            drained = await loop.run_in_executor(None, self._drain_shard, shard)
            for sid, events in drained.items():
                summary[sid] = max(summary.get(sid, 0), events)
        self._stopped = True
        self._trace("serve.router.stop", sessions=len(summary))
        return summary

    def _drain_shard(self, shard: _Shard) -> Dict[str, int]:
        """SIGINT one shard and parse its ``--json`` exit summary."""
        proc = shard.proc
        if proc is None:
            return {}
        if proc.poll() is None:
            try:
                proc.send_signal(signal.SIGINT)
            except OSError:
                pass
        try:
            out, _ = proc.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        shard.up.clear()
        for line in reversed((out or b"").decode("utf-8", "replace").splitlines()):
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            sessions = doc.get("sessions")
            if isinstance(sessions, dict):
                return {str(k): int(v) for k, v in sessions.items()}
        return {}

    # ------------------------------------------------------------------
    # shard processes
    # ------------------------------------------------------------------
    def _shard_argv(self, shard: _Shard) -> List[str]:
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--unix", str(shard.sock_path),
            "--workers", str(self.config.workers),
            "--queue-depth", str(self.config.queue_depth),
            "--fsync-batch", str(self.config.fsync_batch),
            "--snapshot-dir", str(shard.snaps_dir),
            "--wal-dir", str(shard.wal_dir),
            "--json",
        ]
        if self.config.idle_timeout is not None:
            argv += ["--idle-timeout", str(self.config.idle_timeout)]
        return argv

    async def _spawn(self, shard: _Shard) -> None:
        """Start one shard process and wait until its socket answers.

        The daemon binds only after WAL replay, so "socket answers"
        means "recovery is complete" -- the same contract clients rely
        on when they reconnect after a crash.
        """
        shard.dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else f"{src_root}{os.pathsep}{existing}"
        )
        shard.proc = subprocess.Popen(
            self._shard_argv(shard),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=str(shard.dir),
        )
        self._trace(
            "serve.shard.spawn", shard=shard.index, pid=shard.proc.pid
        )
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.spawn_timeout
        while True:
            if shard.proc.poll() is not None:
                _, err = shard.proc.communicate()
                raise SimulationError(
                    f"shard {shard.index} exited during startup "
                    f"(rc={shard.proc.returncode}): "
                    f"{(err or b'').decode('utf-8', 'replace')[-500:]}"
                )
            try:
                _, writer = await asyncio.open_unix_connection(
                    str(shard.sock_path)
                )
            except (ConnectionError, OSError):
                if loop.time() > deadline:
                    self._kill(shard)
                    raise SimulationError(
                        f"shard {shard.index} did not bind within "
                        f"{self.config.spawn_timeout}s"
                    )
                await asyncio.sleep(0.05)
                continue
            writer.close()
            break
        shard.up.set()
        self._trace("serve.shard.up", shard=shard.index, pid=shard.proc.pid)
        if self.metrics is not None:
            self.metrics.set(
                "serve.shard.live",
                sum(1 for s in self._shards if s.up.is_set()),
            )

    def _kill(self, shard: _Shard) -> None:
        if shard.proc is not None and shard.proc.poll() is None:
            shard.proc.kill()
            shard.proc.communicate()
        shard.up.clear()

    async def _supervise(self, shard: _Shard) -> None:
        """Respawn a shard whose process died; WAL replay heals it.

        Pacing is a capped exponential backoff: the first respawn after
        a stretch of stable uptime waits ``restart_backoff``, and each
        consecutive death doubles the wait up to ``restart_backoff_cap``
        -- WAL replay is exactly the kind of work a tight respawn loop
        would thrash.  A shard that keeps dying -- more than
        ``flap_max_restarts`` deaths (failed respawns included) inside
        ``flap_window`` seconds -- trips the crash-loop wire: it is
        parked in a terminal ``shard_degraded`` state and never
        respawned again, because a deterministic crash (corrupt WAL,
        bad binary, poisoned session) would otherwise flap forever
        while clients burn retry budgets against a shard that can never
        come back.  Parking is visible: a ``serve.shard.flapping``
        trace/metric fires, ``stats``/``ping`` report the shard as
        degraded, and its key range answers a *non-retryable*
        ``shard_degraded`` error so callers fail fast instead of
        retrying into a wall.
        """
        loop = asyncio.get_running_loop()
        consecutive = 0
        while not self._stopping:
            await asyncio.sleep(0.2)
            proc = shard.proc
            if proc is None or self._stopping:
                continue
            if proc.poll() is None:
                # Alive.  A full flap window of stable uptime forgives
                # past deaths, so a once-flappy shard does not pay
                # compounding backoff forever.
                if consecutive and shard.restart_times and (
                    loop.time() - shard.restart_times[-1]
                    > self.config.flap_window
                ):
                    consecutive = 0
                continue
            shard.up.clear()
            shard.restarts += 1
            self._trace(
                "serve.shard.down",
                shard=shard.index,
                returncode=proc.returncode,
            )
            if self.metrics is not None:
                self.metrics.inc("serve.shard.restarts")
                self.metrics.set(
                    "serve.shard.live",
                    sum(1 for s in self._shards if s.up.is_set()),
                )
            proc.communicate()  # reap; pipes are dead anyway
            while not self._stopping:
                now = loop.time()
                consecutive += 1
                shard.restart_times.append(now)
                keep = max(2, self.config.flap_max_restarts + 2)
                del shard.restart_times[:-keep]
                if self._flapping(shard, now):
                    self._park(shard)
                    return
                delay = min(
                    self.config.restart_backoff_cap,
                    self.config.restart_backoff * (2 ** (consecutive - 1)),
                )
                await asyncio.sleep(delay)
                if self._stopping:
                    return
                try:
                    await self._spawn(shard)
                    break
                except SimulationError:
                    # Spawn failed (e.g. WAL corruption halting
                    # recovery): the shard stays down, its key range
                    # answers shard_down, and the failure counts toward
                    # the crash-loop wire like any other death.
                    self._trace(
                        "serve.shard.respawn_failed", shard=shard.index
                    )

    def _flapping(self, shard: _Shard, now: float) -> bool:
        limit = self.config.flap_max_restarts
        if limit <= 0:
            return False
        recent = [
            t for t in shard.restart_times
            if now - t <= self.config.flap_window
        ]
        return len(recent) > limit

    def _park(self, shard: _Shard) -> None:
        """Terminal: stop respawning a crash-looping shard."""
        shard.degraded = True
        self._kill(shard)
        self._trace(
            "serve.shard.flapping",
            shard=shard.index,
            restarts=shard.restarts,
            window_s=self.config.flap_window,
        )
        if self.metrics is not None:
            self.metrics.inc("serve.shard.flapping")
            self.metrics.set(
                "serve.shard.degraded",
                sum(1 for s in self._shards if s.degraded),
            )

    # ------------------------------------------------------------------
    # client connections
    # ------------------------------------------------------------------
    async def _serve_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _ClientConn(writer)
        self._conns.add(conn)
        self._conn_tasks.add(asyncio.current_task())
        try:
            await self._read_loop(reader, conn)
        except (wire.FrameError, ConnectionError, asyncio.CancelledError):
            pass
        finally:
            conn.closing = True
            for uplink in list(conn.uplinks.values()):
                self._close_uplink(uplink)
            conn.uplinks.clear()
            self._conns.discard(conn)
            self._conn_tasks.discard(asyncio.current_task())
            if not writer.is_closing():
                writer.close()

    async def _read_loop(
        self, reader: asyncio.StreamReader, conn: _ClientConn
    ) -> None:
        buffer = wire.RawFrameBuffer()
        while not self._stopping:
            data = await reader.read(65536)
            if not data:
                if buffer.pending():
                    raise wire.FrameError("connection closed mid-frame")
                return
            buffer.feed(data)
            # Per-chunk batching: frames bound for the same shard are
            # forwarded in one write, which is where most of the
            # per-frame proxy overhead would otherwise go.
            batches: Dict[int, List[bytes]] = {}
            while True:
                payload = buffer.next_payload()
                if payload is None:
                    break
                try:
                    doc = json.loads(payload)
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise wire.FrameError(
                        f"undecodable frame payload: {exc}"
                    ) from None
                if not isinstance(doc, dict):
                    raise wire.FrameError("frame payload must be an object")
                if not await self._dispatch(doc, payload, conn, batches):
                    await self._flush_batches(conn, batches)
                    return
            await self._flush_batches(conn, batches)

    async def _flush_batches(
        self, conn: _ClientConn, batches: Dict[int, List[bytes]]
    ) -> None:
        for shard_index, payloads in batches.items():
            uplink = conn.uplinks.get(shard_index)
            if uplink is None or uplink.closed:
                # The uplink died between dispatch and flush; its pump
                # already answered shard_down for these seqs.
                continue
            uplink.writer.write(
                b"".join(wire.frame_prefix(p) + p for p in payloads)
            )
        batches.clear()

    async def _dispatch(
        self,
        doc: Dict[str, object],
        payload: bytes,
        conn: _ClientConn,
        batches: Dict[int, List[bytes]],
    ) -> bool:
        """Route one decoded frame; returns False to close the conn."""
        seq = doc.get("seq")
        kind = doc.get("kind")
        if kind == "bye":
            await self._flush_batches(conn, batches)
            await self._quiesce_conn(conn)
            self._reply(conn, {"ok": True, "seq": seq, "bye": True})
            return False
        if kind == "stats":
            self._reply(conn, self._stats_reply(seq))
            return True
        if kind == "ping":
            self._reply(
                conn,
                {
                    "ok": True,
                    "seq": seq,
                    "pong": True,
                    "role": "router",
                    "shards": len(self._shards),
                    "shards_up": sum(
                        1 for s in self._shards if s.up.is_set()
                    ),
                    "degraded": sorted(
                        s.index for s in self._shards if s.degraded
                    ),
                },
            )
            return True
        if kind == "rebalance":
            await self._flush_batches(conn, batches)
            self._reply(conn, await self._rebalance(doc))
            return True
        if kind not in wire.KINDS:
            self._reply(
                conn,
                wire.error_reply(seq, "bad_request", f"unknown kind {kind!r}"),
            )
            return True
        session_id = doc.get("session")
        if not isinstance(session_id, str) or not session_id:
            self._reply(
                conn,
                wire.error_reply(seq, "bad_request", "missing session field"),
            )
            return True
        if session_id in self._migrating:
            self._reply(
                conn,
                wire.error_reply(
                    seq, "shard_down", "session is re-homing; retry"
                ),
            )
            return True
        owner = self._owner_cache.get(session_id)
        if owner is None:
            if len(self._owner_cache) >= _OWNER_CACHE_LIMIT:
                self._owner_cache.clear()
            owner = self._map.owner(session_id)
            self._owner_cache[session_id] = owner
        shard = self._shards[owner]
        if shard.degraded:
            # Deliberately NOT retryable: the shard will never come
            # back without operator action, so clients must fail fast
            # instead of burning their retry budget against a wall.
            self._reply(
                conn,
                wire.error_reply(
                    seq,
                    "shard_degraded",
                    f"shard {shard.index} is crash-looping and has been "
                    f"parked; operator action required",
                ),
            )
            return True
        if not shard.up.is_set():
            self._reply(
                conn,
                wire.error_reply(
                    seq,
                    "shard_down",
                    f"shard {shard.index} is restarting; retry",
                ),
            )
            return True
        uplink = conn.uplinks.get(shard.index)
        if uplink is None or uplink.closed:
            try:
                uplink = await self._open_uplink(conn, shard)
            except (ConnectionError, OSError):
                self._reply(
                    conn,
                    wire.error_reply(
                        seq,
                        "shard_down",
                        f"shard {shard.index} is unreachable; retry",
                    ),
                )
                return True
        transport_buffered = uplink.writer.transport.get_write_buffer_size()
        if transport_buffered > self.config.shed_bytes:
            self.shed_frames += 1
            self._trace(
                "serve.shard.shed",
                shard=shard.index,
                session=session_id,
                seq=seq,
            )
            if self.metrics is not None:
                self.metrics.inc("serve.shard.shed")
            self._reply(
                conn,
                wire.error_reply(
                    seq,
                    "overloaded",
                    f"shard {shard.index} pipe is backed up; retry",
                ),
            )
            return True
        uplink.outstanding[_seq_key(seq)] = session_id
        shard.forwarded += 1
        batches.setdefault(shard.index, []).append(payload)
        return True

    def _reply(self, conn: _ClientConn, doc: Dict[str, object]) -> None:
        """One whole frame to the client in a single write (may
        interleave with pump output, so partial writes are forbidden)."""
        try:
            conn.writer.write(wire.encode_frame(doc))
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # uplinks and reply pumps
    # ------------------------------------------------------------------
    async def _open_uplink(self, conn: _ClientConn, shard: _Shard) -> _Uplink:
        reader, writer = await asyncio.open_unix_connection(
            str(shard.sock_path)
        )
        uplink = _Uplink(shard, reader, writer)
        conn.uplinks[shard.index] = uplink
        uplink.pump = asyncio.ensure_future(self._pump(conn, uplink))
        return uplink

    async def _pump(self, conn: _ClientConn, uplink: _Uplink) -> None:
        """Forward shard replies to the client, whole frames only."""
        buffer = wire.RawFrameBuffer()
        try:
            while True:
                data = await uplink.reader.read(65536)
                if not data:
                    break
                buffer.feed(data)
                frames: List[bytes] = []
                while True:
                    payload = buffer.next_payload()
                    if payload is None:
                        break
                    frames.append(wire.frame_prefix(payload))
                    frames.append(payload)
                    self._settle(uplink, payload)
                if frames:
                    conn.writer.write(b"".join(frames))
                    await conn.writer.drain()
        except (wire.FrameError, ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            return
        finally:
            self._fail_uplink(conn, uplink)

    def _settle(self, uplink: _Uplink, payload: bytes) -> None:
        """Mark one reply as no longer in flight."""
        text = _reply_seq_text(payload)
        if text is None:
            try:
                doc = json.loads(payload.decode("utf-8"))
                text = _seq_key(doc.get("seq"))
            except (UnicodeDecodeError, json.JSONDecodeError, AttributeError):
                return  # forwarded verbatim regardless; bookkeeping only
        uplink.outstanding.pop(text, None)

    def _fail_uplink(self, conn: _ClientConn, uplink: _Uplink) -> None:
        """The uplink is gone: answer ``shard_down`` for its in-flight
        frames (refused-not-applied holds: the shard never acked them,
        and un-acked WAL appends are torn-tail-repaired on replay)."""
        if uplink.closed:
            return
        uplink.closed = True
        if conn.uplinks.get(uplink.shard.index) is uplink:
            del conn.uplinks[uplink.shard.index]
        try:
            uplink.writer.close()
        except (ConnectionError, OSError):
            pass
        if conn.closing or self._stopping:
            return
        for seq_text in list(uplink.outstanding):
            self._reply(
                conn,
                wire.error_reply(
                    json.loads(seq_text),
                    "shard_down",
                    f"shard {uplink.shard.index} went away mid-request; retry",
                ),
            )
        uplink.outstanding.clear()

    def _close_uplink(self, uplink: _Uplink) -> None:
        uplink.closed = True
        if uplink.pump is not None:
            uplink.pump.cancel()
        try:
            uplink.writer.close()
        except (ConnectionError, OSError):
            pass

    async def _quiesce_conn(self, conn: _ClientConn, timeout: float = 30.0) -> None:
        """Wait for every in-flight frame of one connection to settle."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while loop.time() < deadline:
            live = [
                u for u in conn.uplinks.values()
                if u.outstanding and not u.closed and u.shard.up.is_set()
            ]
            if not live:
                return
            await asyncio.sleep(0.005)

    # ------------------------------------------------------------------
    # admin verbs
    # ------------------------------------------------------------------
    def _stats_reply(self, seq: object) -> Dict[str, object]:
        return {
            "ok": True,
            "seq": seq,
            "router": True,
            "shards": [
                {
                    "shard": s.index,
                    "up": s.up.is_set(),
                    "pid": s.proc.pid if s.proc is not None else None,
                    "forwarded": s.forwarded,
                    "restarts": s.restarts,
                    "degraded": s.degraded,
                }
                for s in self._shards
            ],
            "shed": self.shed_frames,
            "connections": len(self._conns),
            "layout": self._map.to_doc(),
        }

    async def _rebalance(self, doc: Dict[str, object]) -> Dict[str, object]:
        """Move one session to an explicit target shard, live.

        The protocol is "snapshot, truncate, re-home": quiesce the
        session's in-flight frames, have the old owner snapshot + WAL
        truncate + retire it, copy the snapshot into the new owner's
        store (watermark reset -- the new owner's WAL knows nothing of
        it), persist the override.  Frames arriving mid-move get
        ``shard_down``, which sync clients transparently retry.
        """
        seq = doc.get("seq")
        session_id = doc.get("session")
        target = doc.get("target")
        if not isinstance(session_id, str) or not session_id:
            return wire.error_reply(seq, "bad_request", "missing session field")
        if not isinstance(target, int) or not 0 <= target < len(self._shards):
            return wire.error_reply(
                seq,
                "bad_request",
                f"target must be a shard index 0..{len(self._shards) - 1}",
            )
        source = self._map.owner(session_id)
        if source == target:
            return {
                "ok": True, "seq": seq, "session": session_id,
                "moved": False, "shard": target,
            }
        old = self._shards[source]
        new = self._shards[target]
        if not old.up.is_set() or not new.up.is_set():
            return wire.error_reply(
                seq, "shard_down", "both shards must be up to rebalance"
            )
        if session_id in self._migrating:
            return wire.error_reply(
                seq, "busy", f"session {session_id!r} is already re-homing"
            )
        self._migrating.add(session_id)
        try:
            await self._quiesce_session(session_id, source)
            admin = await AsyncClient.connect(f"unix:{old.sock_path}")
            try:
                snap_reply = await admin.call(
                    "snapshot", session=session_id, retire=True
                )
            finally:
                await admin.close()
            moved_doc = SnapshotStore(old.snaps_dir).load(session_id)
            if moved_doc is None:
                return wire.error_reply(
                    seq, "internal", "owner wrote no snapshot"
                )
            moved_doc = dict(moved_doc)
            moved_doc["wal_seq"] = -1  # the new owner's WAL starts clean
            SnapshotStore(new.snaps_dir).put(session_id, moved_doc)
            # The old copy stays in the source store on purpose: WAL
            # segments there may have been truncated against its
            # watermark, and removing it would tear the recovery chain.
            # The next full reconcile retires it (longest log wins).
            if self._map.ring_owner(session_id) == target:
                self._map.overrides.pop(session_id, None)
            else:
                self._map.overrides[session_id] = target
            self._owner_cache.clear()
            self._map.save(self._layout_path())
        except ReplyError as exc:
            return wire.error_reply(seq, exc.code, exc.detail)
        except (ConnectionError, OSError) as exc:
            return wire.error_reply(seq, "shard_down", str(exc))
        finally:
            self._migrating.discard(session_id)
        self._trace(
            "serve.shard.rebalance",
            session=session_id,
            source=source,
            target=target,
            events=snap_reply.get("events"),
        )
        if self.metrics is not None:
            self.metrics.inc("serve.shard.rebalances")
        return {
            "ok": True,
            "seq": seq,
            "session": session_id,
            "moved": True,
            "from": source,
            "shard": target,
            "events": snap_reply.get("events"),
            "digest": snap_reply.get("digest"),
        }

    async def _quiesce_session(
        self, session_id: str, shard_index: int, timeout: float = 10.0
    ) -> None:
        """Wait until no frame of ``session_id`` is in flight to
        ``shard_index`` on any connection (new ones are already being
        refused via ``_migrating``)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while loop.time() < deadline:
            inflight = any(
                session_id in uplink.outstanding.values()
                for conn in self._conns
                for uplink in [conn.uplinks.get(shard_index)]
                if uplink is not None and not uplink.closed
            )
            if not inflight:
                return
            await asyncio.sleep(0.005)
        raise ConnectionError(
            f"session {session_id!r} still has frames in flight after "
            f"{timeout}s"
        )

    # ------------------------------------------------------------------
    # offline layout reconciliation
    # ------------------------------------------------------------------
    def _reconcile(self) -> None:
        """Make on-disk session placement match the (pure-ring) layout.

        Runs before any shard process exists, so it owns every file.
        Fast path: the stored layout matches ``shard_procs``, has no
        overrides, and no orphan shard directories exist -- per-shard
        WAL recovery then proceeds untouched inside each shard process
        (this is the hot path PR 6's chaos grid exercises).

        Full pass (shard count changed, overrides pending, or orphan
        directories): recover every session from every shard directory
        (snapshots + WAL, longest log wins across duplicates), replay
        it, snapshot it into its ring owner's store, then retire every
        WAL directory (all its records are now covered by snapshots)
        and every foreign snapshot copy.  Each step is idempotent and
        ordered so a crash at any point leaves every session
        recoverable: snapshots are written to their new homes *before*
        the old WAL/snapshot sources are removed, and the layout file
        is saved last.
        """
        desired = ShardMap(self.config.shard_procs, self.config.replicas)
        stored = ShardMap.load(self._layout_path())
        existing = sorted(
            p for p in self.data_dir.glob("shard-*") if p.is_dir()
        )
        orphans = [
            p for p in existing
            if int(p.name.split("-")[1]) >= self.config.shard_procs
        ]
        if (
            stored is not None
            and stored.shards == desired.shards
            and stored.replicas == desired.replicas
            and not stored.overrides
            and not orphans
        ):
            return
        if stored is None and not existing:
            desired.save(self._layout_path())
            return

        # -- gather: every session every directory can prove ----------
        merged: Dict[str, object] = {}
        for directory in existing:
            # A crash mid-reconcile may have left a half-removed WAL;
            # finish the job before reading anything.
            retired = directory / "wal-retired"
            if retired.exists():
                shutil.rmtree(retired)
            snaps_dir = directory / "snaps"
            store = SnapshotStore(snaps_dir) if snaps_dir.exists() else None
            snapshots: Dict[str, Dict[str, object]] = {}
            if store is not None:
                for sid in store.known():
                    doc = store.load(sid)
                    if doc is not None:
                        snapshots[sid] = doc
            wal_dir = directory / "wal"
            records = read_wal(wal_dir) if wal_dir.exists() else []
            for sid, rec in recover_sessions(records, snapshots).items():
                best = merged.get(sid)
                if best is None or len(rec.log) > len(best.log):  # type: ignore[attr-defined]
                    merged[sid] = rec

        # -- re-home: replay + snapshot into the ring owner's store ---
        for sid in sorted(merged):
            rec = merged[sid]
            session = ServeSession.replay_log(
                sid, rec.n, rec.protocol, rec.log  # type: ignore[attr-defined]
            )
            owner_dir = self._shard_dir(desired.owner(sid))
            owner_store = SnapshotStore(owner_dir / "snaps")
            owner_store.put(sid, snapshot_doc(session, wal_seq=-1))
            self.reconciled_sessions += 1
        self._trace(
            "serve.shard.reconcile",
            sessions=len(merged),
            from_dirs=len(existing),
            shards=self.config.shard_procs,
        )

        # -- retire sources: WALs first (now fully covered), then
        #    foreign snapshot copies, then the layout, then orphan dirs.
        for directory in existing:
            wal_dir = directory / "wal"
            if wal_dir.exists():
                retired = directory / "wal-retired"
                os.rename(wal_dir, retired)  # atomic: all-or-nothing
                shutil.rmtree(retired)
        for directory in existing:
            if directory in orphans:
                continue
            index = int(directory.name.split("-")[1])
            snaps_dir = directory / "snaps"
            if not snaps_dir.exists():
                continue
            store = SnapshotStore(snaps_dir)
            for sid in store.known():
                if desired.owner(sid) != index:
                    store.discard(sid)
        desired.save(self._layout_path())
        for directory in orphans:
            shutil.rmtree(directory)

    def __repr__(self) -> str:
        state = "stopped" if self._stopped else (
            "stopping" if self._stopping else
            ("listening" if self._server else "new")
        )
        live = sum(1 for s in self._shards if s.up.is_set())
        return (
            f"<Router {state} shards={live}/{self.config.shard_procs} "
            f"conns={len(self._conns)}>"
        )
