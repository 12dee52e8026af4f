"""Multi-process scale-out: N shard processes and the router that runs them.

The single-process :class:`~repro.serve.server.CheckpointServer` shards
sessions across asyncio worker *tasks* -- true parallelism stops at the
GIL.  This module promotes those shards to *processes*: each is a stock
``repro serve`` daemon with its **own WAL directory and snapshot
store** under ``data_dir/shard-<k>/``, so the ack ⇒ durable contract of
the ingest WAL holds per shard exactly as it does single-process.

The router is not on the message path: it supervises the shards
(respawn after WAL replay, parking a crash-looping one), places
sessions (:class:`~repro.serve.shardmap.ShardMap`), and answers
``ping`` -- which publishes the :class:`~repro.serve.shardmap.ShardTable`
clients route by -- ``stats`` and ``rebalance``.  Each shard learns the
layout from a ``layout`` frame before it is published ``up`` and on
every rebalance, and refuses sessions it does not own with ``moved``.
A live ``rebalance`` is "snapshot, truncate, re-home" (see
:meth:`Router._rebalance`); when the shard count changes across a
restart the same discipline runs offline (:meth:`Router._reconcile`).
``docs/SERVICE.md`` ("Clients route themselves") has the contract.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.serve import wire
from repro.serve.client import AsyncClient, ReplyError, format_address
from repro.serve.server import ServerConfig
from repro.serve.session import ServeSession
from repro.serve.shardmap import (
    DEFAULT_REPLICAS,
    DEGRADED,
    DOWN,
    UP,
    ShardMap,
    ShardTable,
)
from repro.serve.snapshots import SnapshotStore, snapshot_doc
from repro.serve.wal import read_wal, recover_sessions
from repro.types import ReproError, SimulationError

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
    processes here, not loop tasks.  Shards listen where clients can
    reach them if they reach the router: on Unix sockets under
    ``data_dir`` beside a Unix router, on ``host`` beside a TCP one.
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


def _free_port(host: str) -> int:
    """A port the kernel just handed out on ``host``, for a shard to bind."""
    family = socket.getaddrinfo(host, 0, type=socket.SOCK_STREAM)[0][0]
    with socket.socket(family, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


class _Shard:
    """One shard process and the router's view of it."""

    def __init__(self, index: int, directory: Path) -> None:
        self.index = index
        self.dir = directory
        #: What ``ping`` tells clients to dial, set once the current
        #: process holds its layout (a test may point it at a proxy).
        self.address = ""
        self.proc: Optional[subprocess.Popen] = None
        self.up = asyncio.Event()
        #: The router's connection (layouts, retires, stats) while up.
        self.admin: Optional[AsyncClient] = None
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


class Router:
    """The sharded deployment's supervisor and admin endpoint;
    duck-compatible with :class:`~repro.serve.server.CheckpointServer`
    for :class:`~repro.serve.server.ServerHandle` (``start``/``stop``/
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
        self.reconciled_sessions = 0
        self._map = ShardMap(config.shard_procs, config.replicas)
        self._shards: List[_Shard] = []
        #: Admin connections being served.
        self._conns: Set[asyncio.Task] = set()
        self._supervisors: List[asyncio.Task] = []
        #: Held while the layout changes hands: one rebalance at a time,
        #: and a respawned shard learns the layout the last one left.
        self._moving = asyncio.Lock()
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
                await self._kill(shard)
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
        for task in list(self._conns):
            task.cancel()
        if self._conns:
            await asyncio.gather(*self._conns, return_exceptions=True)
        summary: Dict[str, int] = {}
        loop = asyncio.get_running_loop()
        for shard in self._shards:
            await self._close_admin(shard)
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
        try:
            sessions = json.loads(out)["sessions"]
            return {str(k): int(v) for k, v in sessions.items()}
        except (ValueError, KeyError, TypeError, AttributeError):
            return {}  # killed before it could drain: nothing to report

    # ------------------------------------------------------------------
    # shard processes
    # ------------------------------------------------------------------
    def _shard_argv(self, shard: _Shard, listen: Address) -> List[str]:
        if listen[0] == "unix":
            where = ["--unix", listen[1]]
        else:
            where = ["--host", listen[1], "--port", str(listen[2])]
        argv = [
            sys.executable, "-m", "repro", "serve", *where,
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
        """Start one shard process, wait until its socket answers (it
        binds only after WAL replay), and hand it the layout before
        publishing its address ``up``.  Until then it would own every
        session, so no client may reach it: a Unix shard binds
        ``spawn.sock``, renamed onto the published ``serve.sock``
        afterwards; a TCP shard binds a fresh port, published then.
        """
        shard.dir.mkdir(parents=True, exist_ok=True)
        if self.config.unix_path is not None:
            listen: Address = ("unix", str(shard.dir / "spawn.sock"))
        else:
            listen = ("tcp", self.config.host, _free_port(self.config.host))
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else f"{src_root}{os.pathsep}{existing}"
        )
        shard.proc = subprocess.Popen(
            self._shard_argv(shard, listen),
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
                # No retry budget: a refusal on the admin link (a shard
                # answering ``moved`` mid-rebalance) must fail fast.
                shard.admin = await AsyncClient.connect(listen, retries=0)
            except ConnectionError:
                if loop.time() > deadline:
                    await self._kill(shard)
                    raise SimulationError(
                        f"shard {shard.index} did not bind within "
                        f"{self.config.spawn_timeout}s"
                    )
                await asyncio.sleep(0.05)
                continue
            break
        try:
            async with self._moving:
                await self._push_layout(shard, self._map)
        except (ReproError, ConnectionError) as exc:
            await self._kill(shard)
            raise SimulationError(
                f"shard {shard.index} refused its layout: {exc}"
            ) from exc
        if listen[0] == "unix":
            published = str(shard.dir / "serve.sock")
            os.replace(listen[1], published)  # atomic for connecting clients
            listen = ("unix", published)
        shard.address = format_address(listen)
        shard.up.set()
        self._trace("serve.shard.up", shard=shard.index, pid=shard.proc.pid)
        if self.metrics is not None:
            self.metrics.set(
                "serve.shard.live",
                sum(1 for s in self._shards if s.up.is_set()),
            )

    async def _push_layout(self, shard: _Shard, layout: ShardMap) -> None:
        """Tell ``shard`` which sessions it owns under ``layout``."""
        if shard.admin is None:
            raise ConnectionError(f"shard {shard.index} is not connected")
        await shard.admin.call(
            "layout", layout=layout.to_doc(), shard=shard.index
        )

    async def _close_admin(self, shard: _Shard) -> None:
        admin, shard.admin = shard.admin, None
        if admin is not None:
            await admin.close()

    async def _kill(self, shard: _Shard) -> None:
        if shard.proc is not None and shard.proc.poll() is None:
            shard.proc.kill()
            shard.proc.communicate()
        shard.up.clear()
        await self._close_admin(shard)

    async def _supervise(self, shard: _Shard) -> None:
        """Respawn a shard whose process died; WAL replay heals it.

        Pacing is a capped exponential backoff (``restart_backoff``
        doubling to ``restart_backoff_cap``; a full ``flap_window`` of
        uptime forgives past deaths) -- WAL replay is exactly the work a
        tight respawn loop would thrash.  More than
        ``flap_max_restarts`` deaths (failed respawns included) inside
        ``flap_window`` trip the crash-loop wire: a deterministic crash
        (corrupt WAL, bad binary, poisoned session) would flap forever,
        so the shard is parked ``degraded`` for good, a
        ``serve.shard.flapping`` trace/metric fires, and clients answer
        its key range with the non-retryable ``shard_degraded``.
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
            await self._close_admin(shard)
            while not self._stopping:
                now = loop.time()
                consecutive += 1
                shard.restart_times.append(now)
                keep = max(2, self.config.flap_max_restarts + 2)
                del shard.restart_times[:-keep]
                if self._flapping(shard, now):
                    await self._park(shard)
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
                    # e.g. WAL corruption halting recovery: counts toward
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

    async def _park(self, shard: _Shard) -> None:
        """Terminal: stop respawning a crash-looping shard."""
        shard.degraded = True
        await self._kill(shard)
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
    # the admin endpoint
    # ------------------------------------------------------------------
    async def _serve_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conns.add(task)  # type: ignore[arg-type]
        try:
            while not self._stopping:
                doc = await wire.read_frame(reader)
                if doc is None:
                    return
                writer.write(wire.encode_reply(await self._answer(doc)))
                if doc.get("kind") == "bye":
                    return
        except (wire.FrameError, ConnectionError):
            pass
        finally:
            self._conns.discard(task)  # type: ignore[arg-type]
            writer.close()

    async def _answer(self, doc: Dict[str, object]) -> Dict[str, object]:
        seq = doc.get("seq")
        kind = doc.get("kind")
        if kind == "ping":
            return self._ping_reply(seq)
        if kind == "stats":
            return await self._stats_reply(seq)
        if kind == "rebalance":
            return await self._rebalance(doc)
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

    def _ping_reply(self, seq: object) -> Dict[str, object]:
        shards = self._shards
        reply: Dict[str, object] = {
            "ok": True,
            "seq": seq,
            "pong": True,
            "role": "router",
            "shards": len(shards),
            "shards_up": sum(1 for s in shards if s.up.is_set()),
            "degraded": sorted(s.index for s in shards if s.degraded),
        }
        table = ShardTable(
            self._map,
            [s.address for s in shards],
            [
                DEGRADED if s.degraded else UP if s.up.is_set() else DOWN
                for s in shards
            ],
        )
        reply.update(table.ping_fields())
        return reply

    async def _stats_reply(self, seq: object) -> Dict[str, object]:
        pongs = await asyncio.gather(*(self._shard_pong(s) for s in self._shards))
        return {
            "ok": True,
            "seq": seq,
            "router": True,
            "shards": [
                {
                    "shard": s.index,
                    "up": s.up.is_set(),
                    "pid": s.proc.pid if s.proc is not None else None,
                    # Session frames the shard's current process answered.
                    "forwarded": int(pong.get("answered", 0)),  # type: ignore[arg-type]
                    "restarts": s.restarts,
                    "degraded": s.degraded,
                }
                for s, pong in zip(self._shards, pongs)
            ],
            "shed": sum(int(pong.get("shed", 0)) for pong in pongs),  # type: ignore[arg-type]
            "connections": len(self._conns),
            "layout": self._map.to_doc(),
        }

    async def _shard_pong(self, shard: _Shard) -> Dict[str, object]:
        """The shard's own ``ping`` reply; empty when it is not up."""
        try:
            return await shard.admin.ping() if shard.up.is_set() else {}  # type: ignore[union-attr]
        except (ReproError, ConnectionError):
            return {}

    async def _rebalance(self, doc: Dict[str, object]) -> Dict[str, object]:
        """Move one session to an explicit target shard, live.

        The protocol is "snapshot, truncate, re-home": push the new
        layout to the old owner (from then on it refuses the session's
        frames ``moved``), have it snapshot + WAL-truncate + retire the
        session -- the retire queues behind every frame it already
        accepted --, copy the snapshot into the new owner's store
        (watermark reset: the new owner's WAL knows nothing of it), push
        the layout to the new owner, persist the override.  Any failure
        before the new owner has it hands the session back to the old.
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
        async with self._moving:
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
            overrides = dict(self._map.overrides)
            if self._map.ring_owner(session_id) == target:
                overrides.pop(session_id, None)
            else:
                overrides[session_id] = target
            moved = ShardMap(self._map.shards, self._map.replicas, overrides)
            try:
                await self._push_layout(old, moved)
                snap_reply = await old.admin.call(  # type: ignore[union-attr]
                    "snapshot", session=session_id, retire=True
                )
                moved_doc = SnapshotStore(old.snaps_dir).load(session_id)
                if moved_doc is None:
                    raise ReplyError("internal", "owner wrote no snapshot")
                # The new owner's WAL starts clean.  The old copy stays in
                # the source store on purpose: WAL segments there may have
                # been truncated against its watermark, and removing it
                # would tear the recovery chain.  The next full reconcile
                # retires it (longest log wins).
                SnapshotStore(new.snaps_dir).put(
                    session_id, dict(moved_doc, wal_seq=-1)
                )
                await self._push_layout(new, moved)
            except (ReproError, ConnectionError, OSError) as exc:
                try:  # hand the session back to the old owner
                    await self._push_layout(old, self._map)
                except (ReproError, ConnectionError):
                    pass  # it died: its respawn learns self._map
                if isinstance(exc, ReplyError):
                    return wire.error_reply(seq, exc.code, exc.detail)
                return wire.error_reply(seq, "shard_down", str(exc))
            self._map = moved
            self._map.save(self._layout_path())
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

    # ------------------------------------------------------------------
    # offline layout reconciliation
    # ------------------------------------------------------------------
    def _reconcile(self) -> None:
        """Make on-disk session placement match the (pure-ring) layout.

        Runs before any shard process exists, so it owns every file.
        Fast path: the stored layout matches ``shard_procs``, has no
        overrides, and no orphan shard directories exist -- per-shard
        WAL recovery then proceeds untouched inside each shard process
        (this is the hot path the shard kill -9 test exercises).

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
