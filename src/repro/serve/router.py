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
clients route by -- ``stats`` and ``rebalance``.  Every one of those
decisions is made by a sans-IO :class:`~repro.serve.routecore.RouteCore`;
:class:`Router` is its driver and owns the processes, the admin links,
the listener and the files.  Each shard learns the layout from a
``layout`` frame before it is published ``up`` and on every rebalance,
and refuses sessions it does not own with ``moved``.  A live
``rebalance`` is "snapshot, truncate, re-home" (see
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
from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro.serve import wire
from repro.serve.client import AsyncClient, ReplyError, format_address
from repro.serve.disk import Disk
from repro.serve.routecore import FLAP_WINDOW, FRESH, FULL, RouteCore
from repro.serve.server import Address, ServerConfig, open_listener
from repro.serve.shardmap import DEFAULT_REPLICAS, DEGRADED, UP, ShardMap
from repro.serve.snapshots import SnapshotStore, rebuild_session, snapshot_doc
from repro.serve.wal import read_wal, recover_sessions
from repro.types import ReproError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

#: Seconds between a supervisor's looks at its shard process.
POLL_S = 0.2


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
    #: replay happens before the bind, so recovery time counts).  The
    #: respawn pacing is fixed (``repro.serve.routecore``'s constants).
    spawn_timeout: float = 30.0

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


@dataclass
class _Shard:
    """One shard process and the router's links to it."""

    index: int
    dir: Path
    #: What ``ping`` tells clients to dial, set once the current
    #: process holds its layout (a test may point it at a proxy).
    address: str = ""
    proc: Optional[subprocess.Popen] = None
    #: The router's connection (layouts, retires, stats) while up.
    admin: Optional[AsyncClient] = None


class Router:
    """The sharded deployment's supervisor and admin endpoint;
    duck-compatible with :class:`~repro.serve.server.CheckpointServer`
    for :class:`~repro.serve.server.ServerHandle` (``start``/``stop``/
    ``address``).  Every decision is its :class:`RouteCore`'s
    (``core``); the router performs them."""

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
        self.core = RouteCore(ShardMap(config.shard_procs, config.replicas))
        self._shards = [
            _Shard(k, self.data_dir / f"shard-{k:02d}")
            for k in range(config.shard_procs)
        ]
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

    def _gauge(self, name: str, state: str) -> None:
        if self.metrics is not None:
            self.metrics.set(name, self.core.count(state))

    def _layout_path(self) -> Path:
        return self.data_dir / "shardmap.json"

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
        try:
            await asyncio.gather(*(self._spawn(s) for s in self._shards))
        except BaseException:
            for shard in self._shards:
                await self._kill(shard)
            raise
        self._supervisors = [
            asyncio.ensure_future(self._supervise(s)) for s in self._shards
        ]
        self._server, self.address = await open_listener(
            self._serve_conn,
            self.config.unix_path,
            self.config.host,
            self.config.port,
        )
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
        tasks = [*self._supervisors, *self._conns]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
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
            "--snapshot-dir", str(shard.dir / "snaps"),
            "--wal-dir", str(shard.dir / "wal"),
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
        while shard.admin is None:
            if shard.proc.poll() is not None:
                _, err = shard.proc.communicate()
                raise SimulationError(
                    f"shard {shard.index} exited during startup "
                    f"(rc={shard.proc.returncode}): "
                    f"{(err or b'').decode('utf-8', 'replace')[-500:]}"
                )
            if loop.time() > deadline:
                await self._kill(shard)
                raise SimulationError(
                    f"shard {shard.index} did not bind within "
                    f"{self.config.spawn_timeout}s"
                )
            try:
                # No retry budget: a refusal on the admin link (a shard
                # answering ``moved`` mid-rebalance) must fail fast.
                shard.admin = await AsyncClient.connect(listen, retries=0)
            except ConnectionError:
                await asyncio.sleep(0.05)
        try:
            async with self._moving:
                await self._push_layout(shard, self.core.map)
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
        self.core.started(shard.index, loop.time())
        self._trace("serve.shard.up", shard=shard.index, pid=shard.proc.pid)
        self._gauge("serve.shard.live", UP)

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
        """Kill the shard's process if it runs, reap it, drop its link."""
        if shard.proc is not None:
            if shard.proc.poll() is None:
                shard.proc.kill()
            shard.proc.communicate()
        await self._close_admin(shard)

    async def _supervise(self, shard: _Shard) -> None:
        """Report the shard's deaths to the core and do what it says:
        respawn once its backoff is due (WAL replay heals the shard), or
        park it for good (see :data:`~repro.serve.routecore.FLAP_WINDOW`)."""
        loop = asyncio.get_running_loop()
        k = shard.index
        respawn: Optional[float] = 0.0  # None once the core parks it
        while respawn is not None:
            await asyncio.sleep(POLL_S)
            if self._stopping:
                return
            proc = shard.proc
            if self.core.shards[k].state == UP and proc and proc.poll() is not None:
                self._trace("serve.shard.down", shard=k, returncode=proc.returncode)
                respawn = self.core.exited(k, loop.time())
                if self.metrics is not None:
                    self.metrics.inc("serve.shard.restarts")
                self._gauge("serve.shard.live", UP)
                await self._kill(shard)  # reap; the pipes are dead anyway
            elif self.core.due(k, loop.time()):
                try:
                    await self._spawn(shard)
                except SimulationError:  # e.g. WAL corruption halting recovery
                    self._trace("serve.shard.respawn_failed", shard=k)
                    respawn = self.core.spawn_failed(k, loop.time())
        # Parked: clients answer its key range with ``shard_degraded``.
        await self._kill(shard)
        self._trace(
            "serve.shard.flapping",
            shard=k,
            restarts=self.core.shards[k].restarts,
            window_s=FLAP_WINDOW,
        )
        if self.metrics is not None:
            self.metrics.inc("serve.shard.flapping")
        self._gauge("serve.shard.degraded", DEGRADED)

    # ------------------------------------------------------------------
    # the admin endpoint
    # ------------------------------------------------------------------
    async def _serve_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conns.add(task)  # type: ignore[arg-type]
        buffer = wire.FrameBuffer()
        try:
            while not self._stopping:
                doc = buffer.next_doc()
                if doc is None:
                    data = await reader.read(65536)
                    if not data:
                        return
                    buffer.feed(data)
                    continue
                writer.write(wire.encode_reply(await self._answer(doc)))
                if doc.get("kind") == "bye":
                    return
        except (wire.FrameError, ConnectionError):
            pass
        finally:
            self._conns.discard(task)  # type: ignore[arg-type]
            writer.close()

    async def _answer(self, doc: Dict[str, object]) -> Dict[str, object]:
        kind = doc.get("kind")
        if kind == "stats":
            pongs = await asyncio.gather(*(self._shard_pong(s) for s in self._shards))
            pids = [s.proc.pid if s.proc is not None else None for s in self._shards]
            return self.core.stats(doc.get("seq"), pongs, pids, len(self._conns))
        if kind == "rebalance":
            return await self._rebalance(doc)
        return self.core.answer(doc, [s.address for s in self._shards])

    async def _shard_pong(self, shard: _Shard) -> Dict[str, object]:
        """The shard's own ``ping`` reply; empty when it is not up."""
        try:
            if self.core.shards[shard.index].state == UP:
                return await shard.admin.ping()  # type: ignore[union-attr]
        except (ReproError, ConnectionError):
            pass
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
        async with self._moving:
            moved = self.core.plan_rebalance(doc)
            if not isinstance(moved, ShardMap):
                return moved
            sid = str(doc["session"])
            old = self._shards[self.core.map.owner(sid)]
            new = self._shards[moved.owner(sid)]
            try:
                await self._push_layout(old, moved)
                snap_reply = await old.admin.call(  # type: ignore[union-attr]
                    "snapshot", session=sid, retire=True
                )
                moved_doc = SnapshotStore(old.dir / "snaps").load(sid)
                if moved_doc is None:
                    raise ReplyError("internal", "owner wrote no snapshot")
                # The new owner's WAL starts clean.  The old copy stays in
                # the source store on purpose: WAL segments there may have
                # been truncated against its watermark, and removing it
                # would tear the recovery chain.  The next full reconcile
                # retires it (longest log wins).
                SnapshotStore(new.dir / "snaps").put(
                    sid, dict(moved_doc, wal_seq=-1)
                )
                await self._push_layout(new, moved)
            except (ReproError, ConnectionError, OSError) as exc:
                try:  # hand the session back to the old owner
                    await self._push_layout(old, self.core.map)
                except (ReproError, ConnectionError):
                    pass  # it died: its respawn learns the core's map
                if isinstance(exc, ReplyError):
                    return wire.error_reply(doc.get("seq"), exc.code, exc.detail)
                return wire.error_reply(doc.get("seq"), "shard_down", str(exc))
            reply = self.core.moved(doc, moved, snap_reply)
            self.core.map.save(self._layout_path())
        self._trace(
            "serve.shard.rebalance",
            session=sid,
            source=old.index,
            target=new.index,
            events=reply["events"],
        )
        if self.metrics is not None:
            self.metrics.inc("serve.shard.rebalances")
        return reply

    # ------------------------------------------------------------------
    # offline layout reconciliation
    # ------------------------------------------------------------------
    def _reconcile(self) -> None:
        """Make on-disk session placement match the core's (pure-ring)
        layout, as :meth:`RouteCore.reconcile` decides.

        Runs before any shard process exists, so it owns every file.
        The fast path leaves each shard to recover its own WAL (the hot
        path the shard kill -9 test exercises).  A full pass rebuilds
        every session every shard directory proves (snapshot digest
        checked, then the WAL tail; longest log wins across duplicates)
        -- a damaged one stops the start here, before any file moves --
        snapshots it into its owner's store, retires every WAL (all its
        records are now covered by snapshots) and every foreign
        snapshot copy, makes those directory changes durable, and saves
        the layout last.  Each step is idempotent and ordered so a crash
        at any point leaves every session recoverable.
        """
        disk = Disk()
        dirs = {
            int(p.name.split("-")[1]): p
            for p in sorted(self.data_dir.glob("shard-*"))
            if p.is_dir()
        }
        stored = ShardMap.load(self._layout_path())
        plan, orphans = self.core.reconcile(stored, sorted(dirs))
        if plan == FRESH:
            self.core.map.save(self._layout_path())
        if plan != FULL:
            return

        # -- gather: every session every directory proves, rebuilt ----
        proven: Dict[str, Dict[str, object]] = {}
        for directory in dirs.values():
            # A crash mid-reconcile may have left a half-removed WAL;
            # finish the job before reading anything.
            retired = directory / "wal-retired"
            if retired.exists():
                shutil.rmtree(retired)
            snaps_dir = directory / "snaps"
            snapshots = (
                SnapshotStore(snaps_dir).load_all() if snaps_dir.exists() else {}
            )
            wal_dir = directory / "wal"
            records = read_wal(wal_dir) if wal_dir.exists() else []
            for sid, rec in sorted(recover_sessions(records, snapshots).items()):
                try:
                    session = rebuild_session(rec, snapshots.get(sid))
                except ReproError as exc:
                    raise SimulationError(
                        f"cannot re-home session {sid!r} from {directory}: {exc}"
                    ) from exc
                best = proven.get(sid)
                if best is None or len(session.ingest_log) > best["events"]:  # type: ignore[operator]
                    proven[sid] = snapshot_doc(session, wal_seq=-1)

        # -- re-home: into the owner's store ---------------------------
        for sid in sorted(proven):
            owner = self._shards[self.core.map.owner(sid)]
            SnapshotStore(owner.dir / "snaps").put(sid, proven[sid])
        self._trace(
            "serve.shard.reconcile",
            sessions=len(proven),
            from_dirs=len(dirs),
            shards=self.config.shard_procs,
        )

        # -- retire sources: each WAL (now fully covered) and foreign
        #    snapshot copy, durably; then the layout, then orphan dirs.
        for index, directory in dirs.items():
            if (directory / "wal").exists():
                retired = directory / "wal-retired"
                disk.replace(directory / "wal", retired)  # all-or-nothing
                shutil.rmtree(retired)
            snaps_dir = directory / "snaps"
            if index not in orphans and snaps_dir.exists():
                store = SnapshotStore(snaps_dir)
                for sid in store.known():
                    if self.core.map.owner(sid) != index:
                        store.discard(sid)
                disk.fsync_dir(snaps_dir)
            disk.fsync_dir(directory)
        self.core.map.save(self._layout_path())
        for index in orphans:
            shutil.rmtree(dirs[index])

    def __repr__(self) -> str:
        state = "stopped" if self._stopped else (
            "stopping" if self._stopping else
            ("listening" if self._server else "new")
        )
        return (
            f"<Router {state} shards={self.core.count(UP)}/"
            f"{self.config.shard_procs} conns={len(self._conns)}>"
        )
