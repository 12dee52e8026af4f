"""The asyncio checkpointing daemon: the driver of one server core.

Every decision is :class:`~repro.serve.servercore.ServerCore`'s; this
module keeps what needs the event loop: the listener, one reader task
per connection, one worker task per shard that performs a step's
effects in order -- the WAL Sync through the
:class:`~repro.serve.wal.WalCommitter` and its sync thread, then one
write per connection -- the idle timer, and the thread-hosted
:class:`ServerHandle`.
**Backpressure is per connection**: a reader stops reading while its
own transport holds more than ``_WRITE_HIGH_WATER`` unsent bytes, so a
peer that stops reading stops being read, and no worker waits on it.

Blocking calls are banned inside this package's coroutines by
``tools/lint_determinism.py``; the ``perf_counter`` the core and the
commit histogram read touches no deterministic artifact.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.serve import wire
from repro.serve.client import format_address
from repro.serve.servercore import ServerCore
from repro.serve.snapshots import SnapshotStore
from repro.serve.wal import IngestWal, WalCommitter
from repro.types import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

#: Address of a running server: ``("tcp", host, port)`` or ``("unix", path)``.
Address = Tuple[str, ...]


async def open_listener(
    handler: Callable, unix_path: Optional[str], host: str, port: int
) -> Tuple[asyncio.AbstractServer, Address]:
    """Serve ``handler`` on ``unix_path``, or else on ``host:port``
    (``0``: an ephemeral port); returns the listener and its address."""
    if unix_path is not None:
        server = await asyncio.start_unix_server(handler, path=unix_path)
        return server, ("unix", unix_path)
    server = await asyncio.start_server(handler, host=host, port=port)
    bound_host, bound_port = server.sockets[0].getsockname()[:2]
    return server, ("tcp", bound_host, bound_port)


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


#: Unsent bytes a connection's transport may hold before its reader
#: stops reading.  Writes are synchronous on the loop (whole frames, so
#: they never interleave) and never wait; this bounds what one peer
#: that does not read can make the server buffer for it.
_WRITE_HIGH_WATER = 256 * 1024


class _Conn:
    """One connection's reader task, writer and unanswered-frame count.

    ``drained`` is set while every frame the core queued for this
    connection has had its reply handed to the transport.
    """

    __slots__ = ("reader", "writer", "pending", "drained")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.reader = asyncio.current_task()
        self.writer = writer
        self.pending = 0
        self.drained = asyncio.Event()
        self.drained.set()

    def send(self, replies: List[Dict[str, object]], answered: int = 0) -> None:
        """One coalesced write of ``replies``, ``answered`` of them to
        queued frames."""
        if not self.writer.is_closing():
            try:
                self.writer.write(b"".join(map(wire.encode_reply, replies)))
            except wire.FrameError:
                self.writer.close()  # a seq too large to echo even in an error
        self.pending -= answered
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
        self.metrics = metrics
        self.core = ServerCore(
            self.config,
            SnapshotStore(self.config.snapshot_dir),
            perf_counter,
            tracer=tracer,
            metrics=metrics,
        )
        self.sessions = self.core.sessions
        self.store = self.core.store
        self._trace = self.core._trace
        # --- durable ingest WAL (opened in start(); None = disabled) ---
        self.wal: Optional[IngestWal] = None
        self._committer: Optional[WalCommitter] = None
        self._wakes: List[asyncio.Event] = []
        #: The shard workers and, with ``idle_timeout``, the idle timer.
        self._tasks: List[asyncio.Task] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: set = set()
        self._stopping = False
        self._stopped = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Address:
        """Bind, spawn the worker pool, start accepting; returns address.

        With ``wal_dir`` set, crash recovery runs *before* the listener
        binds: the WAL is verified (halting on any non-tail damage,
        which raises :class:`~repro.serve.wal.WalCorruption` from here),
        replayed on top of the newest valid snapshots, and every
        acknowledged frame is live again before the first client can
        connect.
        """
        if self._server is not None:
            raise SimulationError("server already started")
        if self.config.wal_dir is not None:
            self.wal = IngestWal(self.config.wal_dir)
            self._committer = WalCommitter(
                self.wal, fsync_batch=self.config.fsync_batch
            )
            self.core.recover(self.wal)
        self._wakes = [asyncio.Event() for _ in range(self.config.workers)]
        self._tasks = [
            asyncio.ensure_future(self._worker(shard))
            for shard in range(self.config.workers)
        ]
        if self.config.idle_timeout is not None:
            self._tasks.append(asyncio.ensure_future(self._housekeep()))
        self._server, self.address = await open_listener(
            self._serve_conn,
            self.config.unix_path,
            self.config.host,
            self.config.port,
        )
        self._trace("serve.start", address=list(self.address))
        return self.address

    async def stop(self) -> Dict[str, int]:
        """Graceful drain; returns ``{session_id: ingested event count}``.

        Intake stops first (listener closed, readers refuse new
        frames), then every frame already read is applied and answered,
        then the core snapshots all live sessions (none once halted)
        and connections close.
        """
        if self._stopped:
            return {}
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._conns):
            await conn.drained.wait()
        for task in self._tasks:
            task.cancel()
        if self._committer is not None:
            await self._committer.close()
        summary = self.core.shutdown()
        for conn in list(self._conns):
            conn.writer.close()
            conn.reader.cancel()
        self._stopped = True
        return summary

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    async def _serve_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(writer)
        self._conns.add(conn)
        self._trace("serve.conn", mark="open")
        if self.metrics is not None:
            self.metrics.set("serve.connections", len(self._conns))
        # Chunked reads through a FrameBuffer instead of two
        # ``readexactly`` awaits per frame: one loop wakeup dispatches
        # every frame the chunk completed, which is where most of the
        # per-frame asyncio overhead went.
        buffer = wire.FrameBuffer()
        try:
            while not self._stopping:
                doc = buffer.next_doc()
                if doc is None:
                    if writer.transport.get_write_buffer_size() > _WRITE_HIGH_WATER:
                        await writer.drain()
                    data = await reader.read(65536)
                    if not data:
                        if buffer.pending():
                            raise wire.FrameError("connection closed mid-frame")
                        break
                    buffer.feed(data)
                    continue
                reply, shard, close = self.core.dispatch(doc, conn)
                if shard is None:
                    conn.send([reply])  # type: ignore[list-item]
                else:
                    conn.pending += 1
                    conn.drained.clear()
                    self._wakes[shard].set()
                if close:
                    break
        except (wire.FrameError, ConnectionError, asyncio.CancelledError):
            pass
        finally:
            await conn.drained.wait()
            self._conns.discard(conn)
            self._trace("serve.conn", mark="close")
            if self.metrics is not None:
                self.metrics.set("serve.connections", len(self._conns))
            if not writer.is_closing():
                writer.close()

    # ------------------------------------------------------------------
    # workers and timers
    # ------------------------------------------------------------------
    async def _worker(self, shard: int) -> None:
        core, wake = self.core, self._wakes[shard]
        while True:
            step = core.step(shard)
            if step is None:
                wake.clear()
                await wake.wait()
                continue
            error: Optional[BaseException] = None
            if step.sync is not None:
                try:
                    await self._sync(step.sync)
                except Exception as exc:  # noqa: BLE001 - ENOSPC, EIO...
                    error = exc
            for conn, replies in core.finish(step, error).items():
                conn.send(replies, answered=len(replies))
            if error is not None and self._server is not None:
                self._server.close()  # halted: intake stops here

    async def _sync(self, seq: int) -> None:
        """Make every WAL record through ``seq`` durable."""
        assert self._committer is not None
        started = perf_counter()
        durable, opened = await self._committer.commit(seq)
        self._trace("serve.wal.commit", seq=durable)
        for segment in opened:
            self._trace("serve.wal.rotate", segment=segment)
        if self.metrics is not None:
            self.metrics.observe("serve.wal.commit_s", perf_counter() - started)
            self.metrics.inc("serve.wal.commits")
            self.metrics.set("serve.wal.durable_seq", durable)

    async def _housekeep(self) -> None:
        while True:
            await asyncio.sleep(self.config.idle_timeout / 2)  # type: ignore[operator]
            self.core.tick()
            for wake in self._wakes:
                wake.set()

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
