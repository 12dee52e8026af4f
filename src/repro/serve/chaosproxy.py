"""Seeded wire-level fault injection: a deterministic chaos TCP proxy.

The kill -9 grid (:mod:`tests.chaos`) tortures the process/disk
boundary; this module tortures the *wire*.  :class:`ChaosProxy` is an
asyncio TCP/unix proxy that sits between any client and a serve or
router listener and injects, per accepted connection and per direction,
faults drawn from a seeded RNG:

* **latency + jitter** -- a fixed one-way delay plus a uniform random
  extra, applied to every forwarded write;
* **bandwidth throttling** -- an additional ``len(chunk)/bandwidth``
  pacing delay, modelling a thin pipe;
* **adversarial fragmentation** -- re-chunking the byte stream into
  1-byte writes (``"byte"``), tiny random shreds (``"shred"``), or
  exact frame-boundary splits (``"frame"``), so the sans-IO
  :class:`~repro.serve.wire.FrameBuffer` reassembly path is exercised at
  every possible split point;
* **mid-frame connection resets** -- the proxy forwards a byte-exact
  prefix and then aborts the TCP connection (RST), landing the cut
  inside a frame;
* **silent stalls (blackhole)** -- from a seeded byte offset onward the
  direction goes silent forever while the connection stays open: the
  classic hang that only a per-request deadline survives;
* **truncate-on-close** -- the proxy forwards a prefix, then closes the
  connection cleanly (FIN), dropping the buffered tail.

Everything is derived from :class:`ChaosConfig` -- the entire fault
schedule is a pure function of ``(config.seed, connection index)``, so a
chaos cell replays bit-identically: two proxies with the same config
produce the same :class:`ConnPlan` for the same connection arrival
order (:meth:`ChaosSchedule.plan`), which the determinism tests assert
directly.

The proxy is deliberately protocol-blind except for the ``"frame"``
fragmentation mode, which tracks the 4-byte length prefixes the wire
protocol uses (:mod:`repro.serve.wire`) so it can split exactly at
frame boundaries without decoding payloads.

:class:`ChaosProxy` duck-types the daemon interface
(``start``/``stop``/``address``), so the thread-hosting
:class:`~repro.serve.server.ServerHandle` can host a proxy exactly like
a server or router::

    proxy = ServerHandle(ChaosProxy(handle.connect_address(),
                                    ChaosConfig(seed=7, latency_s=0.002)))
    client = Client(proxy.connect_address(), timeout=2.0)
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.types import SimulationError

Address = Tuple[str, ...]

#: Fault kinds a direction can suffer (at most one per direction).
FAULT_KINDS = ("reset", "stall", "truncate")

#: Fragmentation policies for forwarded bytes.
FRAGMENT_MODES = ("none", "byte", "shred", "frame")


@dataclass(frozen=True)
class ChaosConfig:
    """Seeded description of a fault schedule.

    Rates are per-connection, per-direction probabilities in ``[0, 1]``
    and must sum to at most 1; each direction draws at most one fault,
    which fires after a seeded byte offset drawn uniformly from
    ``fault_after``.
    """

    seed: int = 0
    # -- pacing --------------------------------------------------------
    latency_s: float = 0.0  #: fixed one-way delay per forwarded write
    jitter_s: float = 0.0  #: uniform extra delay in [0, jitter_s)
    bandwidth: Optional[int] = None  #: bytes/second ceiling per direction
    # -- fragmentation -------------------------------------------------
    fragment: str = "none"  #: one of :data:`FRAGMENT_MODES`
    shred_max: int = 7  #: max fragment size in ``"shred"`` mode
    # -- faults --------------------------------------------------------
    reset_rate: float = 0.0  #: P(mid-stream RST) per direction
    stall_rate: float = 0.0  #: P(silent blackhole) per direction
    truncate_rate: float = 0.0  #: P(clean close dropping the tail)
    fault_after: Tuple[int, int] = (64, 4096)  #: byte-offset window
    # -- listener ------------------------------------------------------
    listen_host: str = "127.0.0.1"
    listen_port: int = 0  #: 0 = ephemeral
    unix_path: Optional[str] = None  #: listen on a unix socket instead

    def validate(self) -> None:
        if self.fragment not in FRAGMENT_MODES:
            raise SimulationError(
                f"unknown fragment mode {self.fragment!r}; "
                f"expected one of {FRAGMENT_MODES}"
            )
        total = self.reset_rate + self.stall_rate + self.truncate_rate
        if not 0.0 <= total <= 1.0:
            raise SimulationError(
                f"fault rates must sum to [0, 1], got {total:.3f}"
            )
        if self.fault_after[0] < 0 or self.fault_after[1] < self.fault_after[0]:
            raise SimulationError(
                f"fault_after must be a non-negative (lo, hi) window, "
                f"got {self.fault_after}"
            )
        if self.shred_max < 1:
            raise SimulationError("shred_max must be >= 1")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``kind`` fires once ``after_bytes`` have
    been forwarded in the direction that drew it."""

    kind: str  #: one of :data:`FAULT_KINDS`
    after_bytes: int


@dataclass(frozen=True)
class DirectionPlan:
    """The deterministic plan for one direction of one connection."""

    fault: Optional[FaultEvent]
    rng_seed: int  #: seeds the per-direction jitter/shred stream


@dataclass(frozen=True)
class ConnPlan:
    """The full plan for one accepted connection: ``up`` is
    client-to-upstream, ``down`` is upstream-to-client."""

    conn_index: int
    up: DirectionPlan
    down: DirectionPlan


class ChaosSchedule:
    """The pure planning half of the proxy: ``plan(i)`` is a function
    of ``(config.seed, i)`` only, with a fixed RNG draw order, so the
    schedule replays bit-identically across proxies and runs."""

    def __init__(self, config: ChaosConfig) -> None:
        config.validate()
        self.config = config

    def plan(self, conn_index: int) -> ConnPlan:
        # str-seeded Random uses sha512 of the bytes: deterministic
        # across processes and independent of PYTHONHASHSEED.
        rng = random.Random(f"chaos:{self.config.seed}:{conn_index}")
        up = self._direction(rng)
        down = self._direction(rng)
        return ConnPlan(conn_index=conn_index, up=up, down=down)

    def _direction(self, rng: random.Random) -> DirectionPlan:
        # Fixed draw order -- fault roll, offset, stream seed -- even
        # when a draw is unused, so adding a rate never shifts the
        # later draws of the same schedule.
        roll = rng.random()
        lo, hi = self.config.fault_after
        after = rng.randint(lo, hi)
        stream_seed = rng.getrandbits(64)
        cfg = self.config
        fault: Optional[FaultEvent] = None
        if roll < cfg.reset_rate:
            fault = FaultEvent("reset", after)
        elif roll < cfg.reset_rate + cfg.stall_rate:
            fault = FaultEvent("stall", after)
        elif roll < cfg.reset_rate + cfg.stall_rate + cfg.truncate_rate:
            fault = FaultEvent("truncate", after)
        return DirectionPlan(fault=fault, rng_seed=stream_seed)


class _FrameSplitter:
    """Tracks wire-frame boundaries across chunks so ``"frame"`` mode
    can split forwarded bytes exactly between frames (without decoding
    payloads -- lengths only, like ``wire.RawFrameBuffer``)."""

    __slots__ = ("_header", "_remaining")

    def __init__(self) -> None:
        self._header = bytearray()
        self._remaining = 0  # payload bytes left in the current frame

    def split(self, data: bytes) -> List[bytes]:
        pieces: List[bytes] = []
        current = bytearray()
        i, n = 0, len(data)
        while i < n:
            if self._remaining:
                take = min(self._remaining, n - i)
            else:
                need = 4 - len(self._header)
                take = min(need, n - i)
                self._header.extend(data[i : i + take])
                if len(self._header) == 4:
                    self._remaining = int.from_bytes(self._header, "big")
                    self._header.clear()
                    current.extend(data[i : i + take])
                    i += take
                    if self._remaining == 0:
                        pieces.append(bytes(current))
                        current = bytearray()
                    continue
                current.extend(data[i : i + take])
                i += take
                continue
            current.extend(data[i : i + take])
            self._remaining -= take
            i += take
            if self._remaining == 0:
                pieces.append(bytes(current))
                current = bytearray()
        if current:
            pieces.append(bytes(current))
        return pieces


class ChaosProxy:
    """An asyncio proxy applying a :class:`ChaosSchedule` to every
    connection it accepts.  Duck-types the daemon interface
    (``await start()`` binds and returns the address, ``await stop()``
    tears down), so ``ServerHandle`` can host it on a thread.
    """

    def __init__(
        self,
        upstream: str,
        config: Optional[ChaosConfig] = None,
        tracer=None,
        metrics=None,
    ) -> None:
        from repro.serve.client import parse_address

        self.config = config or ChaosConfig()
        self.schedule = ChaosSchedule(self.config)
        self.upstream: Address = parse_address(upstream)
        self.tracer = tracer
        self.metrics = metrics
        self.address: Address = ()
        self.connections = 0
        self.faults_fired: Dict[str, int] = {k: 0 for k in FAULT_KINDS}
        self.forwarded_bytes = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._clock = 0

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _trace(self, kind: str, **fields) -> None:
        if self.tracer is not None:
            self._clock += 1
            self.tracer.event(kind, t=self._clock, **fields)

    def _inc(self, name: str, value: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, value)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Address:
        if self.config.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._accept, path=self.config.unix_path
            )
            self.address = ("unix", self.config.unix_path)
        else:
            self._server = await asyncio.start_server(
                self._accept, host=self.config.listen_host, port=self.config.listen_port
            )
            bound = self._server.sockets[0].getsockname()
            self.address = ("tcp", bound[0], bound[1])
        self._trace(
            "serve.chaos.start",
            seed=self.config.seed,
            fragment=self.config.fragment,
            upstream=list(self.upstream),
        )
        return self.address

    async def stop(self) -> Dict[str, int]:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Abort live connections before cancelling: pumps then exit on
        # EOF/ConnectionError by themselves, leaving cancellation as a
        # backstop for stalled ones.
        for writer in list(self._writers):
            self._abort(writer)
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        self._writers.clear()
        self._trace(
            "serve.chaos.stop",
            connections=self.connections,
            forwarded_bytes=self.forwarded_bytes,
            faults=dict(self.faults_fired),
        )
        return {
            "connections": self.connections,
            "forwarded_bytes": self.forwarded_bytes,
            "faults": sum(self.faults_fired.values()),
        }

    # ------------------------------------------------------------------
    # proxying
    # ------------------------------------------------------------------
    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        index = self.connections
        self.connections += 1
        plan = self.schedule.plan(index)
        self._inc("serve.chaos.connections")
        try:
            if self.upstream[0] == "unix":
                up_reader, up_writer = await asyncio.open_unix_connection(
                    self.upstream[1]
                )
            else:
                up_reader, up_writer = await asyncio.open_connection(
                    self.upstream[1], self.upstream[2]
                )
        except OSError as exc:
            self._trace("serve.chaos.upstream_refused", conn=index, error=str(exc))
            self._abort(writer)
            return
        self._writers.update((writer, up_writer))
        self._trace(
            "serve.chaos.conn",
            conn=index,
            up_fault=self._fault_doc(plan.up),
            down_fault=self._fault_doc(plan.down),
        )
        up = asyncio.current_task()
        assert up is not None
        self._tasks.add(up)
        down = asyncio.get_running_loop().create_task(
            self._pump(index, "down", plan.down, up_reader, writer, up_writer)
        )
        self._tasks.add(down)
        try:
            await self._pump(index, "up", plan.up, reader, up_writer, writer)
            await down
        except asyncio.CancelledError:
            # Only stop() cancels this task.  Swallowed deliberately:
            # asyncio.start_server owns it, and its done-callback calls
            # task.exception(), which would re-raise the cancellation
            # into the event loop's exception handler as log noise.
            down.cancel()
        finally:
            self._tasks.discard(up)
            self._tasks.discard(down)
            self._writers.discard(writer)
            self._writers.discard(up_writer)
            self._close(writer)
            self._close(up_writer)

    @staticmethod
    def _fault_doc(plan: DirectionPlan) -> Optional[Dict[str, object]]:
        if plan.fault is None:
            return None
        return {"kind": plan.fault.kind, "after_bytes": plan.fault.after_bytes}

    async def _pump(
        self,
        conn: int,
        direction: str,
        plan: DirectionPlan,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer_writer: asyncio.StreamWriter,
    ) -> None:
        rng = random.Random(plan.rng_seed)
        splitter = _FrameSplitter() if self.config.fragment == "frame" else None
        forwarded = 0
        fault = plan.fault
        try:
            while True:
                try:
                    chunk = await reader.read(65536)
                except (ConnectionError, OSError):
                    break
                if not chunk:
                    break
                if fault is not None and forwarded + len(chunk) > fault.after_bytes:
                    keep = fault.after_bytes - forwarded
                    prefix = chunk[:keep]
                    if prefix:
                        forwarded += await self._forward(
                            writer, prefix, plan, rng, splitter
                        )
                    self.faults_fired[fault.kind] += 1
                    self._inc("serve.chaos.faults")
                    self._inc(f"serve.chaos.fault.{fault.kind}")
                    self._trace(
                        "serve.chaos.fault",
                        conn=conn,
                        direction=direction,
                        fault=fault.kind,
                        at_bytes=forwarded,
                    )
                    if fault.kind == "reset":
                        self._abort(writer)
                        self._abort(peer_writer)
                        return
                    if fault.kind == "truncate":
                        self._close(writer)
                        self._close(peer_writer)
                        return
                    # stall: the direction goes silent but the socket
                    # stays open -- keep draining the reader so the
                    # sender never blocks on TCP backpressure, and never
                    # write another byte.
                    while True:
                        try:
                            silent = await reader.read(65536)
                        except (ConnectionError, OSError):
                            return
                        if not silent:
                            return
                else:
                    forwarded += await self._forward(
                        writer, chunk, plan, rng, splitter
                    )
        except (ConnectionError, OSError):
            pass
        finally:
            if not writer.is_closing():
                try:
                    writer.write_eof()
                except (OSError, RuntimeError):
                    self._close(writer)

    async def _forward(
        self,
        writer: asyncio.StreamWriter,
        data: bytes,
        plan: DirectionPlan,
        rng: random.Random,
        splitter: Optional[_FrameSplitter],
    ) -> int:
        cfg = self.config
        sent = 0
        for piece in self._split(data, rng, splitter):
            delay = cfg.latency_s
            if cfg.jitter_s:
                delay += rng.random() * cfg.jitter_s
            if cfg.bandwidth:
                delay += len(piece) / cfg.bandwidth
            if delay > 0.0:
                await asyncio.sleep(delay)
            writer.write(piece)
            await writer.drain()
            sent += len(piece)
            self.forwarded_bytes += len(piece)
        return sent

    def _split(
        self,
        data: bytes,
        rng: random.Random,
        splitter: Optional[_FrameSplitter],
    ) -> List[bytes]:
        mode = self.config.fragment
        if mode == "none":
            return [data]
        if mode == "byte":
            return [data[i : i + 1] for i in range(len(data))]
        if mode == "frame":
            assert splitter is not None
            return splitter.split(data)
        pieces: List[bytes] = []
        i = 0
        while i < len(data):
            take = rng.randint(1, self.config.shred_max)
            pieces.append(data[i : i + take])
            i += take
        return pieces

    @staticmethod
    def _abort(writer: asyncio.StreamWriter) -> None:
        try:
            writer.transport.abort()
        except (OSError, RuntimeError):
            pass

    @staticmethod
    def _close(writer: asyncio.StreamWriter) -> None:
        if not writer.is_closing():
            try:
                writer.close()
            except (OSError, RuntimeError):
                pass

    def __repr__(self) -> str:
        where = self.address or ("unbound",)
        return (
            f"<ChaosProxy {'/'.join(str(p) for p in where)} "
            f"seed={self.config.seed} conns={self.connections}>"
        )
