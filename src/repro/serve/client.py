"""Client libraries for the checkpointing service.

Two flavours over the same wire format:

* :class:`Client` -- a plain blocking socket client, one in-flight
  request at a time.  The right tool for scripts, the CLI ``repro
  client`` verb and tests.
* :class:`AsyncClient` -- an asyncio client with *pipelining*: requests
  are matched to replies by their ``seq`` field, so many can be in
  flight per connection.  This is what the load generator drives.

Both raise :class:`ReplyError` when the server answers ``ok: false``
(the reply's error code is on the exception, so callers can tell a
shed ``overloaded`` frame -- retryable -- from a real fault), and plain
:class:`ConnectionError` when the peer is gone or its framing is broken
(``wire.FrameError`` never escapes either client).

Clients route themselves: against a router (``ping`` answers ``role:
router``) each session frame goes straight to its owning shard, by the
:class:`~repro.serve.shardmap.ShardTable` the ``ping`` publishes.  Only
frames that never reached the owner are resent -- ``moved`` and
``shard_down`` refusals; a frame written on a connection that dies
unanswered raises :class:`ConnectionError` (``docs/SERVICE.md``, "At
least once, honestly").

How :class:`AsyncClient` writes (Nagle-style coalescing, no knob):

* **Idle => immediate.**  A ``submit`` that is its connection's only
  unanswered request is written before ``submit`` returns -- there is
  nothing to batch it with, so a window-1 caller pays no extra loop
  turn.
* **Busy => once per loop turn.**  Otherwise the encoded frame joins a
  per-connection out-list that one ``loop.call_soon`` callback hands to
  the transport as a single ``write`` -- a pipelined caller pays one
  syscall per burst, and the server finds a whole batch per ``recv``.
* **Any wait => flush first.**  ``reply()`` on an unresolved future,
  ``flush()``, ``call()`` and ``close()`` write the out-lists before
  they wait, so nothing of ours sits queued while we wait for an answer
  to it.  Submit order is wire order on every connection.

``flush()`` therefore means "everything submitted is with the transport
now"; it additionally waits for the transport to drain only when the
transport is actually holding bytes the peer has not taken.

Resilience semantics (the wire-chaos grid tortures all of these):

* **Deadlines.**  Every call on both clients is bounded: the sync
  client by its socket timeout, the async client by a per-request
  ``timeout`` applied to every awaited reply (not just the dial).  A
  deadline miss raises the typed, retryable :class:`RequestTimeout`
  and *invalidates* the connection -- the request may be half-sent or
  its reply half-received, so the framing can no longer be trusted.
  The async deadline is O(1) per wait: a reply that already arrived is
  returned without yielding or arming anything; otherwise one
  ``loop.call_later`` handle is armed for the wait and cancelled when
  the reply lands.  On expiry it fails the awaited future and aborts
  the transports, which fails every other in-flight future too.
* **Seeded backoff.**  The sync client's transparent retry of
  :data:`RETRYABLE_CODES` uses jittered exponential backoff drawn from
  a seeded RNG (``retry_delay`` base, doubling per attempt, capped at
  ``backoff_cap``, uniform jitter in [0.5x, 1x)) with a bounded retry
  budget (``retries``), so a restarting shard is neither hammered nor
  waited on forever -- and a chaos cell replays identically.
* **Circuit breaking.**  Opt-in via ``circuit_threshold``: after that
  many *consecutive* transport-level failures (timeouts, connection
  errors, exhausted retryable refusals) the circuit opens and calls
  fail fast with :class:`CircuitOpen` for ``circuit_cooldown`` seconds;
  the first call after the cooldown is a half-open probe that closes
  the circuit on success and re-opens it on failure.
"""

from __future__ import annotations

import asyncio
import random
import socket
import time
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.serve import wire
from repro.serve.shardmap import DEGRADED, DOWN, UP, ShardTable
from repro.types import ReproError

#: ``("tcp", host, port)`` or ``("unix", path)``.
Address = Union[Tuple[str, str, int], Tuple[str, str]]


class ReplyError(ReproError):
    """The server answered ``ok: false``; ``code`` is its error code."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


class RequestTimeout(ReproError):
    """The server did not answer within the socket timeout.

    Retryable -- but only through :meth:`Client.reconnect` (or
    :meth:`Client.resume`): the request may be half-sent or its reply
    half-received, so the connection's framing can no longer be
    trusted.  The client invalidates the connection when raising this;
    calling again without reconnecting raises :class:`ConnectionError`.
    """


class CircuitOpen(ReproError):
    """The client's circuit breaker is open: recent calls failed at the
    transport level, so this call failed fast without touching the
    socket.  Retryable after the cooldown -- the next call past it is a
    half-open probe."""

    def __init__(self, remaining_s: float) -> None:
        super().__init__(
            f"circuit open after consecutive transport failures; "
            f"probe allowed in {remaining_s:.3f}s"
        )
        self.remaining_s = remaining_s


#: Error codes a sync :class:`Client` transparently retries: the frame
#: never reached the session's owner -- the peer refused it as not its
#: own (``moved``; the client has re-pinged the router) or the owner
#: could not be dialled (``shard_down``) -- so resending cannot
#: double-apply.  Deliberately excludes ``shard_degraded`` (terminal
#: until an operator acts) and ``overloaded`` (shedding means *back
#: off*, a policy the caller owns -- pass ``retry_codes`` to opt in).
RETRYABLE_CODES = frozenset({"shard_down", "moved"})


def parse_address(spec: Union[str, Address]) -> Address:
    """Parse ``"host:port"``, ``":port"``, ``"[v6]:port"`` or ``"unix:/path"``.

    Already-parsed tuples pass through, so every entrypoint can accept
    either form.  IPv6 hosts must be bracketed (``[::1]:7463``) --
    an unbracketed IPv6 literal is ambiguous with the port separator
    and is rejected with an explicit error instead of being mangled.
    """
    if isinstance(spec, tuple):
        if spec and spec[0] in ("tcp", "unix"):
            return spec  # type: ignore[return-value]
        raise ValueError(f"bad address tuple {spec!r}")
    if spec.startswith("unix:"):
        path = spec[len("unix:"):]
        if not path:
            raise ValueError("unix: address needs a path")
        return ("unix", path)
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"bad address {spec!r}; want host:port, [v6-host]:port "
            f"or unix:/path"
        )
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
        if not host:
            raise ValueError(f"bad address {spec!r}; empty [] host")
    elif ":" in host:
        raise ValueError(
            f"ambiguous IPv6 address {spec!r}; bracket the host, "
            f"e.g. [{host}]:{port}"
        )
    return ("tcp", host or "127.0.0.1", int(port))


def format_address(address: Address) -> str:
    """The textual form of ``address`` that :func:`parse_address` reads."""
    if address[0] == "unix":
        return f"unix:{address[1]}"
    host = address[1]
    return f"[{host}]:{address[2]}" if ":" in host else f"{host}:{address[2]}"


def _raise_if_error(reply: Dict[str, object]) -> Dict[str, object]:
    if not reply.get("ok", False):
        raise ReplyError(
            str(reply.get("error", "error")), str(reply.get("detail", ""))
        )
    return reply


def _unreachable(seq: object, shard: int, state: str) -> Dict[str, object]:
    """The refusal of a frame whose owner has no connection: never
    written, so retryable unless the router parked the shard."""
    code = "shard_degraded" if state == DEGRADED else "shard_down"
    detail = f"shard {shard} ({state}) could not be dialled; frame not sent"
    return wire.error_reply(seq, code, detail)


class _Requests:
    """The request vocabulary, shared by the sync and async clients.

    Subclasses provide ``call(doc) -> reply`` (sync or async); this
    mixin only builds the frames, so the two clients can never drift
    apart on schema.
    """

    @staticmethod
    def _frame(kind: str, seq: int, **fields: object) -> Dict[str, object]:
        doc: Dict[str, object] = {"kind": kind, "seq": seq}
        for key, value in fields.items():
            if value is not None:
                doc[key] = value
        return doc


def _dial(address: Address, timeout: Optional[float]) -> socket.socket:
    try:
        if address[0] != "unix":
            return socket.create_connection(address[1:], timeout=timeout)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(address[1])
        return sock
    except ConnectionError:
        raise
    except OSError as exc:
        # FileNotFoundError on a missing unix socket, EHOSTUNREACH...
        # -- normalise so callers handle exactly one exception type.
        raise ConnectionError(f"cannot connect to {address!r}: {exc}") from exc


class Client(_Requests):
    """Blocking client: one request, one reply, in order.

    ``retries``/``retry_delay`` govern transparent retry of replies
    whose error code is in ``retry_codes`` (default
    :data:`RETRYABLE_CODES`: ``moved`` and ``shard_down`` from a sharded
    deployment whose session moved or whose owning shard is
    restarting).  Those frames never reached the owner, so a resend
    cannot double-apply; a single-process server never emits them, so
    the knobs are inert there.  Retry pacing is seeded jittered
    exponential backoff (see the module docstring); the optional
    circuit breaker (``circuit_threshold > 0``) fails fast with
    :class:`CircuitOpen` while the service is demonstrably down.

    Against a router (learnt from its first ``moved``), session frames
    go to their owning shard over one socket per shard; a shard socket
    that fails is dropped and the next call redials it, while the
    dialled peer's socket keeps the invalidate-then-:meth:`reconnect`
    rule.
    """

    def __init__(
        self,
        address: Union[str, Address],
        timeout: Optional[float] = 10.0,
        *,
        retries: int = 8,
        retry_delay: float = 0.25,
        backoff_cap: float = 2.0,
        backoff_seed: int = 0,
        retry_codes: Optional[Iterable[str]] = None,
        circuit_threshold: int = 0,
        circuit_cooldown: float = 1.0,
        tracer=None,
        metrics=None,
    ) -> None:
        self.address = parse_address(address)
        self._timeout = timeout
        self._seq = 0
        self._buffer = wire.FrameBuffer()
        self._dead = False
        #: The router's table once a ``moved`` refusal asked for it.
        self._table: Optional[ShardTable] = None
        #: Shard index -> (socket, buffer) of each shard dialled so far.
        self._shards: Dict[int, Tuple[socket.socket, wire.FrameBuffer]] = {}
        self.retries = retries
        self.retry_delay = retry_delay
        self.backoff_cap = backoff_cap
        self.retry_codes: FrozenSet[str] = (
            frozenset(retry_codes) if retry_codes is not None else RETRYABLE_CODES
        )
        self.circuit_threshold = circuit_threshold
        self.circuit_cooldown = circuit_cooldown
        self.tracer = tracer
        self.metrics = metrics
        self._rng = random.Random(f"client-backoff:{backoff_seed}")
        self._clock = 0  # trace event ordering, not wall time
        self._circuit_failures = 0
        self._circuit_open_until: Optional[float] = None
        self._circuit_half_open = False
        self._dial()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _trace(self, kind: str, **fields: object) -> None:
        if self.tracer is not None:
            self._clock += 1
            self.tracer.event(kind, self._clock, **fields)

    def _inc(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name)

    def _dial(self) -> None:
        self._sock = _dial(self.address, self._timeout)
        self._dead = False

    # ------------------------------------------------------------------
    # recovery-aware reconnect
    # ------------------------------------------------------------------
    def reconnect(
        self, retries: int = 20, delay: float = 0.25
    ) -> None:
        """Redial a server that went away (e.g. is restarting).

        Retries the dial up to ``retries`` times, ``delay`` seconds
        apart, because a crashed server replays its WAL *before*
        binding -- the socket appears only once recovery is complete.
        Raises the final :class:`ConnectionError` when it never comes
        back.  Any reply buffered from the old connection is dropped,
        and so are the shard table and shard sockets.
        """
        self._close_sockets()
        self._buffer = wire.FrameBuffer()
        self._table = None
        last: Optional[ConnectionError] = None
        for attempt in range(max(1, retries)):
            if attempt:
                time.sleep(delay)
            try:
                self._dial()
                return
            except ConnectionError as exc:
                last = exc
        assert last is not None
        raise last

    def resume(self, session: str) -> Dict[str, object]:
        """Reconnect (if needed) and re-greet ``session``.

        Returns the hello reply; against a WAL-backed server it carries
        ``events`` (ingested frames recovered), ``wal_seq`` (the
        durable sequence the server's record reaches -- every frame the
        client saw acked is at or below it) and ``recovered`` (whether
        the session was rebuilt from the WAL after a crash), so a
        client knows exactly where to pick up.
        """
        try:
            return self.hello(session)
        except (ConnectionError, OSError):
            self.reconnect()
            return self.hello(session)

    # ------------------------------------------------------------------
    def call(self, doc: Dict[str, object]) -> Dict[str, object]:
        """Send one frame, wait for the matching reply (raw, may be ok=false).

        A session frame goes to its owner by the table; a ``moved``
        refusal re-pings the router and resends at once when the fresh
        table names another peer.  A socket timeout mid-call leaves the
        conversation desynced (the request may be half-sent, the reply
        half-received in ``self._buffer``), so the connection is
        *invalidated* -- the socket closed, the buffer dropped -- and a
        typed, retryable :class:`RequestTimeout` raised.  Calling again
        before :meth:`reconnect` raises :class:`ConnectionError` instead
        of mis-parsing from mid-frame.
        """
        if self._dead:
            raise ConnectionError(
                "connection invalidated after a timeout; reconnect() first"
            )
        shard = self._route(doc)
        reply = self._call_at(shard, doc)
        if reply.get("error") == "moved":
            self._refresh()
            target = self._route(doc)
            if target != shard:
                reply = self._call_at(target, doc)
        return reply

    def _route(self, doc: Dict[str, object]) -> Optional[int]:
        """The shard that owns ``doc``'s session; None for the dialled peer."""
        session = doc.get("session")
        if self._table is None or doc.get("kind") not in wire.SESSION_KINDS:
            return None
        return self._table.layout.owner(session) if isinstance(session, str) else None

    def _refresh(self) -> None:
        """Ping the dialled peer; route by the table a router returns."""
        self._seq += 1
        self._table = ShardTable.from_ping(
            self._call_at(None, {"kind": "ping", "seq": self._seq})
        )

    def _call_at(
        self, shard: Optional[int], doc: Dict[str, object]
    ) -> Dict[str, object]:
        if shard is None:
            return self._exchange(None, self._sock, self._buffer, doc)
        if shard not in self._shards:
            try:
                sock = _dial(
                    parse_address(self._table.addresses[shard]),  # type: ignore[union-attr]
                    self._timeout,
                )
            except ConnectionError:
                # Never written: the router's table says whether the
                # shard is restarting (retry) or parked (do not).
                self._refresh()
                state = self._table.states[shard] if self._table else DOWN
                return _unreachable(doc.get("seq"), shard, state)
            self._shards[shard] = (sock, wire.FrameBuffer())
        return self._exchange(shard, *self._shards[shard], doc)

    def _exchange(
        self,
        shard: Optional[int],
        sock: socket.socket,
        buffer: wire.FrameBuffer,
        doc: Dict[str, object],
    ) -> Dict[str, object]:
        """One frame out on ``sock``, its reply back; any transport
        failure drops the connection it happened on."""
        after = (
            "connection invalidated, reconnect() to retry" if shard is None
            else f"shard {shard} connection dropped, the next call redials"
        )
        try:
            wire.send_frame(sock, doc)
            while True:
                reply = wire.recv_frame(sock, buffer)
                if reply is None:
                    raise ConnectionError("server closed the connection")
                if reply.get("seq") == doc["seq"]:
                    return reply
        except socket.timeout as exc:
            self._lose(shard)
            raise RequestTimeout(
                f"no reply within {self._timeout}s; {after}"
            ) from exc
        except wire.FrameError as exc:
            # A truncated or garbled frame (peer died mid-write, hostile
            # middlebox): the stream is untrustworthy from here on.
            # Normalised to ConnectionError so callers handle exactly
            # one retry-after-reconnect exception family.
            self._lose(shard)
            raise ConnectionError(
                f"broken framing from peer ({exc}); {after}"
            ) from exc
        except ConnectionError:
            self._lose(shard)
            raise

    def _lose(self, shard: Optional[int]) -> None:
        """Framing is no longer trustworthy: drop that socket and buffer."""
        if shard is not None:
            self._shards.pop(shard)[0].close()
            return
        self._dead = True
        self._buffer = wire.FrameBuffer()
        self._sock.close()

    def _close_sockets(self) -> None:
        for sock, _ in self._shards.values():
            sock.close()
        self._shards.clear()
        self._sock.close()

    def request(self, kind: str, **fields: object) -> Dict[str, object]:
        self._check_circuit()
        self._seq += 1
        doc = self._frame(kind, self._seq, **fields)
        attempt = 0
        while True:
            try:
                reply = self.call(doc)
            except (RequestTimeout, ConnectionError):
                self._record_failure()
                raise
            try:
                result = _raise_if_error(reply)
            except ReplyError as exc:
                if exc.code not in self.retry_codes or attempt >= self.retries:
                    if exc.code in self.retry_codes:
                        # Budget exhausted on a transport-level refusal:
                        # that is a service-health signal the breaker
                        # must see.  Application errors are not.
                        self._record_failure()
                    else:
                        self._record_success()
                    raise
                attempt += 1
                delay = self._backoff_delay(attempt)
                self._trace(
                    "serve.client.retry",
                    op=kind,
                    code=exc.code,
                    attempt=attempt,
                    delay_s=round(delay, 6),
                )
                self._inc("serve.client.retries")
                time.sleep(delay)
                continue
            self._record_success()
            return result

    def _backoff_delay(self, attempt: int) -> float:
        """Jittered exponential backoff for retry ``attempt`` (1-based):
        ``min(cap, base * 2^(attempt-1))`` scaled by a seeded uniform
        jitter in [0.5, 1.0) so synchronized clients fan out."""
        base = min(self.backoff_cap, self.retry_delay * (2 ** (attempt - 1)))
        return base * (0.5 + self._rng.random() / 2.0)

    # ------------------------------------------------------------------
    # circuit breaker (opt-in: circuit_threshold > 0)
    # ------------------------------------------------------------------
    def _check_circuit(self) -> None:
        if self.circuit_threshold <= 0 or self._circuit_open_until is None:
            return
        now = time.monotonic()
        if now < self._circuit_open_until:
            self._inc("serve.client.circuit_rejected")
            raise CircuitOpen(self._circuit_open_until - now)
        # Cooldown elapsed: half-open, let exactly this call probe.
        self._circuit_open_until = None
        self._circuit_half_open = True
        self._trace("serve.client.circuit", state="half_open")

    def _record_failure(self) -> None:
        self._circuit_failures += 1
        if self.circuit_threshold <= 0:
            return
        if self._circuit_half_open or (
            self._circuit_failures >= self.circuit_threshold
        ):
            self._circuit_open_until = time.monotonic() + self.circuit_cooldown
            self._circuit_half_open = False
            self._trace(
                "serve.client.circuit",
                state="open",
                failures=self._circuit_failures,
                cooldown_s=self.circuit_cooldown,
            )
            self._inc("serve.client.circuit_open")

    def _record_success(self) -> None:
        self._circuit_failures = 0
        if self._circuit_half_open:
            self._circuit_half_open = False
            self._trace("serve.client.circuit", state="closed")

    # -- the vocabulary -------------------------------------------------
    def hello(
        self,
        session: str,
        n: Optional[int] = None,
        protocol: Optional[str] = None,
    ) -> Dict[str, object]:
        return self.request("hello", session=session, n=n, protocol=protocol)

    def checkpoint(self, session: str, pid: int) -> Dict[str, object]:
        return self.request("checkpoint", session=session, pid=pid)

    def send(self, session: str, src: int, dst: int) -> Dict[str, object]:
        return self.request("send", session=session, src=src, dst=dst)

    def deliver(self, session: str, msg_id: int) -> Dict[str, object]:
        return self.request("deliver", session=session, msg_id=msg_id)

    def query(
        self,
        session: str,
        what: str,
        crashed: Optional[Sequence[int]] = None,
    ) -> Dict[str, object]:
        reply = self.request(
            "query",
            session=session,
            what=what,
            crashed=list(crashed) if crashed is not None else None,
        )
        return reply["result"]  # type: ignore[return-value]

    def snapshot(self, session: str) -> Dict[str, object]:
        return self.request("snapshot", session=session)

    def ping(self) -> Dict[str, object]:
        """Health probe: answered even by a degraded (WAL-failed)
        server or a router with dead shards; the reply says which."""
        return self.request("ping")

    def bye(self) -> None:
        self._seq += 1
        try:
            self.call(self._frame("bye", self._seq))
        except (ReproError, ConnectionError, OSError):
            pass

    def close(self) -> None:
        try:
            self.bye()
        finally:
            self._close_sockets()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<Client {self.address}>"


async def _open_streams(
    address: Address, timeout: Optional[float]
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    try:
        if address[0] == "unix":
            opening = asyncio.open_unix_connection(address[1])
        else:
            opening = asyncio.open_connection(address[1], address[2])
        return await asyncio.wait_for(opening, timeout=timeout)
    except ConnectionError:
        raise
    except (OSError, asyncio.TimeoutError) as exc:
        raise ConnectionError(f"cannot connect to {address!r}: {exc}") from exc


class _Link:
    """One connection of an :class:`AsyncClient` (the peer, or a shard)."""

    __slots__ = ("writer", "pending", "out", "reader_task", "closed")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        #: seq -> future of every request submitted here and unanswered.
        self.pending: Dict[object, asyncio.Future] = {}
        #: Encoded frames not yet handed to the transport, in order.
        self.out: List[bytes] = []
        self.reader_task: Optional[asyncio.Task] = None
        self.closed = False


class AsyncClient(_Requests):
    """Pipelining asyncio client; create via :meth:`connect`.

    ``timeout`` is a *per-request deadline*, not just a dial guard:
    every awaited reply (:meth:`call`, :meth:`reply`) and every
    :meth:`flush` that has to wait is bounded by it.  A deadline miss
    raises the same typed :class:`RequestTimeout` as the sync client
    and invalidates the client -- in-flight futures fail, later
    submits fail fast with :class:`ConnectionError` -- because a reply
    that arrives late would desync the pipelining bookkeeping.
    Reconnect via :meth:`connect`; ``timeout=None`` disables the
    deadline.

    Against a router (:meth:`connect` pings the peer first) the client
    holds one connection per shard.  A submit whose owner has no live
    connection resolves at once to an unwritten ``shard_down`` (or
    ``shard_degraded``) refusal; that, a ``moved`` reply or a dying shard
    connection re-pings the router and re-dials in the background.

    Frames are coalesced Nagle-style (see the module docstring):
    ``frames_sent`` / ``writes`` count the frames handed to the
    transports and the ``write`` calls that carried them.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        timeout: Optional[float] = 10.0,
    ) -> None:
        self._timeout = timeout
        self._seq = 0
        self._dead = False
        self.frames_sent = 0
        self.writes = 0
        # get_running_loop, not the deprecated get_event_loop: the client
        # is only legal with the loop running (the reader task needs it).
        self._loop = asyncio.get_running_loop()
        self._entry = self._start(reader, writer)
        #: The router's table; None when the dialled peer is a server.
        self._table: Optional[ShardTable] = None
        self._shards: Dict[int, _Link] = {}
        self._refreshing: Optional[asyncio.Task] = None

    @classmethod
    async def connect(
        cls, address: Union[str, Address], timeout: Optional[float] = 10.0
    ) -> "AsyncClient":
        addr = parse_address(address)
        reader, writer = await _open_streams(addr, timeout)
        try:  # the handshake: a router answers with its shard table
            writer.write(wire.encode_frame({"kind": "ping", "seq": 0}))
            pong = await asyncio.wait_for(wire.read_frame(reader), timeout)
            if pong is None:
                raise ConnectionError("peer closed the connection")
        except (ConnectionError, OSError, wire.FrameError, asyncio.TimeoutError) as exc:
            writer.close()
            raise ConnectionError(f"no ping answer from {addr!r}: {exc!r}") from exc
        client = cls(reader, writer, timeout=timeout)
        table = ShardTable.from_ping(pong)
        if table is not None:
            await client._adopt(table)
        return client

    # ------------------------------------------------------------------
    # connections and routing
    # ------------------------------------------------------------------
    def _start(self, reader: asyncio.StreamReader, writer) -> _Link:
        link = _Link(writer)
        link.reader_task = self._loop.create_task(self._read_replies(reader, link))
        return link

    async def _open(self, address: str) -> _Link:
        return self._start(*await _open_streams(parse_address(address), self._timeout))

    async def _adopt(self, table: ShardTable) -> None:
        """Route by ``table``, dialling each shard it says is up and we
        have no live connection to (an address changes only with its
        process, whose old connection is closed by then)."""
        wanted = [
            shard for shard, state in enumerate(table.states)
            if state == UP
            and (shard not in self._shards or self._shards[shard].closed)
        ]
        opened = await asyncio.gather(
            *(self._open(table.addresses[shard]) for shard in wanted),
            return_exceptions=True,
        )
        for shard, link in zip(wanted, opened):
            if isinstance(link, _Link):
                self._shards[shard] = link
        self._table = table

    def _schedule_refresh(self) -> None:
        """Re-ping the router and re-dial in the background, one at a
        time; on failure the old table stays until the next refusal."""
        if not self._dead and (
            self._refreshing is None or self._refreshing.done()
        ):
            self._refreshing = self._loop.create_task(self._refresh())

    async def _refresh(self) -> None:
        try:
            table = ShardTable.from_ping(await self.reply(self.submit("ping")))
        except (ReproError, ConnectionError):
            return
        if table is not None:
            await self._adopt(table)

    def _owner_link(
        self, seq: int, session: object, future: "asyncio.Future"
    ) -> Optional[_Link]:
        """The connection for ``session``; None once ``future`` holds
        the refusal of a frame never written."""
        if not isinstance(session, str):
            return self._entry  # the router answers bad_request
        shard = self._table.layout.owner(session)  # type: ignore[union-attr]
        link = self._shards.get(shard)
        if link is not None and not link.closed:
            return link
        state = self._table.states[shard]  # type: ignore[union-attr]
        future.set_result(_unreachable(seq, shard, state))
        if state != DEGRADED:
            self._schedule_refresh()
        return None

    # ------------------------------------------------------------------
    # the read half
    # ------------------------------------------------------------------
    async def _read_replies(
        self, reader: asyncio.StreamReader, link: _Link
    ) -> None:
        error: BaseException = ConnectionError("server closed the connection")
        buffer = wire.FrameBuffer()
        pending = link.pending
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    if buffer.pending():
                        raise wire.FrameError("closed mid-frame")
                    break
                try:
                    buffer.feed(data)
                finally:
                    # Also when a later frame of the chunk is garbage:
                    # the good replies ahead of it were acked by the
                    # server and must not be reported as failures.
                    while (reply := buffer.next_doc()) is not None:
                        future = pending.pop(reply.get("seq"), None)
                        if future is not None and not future.done():
                            future.set_result(reply)
                        if reply.get("error") == "moved":
                            self._schedule_refresh()
        except wire.FrameError as exc:
            # Normalised like the sync client: callers handle exactly
            # one retry-after-reconnect exception family.
            error = ConnectionError(
                f"broken framing from peer ({exc}); reconnect via "
                f"AsyncClient.connect()"
            )
        except (ConnectionError, OSError) as exc:
            error = exc
        except asyncio.CancelledError:
            error = ConnectionError("client closed")
        deliberate = link.closed
        link.closed = True
        self._fail_pending(link, error)
        if not deliberate and link is not self._entry:
            self._schedule_refresh()

    @staticmethod
    def _fail_pending(link: _Link, error: BaseException) -> None:
        for future in link.pending.values():
            if not future.done():
                future.set_exception(error)
                # A caller that already gave up on the connection never
                # awaits these; read the exception back so their garbage
                # collection stays silent.  Awaiting them still raises.
                future.exception()
        link.pending.clear()

    # ------------------------------------------------------------------
    # the write half
    # ------------------------------------------------------------------
    def submit(self, kind: str, **fields: object) -> "asyncio.Future":
        """Fire one request without waiting; resolves to the raw reply.

        This is the pipelining primitive: N submits then N awaits keeps
        N frames in flight.  The frame is written before ``submit``
        returns when its connection is idle, and with its neighbours --
        one transport write for the burst -- otherwise.
        """
        self._seq += 1
        seq = self._seq
        future: asyncio.Future = self._loop.create_future()
        if self._dead:
            future.set_exception(
                ConnectionError(
                    "connection invalidated after a timeout; reconnect via "
                    "AsyncClient.connect()"
                )
            )
            future.exception()  # consumed here; awaiting still raises
            return future
        link = self._entry
        if self._table is not None and kind in wire.SESSION_KINDS:
            link = self._owner_link(seq, fields.get("session"), future)
            if link is None:
                return future
        if link.closed:
            future.set_exception(ConnectionError("server closed the connection"))
            future.exception()
            return future
        try:
            frame = wire.encode_frame(self._frame(kind, seq, **fields))
        except Exception as exc:  # oversized or unencodable: never sent
            future.set_exception(ConnectionError(str(exc)))
            return future
        pending = link.pending
        pending[seq] = future
        out = link.out
        out.append(frame)
        if len(pending) == 1:
            # Idle: every earlier request on this connection has been
            # answered, so there is nothing to coalesce with and
            # deferring would only add a loop turn to the round trip.
            self._write_out(link)
        elif len(out) == 1:
            # Busy: the first frame of a burst books the write for the
            # end of this loop turn; its neighbours ride along.
            self._loop.call_soon(self._write_out, link)
        return future

    def _write_out(self, link: _Link) -> None:
        """Hand every frame queued on ``link`` to its transport in one write."""
        out = link.out
        if not out:
            return
        data = out[0] if len(out) == 1 else b"".join(out)
        self.frames_sent += len(out)
        self.writes += 1
        out.clear()
        try:
            link.writer.write(data)
        except Exception as exc:  # connection already torn down
            self._fail_pending(link, ConnectionError(str(exc)))

    def _links(self) -> List[_Link]:
        return [self._entry, *self._shards.values()]

    def _write_all(self) -> None:
        self._write_out(self._entry)
        for link in self._shards.values():
            self._write_out(link)

    async def flush(self) -> None:
        """Write every submitted frame now; honour transport backpressure.

        Waits (under the deadline) only when a transport is actually
        holding bytes the peer has not taken: a peer that stalls while
        our transport buffer is full would otherwise hang the drain
        forever.
        """
        self._write_all()
        busy = [
            link for link in self._links()
            if not link.closed and link.writer.transport.get_write_buffer_size()
        ]
        if not busy:
            return
        # drain() has no future of ours to fail, so the deadline fails a
        # stand-in; abort() in _invalidate is what wakes the drain.
        expired: asyncio.Future = self._loop.create_future()
        handle = self._arm(expired, "transport refused to drain")
        try:
            for link in busy:
                await link.writer.drain()
        finally:
            if handle is not None:
                handle.cancel()
        if expired.done():
            raise expired.exception()  # type: ignore[misc]

    async def reply(self, future: "asyncio.Future") -> Dict[str, object]:
        """Await one submitted request's raw reply under the deadline.

        This is the awaiting half of the pipelining primitive: callers
        that ``submit`` in bursts must collect through here (or
        :meth:`call`) so a stalled or blackholed server surfaces as
        :class:`RequestTimeout` instead of an eternal hang.  A reply
        that already arrived is returned without yielding to the loop.
        """
        if future.done():
            return future.result()
        self._write_all()  # about to wait: nothing of ours may sit queued
        handle = self._arm(future, "no reply")
        try:
            return await future
        finally:
            if handle is not None:
                handle.cancel()

    def _arm(
        self, future: "asyncio.Future", what: str
    ) -> Optional[asyncio.TimerHandle]:
        if self._timeout is None:
            return None
        return self._loop.call_later(self._timeout, self._expire, future, what)

    def _expire(self, future: "asyncio.Future", what: str) -> None:
        """The deadline passed with ``future`` still unresolved.

        The reply may yet arrive -- late, out of budget.  Frame
        accounting can no longer be trusted, so the whole client is
        invalidated, failing every other in-flight future (the reader
        tasks' cleanup does that).
        """
        if future.done():
            return
        future.set_exception(
            RequestTimeout(
                f"{what} within {self._timeout}s; connection invalidated, "
                f"reconnect via AsyncClient.connect()"
            )
        )
        self._invalidate()

    def _invalidate(self) -> None:
        self._dead = True
        if self._refreshing is not None:
            self._refreshing.cancel()
        for link in self._links():
            link.out.clear()
            link.reader_task.cancel()  # type: ignore[union-attr]
            # abort, not close: close() would wait for buffered bytes a
            # stalled peer never takes, and a flush() parked in drain()
            # is woken only by the connection actually going away.
            link.writer.transport.abort()

    async def call(self, kind: str, **fields: object) -> Dict[str, object]:
        future = self.submit(kind, **fields)
        await self.flush()
        return _raise_if_error(await self.reply(future))

    # -- the vocabulary -------------------------------------------------
    async def hello(
        self,
        session: str,
        n: Optional[int] = None,
        protocol: Optional[str] = None,
    ) -> Dict[str, object]:
        return await self.call("hello", session=session, n=n, protocol=protocol)

    async def checkpoint(self, session: str, pid: int) -> Dict[str, object]:
        return await self.call("checkpoint", session=session, pid=pid)

    async def send(self, session: str, src: int, dst: int) -> Dict[str, object]:
        return await self.call("send", session=session, src=src, dst=dst)

    async def deliver(self, session: str, msg_id: int) -> Dict[str, object]:
        return await self.call("deliver", session=session, msg_id=msg_id)

    async def query(
        self,
        session: str,
        what: str,
        crashed: Optional[Sequence[int]] = None,
    ) -> Dict[str, object]:
        reply = await self.call(
            "query",
            session=session,
            what=what,
            crashed=list(crashed) if crashed is not None else None,
        )
        return reply["result"]  # type: ignore[return-value]

    async def snapshot(self, session: str) -> Dict[str, object]:
        return await self.call("snapshot", session=session)

    async def ping(self) -> Dict[str, object]:
        """Health probe; see :meth:`Client.ping`."""
        return await self.call("ping")

    async def resume(self, session: str) -> Dict[str, object]:
        """Re-greet ``session``; see :meth:`Client.resume`.

        The async client cannot redial in place (its reader tasks own
        the old transports) -- reconnect by creating a fresh client via
        :meth:`connect`, then ``resume`` to learn the recovered state.
        """
        return await self.hello(session)

    async def close(self) -> None:
        try:
            await self.call("bye")
        except (ReproError, ConnectionError, OSError):
            pass
        if self._refreshing is not None:
            self._refreshing.cancel()
        for link in self._links():
            link.closed = True  # deliberate: schedules no refresh
            link.reader_task.cancel()  # type: ignore[union-attr]
            link.writer.close()
        await asyncio.gather(
            *(link.writer.wait_closed() for link in self._links()),
            return_exceptions=True,
        )

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def __repr__(self) -> str:
        pending = sum(len(link.pending) for link in self._links())
        return f"<AsyncClient pending={pending} shards={len(self._shards)}>"
