"""Client libraries for the checkpointing service.

One transport and a blocking face over it, on one sans-IO
:class:`~repro.serve.clientcore.RequestCore` that makes every decision
that is not I/O:

* :class:`AsyncClient` -- an asyncio client with *pipelining*: requests
  are matched to replies by their ``seq`` field, so many can be in
  flight per connection.  This is what the load generator drives.
* :class:`Client` -- an :class:`AsyncClient` run on a private event
  loop in one daemon thread: one request, one reply, in order.  The
  right tool for scripts, the CLI ``repro client`` verb and tests.

Both raise :class:`ReplyError` when the server answers ``ok: false``
(the reply's error code is on the exception, so callers can tell a
shed ``overloaded`` frame -- retryable -- from a real fault), plain
:class:`ConnectionError` when the peer is gone or its framing is broken
(``wire.FrameError`` never escapes either client), and
:class:`FrameTooLarge` for a request over ``wire.MAX_FRAME``, which is
never written.

Clients route themselves: against a router each session frame goes
straight to its owning shard.  Only frames that never reached the owner
(``moved``, ``shard_down``) are resent, and only by the retrying calls
(:meth:`Client.request`, :meth:`AsyncClient.call`); a frame written on a
connection that dies unanswered raises :class:`ConnectionError`
(``docs/SERVICE.md``, "At least once, honestly").  ``AsyncClient.submit``
/ ``reply`` never resend: a resend behind later pipelined frames would
reorder a session.

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

**Deadlines.**  Every call is bounded by a per-request ``timeout``
applied to every awaited reply (not just the dial).  A deadline miss
raises the typed, retryable :class:`RequestTimeout` and *invalidates*
the whole client, shard connections included -- the request may be
half-sent or its reply half-received, so the framing can no longer be
trusted -- until the caller reconnects (``reconnect()``, which redials
in place).  The deadline is O(1) per wait: a reply that
already arrived is returned without yielding or arming anything;
otherwise one ``loop.call_later`` handle is armed for the wait and
cancelled when the reply lands.  On expiry it fails the awaited future
and aborts the transports, which fails every other in-flight future
too.
"""

from __future__ import annotations

import asyncio
import threading
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.serve import wire
from repro.serve.clientcore import (
    HANDSHAKE,
    CircuitOpen,
    FrameTooLarge,
    ReplyError,
    RequestCore,
    RequestTimeout,
)
from repro.types import ReproError

#: ``("tcp", host, port)`` or ``("unix", path)``.
Address = Union[Tuple[str, str, int], Tuple[str, str]]


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
    if int(port) > 65535:
        raise ValueError(f"bad address {spec!r}; port {port} is above 65535")
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


class _Verbs:
    """The request vocabulary, declared once: each verb is the retrying
    call's reply (:meth:`Client.request`; an awaitable of
    :meth:`AsyncClient.call`'s), or one field of it."""

    def _ask(self, kind: str, key: Optional[str] = None, **fields: object) -> Any:
        reply = self.request(kind, **fields)  # type: ignore[attr-defined]
        return reply if key is None else reply[key]

    def hello(
        self, session: str, n: Optional[int] = None, protocol: Optional[str] = None
    ) -> Any:
        return self._ask("hello", session=session, n=n, protocol=protocol)

    def checkpoint(self, session: str, pid: int) -> Any:
        return self._ask("checkpoint", session=session, pid=pid)

    def send(self, session: str, src: int, dst: int) -> Any:
        return self._ask("send", session=session, src=src, dst=dst)

    def deliver(self, session: str, msg_id: int) -> Any:
        return self._ask("deliver", session=session, msg_id=msg_id)

    def query(
        self, session: str, what: str, crashed: Optional[Sequence[int]] = None
    ) -> Any:
        """The query's ``result``, not the whole reply."""
        crashed = list(crashed) if crashed is not None else None
        return self._ask("query", "result", session=session, what=what, crashed=crashed)

    def snapshot(self, session: str) -> Any:
        return self._ask("snapshot", session=session)

    def ping(self) -> Any:
        """Health probe: answered even by a degraded (WAL-failed)
        server or a router with dead shards; the reply says which."""
        return self._ask("ping")


class Client(_Verbs):
    """Blocking face over an :class:`AsyncClient` on a private event loop
    in one daemon thread: each method runs the async client's coroutine
    there and waits, so the face has no retry, refresh or routing rule of
    its own.  ``timeout`` and ``knobs`` are :meth:`AsyncClient.connect`'s.
    A failed connect stops the thread before it raises; after
    :meth:`close` every call raises :class:`ConnectionError`.
    """

    def __init__(
        self, address: Union[str, Address], timeout: Optional[float] = 10.0, **knobs: Any
    ) -> None:
        self.address = parse_address(address)
        self._loop = loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=loop.run_forever, name="repro-client", daemon=True
        )
        #: Stops the loop once: on close, on a failed connect, or at GC.
        self._halt = weakref.finalize(self, loop.call_soon_threadsafe, loop.stop)
        self._thread.start()
        try:
            self._client = self._run(AsyncClient.connect(self.address, timeout, **knobs))
        except BaseException:
            self._stop()
            raise

    def _run(self, coro: Any) -> Any:
        if not self._halt.alive:
            coro.close()
            raise ConnectionError(f"{self!r} is closed")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def _stop(self) -> None:
        self._halt()
        self._thread.join()
        self._loop.close()

    def request(self, kind: str, **fields: object) -> Dict[str, object]:
        """:meth:`AsyncClient.call`: the ok reply, with retry and breaker."""
        return self._run(self._client.call(kind, **fields))

    def call(self, doc: Dict[str, object]) -> Dict[str, object]:
        """:meth:`AsyncClient.exchange`: ``doc``'s raw reply, never resent."""
        return self._run(self._client.exchange(doc))

    def reconnect(self, retries: int = 20, delay: float = 0.25) -> None:
        """Redial in place; see :meth:`AsyncClient.reconnect`."""
        self._run(self._client.reconnect(retries, delay))

    def resume(self, session: str) -> Dict[str, object]:
        """Redial if needed and re-greet; see :meth:`AsyncClient.resume`."""
        return self._run(self._client.resume(session))

    def close(self) -> None:
        """Say ``bye``, close every connection and stop the thread; a
        second call does nothing."""
        if self._halt.alive:
            try:
                self._run(self._client.close())
            finally:
                self._stop()

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


class AsyncClient(_Verbs):
    """Pipelining asyncio client; create via :meth:`connect`.

    ``timeout`` is a *per-request deadline* (module docstring,
    "Deadlines"), not just a dial guard: every awaited reply
    (:meth:`call`, :meth:`reply`) and every :meth:`flush` that has to
    wait is bounded by it; ``None`` disables it.

    Against a router the client holds one connection per shard, dialled
    whenever it adopts a table.  A submit whose owner has no live
    connection resolves at once to its unwritten refusal; that or a
    ``moved`` reply re-pings the router in the background.

    Frames are coalesced Nagle-style (see the module docstring):
    ``frames_sent`` / ``writes`` count the frames handed to the
    transports and the ``write`` calls that carried them.
    """

    def __init__(
        self, address: Address, timeout: Optional[float], core: RequestCore
    ) -> None:
        self.address = address
        self._timeout = timeout
        self._core = core
        self.frames_sent = 0
        self.writes = 0
        # get_running_loop, not the deprecated get_event_loop: the client
        # is only legal with the loop running (the reader task needs it).
        self._loop = asyncio.get_running_loop()
        self._entry: _Link
        self._shards: Dict[int, _Link] = {}
        self._refreshing: Optional[asyncio.Task] = None

    @classmethod
    async def connect(
        cls, address: Union[str, Address], timeout: Optional[float] = 10.0, **knobs: Any
    ) -> "AsyncClient":
        """Dial ``address`` and make the handshake; ``knobs`` are the
        :class:`RequestCore` fields (retries, backoff, breaker, tracer)."""
        client = cls(parse_address(address), timeout, RequestCore(**knobs))
        await client._connect()
        return client

    # ------------------------------------------------------------------
    # connections and routing
    # ------------------------------------------------------------------
    async def _connect(self) -> None:
        """Dial the peer and make the handshake; adopt a router's table."""
        self._entry = link = self._start(*await _open_streams(self.address, self._timeout))
        link.pending[0] = handshake = self._loop.create_future()
        link.writer.write(wire.encode_frame(HANDSHAKE))  # not a counted frame
        try:
            pong = await self.reply(handshake)
        except (RequestTimeout, ConnectionError) as exc:
            await self._close_links("no ping answer")
            raise ConnectionError(f"no ping answer from {self.address!r}: {exc}") from exc
        await self._adopt(pong)
        self._core.invalid = None  # not before: a silent peer would swallow frames

    def _start(self, reader: asyncio.StreamReader, writer) -> _Link:
        link = _Link(writer)
        link.reader_task = self._loop.create_task(self._read_replies(reader, link))
        return link

    async def _adopt(self, pong: Dict[str, object]) -> None:
        """Route by ``pong``'s table, dialling what the core asks for (an
        address changes only with its process, whose old connection is
        closed by then)."""
        live = [shard for shard, link in self._shards.items() if not link.closed]
        wanted = self._core.adopt(pong, live)
        opened = await asyncio.gather(
            *(_open_streams(parse_address(address), self._timeout) for _, address in wanted),
            return_exceptions=True,
        )
        for (shard, _), streams in zip(wanted, opened):
            if not isinstance(streams, BaseException):
                self._shards[shard] = self._start(*streams)

    def _schedule_refresh(self) -> None:
        """Re-ping the router and re-dial in the background, one at a
        time; on failure the old table stays until the next refusal."""
        if self._core.invalid is None and (
            self._refreshing is None or self._refreshing.done()
        ):
            self._refreshing = self._loop.create_task(self._refresh())

    async def _refresh(self) -> None:
        try:
            pong = await self.reply(self.submit("ping"))
        except (ReproError, ConnectionError):
            return
        await self._adopt(pong)

    async def _refreshed(self) -> None:
        """Wait out the refresh in flight, if any (it handles its own
        failure, so only its completion matters)."""
        if self._refreshing is not None and not self._refreshing.done():
            await asyncio.wait((self._refreshing,))

    # ------------------------------------------------------------------
    # the read half
    # ------------------------------------------------------------------
    async def _read_replies(self, reader: asyncio.StreamReader, link: _Link) -> None:
        error: BaseException = ConnectionError("server closed the connection")
        buffer = wire.FrameBuffer()
        pending = link.pending
        stale = self._core.stale
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
                        if stale(reply):
                            self._schedule_refresh()
        except wire.FrameError as exc:
            # Normalised so callers handle exactly one
            # retry-after-reconnect exception family.
            error = ConnectionError(f"broken framing from peer ({exc})")
        except (ConnectionError, OSError) as exc:
            error = exc
        except asyncio.CancelledError:
            error = ConnectionError("client closed")
        link.closed = True
        self._fail_pending(link, error)
        if link is self._entry:  # a no-op once close() invalidated the core
            self._core.invalidate(str(error) or repr(error))
        else:  # its next frame would have no connection: re-ping now
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
        one transport write for the burst -- otherwise.  It is never
        resent.
        """
        return self._submit(self._core.frame(kind, **fields))

    def _submit(self, doc: Dict[str, object]) -> "asyncio.Future":
        future: asyncio.Future = self._loop.create_future()
        core = self._core
        if core.invalid is not None:
            future.set_exception(core.invalidated())
            future.exception()  # consumed here; awaiting still raises
            return future
        link = self._entry
        if core.table is not None:  # routed; a server's peer skips this
            shard = core.owner(doc.get("kind"), doc.get("session"))
            if shard is not None:
                link = self._shards.get(shard)  # type: ignore[assignment]
                if link is None or link.closed:  # refused unwritten; re-ping
                    future.set_result(core.unreachable(doc["seq"], shard))
                    self._schedule_refresh()
                    return future
        try:
            frame = wire.encode_frame(doc)
        except wire.FrameError as exc:
            future.set_exception(FrameTooLarge(exc))
            return future
        pending = link.pending
        pending[doc["seq"]] = future
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
        # stand-in; the abort in _expire is what wakes the drain.
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

    def _arm(self, future: "asyncio.Future", what: str) -> Optional[asyncio.TimerHandle]:
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
        cause = f"{what} within {self._timeout}s"
        future.set_exception(RequestTimeout(
            f"{cause}; connection invalidated, reconnect() first"
        ))
        self._core.invalidate(cause)
        if self._refreshing is not None:
            self._refreshing.cancel()
        for link in self._links():
            link.out.clear()
            link.reader_task.cancel()  # type: ignore[union-attr]
            # abort, not close: close() would wait for buffered bytes a
            # stalled peer never takes, and a flush() parked in drain()
            # is woken only by the connection actually going away.
            link.writer.transport.abort()

    async def exchange(self, doc: Dict[str, object]) -> Dict[str, object]:
        """Send the caller-built frame ``doc``; return its raw reply, never
        resent.  Waits out the refresh in flight before it sends, and the
        one a stale reply triggered before it returns."""
        await self._refreshed()
        future = self._submit(doc)
        await self.flush()
        reply = await self.reply(future)
        if self._core.stale(reply):
            await self._refreshed()
        return reply

    async def call(self, kind: str, **fields: object) -> Dict[str, object]:
        """Send one request and return its ok reply; raise the rest.
        Refusals of frames that never reached the owner are resent within
        the retry budget, after the pause ``RequestCore.settle`` picks;
        the circuit breaker sees every transport-level failure."""
        core, loop = self._core, self._loop
        core.admit(loop.time())
        attempt = 0
        while True:
            try:
                reply = await self.exchange(core.frame(kind, **fields))
            except (RequestTimeout, ConnectionError):
                core.failed(loop.time())
                raise
            delay = core.settle(kind, reply, attempt, loop.time())
            if delay is None:
                return reply
            attempt += 1
            await asyncio.sleep(delay)

    async def _ask(self, kind: str, key: Optional[str] = None, **fields: object) -> Any:
        reply = await self.call(kind, **fields)
        return reply if key is None else reply[key]

    async def reconnect(self, retries: int = 20, delay: float = 0.25) -> None:
        """Redial a server that went away (e.g. is restarting).

        Retries the dial up to ``retries`` times, ``delay`` seconds
        apart, because a crashed server replays its WAL *before*
        binding -- the socket appears only once recovery is complete.
        Raises the final :class:`ConnectionError` when it never comes
        back.  Every old connection, shards' included, is closed first;
        the table is re-learnt from the handshake, and until one is
        answered every call refuses at once.
        """
        await self._close_links("reconnect() failed")
        for _ in range(retries - 1):
            try:
                return await self._connect()
            except ConnectionError:
                await asyncio.sleep(delay)
        await self._connect()

    async def resume(self, session: str) -> Dict[str, object]:
        """Reconnect (if needed) and re-greet ``session``.

        Returns the hello reply; against a WAL-backed server it carries
        ``events`` (ingested frames recovered), ``wal_seq`` (the
        durable sequence the server's record reaches -- every frame the
        client saw acked is at or below it) and ``recovered`` (whether
        the session was rebuilt from the WAL after a crash), so a
        client knows exactly where to pick up.
        """
        try:
            return await self.hello(session)
        except OSError:  # ConnectionError, or a socket error under it
            await self.reconnect()
            return await self.hello(session)

    async def _close_links(self, cause: str) -> None:
        """Close every connection; calls refuse until a reconnect."""
        self._core.invalidate(cause)
        links = self._links()
        tasks = [link.reader_task for link in links]
        if self._refreshing is not None:
            tasks.append(self._refreshing)
        for task in tasks:
            task.cancel()  # type: ignore[union-attr]
        for link in links:
            link.writer.close()
        await asyncio.gather(
            *tasks, *(link.writer.wait_closed() for link in links),
            return_exceptions=True,
        )
        self._shards.clear()

    async def close(self) -> None:
        try:
            await self.call("bye")
        except (ReproError, ConnectionError, OSError):
            pass
        await self._close_links("close()")

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def __repr__(self) -> str:
        pending = sum(len(link.pending) for link in self._links())
        return f"<AsyncClient pending={pending} shards={len(self._shards)}>"
