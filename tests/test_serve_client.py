"""Client-side plumbing: address parsing, error mapping, dead sockets."""

import ast
import asyncio
import contextlib
import gc
import os
import socket
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.serve import wire
from repro.serve.client import (
    AsyncClient,
    CircuitOpen,
    Client,
    FrameTooLarge,
    ReplyError,
    RequestTimeout,
    parse_address,
)
from repro.serve.shardmap import ShardMap, ShardTable
from repro.types import ReproError


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.0.0.1:7463") == ("tcp", "10.0.0.1", 7463)

    def test_bare_port_defaults_host(self):
        assert parse_address(":7463") == ("tcp", "127.0.0.1", 7463)

    def test_unix_path(self):
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")

    def test_tuples_pass_through(self):
        assert parse_address(("tcp", "h", 1)) == ("tcp", "h", 1)
        assert parse_address(("unix", "/p")) == ("unix", "/p")

    @pytest.mark.parametrize(
        "bad",
        ["", "no-port", "host:notaport", "unix:", ("weird", 1), "127.0.0.1:70000"],
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_bracketed_ipv6(self):
        assert parse_address("[::1]:7463") == ("tcp", "::1", 7463)
        assert parse_address("[fe80::1%eth0]:80") == ("tcp", "fe80::1%eth0", 80)

    def test_unbracketed_ipv6_rejected_with_hint(self):
        """Regression: rpartition used to mangle ``::1:7463`` into host
        ``::1`` silently wrong for other layouts -- now the ambiguity is
        an explicit error telling the caller how to write it."""
        with pytest.raises(ValueError, match=r"bracket.*\[::1\]:7463"):
            parse_address("::1:7463")

    def test_empty_brackets_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_address("[]:7463")


class TestReplyError:
    def test_carries_code_and_detail(self):
        err = ReplyError("overloaded", "queue full")
        assert err.code == "overloaded"
        assert err.detail == "queue full"
        assert isinstance(err, ReproError)
        assert "overloaded" in str(err)


class TestDeadSocket:
    """api error-path satellite: a dead endpoint is a clean, fast error."""

    def test_sync_client_unix_connection_error(self, tmp_path):
        with pytest.raises(ConnectionError, match="cannot connect"):
            Client(f"unix:{tmp_path}/nobody-home.sock", timeout=2.0)

    def test_sync_client_tcp_connection_refused(self, free_tcp_port):
        with pytest.raises(ConnectionError):
            Client(f"127.0.0.1:{free_tcp_port}", timeout=2.0)

    def test_async_client_connection_error(self, tmp_path):
        async def attempt():
            await AsyncClient.connect(f"unix:{tmp_path}/gone.sock", timeout=2.0)

        with pytest.raises(ConnectionError, match="cannot connect"):
            asyncio.run(attempt())


@pytest.fixture
def free_tcp_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class _ScriptedServer:
    """A threaded unix-socket peer whose per-connection behaviour is a
    plain function -- the cheapest way to script wire-level misbehaviour
    (stalls, partial frames, scripted error codes) a real server never
    produces on cue.  Unless ``handshake`` is off, the ``ping`` that
    ``AsyncClient.connect`` opens with is answered before the handler
    runs."""

    def __init__(self, path, handler, handshake=True):
        self.path = str(path)
        self._handler = handler
        self._handshake = handshake
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.path)
        self._listener.listen(8)
        self._conns = 0
        self._open = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self._open.append(conn)
            index = self._conns
            self._conns += 1
            threading.Thread(
                target=self._run_handler, args=(index, conn), daemon=True
            ).start()

    def _run_handler(self, index, conn):
        try:
            if self._handshake:
                _answer_handshake(conn)
            self._handler(index, conn)
        except OSError:
            pass

    def close(self):
        self._stop.set()
        self._listener.close()
        for conn in self._open:
            try:
                conn.close()
            except OSError:
                pass
        self._thread.join(timeout=2.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def send_frame(sock, doc):
    sock.sendall(wire.encode_frame(doc))


def recv_frame(sock, buffer):
    """Read one frame from a blocking socket via ``buffer``; None at EOF."""
    while True:
        doc = buffer.next_doc()
        if doc is not None:
            return doc
        data = sock.recv(65536)
        if not data:
            if buffer.pending():
                raise wire.FrameError("connection closed inside a frame")
            return None
        buffer.feed(data)


def _answer_handshake(conn):
    """``AsyncClient.connect`` opens with ``ping`` (seq 0): answer it as
    a plain server does, so each handler scripts only what follows.  Any
    other first frame is left unread for the handler."""
    peek = socket.MSG_PEEK | socket.MSG_WAITALL
    head = conn.recv(4, peek)
    if len(head) < 4:
        return
    size = 4 + int.from_bytes(head, "big")
    frame = conn.recv(size, peek)
    if len(frame) < size:
        return
    try:
        doc = wire.decode_frame(frame[4:])
    except wire.FrameError:
        return
    if doc.get("kind") == "ping" and doc.get("seq") == 0:
        conn.recv(size, socket.MSG_WAITALL)
        send_frame(conn, {"ok": True, "seq": 0, "pong": True, "role": "server"})


def _serve_ok(conn):
    """Speak the real protocol: every request gets ``{"ok": true}``."""
    buffer = wire.FrameBuffer()
    while True:
        doc = recv_frame(conn, buffer)
        if doc is None:
            return
        send_frame(conn, {"ok": True, "seq": doc["seq"], "echo": doc["kind"]})


class _Blocking:
    """A client of either flavour behind one blocking surface, so a test
    runs against both: ``request`` is the retrying call
    (:meth:`Client.request`, :meth:`AsyncClient.call`), ``raw`` sends
    one frame and returns its raw reply (:meth:`Client.call`,
    ``AsyncClient.submit`` + ``reply``), and every other method is the
    client's own, run to completion on a private loop for the async
    flavour."""

    def __init__(self, flavour, address, **knobs):
        self._loop = None if flavour == "sync" else asyncio.new_event_loop()
        if self._loop is None:
            self.client = Client(address, **knobs)
        else:
            self.client = self._run(AsyncClient.connect(address, **knobs))

    def _run(self, result):
        return result if self._loop is None else self._loop.run_until_complete(result)

    @property
    def transport(self):
        """The :class:`AsyncClient` doing the I/O (the face's own, for sync)."""
        return self.client if self._loop is not None else self.client._client

    @property
    def core(self):
        return self.transport._core

    def request(self, kind, **fields):
        call = self.client.request if self._loop is None else self.client.call
        return self._run(call(kind, **fields))

    def raw(self, kind, **fields):
        if self._loop is None:
            return self.client.call(self.core.frame(kind, **fields))
        return self._run(self.client.reply(self.client.submit(kind, **fields)))

    def __getattr__(self, name):
        method = getattr(self.client, name)
        return lambda *args, **kwargs: self._run(method(*args, **kwargs))

    def shutdown(self):
        """Drop the connections without a ``bye`` (a scripted peer may be
        stalled or gone) and release the loop."""
        if self._loop is None:
            with contextlib.suppress(ConnectionError):  # the test closed it
                self.client._run(self.transport._close_links("close()"))
            self.client.close()  # its bye is refused at once
            return
        self._run(self.client._close_links("close()"))
        self._loop.close()


@pytest.fixture
def connect(request):
    """Open clients of the test class's ``flavour`` (``sync`` unless an
    ``...Async`` twin says otherwise); shut them down at teardown."""
    flavour = getattr(request.cls, "flavour", "sync")
    opened = []

    def open_client(address, **knobs):
        opened.append(_Blocking(flavour, address, **knobs))
        return opened[-1]

    yield open_client
    for client in opened:
        client.shutdown()


class TestTimeoutInvalidation:
    """Satellite regression: a socket timeout mid-frame must not leave
    the next call parsing from the middle of an abandoned reply."""

    def test_timeout_raises_typed_error_and_invalidates(self, tmp_path, connect):
        stalled = threading.Event()

        def handler(index, conn):
            if index == 0:
                buffer = wire.FrameBuffer()
                recv_frame(conn, buffer)
                # Half a reply: a 64-byte frame's prefix plus 10 bytes,
                # then silence -- exactly the desync the old client
                # kept in self._buffer.
                conn.sendall(b"\x00\x00\x00\x40" + b'{"ok": tr')
                stalled.wait(timeout=10.0)
            else:
                _serve_ok(conn)

        path = tmp_path / "stall.sock"
        with _ScriptedServer(path, handler):
            client = connect(f"unix:{path}", timeout=0.3)
            with pytest.raises(RequestTimeout, match="reconnect"):
                client.raw("query")
            # The connection is invalidated, not silently reused: a
            # second call must refuse rather than mis-parse.
            with pytest.raises(ConnectionError, match="invalidated"):
                client.raw("query")
            stalled.set()
            # reconnect() makes the client whole again -- fresh socket,
            # fresh buffer, no leftover partial frame.
            client.reconnect(retries=3, delay=0.05)
            reply = client.raw("query")
            assert reply == {"ok": True, "seq": client.core.seq, "echo": "query"}

    def test_failed_reconnect_refuses_at_once(self, tmp_path, connect):
        """The peer is gone and the redial fails: the next call is a
        prompt ``ConnectionError``, not a write into a closed socket."""
        path = tmp_path / "gone.sock"
        server = _ScriptedServer(path, lambda index, conn: _serve_ok(conn))
        client = connect(f"unix:{path}", timeout=5.0)
        server.close()
        os.unlink(path)  # nothing listens there any more
        with pytest.raises(ConnectionError):
            client.reconnect(retries=1, delay=0.01)
        started = time.monotonic()
        with pytest.raises(ConnectionError, match="invalidated"):
            client.raw("query")
        with pytest.raises(ConnectionError, match="invalidated"):
            client.request("query")
        assert time.monotonic() - started < 1.0

    def test_reconnect_to_a_silent_peer_refuses_at_once(self, tmp_path, connect):
        """The redial reaches a peer that accepts and never answers the
        handshake.  Calls stay refused while the pong is awaited (a frame
        written then would go down a link that never answers), and once
        the handshake times out the next call is a prompt refusal."""
        path = tmp_path / "silent.sock"
        server = _ScriptedServer(path, lambda index, conn: _serve_ok(conn))
        client = connect(f"unix:{path}", timeout=0.3)
        server.close()
        os.unlink(path)
        during, release = [], threading.Event()

        def silent(index, conn):
            recv_frame(conn, wire.FrameBuffer())  # the handshake ping
            during.append(client.core.invalid)  # read while it is awaited
            release.wait(timeout=10.0)

        with _ScriptedServer(path, silent, handshake=False):
            with pytest.raises(ConnectionError, match="no ping answer"):
                client.reconnect(retries=1, delay=0.01)
            started = time.monotonic()
            with pytest.raises(ConnectionError, match="invalidated"):
                client.raw("query")
            assert time.monotonic() - started < 1.0
            release.set()
        assert len(during) == 1 and during[0] is not None

    def test_timeout_is_a_repro_error(self):
        assert issubclass(RequestTimeout, ReproError)


class TestTimeoutInvalidationAsync(TestTimeoutInvalidation):
    """The same tests against :class:`AsyncClient`."""

    flavour = "async"


class TestShardDownRetry:
    """``shard_down`` replies are refused-before-apply: the retrying call
    resends them transparently up to ``retries`` times."""

    def test_retries_until_shard_returns(self, tmp_path, connect):
        down_for = 3
        seen = []

        def handler(index, conn):
            buffer = wire.FrameBuffer()
            while True:
                doc = recv_frame(conn, buffer)
                if doc is None:
                    return
                seen.append(doc["kind"])
                if len(seen) <= down_for:
                    send_frame(
                        conn,
                        wire.error_reply(
                            doc["seq"], "shard_down", "shard 1 restarting"
                        ),
                    )
                else:
                    send_frame(conn, {"ok": True, "seq": doc["seq"]})

        path = tmp_path / "down.sock"
        with _ScriptedServer(path, handler):
            client = connect(f"unix:{path}", retries=5, retry_delay=0.01)
            assert client.request("snapshot", session="s")["ok"] is True
            assert len(seen) == down_for + 1

    def test_retries_exhausted_raise(self, tmp_path, connect):
        def handler(index, conn):
            buffer = wire.FrameBuffer()
            while True:
                doc = recv_frame(conn, buffer)
                if doc is None:
                    return
                send_frame(
                    conn, wire.error_reply(doc["seq"], "shard_down", "dead")
                )

        path = tmp_path / "dead.sock"
        with _ScriptedServer(path, handler):
            client = connect(f"unix:{path}", retries=2, retry_delay=0.01)
            with pytest.raises(ReplyError, match="shard_down"):
                client.request("snapshot", session="s")

    def test_non_retryable_errors_pass_through(self, tmp_path, connect):
        calls = []

        def handler(index, conn):
            buffer = wire.FrameBuffer()
            while True:
                doc = recv_frame(conn, buffer)
                if doc is None:
                    return
                calls.append(doc)
                send_frame(
                    conn, wire.error_reply(doc["seq"], "bad_request", "nope")
                )

        path = tmp_path / "bad.sock"
        with _ScriptedServer(path, handler):
            client = connect(f"unix:{path}", retries=5, retry_delay=0.01)
            with pytest.raises(ReplyError, match="bad_request"):
                client.request("snapshot", session="s")
            assert len(calls) == 1  # no retry on a real fault


class TestShardDownRetryAsync(TestShardDownRetry):
    """The same tests against :class:`AsyncClient`."""

    flavour = "async"


def _router_handler(shard_address, state, pings, frames=None):
    """A scripted router publishing one shard: ``ping`` gets the table,
    any session frame the router's ``moved``, anything else ``ok``.
    ``state`` is the shard's state, or a function returning it at each
    ``ping``; ``frames`` (when given) records every frame's kind."""

    def handler(index, conn):
        buffer = wire.FrameBuffer()
        while True:
            doc = recv_frame(conn, buffer)
            if doc is None:
                return
            if frames is not None:
                frames.append(doc["kind"])
            if doc["kind"] == "ping":
                pings.append(doc["seq"])
                now = state() if callable(state) else state
                table = ShardTable(ShardMap(1), [shard_address], [now])
                reply = {"ok": True, "seq": doc["seq"], "role": "router"}
                reply.update(table.ping_fields())
            elif doc["kind"] in wire.SESSION_KINDS:
                reply = wire.error_reply(doc["seq"], "moved", "dial the owner")
            else:
                reply = {"ok": True, "seq": doc["seq"]}
            send_frame(conn, reply)

    return handler


class TestOnlyUnwrittenFramesAreRetried:
    """At-least-once, honestly: a frame the owner may have applied is
    never resent; one that never reached it is."""

    def test_frame_on_a_connection_that_dies_is_sent_once(self, tmp_path, connect):
        copies = []

        def shard(index, conn):
            doc = recv_frame(conn, wire.FrameBuffer())
            if doc is not None:
                copies.append(doc)
            conn.close()  # accepted, maybe applied, never answered

        shard_path = tmp_path / "shard.sock"
        router_path = tmp_path / "router.sock"
        pings = []
        with _ScriptedServer(shard_path, shard), _ScriptedServer(
            router_path, _router_handler(f"unix:{shard_path}", "up", pings),
            handshake=False,
        ):
            client = connect(f"unix:{router_path}", retries=5, retry_delay=0.01)
            with pytest.raises(ConnectionError):
                client.checkpoint("s", pid=0)
            time.sleep(0.1)  # nothing further may arrive
            assert [doc["kind"] for doc in copies] == ["checkpoint"]
            client.close()

    def test_refused_dial_to_a_down_shard_backs_off_then_raises(
        self, tmp_path, connect
    ):
        from repro.obs import Tracer

        router_path = tmp_path / "router.sock"
        pings = []
        tracer = Tracer()
        handler = _router_handler(f"unix:{tmp_path}/gone.sock", "down", pings)
        with _ScriptedServer(router_path, handler, handshake=False):
            client = connect(
                f"unix:{router_path}", retries=2, retry_delay=0.01,
                tracer=tracer,
            )
            with pytest.raises(ReplyError) as err:
                client.checkpoint("s", pid=0)
            assert err.value.code == "shard_down"
            retries = [e for e in tracer.events if e.kind == "serve.client.retry"]
            assert [e.fields["code"] for e in retries] == ["shard_down"] * 2
            # One ping for the connect handshake, one per refused
            # attempt (the down shard is never dialled).
            assert len(pings) == 1 + 3
            client.close()

    def test_parked_shard_fails_fast(self, tmp_path, connect):
        router_path = tmp_path / "router.sock"
        pings = []
        handler = _router_handler(f"unix:{tmp_path}/gone.sock", "degraded", pings)
        with _ScriptedServer(router_path, handler, handshake=False):
            client = connect(f"unix:{router_path}", retries=5, retry_delay=0.01)
            with pytest.raises(ReplyError) as err:
                client.checkpoint("s", pid=0)
            assert err.value.code == "shard_degraded"
            # The handshake, and the one re-ping the refusal asked for:
            # a parked shard's refusal is terminal, never retried.
            assert len(pings) == 2
            client.close()

    def test_async_client_refuses_unconnected_owner_without_writing(
        self, tmp_path, connect
    ):
        """The owner has no connection (the table says it is down): the
        frame is refused unwritten and the refusal re-pings the router."""
        router_path = tmp_path / "router.sock"
        pings, frames = [], []
        handler = _router_handler(
            f"unix:{tmp_path}/gone.sock", "down", pings, frames
        )
        with _ScriptedServer(router_path, handler, handshake=False):
            client = connect(f"unix:{router_path}", timeout=2.0)
            assert client.core.table is not None
            assert client.transport._shards == {}
            if isinstance(client.client, AsyncClient):
                frames_sent = client.client.frames_sent
                future = client.client.submit("checkpoint", session="s", pid=0)
                assert future.done()  # refused at once: never queued, never written
                assert client.client.frames_sent == frames_sent
                refused = client._run(client.client.reply(future))
                client._run(client.client._refreshing)  # the refusal's re-ping
            else:
                refused = client.raw("checkpoint", session="s", pid=0)
            assert refused["error"] == "shard_down"
            # The connect handshake, then the refresh after the refusal:
            # the frame itself went nowhere (the router saw only pings,
            # and the shard was never dialled).
            assert pings == [0, 2]
            assert frames == ["ping", "ping"]
            client.close()

    def test_a_lost_shard_connection_refreshes_the_table(self, tmp_path, connect):
        """The shard dies under a frame and the router parks it: the
        next frame is refused by the router's current word
        (``shard_degraded``), not by the table held before the loss."""
        parked = threading.Event()

        def shard(index, conn):
            recv_frame(conn, wire.FrameBuffer())
            parked.set()  # the supervisor gave up on it ...
            conn.close()  # ... and the frame in flight has an unknown fate

        shard_path = tmp_path / "shard.sock"
        router_path = tmp_path / "router.sock"
        state = lambda: "degraded" if parked.is_set() else "up"  # noqa: E731
        with _ScriptedServer(shard_path, shard), _ScriptedServer(
            router_path, _router_handler(f"unix:{shard_path}", state, []),
            handshake=False,
        ):
            client = connect(f"unix:{router_path}", retries=0)
            with pytest.raises(ConnectionError):
                client.checkpoint("s", pid=0)
            with pytest.raises(ReplyError) as err:
                client.checkpoint("s", pid=0)
            assert err.value.code == "shard_degraded"
            client.close()

    def test_unpublished_shard_is_refused_not_dialled(self, tmp_path, connect):
        """Regression: a shard the router has not published yet is
        listed with an empty address; the sync client used to dial it
        and leak ``ValueError: bad address ''`` out of ``call``."""
        router_path = tmp_path / "router.sock"
        pings = []
        handler = _router_handler("", "down", pings)
        with _ScriptedServer(router_path, handler, handshake=False):
            client = connect(f"unix:{router_path}", retries=0)
            with pytest.raises(ReplyError) as err:
                client.checkpoint("s", pid=0)
            assert err.value.code == "shard_down"
            assert "not connected" in err.value.detail
            client.close()


class TestOnlyUnwrittenFramesAreRetriedAsync(TestOnlyUnwrittenFramesAreRetried):
    """The same tests against :class:`AsyncClient`."""

    flavour = "async"


class TestOversizedRequest:
    """A request over ``wire.MAX_FRAME`` is refused before a byte is
    written: a typed error naming its size, the connection stays up,
    and the breaker does not count it."""

    def test_refused_unwritten_and_the_connection_stays_up(
        self, tmp_path, connect
    ):
        seen = []

        def handler(index, conn):
            buffer = wire.FrameBuffer()
            while (doc := recv_frame(conn, buffer)) is not None:
                seen.append(doc["kind"])
                send_frame(conn, {"ok": True, "seq": doc["seq"]})

        path = tmp_path / "big.sock"
        with _ScriptedServer(path, handler):
            client = connect(f"unix:{path}", circuit_threshold=1)
            blob = "x" * wire.MAX_FRAME
            with pytest.raises(FrameTooLarge, match=r"frame of \d+ bytes exceeds"):
                client.request("query", session=blob)
            assert client.core.failures == 0
            assert client.ping()["ok"] is True  # no CircuitOpen, no invalidation
            assert seen == ["ping"]


class TestOversizedRequestAsync(TestOversizedRequest):
    """The same tests against :class:`AsyncClient`."""

    flavour = "async"


class TestOversizedReply:
    """Regression: a reply past ``wire.MAX_FRAME`` used to be dropped
    while its frame still counted as answered, so the client waited out
    its deadline (forever with ``timeout=None``) and lost the
    connection.  The server answers the frame's ``seq`` with a typed
    ``reply_too_large`` naming the size; the connection stays up."""

    def test_answered_reply_too_large_and_the_connection_stays_up(
        self, tmp_path, connect, monkeypatch
    ):
        from repro.serve.server import ServerConfig, serve_in_thread

        config = ServerConfig(unix_path=str(tmp_path / "serve.sock"))
        with serve_in_thread(config) as handle:
            client = connect(handle.connect_address(), timeout=2.0)
            client.hello("s", n=3)
            client.checkpoint("s", pid=0)
            status = client.raw("query", session="s", what="rdt_status")
            # One byte short of the same reply to the next (one-digit) seq.
            monkeypatch.setattr(wire, "MAX_FRAME", len(wire.encode_frame(status)) - 5)
            with pytest.raises(ReplyError, match=r"frame of \d+ bytes exceeds") as err:
                client.query("s", "rdt_status")
            assert err.value.code == "reply_too_large"
            assert client.core.invalid is None
            assert client.checkpoint("s", pid=0)["index"] == 2


class TestOversizedReplyAsync(TestOversizedReply):
    """The same tests against :class:`AsyncClient`."""

    flavour = "async"


class TestResumeAcrossRestart:
    """``resume`` against a WAL-backed server restarting
    mid-conversation: the re-greet redials in place and lands on the
    recovered session."""

    def test_resume_reports_recovered_state(self, tmp_path, connect):
        from repro.serve.server import ServerConfig, serve_in_thread

        config = ServerConfig(
            unix_path=str(tmp_path / "serve.sock"),
            wal_dir=str(tmp_path / "wal"),
        )
        with serve_in_thread(config) as handle:
            client = connect(handle.connect_address())
            client.hello("s", n=3)
            client.checkpoint("s", pid=0)
            client.send("s", src=0, dst=1)
        # The server is gone; the client's socket is now dead.  A fresh
        # process takes over the same socket path and WAL directory.
        with serve_in_thread(config) as handle:
            reply = client.resume("s")
            assert reply["recovered"] is True
            assert reply["events"] == 2
            assert reply["n"] == 3
            # The resumed conversation continues where it left off.
            status = client.query("s", "rdt_status")
            assert status["events"] == 2
            client.close()


class TestResumeAcrossRestartAsync(TestResumeAcrossRestart):
    """The same tests against :class:`AsyncClient`."""

    flavour = "async"


class TestShardDeadline:
    """One deadline rule: a miss on a shard connection invalidates the
    whole client, the router's connection too, because the client cannot
    tell a slow shard from a torn frame; ``reconnect()`` makes it whole."""

    def test_a_shard_deadline_invalidates_the_client(self, tmp_path, connect):
        release = threading.Event()

        def shard(index, conn):
            if index == 0:
                recv_frame(conn, wire.FrameBuffer())
                release.wait(timeout=10.0)  # never answered in time
            else:
                _serve_ok(conn)

        shard_path = tmp_path / "shard.sock"
        router_path = tmp_path / "router.sock"
        with _ScriptedServer(shard_path, shard), _ScriptedServer(
            router_path, _router_handler(f"unix:{shard_path}", "up", []),
            handshake=False,
        ):
            client = connect(f"unix:{router_path}", timeout=0.3, retries=0)
            with pytest.raises(RequestTimeout, match="reconnect"):
                client.checkpoint("s", pid=0)
            with pytest.raises(ConnectionError, match="invalidated"):
                client.ping()  # the router's connection went with it
            release.set()
            client.reconnect(retries=3, delay=0.05)
            assert client.checkpoint("s", pid=0)["echo"] == "checkpoint"
            assert client.ping()["role"] == "router"


class TestShardDeadlineAsync(TestShardDeadline):
    """The same tests against :class:`AsyncClient`."""

    flavour = "async"


class TestClientFace:
    """The blocking face's lifecycle: its loop thread never outlives it."""

    def test_failed_connects_leave_no_thread_behind(self):
        gc.collect()  # let unclosed faces of earlier tests stop first
        before = set(threading.enumerate())
        for _ in range(50):
            with pytest.raises(ConnectionError, match="cannot connect"):
                Client("unix:/missing")
        assert set(threading.enumerate()) - before == set()

    def test_a_failed_handshake_stops_the_thread(self, tmp_path):
        path = tmp_path / "mute.sock"
        release = threading.Event()
        before = set(threading.enumerate())
        with _ScriptedServer(path, lambda i, c: release.wait(10.0), handshake=False):
            # Holding the traceback keeps the half-built face alive, so
            # only its own stop, not its collection, can end the thread.
            with pytest.raises(ConnectionError, match="no ping answer") as _failed:
                Client(f"unix:{path}", timeout=0.2)
            added = set(threading.enumerate()) - before
            release.set()
        assert not [t for t in added if t.name == "repro-client"]

    def test_calls_after_close_refuse_at_once(self, tmp_path):
        path = tmp_path / "ok.sock"
        with _ScriptedServer(path, lambda index, conn: _serve_ok(conn)):
            client = Client(f"unix:{path}", timeout=5.0)
            assert client.ping()["ok"] is True
            client.close()
            client.close()  # a second close does nothing
            started = time.monotonic()
            with pytest.raises(ConnectionError, match="closed"):
                client.ping()
            with pytest.raises(ConnectionError, match="closed"):
                client.call({"kind": "ping", "seq": 99})
            assert time.monotonic() - started < 1.0
            assert not client._thread.is_alive()


#: What a second socket transport in ``repro.serve.client`` would need.
BANNED_IMPORTS = {"socket", "time"}
BANNED_CALLS = {"sendall", "recv"}


def transport_violations(source):
    """``[(name, line), ...]`` for each banned import or call in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[0]]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            names = [f".{node.func.attr}"] if node.func.attr in BANNED_CALLS else []
        else:
            continue
        found += [
            (name, node.lineno) for name in names
            if name in BANNED_IMPORTS or name.lstrip(".") in BANNED_CALLS
        ]
    return found


class TestOneTransport:
    """``Client`` is a face over ``AsyncClient``: the client module opens
    no socket of its own, so no second transport can grow back."""

    def test_the_scan_sees_a_second_transport(self):
        source = "import socket\nfrom time import sleep\ns.sendall(b'')\ns.recv(4)\n"
        assert transport_violations(source) == [
            ("socket", 1), ("time", 2), (".sendall", 3), (".recv", 4),
        ]

    def test_the_client_module_holds_one_transport(self):
        from repro.serve import client as module

        source = Path(module.__file__).read_text(encoding="utf-8")
        assert transport_violations(source) == []


class TestAsyncClientLoopApi:
    def test_submit_emits_no_deprecation_warning(self, tmp_path):
        """Regression: submit used asyncio.get_event_loop() inside the
        running loop, which warns today and breaks on future CPython."""

        def handler(index, conn):
            _serve_ok(conn)

        path = tmp_path / "async.sock"

        async def scenario():
            client = await AsyncClient.connect(f"unix:{path}")
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                future = client.submit("query", session="s")
                await client.flush()
                reply = await future
            assert reply["ok"] is True
            client._entry.reader_task.cancel()
            client._entry.writer.close()

        with _ScriptedServer(path, handler):
            asyncio.run(scenario())


class TestAsyncClientDeadline:
    """The per-request deadline: a stalled server must never hang an
    AsyncClient await (before this, only ``connect`` was guarded)."""

    def test_stalled_server_times_out_instead_of_hanging(self, tmp_path):
        def handler(index, conn):
            # Greet, then go silent forever: read and discard frames,
            # never reply -- the proxy's "stall" fault, scripted.
            buffer = wire.FrameBuffer()
            doc = recv_frame(conn, buffer)
            if doc is not None:
                send_frame(conn, {"ok": True, "seq": doc["seq"]})
            while recv_frame(conn, buffer) is not None:
                pass

        path = tmp_path / "stall.sock"

        async def scenario():
            client = await AsyncClient.connect(f"unix:{path}", timeout=0.3)
            assert (await client.call("hello"))["ok"] is True
            started = time.monotonic()
            with pytest.raises(RequestTimeout, match="0.3"):
                await client.call("checkpoint", session="s", pid=0)
            elapsed = time.monotonic() - started
            assert elapsed < 5.0  # bounded, not a hang
            # The connection is invalidated: later submits fail fast.
            with pytest.raises(ConnectionError, match="invalidated"):
                await client.reply(client.submit("query", session="s"))
            await client.close()

        with _ScriptedServer(path, handler):
            asyncio.run(scenario())

    def test_deadline_failure_fails_other_inflight_futures(self, tmp_path):
        def handler(index, conn):
            buffer = wire.FrameBuffer()
            while recv_frame(conn, buffer) is not None:
                pass  # never answer anything

        path = tmp_path / "stall2.sock"

        async def scenario():
            client = await AsyncClient.connect(f"unix:{path}", timeout=0.2)
            first = client.submit("checkpoint", session="s", pid=0)
            second = client.submit("checkpoint", session="s", pid=1)
            await client.flush()
            with pytest.raises(RequestTimeout):
                await client.reply(first)
            # The sibling future dies with the connection instead of
            # pending forever.
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(second, timeout=2.0)
            await client.close()

        with _ScriptedServer(path, handler):
            asyncio.run(scenario())

    def test_timeout_none_disables_deadline(self, tmp_path):
        def handler(index, conn):
            _serve_ok(conn)

        path = tmp_path / "nodl.sock"

        async def scenario():
            client = await AsyncClient.connect(f"unix:{path}", timeout=None)
            assert (await client.call("query", session="s"))["ok"] is True
            await client.close()

        with _ScriptedServer(path, handler):
            asyncio.run(scenario())


class TestBackoffAndCircuit:
    def test_backoff_is_seeded_exponential_and_capped(self, tmp_path, connect):
        def handler(index, conn):
            _serve_ok(conn)

        path = tmp_path / "bk.sock"
        with _ScriptedServer(path, handler):
            a = connect(f"unix:{path}", retry_delay=0.1, backoff_cap=0.4,
                        backoff_seed=7)
            b = connect(f"unix:{path}", retry_delay=0.1, backoff_cap=0.4,
                        backoff_seed=7)
            c = connect(f"unix:{path}", retry_delay=0.1, backoff_cap=0.4,
                        backoff_seed=8)
            da = [a.core.backoff(i) for i in range(1, 7)]
            db = [b.core.backoff(i) for i in range(1, 7)]
            dc = [c.core.backoff(i) for i in range(1, 7)]
            assert da == db  # same seed -> identical jitter stream
            assert da != dc  # different seed -> fans out
            for i, delay in enumerate(da, start=1):
                base = min(0.4, 0.1 * 2 ** (i - 1))
                assert base * 0.5 <= delay < base  # jitter in [0.5x, 1x)
            a.close(); b.close(); c.close()

    def test_circuit_opens_after_consecutive_failures(self, tmp_path, connect):
        state = {"healthy": False}

        def handler(index, conn):
            if not state["healthy"]:
                conn.close()  # slam the door: a transport-level failure
                return
            _serve_ok(conn)

        path = tmp_path / "cb.sock"
        with _ScriptedServer(path, handler):
            client = connect(
                f"unix:{path}",
                retries=0,
                circuit_threshold=2,
                circuit_cooldown=0.2,
            )
            # Two consecutive transport failures trip the breaker ...
            for _ in range(2):
                with pytest.raises(ConnectionError):
                    client.request("query", session="s")
                client.reconnect(retries=3, delay=0.01)
            # ... so the third call fails fast without touching the wire.
            with pytest.raises(CircuitOpen, match="probe allowed"):
                client.request("query", session="s")
            # After the cooldown the half-open probe goes through; a
            # healthy server closes the circuit again.  (Re-dial after
            # flipping the flag: the last reconnect above was accepted
            # by the still-unhealthy server, which doomed that socket.)
            state["healthy"] = True
            time.sleep(0.25)
            client.reconnect(retries=3, delay=0.01)
            assert client.request("query", session="s")["ok"] is True
            assert client.core.failures == 0
            # Closed for real: the next call is not a probe.
            assert client.request("query", session="s")["ok"] is True
            client.close()

    def test_half_open_probe_failure_reopens(self, tmp_path, connect):
        def handler(index, conn):
            conn.close()

        path = tmp_path / "cb2.sock"
        with _ScriptedServer(path, handler):
            client = connect(
                f"unix:{path}",
                retries=0,
                circuit_threshold=1,
                circuit_cooldown=0.1,
            )
            with pytest.raises(ConnectionError):
                client.request("query", session="s")
            with pytest.raises(CircuitOpen):
                client.request("query", session="s")
            time.sleep(0.15)
            client.reconnect(retries=3, delay=0.01)
            # The probe itself fails -> straight back to open.
            with pytest.raises(ConnectionError):
                client.request("query", session="s")
            with pytest.raises(CircuitOpen):
                client.request("query", session="s")

    def test_breaker_disabled_by_default(self, tmp_path, connect):
        def handler(index, conn):
            conn.close()

        path = tmp_path / "cb3.sock"
        with _ScriptedServer(path, handler):
            client = connect(f"unix:{path}", retries=0)
            for _ in range(5):
                with pytest.raises(ConnectionError):
                    client.request("query", session="s")
                client.reconnect(retries=3, delay=0.01)
            # Still ConnectionError, never CircuitOpen.


class TestBackoffAndCircuitAsync(TestBackoffAndCircuit):
    """The same tests against :class:`AsyncClient`."""

    flavour = "async"


class TestBrokenFraming:
    def test_truncated_frame_invalidates_and_normalises(self, tmp_path):
        def handler(index, conn):
            buffer = wire.FrameBuffer()
            doc = recv_frame(conn, buffer)
            if doc is None:
                return
            # Half a reply, then FIN: truncate-on-close.
            conn.sendall(b"\x00\x00\x00\x40" + b'{"ok": true, "seq"')
            conn.close()

        path = tmp_path / "trunc.sock"
        with _ScriptedServer(path, handler):
            client = Client(f"unix:{path}", retries=0)
            with pytest.raises(ConnectionError, match="framing"):
                client.request("query", session="s")
            # Invalidated: no mis-parse from mid-frame on a dead conn.
            with pytest.raises(ConnectionError, match="invalidated"):
                client.request("query", session="s")

    def test_async_garbage_after_good_reply_keeps_the_ack(self, tmp_path):
        """Regression: a good reply and a garbage frame in one chunk used
        to fail *both* futures, and with raw ``wire.FrameError`` -- which
        is not in the retry-after-reconnect family drivers catch."""

        def handler(index, conn):
            buffer = wire.FrameBuffer()
            first = recv_frame(conn, buffer)
            recv_frame(conn, buffer)
            conn.sendall(
                wire.encode_frame({"ok": True, "seq": first["seq"]})
                + b"\x00\x00\x00\x05not-j"
            )
            while recv_frame(conn, buffer) is not None:
                pass

        path = tmp_path / "garbage.sock"

        async def scenario():
            client = await AsyncClient.connect(f"unix:{path}", timeout=2.0)
            acked = client.submit("checkpoint", session="s", pid=0)
            lost = client.submit("checkpoint", session="s", pid=1)
            assert (await client.reply(acked))["ok"] is True
            with pytest.raises(ConnectionError, match="broken framing"):
                await client.reply(lost)
            await client.close()

        with _ScriptedServer(path, handler):
            asyncio.run(scenario())

    def test_async_truncated_frame_normalises(self, tmp_path):
        def handler(index, conn):
            buffer = wire.FrameBuffer()
            if recv_frame(conn, buffer) is None:
                return
            conn.sendall(b"\x00\x00\x00\x40" + b'{"ok": true, "seq"')
            conn.close()

        path = tmp_path / "atrunc.sock"

        async def scenario():
            client = await AsyncClient.connect(f"unix:{path}", timeout=2.0)
            with pytest.raises(ConnectionError, match="broken framing"):
                await client.call("query", session="s")
            await client.close()

        with _ScriptedServer(path, handler):
            asyncio.run(scenario())


def _record_writes(client):
    """Log every chunk the client hands its transport, still sending it."""
    chunks = []
    writer = client._entry.writer
    send = writer.write

    def write(data):
        chunks.append(bytes(data))
        send(data)

    writer.write = write
    return chunks


def _seqs(chunk):
    return [doc["seq"] for doc in wire.FrameBuffer().feed(chunk)]


def _live_timers(loop):
    return [handle for handle in loop._scheduled if not handle.cancelled()]


class TestAsyncClientCoalescing:
    """The write discipline: idle => immediate, busy => one write per
    loop turn, any wait => flush first.  And the O(1) deadline."""

    def test_burst_on_busy_connection_is_one_write_in_submit_order(self, tmp_path):
        seen = []

        def handler(index, conn):
            buffer = wire.FrameBuffer()
            while True:
                doc = recv_frame(conn, buffer)
                if doc is None:
                    return
                seen.append(doc["seq"])
                send_frame(conn, {"ok": True, "seq": doc["seq"]})

        path = tmp_path / "burst.sock"

        async def scenario():
            client = await AsyncClient.connect(f"unix:{path}", timeout=2.0)
            chunks = _record_writes(client)
            futures = [
                client.submit("checkpoint", session="s", pid=i) for i in range(40)
            ]
            # Idle rule: the first frame left inside submit(), before
            # any await; the other 39 wait for the turn to end.
            assert [_seqs(c) for c in chunks] == [[1]]
            assert (client.frames_sent, client.writes) == (1, 1)
            replies = [await client.reply(f) for f in futures]
            assert [r["seq"] for r in replies] == list(range(1, 41))
            assert [_seqs(c) for c in chunks] == [[1], list(range(2, 41))]
            assert (client.frames_sent, client.writes) == (40, 2)
            await client.close()

        with _ScriptedServer(path, handler):
            asyncio.run(scenario())
        assert seen[:40] == list(range(1, 41))

    def test_plain_await_gets_its_frame_out_on_the_next_turn(self, tmp_path):
        def handler(index, conn):
            _serve_ok(conn)

        path = tmp_path / "turn.sock"

        async def scenario():
            client = await AsyncClient.connect(f"unix:{path}", timeout=2.0)
            chunks = _record_writes(client)
            client.submit("checkpoint", session="s", pid=0)
            queued = client.submit("checkpoint", session="s", pid=1)
            assert len(chunks) == 1  # busy: the second frame is queued
            # No reply()/flush()/call(): the loop turn alone sends it.
            assert (await asyncio.wait_for(queued, timeout=2.0))["seq"] == 2
            assert [_seqs(c) for c in chunks] == [[1], [2]]
            await client.close()

        with _ScriptedServer(path, handler):
            asyncio.run(scenario())

    def test_reply_on_done_future_neither_yields_nor_arms_a_timer(self, tmp_path):
        def handler(index, conn):
            buffer = wire.FrameBuffer()
            while True:
                doc = recv_frame(conn, buffer)
                if doc is None:
                    return
                send_frame(
                    conn, wire.error_reply(doc["seq"], "overloaded", "queue full")
                )

        path = tmp_path / "done.sock"

        def step(coro):
            """Run ``coro`` without a loop turn; it must finish at once."""
            try:
                coro.send(None)
            except StopIteration as stop:
                return stop.value
            raise AssertionError("reply() yielded on a done future")

        async def scenario():
            loop = asyncio.get_running_loop()
            client = await AsyncClient.connect(f"unix:{path}", timeout=2.0)
            refused = client.submit("checkpoint", session="s", pid=0)
            await asyncio.wait_for(refused, timeout=2.0)
            before = _live_timers(loop)
            # An ok=false reply comes back raw, not raised.
            assert step(client.reply(refused))["error"] == "overloaded"
            broken = loop.create_future()
            broken.set_exception(KeyError("stored"))
            with pytest.raises(KeyError, match="stored"):
                step(client.reply(broken))
            assert _live_timers(loop) == before
            await client.close()

        with _ScriptedServer(path, handler):
            asyncio.run(scenario())

    def test_blackholed_server_deadline(self, tmp_path):
        release = threading.Event()

        def handler(index, conn):
            buffer = wire.FrameBuffer()
            doc = recv_frame(conn, buffer)
            release.wait(timeout=10.0)
            # Out of budget: the client must ignore this.
            send_frame(conn, {"ok": True, "seq": doc["seq"]})

        path = tmp_path / "hole.sock"

        async def scenario():
            loop = asyncio.get_running_loop()
            client = await AsyncClient.connect(f"unix:{path}", timeout=0.2)
            first = client.submit("checkpoint", session="s", pid=0)
            sibling = client.submit("checkpoint", session="s", pid=1)
            started = time.monotonic()
            with pytest.raises(RequestTimeout, match="0.2"):
                await client.reply(first)
            assert time.monotonic() - started < 2.0
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(sibling, timeout=2.0)
            late = client.submit("query", session="s")
            assert late.done()  # failed fast, never queued or written
            with pytest.raises(ConnectionError, match="invalidated"):
                late.result()
            assert client.frames_sent == 2
            release.set()
            await asyncio.sleep(0.1)  # the late reply arrives -- nowhere
            assert isinstance(first.exception(), RequestTimeout)
            assert _live_timers(loop) == []
            await client.close()

        with _ScriptedServer(path, handler):
            asyncio.run(scenario())

    def test_timeout_none_waits_without_a_timer(self, tmp_path):
        def handler(index, conn):
            buffer = wire.FrameBuffer()
            doc = recv_frame(conn, buffer)
            time.sleep(0.1)
            send_frame(conn, {"ok": True, "seq": doc["seq"]})
            _serve_ok(conn)

        path = tmp_path / "nodl2.sock"

        async def scenario():
            loop = asyncio.get_running_loop()
            client = await AsyncClient.connect(f"unix:{path}", timeout=None)
            future = client.submit("query", session="s")
            waiter = asyncio.ensure_future(client.reply(future))
            await asyncio.sleep(0)  # reply() is now parked on the future
            assert not waiter.done()
            assert _live_timers(loop) == []
            assert (await waiter)["ok"] is True
            await client.close()

        with _ScriptedServer(path, handler):
            asyncio.run(scenario())

    def test_pipelined_run_batches_and_leaves_no_timers(self, tmp_path):
        def handler(index, conn):
            _serve_ok(conn)

        path = tmp_path / "pipe.sock"

        async def scenario():
            loop = asyncio.get_running_loop()
            client = await AsyncClient.connect(f"unix:{path}", timeout=5.0)
            inflight = []
            acked = 0
            for i in range(1000):
                while len(inflight) >= 64:
                    acked += (await client.reply(inflight.pop(0)))["ok"]
                inflight.append(client.submit("checkpoint", session="s", pid=i))
                if i % 64 == 63:
                    await client.flush()
            while inflight:
                acked += (await client.reply(inflight.pop(0)))["ok"]
            assert acked == 1000
            assert client.frames_sent == 1000
            assert client.writes < 500  # bursts, not one syscall per frame
            assert _live_timers(loop) == []
            await client.close()

        with _ScriptedServer(path, handler):
            asyncio.run(scenario())

    def test_flush_deadline_when_peer_stops_reading(self, tmp_path):
        gate = threading.Event()

        def handler(index, conn):
            gate.wait(timeout=10.0)  # accept, then never read a byte

        path = tmp_path / "full.sock"

        async def scenario():
            client = await AsyncClient.connect(f"unix:{path}", timeout=0.3)
            blob = "x" * 500_000
            futures = [client.submit("query", session=blob) for _ in range(8)]
            started = time.monotonic()
            with pytest.raises(RequestTimeout, match="drain"):
                await client.flush()
            assert time.monotonic() - started < 2.0
            for future in futures:
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(future, timeout=2.0)
            with pytest.raises(ConnectionError, match="invalidated"):
                client.submit("query", session="s").result()
            await client.close()

        with _ScriptedServer(path, handler):
            try:
                asyncio.run(scenario())
            finally:
                gate.set()
