"""The router's admin endpoint reads frames the way the server does.

One ``wire.FrameBuffer`` per connection fed by chunked reads: pipelined
frames that arrive in one chunk are all answered, a frame split across
writes is reassembled, and a bad length prefix ends only the connection
that sent it.  No shard process is spawned: the endpoint is served on
an ephemeral port straight from an unstarted :class:`Router`, whose
``ping`` answer needs no shard.
"""

import asyncio
import struct

from repro.serve import wire
from repro.serve.router import Router, RouterConfig
from repro.serve.server import open_listener


def _ping(seq):
    return wire.encode_frame({"kind": "ping", "seq": seq})


async def _replies(reader, count):
    buffer, docs = wire.FrameBuffer(), []
    while len(docs) < count:
        data = await asyncio.wait_for(reader.read(65536), timeout=5.0)
        assert data, "connection closed before every reply arrived"
        docs += buffer.feed(data)
    return docs


def _run(tmp_path, scenario):
    async def main():
        router = Router(RouterConfig(data_dir=str(tmp_path / "data")))
        server, address = await open_listener(
            router._serve_conn, None, "127.0.0.1", 0
        )
        try:
            return await scenario(address[1], address[2])
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def test_two_pipelined_frames_in_one_write_are_both_answered(tmp_path):
    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(_ping(1) + _ping(2))
        docs = await _replies(reader, 2)
        writer.close()
        return docs

    docs = _run(tmp_path, scenario)
    assert [(d["seq"], d["role"]) for d in docs] == [(1, "router"), (2, "router")]


def test_a_frame_split_across_writes_is_answered(tmp_path):
    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        frame = _ping(7)
        for piece in (frame[:2], frame[2:9], frame[9:]):
            writer.write(piece)
            await writer.drain()
            await asyncio.sleep(0.02)
        docs = await _replies(reader, 1)
        writer.close()
        return docs

    docs = _run(tmp_path, scenario)
    assert docs[0]["seq"] == 7 and docs[0]["pong"] is True


def test_a_garbage_length_prefix_closes_only_its_own_connection(tmp_path):
    async def scenario(host, port):
        good_r, good_w = await asyncio.open_connection(host, port)
        bad_r, bad_w = await asyncio.open_connection(host, port)
        good_w.write(_ping(1))
        first = await _replies(good_r, 1)
        bad_w.write(struct.pack(">I", wire.MAX_FRAME + 1) + b"junk")
        eof = await asyncio.wait_for(bad_r.read(65536), timeout=5.0)
        good_w.write(_ping(2))
        second = await _replies(good_r, 1)
        good_w.close()
        bad_w.close()
        return first, eof, second

    first, eof, second = _run(tmp_path, scenario)
    assert eof == b""  # the bad peer is hung up on, unanswered
    assert first[0]["seq"] == 1 and second[0]["seq"] == 2
