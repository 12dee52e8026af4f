"""The wire codec: length-prefixed canonical-JSON frames, sans-IO."""

import json
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import wire


class TestEncodeDecode:
    def test_roundtrip(self):
        doc = {"kind": "hello", "seq": 1, "session": "s", "n": 3}
        assert wire.decode_frame(wire.encode_frame(doc)[4:]) == doc

    def test_canonical_bytes(self):
        # Key order must not leak into the encoding.
        a = wire.encode_frame({"b": 1, "a": 2})
        b = wire.encode_frame({"a": 2, "b": 1})
        assert a == b
        assert b"\n" not in a and b" " not in a

    def test_length_prefix_is_big_endian(self):
        frame = wire.encode_frame({"x": 1})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4

    def test_oversized_frame_refused_on_encode(self):
        with pytest.raises(wire.FrameError, match="exceeds"):
            wire.encode_frame({"blob": "x" * (wire.MAX_FRAME + 1)})

    def test_non_object_payload_refused(self):
        with pytest.raises(wire.FrameError, match="object"):
            wire.decode_frame(json.dumps([1, 2, 3]).encode())

    def test_garbage_payload_refused(self):
        with pytest.raises(wire.FrameError, match="undecodable"):
            wire.decode_frame(b"\xff\xfe not json")


class TestFrameBuffer:
    def test_byte_by_byte_feed(self):
        doc = {"kind": "send", "seq": 9, "session": "s", "src": 0, "dst": 1}
        frame = wire.encode_frame(doc)
        buffer = wire.FrameBuffer()
        for i, byte in enumerate(frame):
            out = buffer.feed(bytes([byte]))
            if i < len(frame) - 1:
                assert out == []
                assert buffer.pending() == i + 1
            else:
                assert out == [doc]
        assert buffer.pending() == 0
        assert buffer.next_doc() == doc
        assert buffer.next_doc() is None

    def test_many_frames_one_chunk(self):
        docs = [{"seq": i, "kind": "checkpoint"} for i in range(100)]
        chunk = b"".join(wire.encode_frame(d) for d in docs)
        buffer = wire.FrameBuffer()
        assert buffer.feed(chunk) == docs
        assert [buffer.next_doc() for _ in docs] == docs
        assert buffer.pending() == 0

    def test_split_across_chunks(self):
        docs = [{"seq": i, "payload": "y" * 50} for i in range(10)]
        stream = b"".join(wire.encode_frame(d) for d in docs)
        buffer = wire.FrameBuffer()
        got = []
        third = len(stream) // 3
        for part in (stream[:third], stream[third : 2 * third], stream[2 * third :]):
            got.extend(buffer.feed(part))
        assert got == docs

    def test_hostile_length_prefix_refused(self):
        buffer = wire.FrameBuffer()
        with pytest.raises(wire.FrameError, match="exceeds"):
            buffer.feed(struct.pack(">I", wire.MAX_FRAME + 1) + b"x")

    def test_pending_counts_partial_frame(self):
        frame = wire.encode_frame({"seq": 1})
        buffer = wire.FrameBuffer()
        buffer.feed(frame[:7])
        assert buffer.pending() == 7

    def test_completed_docs_survive_bad_frame_in_same_chunk(self):
        """Regression: good frames preceding a FrameError must reach
        next_doc().  A pipelined peer's acks used to vanish when an
        oversized frame followed them in the same read."""
        good = [{"seq": 1, "ok": True}, {"seq": 2, "ok": True}]
        chunk = b"".join(wire.encode_frame(d) for d in good)
        chunk += struct.pack(">I", wire.MAX_FRAME + 1) + b"x"
        buffer = wire.FrameBuffer()
        with pytest.raises(wire.FrameError, match="exceeds"):
            buffer.feed(chunk)
        assert buffer.next_doc() == good[0]
        assert buffer.next_doc() == good[1]
        assert buffer.next_doc() is None

    def test_completed_docs_survive_undecodable_frame(self):
        good = {"seq": 7, "ok": True}
        bad = struct.pack(">I", 3) + b"\xff\xfe\xfd"
        buffer = wire.FrameBuffer()
        with pytest.raises(wire.FrameError, match="undecodable"):
            buffer.feed(wire.encode_frame(good) + bad)
        assert buffer.next_doc() == good


class TestRawFrameBuffer:
    """The splitter under FrameBuffer: boundaries without decoding."""

    def test_payloads_are_verbatim_bytes(self):
        docs = [{"seq": i, "kind": "checkpoint"} for i in range(5)]
        frames = [wire.encode_frame(d) for d in docs]
        buffer = wire.RawFrameBuffer()
        buffer.feed(b"".join(frames))
        for frame in frames:
            assert buffer.next_payload() == frame[4:]
        assert buffer.next_payload() is None
        assert buffer.pending() == 0

    def test_split_across_chunks(self):
        frame = wire.encode_frame({"seq": 1, "blob": "z" * 100})
        buffer = wire.RawFrameBuffer()
        buffer.feed(frame[:30])
        assert buffer.next_payload() is None
        assert buffer.pending() == 30
        buffer.feed(frame[30:])
        assert buffer.next_payload() == frame[4:]

    def test_hostile_length_prefix_refused(self):
        buffer = wire.RawFrameBuffer()
        buffer.feed(struct.pack(">I", wire.MAX_FRAME + 1) + b"x")
        with pytest.raises(wire.FrameError, match="exceeds"):
            buffer.next_payload()


class TestErrorReply:
    def test_shape(self):
        reply = wire.error_reply(42, "overloaded", "queue full")
        assert reply == {
            "ok": False, "seq": 42, "error": "overloaded", "detail": "queue full",
        }


@pytest.mark.tier2
class TestAdversarialFragmentation:
    """Chaos-proxy-style re-chunking must never change what decodes.

    The chaos proxy (:mod:`repro.serve.chaosproxy`) re-chunks the byte
    stream into 1-byte writes and tiny random shreds, so every split
    point -- including inside the 4-byte length prefix -- occurs in
    practice.  These properties pin the sans-IO reassembly: any
    partition of the byte stream decodes to exactly the documents a
    whole-stream feed decodes, in order, byte-identically re-encoded.
    """

    docs_strategy = st.lists(
        st.dictionaries(
            st.sampled_from(["kind", "seq", "session", "payload", "x"]),
            st.one_of(
                st.integers(min_value=-(2**31), max_value=2**31),
                st.text(max_size=12),
                st.booleans(),
                st.none(),
            ),
            max_size=5,
        ),
        min_size=1,
        max_size=8,
    )

    @given(docs=docs_strategy, seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_random_split_points_decode_identically(self, docs, seed):
        stream = b"".join(wire.encode_frame(d) for d in docs)
        whole = wire.FrameBuffer()
        expected = whole.feed(stream)
        assert expected == docs

        rng = random.Random(seed)
        shredded = wire.FrameBuffer()
        got = []
        i = 0
        while i < len(stream):
            take = rng.randint(1, 7)
            got.extend(shredded.feed(stream[i : i + take]))
            i += take
        assert got == expected
        assert shredded.pending() == 0
        # Byte-identical, not just equal: canonical JSON means equal
        # documents re-encode to equal bytes.
        assert [wire.encode_frame(d) for d in got] == [
            wire.encode_frame(d) for d in expected
        ]

    @given(docs=docs_strategy)
    @settings(max_examples=30, deadline=None)
    def test_one_byte_feeds_across_length_prefix(self, docs):
        stream = b"".join(wire.encode_frame(d) for d in docs)
        buffer = wire.FrameBuffer()
        got = []
        for i in range(len(stream)):
            got.extend(buffer.feed(stream[i : i + 1]))
        assert got == docs
        assert buffer.pending() == 0

    @given(docs=docs_strategy, seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_raw_buffer_agrees_with_decoding_buffer(self, docs, seed):
        stream = b"".join(wire.encode_frame(d) for d in docs)
        rng = random.Random(seed)
        raw = wire.RawFrameBuffer()
        payloads = []
        i = 0
        while i < len(stream):
            take = rng.randint(1, 5)
            raw.feed(stream[i : i + take])
            while True:
                payload = raw.next_payload()
                if payload is None:
                    break
                payloads.append(payload)
            i += take
        assert [wire.decode_frame(p) for p in payloads] == docs
        assert stream == b"".join(
            struct.pack(">I", len(p)) + p for p in payloads
        )
