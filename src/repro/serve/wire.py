"""The wire protocol: length-prefixed canonical-JSON frames.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 canonical JSON (:mod:`repro.obs.jsonio` --
sorted keys, no whitespace), so equal documents encode to equal bytes
in both directions and a recorded conversation is diffable.

Requests are objects with at least ``kind`` (one of :data:`KINDS`) and
a client-chosen ``seq`` echoed verbatim in the reply, which is what
makes pipelining safe: a client may write any number of frames before
reading, and match replies to requests by ``seq``.  Ingest replies
(``checkpoint``/``send``/``deliver``) carry the protocol's online
decision -- ``force_checkpoint: bool`` plus the indices -- and not its
vectors: the server plays both ends of every message, so the piggyback
never needs to cross the wire, and a client can run BHMR/FDAS as a
sidecar without holding any protocol state of its own.  A reply that
would encode past :data:`MAX_FRAME` is answered ``reply_too_large``
(:func:`encode_reply`), never dropped.

The codec is sans-IO (:class:`RawFrameBuffer` splits byte chunks into
frames, :class:`FrameBuffer` decodes them); clients, servers and the
router all read through a :class:`FrameBuffer` fed by chunked reads, so
none can drift from the others.
"""

from __future__ import annotations

import json
import struct
from collections import deque
from typing import Dict, List, Optional

from repro.obs.jsonio import canonical_bytes

#: Request kinds understood by the server.
KINDS = (
    "hello",
    "checkpoint",
    "send",
    "deliver",
    "query",
    "snapshot",
    "ping",
    "bye",
    "layout",
)

#: The kinds that name a ``session`` and go to the shard that owns it;
#: the rest are answered by whichever peer receives them.
SESSION_KINDS = frozenset(KINDS) - {"ping", "bye", "layout"}

#: Hard ceiling on one frame's payload size (1 MiB): a malformed or
#: hostile length prefix must not make the server allocate unbounded
#: memory.
MAX_FRAME = 1 << 20

_LEN = struct.Struct(">I")


class FrameError(Exception):
    """A frame violated the wire protocol (length, encoding or JSON)."""


def encode_frame(doc: object) -> bytes:
    """One document as its unique on-the-wire byte string."""
    payload = canonical_bytes(doc)
    if len(payload) > MAX_FRAME:
        raise FrameError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME}")
    return _LEN.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> Dict[str, object]:
    """Decode one frame payload (the bytes *after* the length prefix)."""
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from None
    if not isinstance(doc, dict):
        raise FrameError(f"frame payload must be an object, got {type(doc).__name__}")
    return doc


class RawFrameBuffer:
    """Sans-IO frame *splitting* without decoding: feed chunks, pop payloads.

    The one reassembly loop of the wire.  It owns no socket and never
    blocks, which lets one implementation serve asyncio readers,
    blocking sockets and tests alike; callers that need boundaries but
    not documents use it directly.
    """

    __slots__ = ("_buf", "_pos")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pos = 0  # consumed prefix of _buf (compacted per feed)

    def feed(self, data: bytes) -> None:
        # Compact once per chunk, not once per frame: a 64 KiB chunk of
        # small frames would otherwise memmove the tail per frame.
        if self._pos:
            del self._buf[: self._pos]
            self._pos = 0
        self._buf.extend(data)

    def next_payload(self) -> Optional[bytes]:
        """The next complete frame's payload bytes (the bytes after the
        length prefix, exactly as they arrived), or None."""
        buf, pos = self._buf, self._pos
        if len(buf) - pos < _LEN.size:
            return None
        (length,) = _LEN.unpack_from(buf, pos)
        if length > MAX_FRAME:
            raise FrameError(f"frame length {length} exceeds {MAX_FRAME}")
        start = pos + _LEN.size
        if len(buf) - start < length:
            return None
        payload = bytes(buf[start : start + length])
        self._pos = start + length
        return payload

    def pending(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buf) - self._pos


class FrameBuffer:
    """Sans-IO frame reassembly: feed byte chunks, pop documents.

    A :class:`RawFrameBuffer` plus :func:`decode_frame`.  Completed
    documents queue inside the buffer (pipelined peers may complete
    several per chunk); :meth:`next_doc` hands them out in arrival order.
    """

    def __init__(self) -> None:
        self._raw = RawFrameBuffer()
        self._docs: deque = deque()

    def feed(self, data: bytes) -> List[Dict[str, object]]:
        """Absorb ``data``; return every frame it completed, in order.

        The returned documents are *also* queued for :meth:`next_doc`;
        use one style or the other, not both.  When a later frame in the
        chunk raises :class:`FrameError`, every document completed
        *before* it is still queued for :meth:`next_doc` -- a pipelined
        peer's good replies must not vanish because a bad frame followed
        them in the same read.
        """
        self._raw.feed(data)
        out: List[Dict[str, object]] = []
        try:
            while True:
                payload = self._raw.next_payload()
                if payload is None:
                    return out
                out.append(decode_frame(payload))
        finally:
            # On both paths -- clean return and FrameError -- the frames
            # already completed reach the _docs queue exactly once.
            self._docs.extend(out)

    def next_doc(self) -> Optional[Dict[str, object]]:
        """The oldest queued document, or None if none is complete."""
        return self._docs.popleft() if self._docs else None

    def pending(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return self._raw.pending()


def error_reply(seq: object, code: str, detail: str) -> Dict[str, object]:
    """The uniform failure reply."""
    return {"ok": False, "seq": seq, "error": code, "detail": detail}


def encode_reply(reply: Dict[str, object]) -> bytes:
    """``reply`` as a frame; past :data:`MAX_FRAME` it becomes a
    ``reply_too_large`` error naming the size, so its ``seq`` is still
    answered.  Raises :class:`FrameError` only when not even that error
    fits (a ``seq`` near the limit)."""
    try:
        return encode_frame(reply)
    except FrameError as exc:
        return encode_frame(error_reply(reply.get("seq"), "reply_too_large", str(exc)))
