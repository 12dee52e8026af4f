"""Ingest replies carry the decision, not the vectors; a piggyback lives
only while its message is in transit.

The session plays both ends of every message: ``send`` mints the
piggyback, ``deliver`` consumes it in the forcing predicate.  So the
reply to an ingest op is the decision and the indices at every ``n``
and under every registry protocol, and the session holds exactly the
piggybacks of the messages still in transit.  Neither changes what the
session computes: the manager state and the offline answers of a fixed
log are pinned to their values from before the replies lost the vectors.
"""

import hashlib
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.registry import PROTOCOLS
from repro.obs.jsonio import canonical_bytes, canonical_dumps
from repro.serve import wire
from repro.serve.session import ServeSession, SessionError, offline_answers
from repro.serve.snapshots import state_digest
from tests.test_online_vector_queries import fixed_log_session
from tests.test_property_hypothesis import op_strategy

ALL_PROTOCOLS = sorted(PROTOCOLS)

#: The reply keys of each ingest op (the server adds ``seq``, and
#: ``wal_seq`` when a WAL is on).
REPLY_KEYS = {
    "checkpoint": {"ok", "index", "force_checkpoint"},
    "send": {"ok", "msg_id", "force_checkpoint", "forced_index"},
    "deliver": {"ok", "msg_id", "force_checkpoint", "forced_index"},
}


def feed(session, steps, seed):
    """``steps`` seeded random ops; yields each (op, reply)."""
    rng = random.Random(seed)
    n = session.n
    in_flight = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.45:
            src = rng.randrange(n)
            doc = {"kind": "send", "src": src, "dst": (src + 1 + rng.randrange(n - 1)) % n}
        elif roll < 0.85 and in_flight:
            doc = {"kind": "deliver", "msg_id": in_flight.pop(rng.randrange(len(in_flight)))}
        else:
            doc = {"kind": "checkpoint", "pid": rng.randrange(n)}
        reply = session.apply(doc)
        if doc["kind"] == "send":
            in_flight.append(reply["msg_id"])
        yield doc, reply


@pytest.mark.parametrize("n", [4, 64])
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_every_ingest_reply_is_the_decision_and_the_indices(protocol, n):
    """Same key set at n=4 and n=64, and a frame of at most 128 bytes
    with the largest ``seq`` / ``wal_seq`` a long session reaches: a
    vector creeping back into a reply grows with ``n`` and fails here."""
    session = ServeSession("t", n, protocol)
    forced = 0
    for doc, reply in feed(session, steps=300, seed=n):
        assert set(reply) == REPLY_KEYS[doc["kind"]], (doc, reply)
        forced += reply["force_checkpoint"]
        framed = {**reply, "seq": 2**31, "wal_seq": 2**40}
        assert len(wire.encode_frame(framed)) <= 128, framed
    assert forced == session.forced_total


@given(
    st.sampled_from(ALL_PROTOCOLS),
    st.integers(2, 5),
    st.lists(op_strategy, max_size=60),
)
@settings(max_examples=80, deadline=None)
def test_piggybacks_live_only_while_in_transit(protocol, n, ops):
    session = ServeSession("t", n, protocol)
    in_flight, delivered = [], []
    for code, a, b in ops:
        pid = a % n
        if code == 0:
            dst = (pid + 1 + b % (n - 1)) % n
            reply = session.apply({"kind": "send", "src": pid, "dst": dst})
            in_flight.append(reply["msg_id"])
        elif code == 1 and in_flight:
            msg_id = in_flight.pop(b % len(in_flight))
            session.apply({"kind": "deliver", "msg_id": msg_id})
            delivered.append(msg_id)
        elif code == 2:
            session.apply({"kind": "checkpoint", "pid": pid})
        else:
            continue
        assert set(session._piggybacks) == set(in_flight)
        # The session reads messages from the manager's records, so the
        # two views of what is in transit must agree.
        assert set(session.manager._in_transit) == set(session._piggybacks)
        if delivered:
            events = len(session.ingest_log)
            with pytest.raises(SessionError, match="delivered twice"):
                session.apply({"kind": "deliver", "msg_id": delivered[b % len(delivered)]})
            assert len(session.ingest_log) == events
    assert session.query("metrics")["delivers"] == len(delivered)
    live = {
        "rdt_status": session.query("rdt_status"),
        "z_cycles": session.query("z_cycles"),
        "recovery_line": session.query("recovery_line"),
    }
    offline = offline_answers("t", n, protocol, session.ingest_log)
    assert canonical_dumps(offline) == canonical_dumps(live)


#: Per protocol, the first 16 hex digits of ``state_digest`` and of the
#: canonical ``offline_answers`` of ``fixed_log_session`` (n=4, 400 ops),
#: computed at the commit whose replies still carried the vectors.  The
#: state digests were re-recorded at snapshot version 4: each equals that
#: commit's document with the sender logs' never-read stability mark
#: dropped; the answer digests are unchanged.
PINNED = {
    "bhmr": ("005794d597eeff2e", "37def1e6397c903e"),
    "bhmr-nosimple": ("7144333938bfaa22", "57ae0e1b937274bb"),
    "bhmr-causalonly": ("1e4021093b30344b", "4dad1e726a57d2d4"),
    "fdas": ("1e4021093b30344b", "01e108e5afff9a18"),
    "fdi": ("a088cb2d1a90f80b", "bc26f931fa6f2c41"),
    "nras": ("90b462c2b12b24cd", "fbf4e130a281eeba"),
    "cbr": ("4f5dba83fb30f09f", "a7cd742b24675b0b"),
    "cas": ("57ee168a7e3d163a", "dc9125ce57b7a550"),
    "bcs": ("33efa5cd7220c27e", "b20bf2a91d397a72"),
    "bcs-lazy": ("cf5b692d8325dd2e", "8a51d26354821ce8"),
    "independent": ("c9b33f5e5e832e3d", "12c066b0658d3742"),
}


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_state_and_answers_are_those_of_the_parent_commit(protocol):
    assert set(PINNED) == set(PROTOCOLS)
    session = fixed_log_session(protocol)
    answers = offline_answers("pin", 4, protocol, session.ingest_log)
    assert (
        state_digest(session)[:16],
        hashlib.sha256(canonical_bytes(answers)).hexdigest()[:16],
    ) == PINNED[protocol]
