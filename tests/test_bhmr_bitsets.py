"""The bitset BHMR family against its tuple-of-bools oracle.

:mod:`repro.core.bhmr` holds Figure 6's ``causal`` matrix as one int per
row and ``simple`` as one int; :mod:`tests.oracles.bhmr` is the same
protocol with nested lists of bools.  Both families are driven through
the same contract steps on hypothesis-drawn feeds, and after every event
each decision, every ``TDV``, the decoded matrix and vector, the forcing
attribution and the piggyback's ``repr`` (the ``proto.predicate`` trace
text) must be equal.  ``n = 70`` puts the rows across a 64-bit word.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import ProtocolFamily, protocol_class
from tests.oracles.bhmr import ORACLES, decode_matrix, decode_vector

PROTOCOLS = sorted(ORACLES)
SIZES = [1, 2, 5, 16, 70]


class NullSink:
    """A contract-step sink that records nothing."""

    def record_checkpoint(self, pid, time, kind):
        pass

    def record_send(self, pid, dst, msg, time):
        pass

    def record_deliver(self, pid, sender, msg, time):
        pass


def _pid(n):
    # Mostly the edges of the range (the low bits and, at n = 70, the
    # bits past the first word), so relays meet often.
    edges = sorted({0, 1, n - 2, n - 1} & set(range(n)))
    return st.one_of(st.sampled_from(edges), st.integers(0, n - 1))


def _feeds(n):
    # Sends and deliveries are listed twice to make traffic dense.
    op = st.one_of(
        st.tuples(st.just("c"), _pid(n), st.just(0)),
        st.tuples(st.just("s"), _pid(n), _pid(n)),
        st.tuples(st.just("s"), _pid(n), _pid(n)),
        st.tuples(st.just("d"), st.integers(0, 7), st.just(0)),
        st.tuples(st.just("d"), st.integers(0, 7), st.just(0)),
    )
    return st.lists(op, max_size=60)


def _assert_same(bits, oracle, n, pids):
    for pid in pids:
        new, old = bits[pid], oracle[pid]
        assert new.tdv == old.tdv, pid
        assert decode_matrix(new.causal, n) == tuple(map(tuple, old.causal)), pid
        assert decode_vector(new.simple, n) == tuple(old.simple), pid
        assert (new.forced_count, new.c1_fires, new.c2_fires) == (
            old.forced_count,
            old.c1_fires,
            old.c2_fires,
        ), pid
        assert new.piggyback_bits_sent == old.piggyback_bits_sent, pid


def _run(name, n, feed):
    bits = ProtocolFamily(protocol_class(name), n)
    oracle = ProtocolFamily(ORACLES[name], n)
    sink = NullSink()
    in_transit = []  # (msg, src, dst, bitset piggyback, oracle piggyback)
    for step, (op, a, b) in enumerate(feed):
        touched = a
        if op == "c":
            assert bits.checkpoint(a, step, sink) == oracle.checkpoint(a, step, sink)
        elif op == "s" and n > 1:
            dst = b if b != a else (a + 1) % n
            pb = bits.send(a, dst, step, step, sink)
            pb_old = oracle.send(a, dst, step, step, sink)
            assert repr(pb) == repr(pb_old)
            assert pb.size_bits() == pb_old.size_bits()
            in_transit.append((step, a, dst, pb, pb_old))
        elif op == "d" and in_transit:
            msg, src, dst, pb, pb_old = in_transit.pop(a % len(in_transit))
            forced = bits.arrive(dst, src, msg, pb, step, sink)
            assert forced == oracle.arrive(dst, src, msg, pb_old, step, sink)
            touched = dst
        # An event changes only its own process's state; the rest are
        # compared once more at the end.
        _assert_same(bits, oracle, n, [touched % n])
    _assert_same(bits, oracle, n, range(n))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", PROTOCOLS)
def test_bitsets_match_the_tuple_oracle(name, n):
    @given(_feeds(n))
    @settings(max_examples=25, deadline=None)
    def check(feed):
        _run(name, n, feed)

    check()


@pytest.mark.parametrize("name", PROTOCOLS)
def test_relay_chain_across_the_word(name):
    """A chain P0 -> P69 -> P64 -> P1 with P1 having sent to P69: the
    closure on column ``pid`` runs on bits 64-69, past the first word."""
    n = 70
    feed = [("s", 1, 69), ("s", 0, 69), ("d", 1, 0), ("s", 69, 64),
            ("d", 1, 0), ("c", 64, 0), ("s", 64, 1), ("d", 1, 0),
            ("d", 0, 0), ("s", 1, 0), ("d", 0, 0)]
    _run(name, n, feed)
