"""The request core on its own: no socket, a fake clock.

Every decision both clients share -- backoff, the breaker, routing,
unwritten refusals, staleness, invalidation -- driven directly, so each
rule is pinned once instead of through two transports.
"""

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.serve import wire
from repro.serve.clientcore import (
    HANDSHAKE,
    RETRYABLE_CODES,
    CircuitOpen,
    FrameTooLarge,
    ReplyError,
    RequestCore,
)
from repro.serve.shardmap import DEGRADED, DOWN, UP, ShardMap, ShardTable

OK = {"ok": True, "seq": 1}


def _refusal(code):
    return wire.error_reply(1, code, "scripted")


def _pong(states, addresses=None):
    """A router's ``ping`` reply publishing ``states`` (one per shard)."""
    addresses = addresses or [f"unix:/s{k}.sock" for k in range(len(states))]
    table = ShardTable(ShardMap(len(states)), addresses, states)
    return {"ok": True, "seq": 0, "role": "router", **table.ping_fields()}


def _session_on(layout, shard):
    return next(f"s{i}" for i in range(1000) if layout.owner(f"s{i}") == shard)


class TestFrames:
    def test_seqs_count_up_from_the_handshake(self):
        core = RequestCore()
        assert HANDSHAKE == {"kind": "ping", "seq": 0}
        first = core.frame("hello", session="a", n=None, protocol="bhmr")
        assert first == {"kind": "hello", "seq": 1, "session": "a", "protocol": "bhmr"}
        assert core.frame("ping")["seq"] == 2 == core.seq

    def test_frame_too_large_names_the_size(self):
        with pytest.raises(wire.FrameError) as err:
            wire.encode_frame({"blob": "x" * wire.MAX_FRAME})
        assert str(FrameTooLarge(err.value)).startswith(
            "request refused unwritten: frame of "
        )


class TestBackoff:
    def test_seeded_doubling_capped_and_jittered(self):
        a = RequestCore(retry_delay=0.1, backoff_cap=0.4, backoff_seed=7)
        b = RequestCore(retry_delay=0.1, backoff_cap=0.4, backoff_seed=7)
        c = RequestCore(retry_delay=0.1, backoff_cap=0.4, backoff_seed=8)
        da = [a.backoff(k) for k in range(1, 9)]
        assert da == [b.backoff(k) for k in range(1, 9)]
        assert da != [c.backoff(k) for k in range(1, 9)]
        bases = [0.1, 0.2, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4]
        for delay, base in zip(da, bases):
            assert 0.5 * base <= delay < base

    def test_retry_budget_and_trace(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        core = RequestCore(retries=2, retry_delay=0.1, tracer=tracer, metrics=metrics)
        pauses = [core.settle("send", _refusal("shard_down"), k, 0.0) for k in range(2)]
        assert all(p > 0 for p in pauses)
        with pytest.raises(ReplyError) as err:
            core.settle("send", _refusal("shard_down"), 2, 0.0)
        assert err.value.code == "shard_down"
        assert [e.fields["attempt"] for e in tracer.of_kind("serve.client.retry")] == [1, 2]
        assert metrics.counter("serve.client.retries").value == 2
        assert core.failures == 1  # the exhausted refusal is a health signal

    def test_a_first_moved_is_resent_at_once(self):
        """The refresh a ``moved`` triggered names the owner, so its
        first resend does not wait; a repeated ``moved`` backs off."""
        core = RequestCore(retries=3, retry_delay=0.1)
        assert core.settle("send", _refusal("moved"), 0, 0.0) == 0.0
        assert 0.1 <= core.settle("send", _refusal("moved"), 1, 0.0) < 0.2
        assert 0.05 <= core.settle("send", _refusal("shard_down"), 0, 0.0) < 0.1

    @pytest.mark.parametrize("code", ["bad_request", "overloaded", "shard_degraded"])
    def test_other_refusals_raise_at_once(self, code):
        core = RequestCore(retries=5)
        core.failures = 3
        with pytest.raises(ReplyError, match=code):
            core.settle("send", _refusal(code), 0, 0.0)
        assert core.failures == 0  # an application error is not a transport fault

    def test_ok_is_the_answer(self):
        assert RequestCore().settle("send", OK, 0, 0.0) is None
        assert RETRYABLE_CODES == {"moved", "shard_down"}


class TestBreaker:
    def test_closed_open_half_open_closed(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        core = RequestCore(circuit_threshold=2, circuit_cooldown=1.0,
                           tracer=tracer, metrics=metrics)
        core.admit(0.0)
        core.failed(0.0)
        core.admit(0.1)  # one failure: still closed
        core.failed(0.2)  # two: open until 1.2
        with pytest.raises(CircuitOpen) as err:
            core.admit(0.7)
        assert err.value.remaining_s == pytest.approx(0.5)
        core.admit(1.2)  # cooldown over: the half-open probe
        assert core.settle("query", OK, 0, 1.3) is None
        core.admit(1.4)
        core.failed(1.5)  # one failure after closing does not re-open
        core.admit(1.6)
        states = [e.fields["state"] for e in tracer.of_kind("serve.client.circuit")]
        assert states == ["open", "half_open", "closed"]
        assert metrics.counter("serve.client.circuit_open").value == 1
        assert metrics.counter("serve.client.circuit_rejected").value == 1

    def test_failed_probe_reopens(self):
        core = RequestCore(circuit_threshold=3, circuit_cooldown=1.0)
        for t in (0.0, 0.1, 0.2):
            core.failed(t)
        core.admit(1.2)  # the probe
        core.failed(1.3)  # fails: straight back to open, whatever the count
        with pytest.raises(CircuitOpen):
            core.admit(2.2)
        core.admit(2.3)

    def test_disabled_by_default(self):
        core = RequestCore()
        for t in range(100):
            core.failed(float(t))
        core.admit(100.0)
        assert core.failures == 100


class TestRouting:
    def test_a_server_pong_means_no_table(self):
        core = RequestCore()
        assert core.adopt({"ok": True, "seq": 0, "role": "server"}, []) == []
        assert core.table is None
        assert core.owner("send", "s") is None
        assert not core.stale(_refusal("moved"))

    def test_only_up_shards_without_a_connection_are_dialled(self):
        core = RequestCore()
        pong = _pong([UP, DOWN, DEGRADED, UP], ["unix:/a", "", "unix:/c", "unix:/d"])
        assert core.adopt(pong, live=[]) == [(0, "unix:/a"), (3, "unix:/d")]
        assert core.adopt(pong, live=[0]) == [(3, "unix:/d")]

    def test_owner_follows_the_layout(self):
        core = RequestCore()
        core.adopt(_pong([UP, UP, UP]), [])
        layout = core.table.layout
        for shard in range(3):
            assert core.owner("checkpoint", _session_on(layout, shard)) == shard
        assert core.owner("ping", "s0") is None  # sessionless: the peer
        assert core.owner("layout", "s0") is None
        assert core.owner("checkpoint", None) is None  # the peer refuses it

    @pytest.mark.parametrize(
        "state,code",
        [(UP, "shard_down"), (DOWN, "shard_down"), (DEGRADED, "shard_degraded")],
    )
    def test_unreachable_refusal_by_state(self, state, code):
        core = RequestCore()
        core.adopt(_pong([UP, state]), [])
        refusal = core.unreachable(9, 1)
        assert (refusal["ok"], refusal["seq"], refusal["error"]) == (False, 9, code)
        assert f"shard 1 ({state})" in refusal["detail"]
        assert core.stale(refusal)  # no connection: the table may be stale
        assert (code in RETRYABLE_CODES) is (state != DEGRADED)

    def test_moved_means_stale(self):
        core = RequestCore()
        core.adopt(_pong([UP]), [])
        assert core.stale(_refusal("moved"))
        assert not core.stale(OK)
        assert not core.stale(_refusal("overloaded"))


class TestInvalidation:
    def test_first_cause_sticks(self):
        core = RequestCore()
        assert core.invalid is None
        core.invalidate("no reply within 0.3s")
        core.invalidate("client closed")
        error = core.invalidated()
        assert isinstance(error, ConnectionError)
        assert str(error) == (
            "connection invalidated after no reply within 0.3s; reconnect first"
        )
