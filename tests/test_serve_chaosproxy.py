"""The chaos proxy itself: deterministic schedules, honest forwarding.

Two families:

* **planning** -- the fault schedule is a pure function of
  ``(seed, connection index)``: two proxies with the same seed produce
  identical plans (the replay-bit-identically contract the chaos grid
  leans on), different seeds diverge, and the rate knobs shape what is
  drawn;
* **forwarding** -- with no faults scheduled the proxy is invisible
  (byte-identical replies through every fragmentation mode), and each
  fault kind produces exactly the client-visible failure it models:
  reset -> ConnectionError, stall -> RequestTimeout (never a hang),
  truncate -> ConnectionError on broken framing.
"""

import pytest

from repro.obs.jsonio import canonical_dumps
from repro.serve.chaosproxy import (
    ChaosConfig,
    ChaosProxy,
    ChaosSchedule,
    _FrameSplitter,
)
from repro.serve.client import Client, RequestTimeout
from repro.serve.server import ServerConfig, ServerHandle, serve_in_thread
from repro.serve import wire
from repro.types import SimulationError


def _proxy_handle(upstream: str, config: ChaosConfig) -> ServerHandle:
    """Host a proxy on its own loop thread, like any other daemon."""
    return ServerHandle(ChaosProxy(upstream, config))


@pytest.fixture()
def backend(tmp_path):
    handle = serve_in_thread(
        ServerConfig(unix_path=str(tmp_path / "srv.sock"))
    )
    try:
        yield handle
    finally:
        handle.close()


class TestSchedule:
    CONFIG = ChaosConfig(
        seed=7,
        latency_s=0.001,
        jitter_s=0.002,
        fragment="shred",
        reset_rate=0.2,
        stall_rate=0.2,
        truncate_rate=0.2,
        fault_after=(10, 500),
    )

    def test_same_seed_same_schedule(self):
        a = ChaosSchedule(self.CONFIG)
        b = ChaosSchedule(ChaosConfig(**vars(self.CONFIG)))
        assert [a.plan(i) for i in range(64)] == [b.plan(i) for i in range(64)]

    def test_two_proxies_same_seed_identical_fault_schedules(self):
        # The tentpole determinism claim, stated on the proxy itself.
        p1 = ChaosProxy("unix:/nowhere", self.CONFIG)
        p2 = ChaosProxy("unix:/nowhere", self.CONFIG)
        plans1 = [p1.schedule.plan(i) for i in range(50)]
        plans2 = [p2.schedule.plan(i) for i in range(50)]
        assert plans1 == plans2

    def test_different_seeds_diverge(self):
        a = ChaosSchedule(self.CONFIG)
        b = ChaosSchedule(
            ChaosConfig(**{**vars(self.CONFIG), "seed": 8})
        )
        assert [a.plan(i) for i in range(64)] != [b.plan(i) for i in range(64)]

    def test_plan_is_stateless(self):
        sched = ChaosSchedule(self.CONFIG)
        assert sched.plan(3) == sched.plan(3)
        # Planning out of order changes nothing: no hidden RNG state.
        late = sched.plan(40)
        early = sched.plan(1)
        assert sched.plan(40) == late and sched.plan(1) == early

    def test_rates_bound_fault_kinds(self):
        only_resets = ChaosSchedule(
            ChaosConfig(seed=3, reset_rate=1.0, fault_after=(5, 50))
        )
        for i in range(32):
            plan = only_resets.plan(i)
            for direction in (plan.up, plan.down):
                assert direction.fault is not None
                assert direction.fault.kind == "reset"
                assert 5 <= direction.fault.after_bytes <= 50
        none = ChaosSchedule(ChaosConfig(seed=3))
        for i in range(32):
            plan = none.plan(i)
            assert plan.up.fault is None and plan.down.fault is None

    def test_bad_configs_refused(self):
        with pytest.raises(SimulationError, match="sum"):
            ChaosSchedule(ChaosConfig(reset_rate=0.6, stall_rate=0.6))
        with pytest.raises(SimulationError, match="fragment"):
            ChaosSchedule(ChaosConfig(fragment="confetti"))
        with pytest.raises(SimulationError, match="fault_after"):
            ChaosSchedule(ChaosConfig(fault_after=(10, 5)))


class TestFrameSplitter:
    def test_splits_exactly_at_frame_boundaries(self):
        frames = [
            wire.encode_frame({"seq": i, "kind": "checkpoint"})
            for i in range(5)
        ]
        splitter = _FrameSplitter()
        pieces = splitter.split(b"".join(frames))
        assert pieces == frames

    def test_partial_frames_carry_across_chunks(self):
        frame = wire.encode_frame({"seq": 1, "kind": "send", "payload": "xy"})
        splitter = _FrameSplitter()
        # Feed in fragments that split inside the length prefix and
        # inside the payload; boundaries must still land between frames.
        out = []
        for chunk in (frame[:2], frame[2:7], frame[7:] + frame[:3], frame[3:]):
            out.extend(splitter.split(chunk))
        assert b"".join(out) == frame + frame
        # Each complete frame ends exactly at a piece boundary.
        joined = b"".join(out)
        assert joined[: len(frame)] == frame


class TestTransparentForwarding:
    def _answers(self, address: str, sid: str) -> list:
        with Client(address, timeout=5.0) as client:
            client.hello(sid, n=3, protocol="bhmr")
            out = []
            out.append(client.checkpoint(sid, pid=0))
            reply = client.send(sid, src=0, dst=1)
            out.append(reply)
            out.append(client.deliver(sid, msg_id=reply["msg_id"]))
            out.append(client.query(sid, "rdt_status"))
            return out

    @pytest.mark.parametrize("fragment", ["none", "byte", "shred", "frame"])
    def test_no_faults_is_byte_invisible(self, backend, fragment):
        # Two fresh sessions receive the same ops, one direct and one
        # through the proxy; with no faults scheduled the proxy must be
        # invisible -- byte-identical replies (canonical JSON makes the
        # comparison exact, not just structural).
        direct = self._answers(backend.connect_address(), f"fwd-d-{fragment}")
        proxy = _proxy_handle(
            backend.connect_address(),
            ChaosConfig(seed=11, fragment=fragment, jitter_s=0.0005),
        )
        try:
            proxied = self._answers(
                proxy.connect_address(), f"fwd-p-{fragment}"
            )
        finally:
            proxy.close()
        assert canonical_dumps(proxied) == canonical_dumps(direct)

    def test_latency_is_added_but_answers_survive(self, backend):
        proxy = _proxy_handle(
            backend.connect_address(),
            ChaosConfig(seed=2, latency_s=0.002, jitter_s=0.001, bandwidth=1 << 20),
        )
        try:
            with Client(proxy.connect_address(), timeout=5.0) as client:
                client.hello("chaos-lat", n=2, protocol="bhmr")
                for _ in range(10):
                    assert client.checkpoint("chaos-lat", pid=0)["ok"] is True
        finally:
            summary = proxy.close()
        assert summary["forwarded_bytes"] > 0
        assert summary["connections"] == 1

    def test_latency_schedule_bounds_pipelined_p99(self, tmp_path):
        """Twin pipelined runs, direct and through a seeded latency-only
        schedule (2 ms + up to 1 ms per write): latency costs quantiles,
        never correctness -- no error of any code, no disconnect, and an
        ingest p99 within 0.25 s of the direct run's."""
        from repro.serve.loadgen import run_load

        config = ServerConfig(
            unix_path=str(tmp_path / "srv.sock"), workers=2, queue_depth=1024
        )
        load = dict(
            sessions=8, duration=12.0, window=64, query_every=100, seed=0,
            request_timeout=10.0,
        )
        with serve_in_thread(config) as server:
            direct = run_load(server.connect_address(), **load).as_doc()
            proxy = _proxy_handle(
                server.connect_address(),
                ChaosConfig(seed=1337, latency_s=0.002, jitter_s=0.001),
            )
            try:
                chaos = run_load(proxy.connect_address(), **load).as_doc()
            finally:
                proxy.close()
        for run in (direct, chaos):
            assert run["errors_by_code"] == {} and run["disconnects"] == 0
            assert run["acked"] > 0
        assert chaos["ingest_p99_s"] - direct["ingest_p99_s"] < 0.25


#: Bytes the connect handshake moves in its larger direction: a plain
#: server's ``ping`` reply (the request is 27 bytes).
HANDSHAKE_BYTES = len(wire.encode_frame({
    "answered": 0, "degraded": False, "ok": True, "pong": True,
    "role": "server", "seq": 0, "sessions": 0, "shed": 0,
}))


def _after_handshake(low, high):
    """Fault offsets counted from the end of the connect handshake, so
    the fault lands on the frames the test sends, not on ``Client()``."""
    return (low + HANDSHAKE_BYTES, high + HANDSHAKE_BYTES)


class TestFaults:
    def test_reset_surfaces_as_connection_error(self, backend):
        proxy = _proxy_handle(
            backend.connect_address(),
            ChaosConfig(seed=5, reset_rate=1.0, fault_after=_after_handshake(30, 60)),
        )
        try:
            client = Client(proxy.connect_address(), timeout=2.0, retries=0)
            with pytest.raises((ConnectionError, RequestTimeout)):
                client.hello("chaos-rst", n=2, protocol="bhmr")
                for _ in range(50):
                    client.checkpoint("chaos-rst", pid=0)
        finally:
            proxy.close()

    def test_stall_surfaces_as_timeout_not_hang(self, backend):
        from time import monotonic

        proxy = _proxy_handle(
            backend.connect_address(),
            ChaosConfig(seed=5, stall_rate=1.0, fault_after=_after_handshake(10, 40)),
        )
        try:
            client = Client(proxy.connect_address(), timeout=0.5, retries=0)
            started = monotonic()
            with pytest.raises((RequestTimeout, ConnectionError)):
                client.hello("chaos-stall", n=2, protocol="bhmr")
                for _ in range(50):
                    client.checkpoint("chaos-stall", pid=0)
            # The deadline held: no eternal hang, and the connection is
            # invalidated for the caller to reconnect.
            assert monotonic() - started < 5.0
        finally:
            proxy.close()

    def test_truncate_surfaces_as_connection_error(self, backend):
        proxy = _proxy_handle(
            backend.connect_address(),
            ChaosConfig(seed=9, truncate_rate=1.0, fault_after=_after_handshake(30, 60)),
        )
        try:
            client = Client(proxy.connect_address(), timeout=2.0, retries=0)
            with pytest.raises((ConnectionError, RequestTimeout)):
                client.hello("chaos-trunc", n=2, protocol="bhmr")
                for _ in range(50):
                    client.checkpoint("chaos-trunc", pid=0)
        finally:
            proxy.close()

    def test_scheduled_faults_do_fire(self, backend):
        """A full-rate schedule actually lands its faults on the wire.

        (Exact fault *counts* are racy by design -- the up and down
        directions race to fire first -- but with reset_rate=1.0 every
        connection that moves enough bytes must abort, and the
        *schedule* driving it is pinned by TestSchedule.)
        """
        proxy = _proxy_handle(
            backend.connect_address(),
            ChaosConfig(seed=21, reset_rate=1.0, fault_after=(20, 200)),
        )
        try:
            broke = 0
            for conn_i in range(6):
                try:
                    client = Client(
                        proxy.connect_address(), timeout=1.0, retries=0
                    )
                    client.hello(f"chaos-det-{conn_i}", n=2, protocol="bhmr")
                    for _ in range(20):
                        client.checkpoint(f"chaos-det-{conn_i}", pid=0)
                except (ConnectionError, RequestTimeout):
                    broke += 1
        finally:
            summary = proxy.close()
        assert broke == 6
        assert summary["faults"] >= 6
        assert summary["connections"] == 6
