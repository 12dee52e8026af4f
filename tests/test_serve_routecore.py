"""The router core on its own: no process, no socket, a fake clock.

Supervision -- respawn backoff, forgiveness, the crash-loop trip wire --
is a function of the exit, start and failed-respawn stamps the driver
reports, so it is pinned here by reporting them at chosen clock
readings instead of by killing real shard processes.  The answers,
rebalance plans and reconcile decisions are pinned the same way.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.routecore import (
    FAST,
    FLAP_MAX_RESTARTS,
    FLAP_WINDOW,
    FRESH,
    FULL,
    RESTART_BACKOFF,
    RESTART_BACKOFF_CAP,
    RouteCore,
)
from repro.serve.shardmap import DEGRADED, DOWN, UP, ShardMap, ShardTable

ADDRESSES = ["unix:/a", "unix:/b"]


def _core(shards=2, now=0.0):
    """A core whose shards all came up at ``now``."""
    core = RouteCore(ShardMap(shards))
    for k in range(shards):
        core.started(k, now)
    return core


def _session_on(layout, shard, prefix="s"):
    i = 0
    while layout.owner(f"{prefix}-{i}") != shard:
        i += 1
    return f"{prefix}-{i}"


class TestSupervision:
    def test_the_constants(self):
        assert (RESTART_BACKOFF, RESTART_BACKOFF_CAP) == (0.2, 5.0)
        assert (FLAP_WINDOW, FLAP_MAX_RESTARTS) == (30.0, 5)

    def test_respawn_schedule_doubles_to_the_cap(self):
        """Each process lives 10 s: never long enough to be forgiven,
        never dying fast enough to trip the wire."""
        core, now, pauses = _core(), 0.0, []
        for _ in range(7):
            now += 10.0
            at = core.exited(0, now)
            pauses.append(round(at - now, 6))
            assert not core.due(0, at - 1e-9) and core.due(0, at)
            now = at
            core.started(0, now)
        assert pauses == [0.2, 0.4, 0.8, 1.6, 3.2, 5.0, 5.0]
        assert core.shards[0].restarts == 7

    def test_a_full_window_of_uptime_forgives_past_deaths(self):
        core, now = _core(), 0.0
        for pause in (0.2, 0.4, 0.8):
            now += 1.0
            at = core.exited(0, now)
            assert round(at - now, 6) == pause
            now = at
            core.started(0, now)
        # 29 s up is not enough: the backoff keeps doubling ...
        now += 29.0
        at = core.exited(0, now)
        assert round(at - now, 6) == 1.6
        now = at
        core.started(0, now)
        # ... 30 s up forgives every death before it.
        now += FLAP_WINDOW
        assert round(core.exited(0, now) - now, 6) == RESTART_BACKOFF

    def test_sixth_death_in_the_window_parks_failed_respawns_included(self):
        core = _core()
        assert core.exited(0, 1.0) is not None
        for t in (2.0, 3.0, 4.0, 5.0):  # four respawns that never bind
            assert core.spawn_failed(0, t) is not None
            assert core.shards[0].state == DOWN
        assert core.spawn_failed(0, 6.0) is None  # the sixth death
        assert core.shards[0].state == DEGRADED
        # A failed respawn is a death, not a process exit.
        assert core.shards[0].restarts == 1
        assert core.shards[1].state == UP

    def test_deaths_older_than_the_window_do_not_count(self):
        core = _core()
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            assert core.spawn_failed(0, t) is not None
        # The first death left the window 30 s after it.
        assert core.spawn_failed(0, 1.0 + FLAP_WINDOW + 0.1) is not None
        assert core.shards[0].state == DOWN

    def test_a_degraded_shard_is_never_due(self):
        core = _core()
        for t in range(FLAP_MAX_RESTARTS + 1):
            core.spawn_failed(0, float(t))
        assert core.shards[0].state == DEGRADED
        assert not any(core.due(0, t) for t in (6.0, 60.0, 1e6))

    def test_an_up_shard_is_never_due(self):
        core = _core()
        assert not core.due(0, 1e6)
        core.exited(0, 5.0)
        core.started(0, 5.2)
        assert not core.due(0, 1e6)

    def test_ping_table_states(self):
        core = RouteCore(ShardMap(3))
        ping = core.answer({"kind": "ping", "seq": 1}, ["a", "b", "c"])
        assert [row["state"] for row in ping["table"]] == [DOWN] * 3
        for k in range(3):
            core.started(k, 0.0)
        core.exited(1, 1.0)
        for t in range(FLAP_MAX_RESTARTS + 1):
            core.spawn_failed(2, 2.0 + t)
        ping = core.answer({"kind": "ping", "seq": 2}, ["a", "b", "c"])
        assert ping["table"] == [
            {"shard": 0, "address": "a", "state": UP},
            {"shard": 1, "address": "b", "state": DOWN},
            {"shard": 2, "address": "c", "state": DEGRADED},
        ]
        assert (ping["role"], ping["shards"], ping["shards_up"]) == ("router", 3, 1)
        assert ping["degraded"] == [2] and ping["layout"] == core.map.to_doc()
        assert ShardTable.from_ping(ping).states == [UP, DOWN, DEGRADED]


# ----------------------------------------------------------------------
# the supervision property, against a model of the rules
# ----------------------------------------------------------------------
_event = st.tuples(
    st.sampled_from(["exit", "tick", "tick", "tick"]),
    st.integers(0, 1),
    # Mostly short gaps, so crash loops trip (about one example in
    # eight parks a shard), and the backoffs and the window exactly.
    st.one_of(
        st.floats(0.0, 1.5),
        st.sampled_from([0.2, 0.4, 0.8, 1.6, 3.2, 5.0, 30.0, 31.0]),
    ),
    st.sampled_from([False, False, True]),  # on a due tick: does it bind?
)


@settings(max_examples=200, deadline=None)
@given(events=st.lists(_event, min_size=20, max_size=100))
def test_respawns_wait_their_backoff_and_parks_match_the_window(events):
    """No shard is respawned before its backoff has elapsed, a due one
    is respawned at the next tick, and a shard is parked exactly when
    more than FLAP_MAX_RESTARTS deaths fall inside FLAP_WINDOW."""
    core = _core()
    now = 0.0
    model = [
        {"state": UP, "since": 0.0, "deaths": [], "streak": 0, "at": None}
        for _ in range(2)
    ]

    def died(m, t, respawn_at):
        m["deaths"].append(t)
        m["streak"] += 1
        recent = [d for d in m["deaths"] if t - d <= FLAP_WINDOW]
        if len(recent) > FLAP_MAX_RESTARTS:
            assert respawn_at is None
            m["state"], m["at"] = DEGRADED, None
            return
        m["pause"] = min(RESTART_BACKOFF_CAP, RESTART_BACKOFF * 2 ** (m["streak"] - 1))
        assert respawn_at is not None and abs(respawn_at - (t + m["pause"])) < 1e-9
        m["state"], m["at"] = DOWN, respawn_at

    for kind, k, dt, binds in events:
        now += dt
        m = model[k]
        if kind == "exit":
            if m["state"] != UP:
                continue
            if now - m["since"] >= FLAP_WINDOW:
                m["streak"] = 0
            died(m, now, core.exited(k, now))
            continue
        due = core.due(k, now)
        assert due == (m["state"] == DOWN and now >= m["at"])
        if not due:
            continue
        assert now - m["deaths"][-1] >= m["pause"] - 1e-9
        if binds:
            core.started(k, now)
            m["state"], m["since"], m["at"] = UP, now, None
        else:
            died(m, now, core.spawn_failed(k, now))
        assert core.shards[k].state == m["state"]
    assert [s.state for s in core.shards] == [m["state"] for m in model]


# ----------------------------------------------------------------------
# answers and moves
# ----------------------------------------------------------------------
class TestAnswers:
    def test_bye_and_refusals(self):
        core = _core()
        assert core.answer({"kind": "bye", "seq": 3}, ADDRESSES) == {
            "ok": True, "seq": 3, "bye": True
        }
        unknown = core.answer({"kind": "reboot", "seq": 4}, ADDRESSES)
        assert (unknown["ok"], unknown["error"]) == (False, "bad_request")
        missing = core.answer({"kind": "checkpoint", "seq": 5, "pid": 0}, ADDRESSES)
        assert missing["error"] == "bad_request"
        moved = core.answer(
            {"kind": "checkpoint", "seq": 6, "session": "s", "pid": 0}, ADDRESSES
        )
        assert (moved["error"], moved["seq"]) == ("moved", 6)

    def test_stats_rows(self):
        core = _core()
        core.exited(1, 4.0)
        stats = core.stats(
            "x", [{"answered": 7, "shed": 2}, {}], [101, 102], connections=3
        )
        assert stats["shards"] == [
            {"shard": 0, "up": True, "pid": 101, "forwarded": 7,
             "restarts": 0, "degraded": False},
            {"shard": 1, "up": False, "pid": 102, "forwarded": 0,
             "restarts": 1, "degraded": False},
        ]
        assert (stats["seq"], stats["shed"], stats["connections"]) == ("x", 2, 3)
        assert stats["router"] is True and stats["layout"] == core.map.to_doc()


class TestRebalancePlan:
    def test_refusals_and_the_noop(self):
        core = _core()
        sid = _session_on(core.map, 0)
        plan = core.plan_rebalance({"seq": 1, "target": 1})
        assert plan["error"] == "bad_request"
        plan = core.plan_rebalance({"seq": 2, "session": sid, "target": 2})
        assert plan["error"] == "bad_request" and "0..1" in plan["detail"]
        assert core.plan_rebalance({"seq": 3, "session": sid, "target": 0}) == {
            "ok": True, "seq": 3, "session": sid, "moved": False, "shard": 0
        }
        core.exited(1, 1.0)
        plan = core.plan_rebalance({"seq": 4, "session": sid, "target": 1})
        assert plan["error"] == "shard_down"

    def test_the_map_changes_only_when_the_move_is_done(self):
        core = _core()
        before = core.map
        sid = _session_on(core.map, 0)
        doc = {"seq": 5, "session": sid, "target": 1}
        moved = core.plan_rebalance(doc)
        assert isinstance(moved, ShardMap) and moved.owner(sid) == 1
        assert moved.overrides == {sid: 1} and core.map is before
        reply = core.moved(doc, moved, {"events": 9, "digest": "d"})
        assert core.map.owner(sid) == 1
        assert reply == {
            "ok": True, "seq": 5, "session": sid, "moved": True,
            "from": 0, "shard": 1, "events": 9, "digest": "d",
        }
        # Moving it back to its ring owner drops the override.
        back = core.plan_rebalance({"seq": 6, "session": sid, "target": 0})
        assert back.overrides == {}


class TestReconcileDecision:
    def test_fast_only_for_the_same_pure_ring_and_no_orphans(self):
        core = RouteCore(ShardMap(2))
        assert core.reconcile(ShardMap(2), [0, 1]) == (FAST, [])
        assert core.reconcile(ShardMap(2), [0]) == (FAST, [])
        assert core.reconcile(ShardMap(3), [0, 1, 2]) == (FULL, [2])
        assert core.reconcile(ShardMap(2, replicas=8), [0, 1]) == (FULL, [])
        assert core.reconcile(ShardMap(2, overrides={"s": 1}), [0, 1]) == (FULL, [])
        assert core.reconcile(ShardMap(2), [0, 1, 2, 5]) == (FULL, [2, 5])

    def test_fresh_only_for_an_empty_data_dir(self):
        core = RouteCore(ShardMap(2))
        assert core.reconcile(None, []) == (FRESH, [])
        assert core.reconcile(None, [0]) == (FULL, [])
