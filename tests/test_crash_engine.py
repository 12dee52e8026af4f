"""The crash-injection + online recovery engine (``repro.sim.crashes``).

The headline properties:

* **Determinism** -- a crash-injected run is a pure function of
  ``(scenario seed, crash seed)``: two runs produce byte-identical
  trace streams.
* **Convergence** -- piecewise determinism: after every rollback and
  replay, the run re-executes to exactly the crash-free history.
* **Online == offline** -- the recovery line computed from the live
  incremental R-graph at crash time equals the offline fixpoint on the
  closed prefix history (the engine cross-checks this itself; here we
  also assert it from the records).
"""

import json

import pytest

from repro import api
from repro import cli
from repro.core.registry import PROTOCOLS
from repro.obs import MetricsRegistry, Tracer
from repro.recovery import RecoveryManager
from repro.sim import (
    CrashSchedule,
    InjectedCrash,
    Scheduler,
    Simulation,
    SimulationConfig,
)
from repro.types import SimulationError
from repro.workloads import RandomUniformWorkload
from tests.test_online_vector_queries import (
    assert_plan_index_is_derived,
    plan_by_record_scan,
)

CONFIG = SimulationConfig(n=3, duration=40.0, seed=4, basic_rate=0.4)


def make_sim(tracer=None, metrics=None, seed=4):
    cfg = SimulationConfig(
        n=CONFIG.n, duration=CONFIG.duration, seed=seed, basic_rate=CONFIG.basic_rate
    )
    return Simulation(
        RandomUniformWorkload(send_rate=2.0), cfg, tracer=tracer, metrics=metrics
    )


def history_key(h):
    """Full comparable content of a history: every event, every message."""
    return (
        [h.events(pid) for pid in range(h.num_processes)],
        dict(h.messages),
    )


class TestCrashSchedule:
    def test_sorted_by_time_then_pid(self):
        s = CrashSchedule.at((2, 5.0), (0, 5.0), (1, 2.0))
        assert [(c.pid, c.time) for c in s] == [(1, 2.0), (0, 5.0), (2, 5.0)]

    def test_groups_collapse_simultaneous(self):
        s = CrashSchedule.at((2, 5.0), (0, 5.0), (1, 2.0), (2, 5.0))
        assert s.groups() == [(2.0, [1]), (5.0, [0, 2])]

    def test_random_is_deterministic(self):
        a = CrashSchedule.random(3, 100.0, count=4, seed=9)
        b = CrashSchedule.random(3, 100.0, count=4, seed=9)
        assert list(a) == list(b)
        c = CrashSchedule.random(3, 100.0, count=4, seed=10)
        assert list(a) != list(c)

    def test_random_respects_margin(self):
        s = CrashSchedule.random(3, 100.0, count=20, seed=1, margin=0.1)
        assert all(10.0 <= c.time <= 90.0 for c in s)

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            CrashSchedule.at((0, -1.0))

    def test_bad_random_args_rejected(self):
        with pytest.raises(SimulationError):
            CrashSchedule.random(0, 10.0)
        with pytest.raises(SimulationError):
            CrashSchedule.random(3, 10.0, count=-1)

    def test_dunders(self):
        s = CrashSchedule.at((0, 1.0), (1, 2.0))
        assert len(s) == 2 and bool(s)
        assert not CrashSchedule()
        assert "P0" in repr(s)


class TestSchedulerHalt:
    def test_halt_stops_and_run_resumes(self):
        sched = Scheduler()
        seen = []
        sched.schedule(1.0, lambda: seen.append("a"))
        sched.schedule(2.0, lambda: (seen.append("b"), sched.halt()))
        sched.schedule(3.0, lambda: seen.append("c"))
        sched.run()
        assert seen == ["a", "b"]
        assert sched.pending() == 1
        sched.run()
        assert seen == ["a", "b", "c"]


class TestEngine:
    SCHEDULE = CrashSchedule.at((0, 14.0), (2, 27.0))

    def run_once(self, protocol="bhmr", schedule=None, tracer=None, **kw):
        sim = make_sim(tracer=tracer)
        return sim.run_with_crashes(protocol, schedule or self.SCHEDULE, **kw)

    def test_byte_identical_across_runs(self):
        t1, t2 = Tracer(), Tracer()
        sim1 = make_sim(tracer=t1)
        sim1.run_with_crashes("bhmr", self.SCHEDULE)
        sim2 = make_sim(tracer=t2)
        sim2.run_with_crashes("bhmr", self.SCHEDULE)
        assert t1.dumps() == t2.dumps()

    @pytest.mark.parametrize("protocol", ["bhmr", "fdas", "independent"])
    def test_converges_to_crash_free_history(self, protocol):
        crashed = self.run_once(protocol)
        clean = make_sim().run(protocol)
        assert history_key(crashed.history) == history_key(clean.history)

    def test_online_equals_offline_on_every_crash(self):
        result = self.run_once("independent")
        assert len(result.crashes) == len(self.SCHEDULE.groups())
        for record in result.crashes:
            assert record.online.cut == record.offline_cut

    def test_replay_counts_match_plan(self):
        result = self.run_once("fdas")
        for record in result.crashes:
            assert record.messages_replayed == len(record.online.to_replay)
            assert record.events_reexecuted >= 0

    def test_multi_crash_same_instant(self):
        schedule = CrashSchedule.at((0, 20.0), (1, 20.0))
        result = self.run_once("bhmr", schedule=schedule)
        assert len(result.crashes) == 1
        assert result.crashes[0].online.crashed == (0, 1)
        clean = make_sim().run("bhmr")
        assert history_key(result.history) == history_key(clean.history)

    def test_crash_after_last_op(self):
        schedule = CrashSchedule.at((1, 10_000.0))
        result = self.run_once("bhmr", schedule=schedule)
        assert len(result.crashes) == 1
        clean = make_sim().run("bhmr")
        assert history_key(result.history) == history_key(clean.history)

    def test_gc_during_run_still_recovers(self):
        result = self.run_once("independent", gc_every_ops=25)
        clean = make_sim().run("independent")
        assert history_key(result.history) == history_key(clean.history)
        for record in result.crashes:
            assert record.online.cut == record.offline_cut

    def test_rdt_bounds_rollback_vs_baseline(self):
        schedule = CrashSchedule.random(3, 40.0, count=2, seed=3)
        rdt = self.run_once("bhmr", schedule=schedule)
        baseline = self.run_once("independent", schedule=schedule)
        assert rdt.total_events_undone <= baseline.total_events_undone
        assert rdt.max_rollback_depth <= baseline.max_rollback_depth

    def test_trace_kinds_emitted(self):
        tracer = Tracer()
        self.run_once("bhmr", tracer=tracer)
        kinds = {ev.kind for ev in tracer}
        assert {"recovery.crash", "recovery.line", "recovery.replay"} <= kinds
        line_events = tracer.of_kind("recovery.line")
        assert len(line_events) == len(self.SCHEDULE.groups())
        for ev in line_events:
            assert set(ev.fields) >= {"crashed", "cut", "bounds", "undone", "depth"}

    def test_metrics_populated(self):
        metrics = MetricsRegistry()
        sim = make_sim(metrics=metrics)
        result = sim.run_with_crashes("independent", self.SCHEDULE)
        snap = metrics.snapshot()
        assert snap.counters["recovery.crashes"] == len(result.crashes)
        assert snap.counters["recovery.events_undone"] == result.total_events_undone
        assert (
            snap.counters["recovery.messages_replayed"]
            == result.total_messages_replayed
        )

    @pytest.mark.parametrize("protocol", ["bhmr", "independent"])
    def test_plan_index_follows_crash_rollback_and_reexecution(
        self, protocol, monkeypatch
    ):
        """The replay-plan indexes stay ``_records`` regrouped through
        every crash: rollback returns deliveries above the cut to
        in-transit and drops dead sends from both indexes, and each
        re-delivery during re-execution is indexed exactly once."""
        rollback, on_deliver = RecoveryManager.rollback, RecoveryManager.on_deliver
        seen = {"rollbacks": 0, "undone": 0, "redelivered": 0}
        was_undone = set()

        def checked_rollback(manager, cut):
            plan = manager.replay_plan_ids(cut)
            assert plan == plan_by_record_scan(manager, cut)
            above = {
                mid
                for mid, rec in manager._records.items()
                if rec.deliver_interval is not None
                and rec.deliver_interval > cut[rec.message.dst]
            }
            dead = {
                mid
                for mid, rec in manager._records.items()
                if rec.send_interval > cut[rec.message.src]
            }
            rollback(manager, cut)
            assert_plan_index_is_derived(manager)
            assert not dead & set(manager._records)
            assert not dead & set(manager._in_transit)
            assert above - dead <= set(manager._in_transit)
            assert sorted(manager._in_transit) == plan
            seen["rollbacks"] += 1
            seen["undone"] += len(above)
            was_undone.update(above)

        def checked_deliver(manager, message, t=0.0):
            on_deliver(manager, message, t)
            if message.msg_id in was_undone:
                was_undone.discard(message.msg_id)
                seen["redelivered"] += 1
                assert_plan_index_is_derived(manager)

        monkeypatch.setattr(RecoveryManager, "rollback", checked_rollback)
        monkeypatch.setattr(RecoveryManager, "on_deliver", checked_deliver)
        schedule = CrashSchedule.at((0, 14.0), (2, 27.0), (1, 33.0))
        result = self.run_once(protocol, schedule=schedule)
        assert seen["rollbacks"] == 3
        assert seen["undone"] and seen["redelivered"] == seen["undone"]
        assert_plan_index_is_derived(result.manager)
        clean = RecoveryManager.from_history(make_sim().run(protocol).history)
        assert result.manager.state()["records"] == clean.state()["records"]


class TestCrossingSendsWereFlushed:
    """Why a sender log needs no "stable up to" mark: at every crash,
    each message of the replay plan whose sender crashed was sent in an
    interval at or below that sender's last taken checkpoint, so the
    checkpoint that flushed it to stable storage had already been taken
    (a surviving sender keeps its volatile log)."""

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_every_crossing_send_of_a_crashed_sender(self, protocol, monkeypatch):
        checked = []
        crash = RecoveryManager.crash

        def crash_and_check(manager, pids, t=0.0):
            online = crash(manager, pids, t)
            for mid in online.to_replay:
                src = manager.sent_message(mid).src
                if src in online.crashed:
                    send_interval = manager._records[mid].send_interval
                    assert send_interval <= manager.last_taken(src), (mid, online)
                    checked.append(mid)
            return online

        monkeypatch.setattr(RecoveryManager, "crash", crash_and_check)
        for seed in range(4):
            schedule = CrashSchedule.random(3, 40.0, count=3, seed=seed)
            make_sim(seed=seed).run_with_crashes(protocol, schedule)
        assert checked  # the property was exercised


class TestApiRecover:
    def test_int_crashes_draws_schedule(self):
        result = api.recover(
            protocol="bhmr", crashes=2, crash_seed=5, n=3, duration=40.0, seed=4
        )
        assert len(result.schedule) == 2
        assert result.crashes  # at least one group actually fired

    def test_explicit_schedule_and_convergence(self):
        schedule = CrashSchedule.at((0, 15.0))
        result = api.recover(
            protocol="fdas", crashes=schedule, n=3, duration=40.0, seed=4
        )
        clean = api.run(protocol="fdas", n=3, duration=40.0, seed=4)
        assert history_key(result.history) == history_key(clean.history)


class TestCliRecover:
    def test_online_mode_json(self, capsys):
        rc = cli.main(
            [
                "recover",
                "--protocol",
                "bhmr",
                "-n",
                "3",
                "--duration",
                "40",
                "--seed",
                "4",
                "--crash-at",
                "0:15",
                "--json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["crashes"][0]["online_equals_offline"] is True

    def test_bad_crash_at_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["recover", "--crash-at", "nonsense"])

    def test_offline_mode_still_works(self, capsys):
        rc = cli.main(
            [
                "recover",
                "--protocol",
                "bhmr",
                "-n",
                "3",
                "--duration",
                "40",
                "--crash-pid",
                "1",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out
