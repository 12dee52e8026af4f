"""One message log, one log-GC rule.

A live run keeps each sent message in one record of the
``RecoveryManager``; a ``SenderLog`` says which of them are still logged,
and only ``repro.recovery.logging.reclaimable`` decides when a log entry
dies.  No module outside ``recovery/logging.py`` may read or write a
``SenderLog``'s ``_messages`` (the AST scan below fails such a reach-in),
and the three collectors -- ``SenderLog.collect_garbage``,
``RecoveryManager.collect_garbage`` and ``simulate_storage`` -- all go
through the one predicate.
"""

import ast
from pathlib import Path

import pytest

import repro.recovery.logging as logging_mod
import repro.recovery.manager as manager_mod
from repro.recovery import RecoveryManager, build_sender_logs, global_recovery_floor
from repro.serve.session import ServeSession
from repro.sim import Simulation, SimulationConfig
from repro.storage import StableStore, simulate_storage
from repro.workloads import RandomUniformWorkload

ROOT = Path(__file__).resolve().parent.parent
LOGGING = ROOT / "src" / "repro" / "recovery" / "logging.py"
SCANNED = ("src", "tests", "benchmarks", "examples", "tools")


def reach_ins(source):
    """Lines reading or writing ``<obj>._messages`` on anything but ``self``
    (a class's own table, like ``History``'s, is its business)."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr == "_messages"
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]


def history(protocol="bhmr"):
    sim = Simulation(
        RandomUniformWorkload(send_rate=2.0),
        SimulationConfig(n=3, duration=40.0, seed=2, basic_rate=0.4),
    )
    return sim.run(protocol).history


class TestNoReachIns:
    def test_the_scan_sees_a_reach_in(self):
        source = (
            "ids = set(log._messages)\n"
            "del manager.logs[0]._messages[m]\n"
            "self._messages = {}\n"
            "n = len(log)\n"
        )
        assert reach_ins(source) == [1, 2]

    def test_only_the_logging_module_touches_sender_log_internals(self):
        offenders = []
        for top in SCANNED:
            for path in sorted((ROOT / top).rglob("*.py")):
                if path == LOGGING:
                    continue
                lines = reach_ins(path.read_text(encoding="utf-8"))
                offenders += [f"{path.relative_to(ROOT)}:{line}" for line in lines]
        assert offenders == []


class TestOneTable:
    def test_session_reads_messages_from_the_manager(self):
        session = ServeSession("t", 2, "bhmr")
        msg_id = session.apply({"kind": "send", "src": 0, "dst": 1})["msg_id"]
        assert not hasattr(session, "_messages")
        message = session.manager.sent_message(msg_id)
        assert (message.src, message.dst) == (0, 1)
        assert session.manager.sent_message(msg_id + 1) is None

    def test_stable_store_keeps_no_message_table_of_its_own(self):
        store = StableStore(0)
        assert not hasattr(store, "_log")
        assert not hasattr(store, "log_message")
        assert not hasattr(store, "discard_log_below")


class TestOneRule:
    @pytest.fixture
    def never_reclaim(self, monkeypatch):
        calls = []

        def rule(*args):
            calls.append(args)
            return False

        monkeypatch.setattr(logging_mod, "reclaimable", rule)
        monkeypatch.setattr(manager_mod, "reclaimable", rule)
        return calls

    def test_every_collector_asks_the_one_rule(self, never_reclaim):
        h = history()
        floor = global_recovery_floor(h).cut
        logs = build_sender_logs(h)
        assert sum(log.collect_garbage(h, floor) for log in logs.values()) == 0
        asked = [len(never_reclaim)]
        assert RecoveryManager.from_history(h).collect_garbage().dropped == []
        asked.append(len(never_reclaim))
        report = simulate_storage(h, checkpoint_bytes=0, gc_interval=10.0)
        asked.append(len(never_reclaim))
        assert report.bytes_reclaimed == 0
        assert 0 < asked[0] < asked[1] < asked[2]
