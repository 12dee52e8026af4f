"""One message log, one log-GC rule.

A live run keeps each sent message in one record of the
``RecoveryManager``; a sender log (``manager.logs[pid]``, a set of message
ids) says which of them are still logged, and only
``repro.recovery.logging.reclaimable`` decides when a log entry dies.
Only ``recovery/manager.py``, ``recovery/logging.py`` and ``storage/``
may change a ``logs[...]`` entry (the AST scan below fails a write
anywhere else under ``src/``), and the three collectors --
``trim_log``, ``RecoveryManager.collect_garbage`` and
``simulate_storage`` -- all go through the one predicate.
"""

import ast
from pathlib import Path

import pytest

import repro.recovery.logging as logging_mod
import repro.recovery.manager as manager_mod
from repro.recovery import (
    RecoveryManager,
    build_sender_logs,
    global_recovery_floor,
    trim_log,
)
from repro.serve.session import ServeSession
from repro.sim import Simulation, SimulationConfig
from repro.storage import StableStore, simulate_storage
from repro.workloads import RandomUniformWorkload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
WRITERS = (
    SRC / "recovery" / "manager.py",
    SRC / "recovery" / "logging.py",
    SRC / "storage",
)
SET_MUTATORS = {
    "add",
    "clear",
    "difference_update",
    "discard",
    "intersection_update",
    "pop",
    "remove",
    "symmetric_difference_update",
    "update",
}


def _is_log_entry(node):
    """``<...>.logs[...]`` or ``logs[...]``."""
    if not isinstance(node, ast.Subscript):
        return False
    base = node.value
    return (isinstance(base, ast.Name) and base.id == "logs") or (
        isinstance(base, ast.Attribute) and base.attr == "logs"
    )


def log_writes(source):
    """Lines that change a ``logs[...]`` entry: a set mutator called on
    it, or an assignment, augmented assignment or ``del`` of it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in SET_MUTATORS
                and _is_log_entry(func.value)
            ):
                lines.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.Delete)):
            lines += [t.lineno for t in node.targets if _is_log_entry(t)]
        elif isinstance(node, ast.AugAssign) and _is_log_entry(node.target):
            lines.append(node.lineno)
    return sorted(lines)


def history(protocol="bhmr"):
    sim = Simulation(
        RandomUniformWorkload(send_rate=2.0),
        SimulationConfig(n=3, duration=40.0, seed=2, basic_rate=0.4),
    )
    return sim.run(protocol).history


class TestNoReachIns:
    def test_the_scan_sees_a_reach_in(self):
        source = (
            "manager.logs[0].discard(m)\n"
            "logs[src].add(mid)\n"
            "self.logs[p] = set()\n"
            "del session.manager.logs[1]\n"
            "logs[p] -= dead\n"
            "n = len(manager.logs[0])\n"
            "ok = mid in logs[src]\n"
            "ids = sorted(self.logs[p])\n"
            "trim_log(logs[p], history, floor)\n"
            "other[p].add(mid)\n"
        )
        assert log_writes(source) == [1, 2, 3, 4, 5]

    def test_only_the_logging_module_touches_sender_log_internals(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if any(path == w or w in path.parents for w in WRITERS):
                continue
            lines = log_writes(path.read_text(encoding="utf-8"))
            offenders += [f"{path.relative_to(ROOT)}:{line}" for line in lines]
        assert offenders == []
        # The allow-list is not vacuous: the manager does write its logs.
        manager = (SRC / "recovery" / "manager.py").read_text(encoding="utf-8")
        assert log_writes(manager)


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
        assert sum(trim_log(log, h, floor) for log in logs.values()) == 0
        asked = [len(never_reclaim)]
        assert RecoveryManager.from_history(h).collect_garbage().dropped == []
        asked.append(len(never_reclaim))
        report = simulate_storage(h, checkpoint_bytes=0, gc_interval=10.0)
        asked.append(len(never_reclaim))
        assert report.bytes_reclaimed == 0
        assert 0 < asked[0] < asked[1] < asked[2]
