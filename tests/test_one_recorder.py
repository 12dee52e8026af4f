"""One history recorder, one workload driver.

``repro.events.builder.Recorder`` is the only code that builds a
``History`` step by step, and ``repro.sim.generate`` holds the only
``WorkloadContext``.  Outside ``repro/events/`` (the recorder,
``History.closed`` and ``io``) no module may construct an ``Event``, and
no second ``WorkloadContext`` subclass may appear under ``src/`` -- so a
fourth private recorder or a second driver cannot grow back unnoticed.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
EVENTS = SRC / "events"


#: Modules whose own ``Event`` is a synchronisation primitive, not ours.
SYNC_MODULES = {"asyncio", "threading", "multiprocessing"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def recorder_violations(source):
    """``(event_calls, context_classes)``: the lines constructing an
    ``Event`` and the names of ``WorkloadContext`` subclasses."""
    calls, classes = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name(node.func) == "Event":
            owner = getattr(node.func, "value", None)
            if _name(owner) not in SYNC_MODULES:
                calls.append(node.lineno)
        elif isinstance(node, ast.ClassDef) and any(
            _name(base) == "WorkloadContext" for base in node.bases
        ):
            classes.append(node.name)
    return calls, classes


class TestOneRecorder:
    def test_the_scan_sees_a_fourth_recorder(self):
        source = (
            "from repro.events import event\n"
            "ev = Event(pid=0, seq=0, kind=k, time=0.0)\n"
            "other = event.Event(pid=1, seq=0, kind=k, time=0.0)\n"
            "tag = TraceEvent(kind='x')\n"
            "done = asyncio.Event()\n"
            "class Driver(WorkloadContext): pass\n"
            "class Second(base.WorkloadContext): pass\n"
            "class Unrelated(TraceGenerator): pass\n"
        )
        assert recorder_violations(source) == ([2, 3], ["Driver", "Second"])

    def test_events_are_constructed_only_under_repro_events(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if EVENTS in path.parents:
                continue
            calls, _ = recorder_violations(path.read_text(encoding="utf-8"))
            offenders += [f"{path.relative_to(SRC)}:{line}" for line in calls]
        assert offenders == []

    def test_src_holds_one_workload_context(self):
        found = []
        for path in sorted(SRC.rglob("*.py")):
            _, classes = recorder_violations(path.read_text(encoding="utf-8"))
            found += [f"{path.relative_to(SRC)}:{name}" for name in classes]
        assert found == ["sim/generate.py:_GeneratorContext"]
