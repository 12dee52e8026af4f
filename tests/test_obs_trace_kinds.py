"""Every trace kind the code emits is declared and documented.

An AST scan of ``src/repro`` collects the literal kind passed to each
``_trace(...)`` / ``tracer.event(...)`` / ``tracer.span(...)`` call and
fails on any kind missing from :data:`repro.obs.tracer.KINDS` or from
the event-kind table in ``docs/OBSERVABILITY.md``.
"""

import ast
import re
from pathlib import Path

from repro.obs.tracer import KINDS

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The call names that take a trace kind as their first argument.
EMITTERS = {"_trace", "event", "span"}


def emitted_kinds():
    """``{kind: [where, ...]}`` for every literal kind emitted in src."""
    found = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            first = node.args[0]
            if name in EMITTERS and isinstance(first, ast.Constant) and isinstance(first.value, str):
                where = f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
                found.setdefault(first.value, []).append(where)
    return found


def documented_kinds():
    """The backticked kinds in the first column of the event-kind table."""
    text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    table = text.split("### Event kinds", 1)[1].split("\n\n", 2)[1]
    kinds = set()
    for row in table.splitlines():
        if row.startswith("| `"):
            kinds.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    return kinds


def test_the_scan_sees_the_emitters():
    found = emitted_kinds()
    # One emitter per layer, so a scan that silently stopped matching fails.
    for kind in ("sim.step", "proto.forced", "closure.edge", "serve.wal.commit",
                 "serve.shard.up", "serve.client.retry", "serve.chaos.fault"):
        assert kind in found, kind


def test_every_emitted_kind_is_declared():
    missing = {k: v for k, v in emitted_kinds().items() if k not in KINDS}
    assert not missing, f"emitted but not in obs.tracer.KINDS: {missing}"


def test_every_emitted_kind_is_documented():
    documented = documented_kinds()
    missing = {k: v for k, v in emitted_kinds().items() if k not in documented}
    assert not missing, f"emitted but not in docs/OBSERVABILITY.md: {missing}"


def test_kinds_are_declared_once():
    assert len(KINDS) == len(set(KINDS))
