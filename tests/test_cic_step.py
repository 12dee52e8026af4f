"""One CIC step: every driver runs the contract through ``ProtocolFamily``.

The trace replayer (``sim.replay``), the crash engine (``sim.crashes``)
and the served session (``serve.session``) all drive the protocols
through the family's steps.  These tests hold the serve and sim drivers
to each other on random op streams, and an AST guard keeps the
contract's protocol calls inside ``core/protocol.py``.
"""

import ast
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.registry import PROTOCOLS, protocol_factory
from repro.events.event import CheckpointKind
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serve.session import ServeSession
from repro.sim import Trace, TraceOp, TraceOpKind, replay

REPO_ROOT = Path(__file__).resolve().parent.parent

streams = st.tuples(
    st.integers(2, 5),  # n
    st.lists(
        st.tuples(
            st.integers(0, 2),  # 0 = send, 1 = deliver, 2 = checkpoint
            st.integers(0, 7),  # process selector
            st.integers(0, 7),  # destination offset / in-flight pick
        ),
        max_size=60,
    ),
)


def interpret(n, codes):
    """The same op stream twice: session ingest docs, and a trace whose
    op times are the session's clock and whose message ids are the ones
    the session mints (in send order)."""
    docs, ops, in_flight = [], [], []
    for t, (code, a, b) in enumerate(codes):
        pid = a % n
        if code == 0:
            dst = (pid + 1 + b % (n - 1)) % n
            msg = sum(1 for d in docs if d["kind"] == "send")
            docs.append({"kind": "send", "src": pid, "dst": dst})
            ops.append(TraceOp(float(t), TraceOpKind.SEND, pid, peer=dst, msg_id=msg))
            in_flight.append((msg, pid, dst))
        elif code == 1 and in_flight:
            msg, src, dst = in_flight.pop(b % len(in_flight))
            docs.append({"kind": "deliver", "msg_id": msg})
            ops.append(TraceOp(float(t), TraceOpKind.DELIVER, dst, peer=src, msg_id=msg))
        else:
            docs.append({"kind": "checkpoint", "pid": pid})
            ops.append(TraceOp(float(t), TraceOpKind.BASIC_CHECKPOINT, pid))
    return docs, Trace(n, ops)


def session_pattern(n, docs, replies):
    """Per process, the (event, checkpoint kind, index or msg) sequence
    the session's replies describe: forced checkpoints before the
    delivery or after the send that caused them."""
    events = [[] for _ in range(n)]
    endpoints = {}
    for doc, reply in zip(docs, replies):
        if doc["kind"] == "checkpoint":
            events[doc["pid"]].append(("ckpt", CheckpointKind.BASIC, reply["index"]))
            continue
        forced = [("ckpt", CheckpointKind.FORCED, reply["forced_index"])]
        if not reply["force_checkpoint"]:
            assert reply["forced_index"] is None
            forced = []
        if doc["kind"] == "send":
            endpoints[reply["msg_id"]] = doc["dst"]
            events[doc["src"]] += [("send", None, reply["msg_id"])] + forced
        else:
            dst = endpoints[doc["msg_id"]]
            events[dst] += forced + [("deliver", None, doc["msg_id"])]
    return events


def replay_pattern(history):
    """The same per-process sequence, read off a recorded history."""
    return [
        [
            ("ckpt", ev.checkpoint_kind, ev.checkpoint_index)
            if ev.is_checkpoint
            else ("send" if ev.is_send else "deliver", None, ev.msg_id)
            for ev in history.events(pid)
            if ev.checkpoint_kind is not CheckpointKind.INITIAL
        ]
        for pid in range(history.num_processes)
    ]


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
@settings(max_examples=40, deadline=None)
@given(stream=streams)
def test_session_forces_what_replay_records(protocol, stream):
    n, codes = stream
    docs, trace = interpret(n, codes)
    session = ServeSession("diff", n, protocol)
    replies = [session.apply(dict(doc)) for doc in docs]
    result = replay(trace, protocol_factory(protocol), close=False)
    assert session_pattern(n, docs, replies) == replay_pattern(result.history)
    assert session.forced_total == result.metrics.forced_checkpoints


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
@settings(max_examples=15, deadline=None)
@given(stream=streams)
def test_session_traces_what_replay_traces(protocol, stream):
    """Same ``proto.*`` events (kinds and fields, ``t`` aside) and the
    same ``replay.*`` counters from a session as from ``replay``."""
    n, codes = stream
    docs, trace = interpret(n, codes)
    tracers, registries = (Tracer(), Tracer()), (MetricsRegistry(), MetricsRegistry())
    session = ServeSession("trace", n, protocol, tracer=tracers[0], metrics=registries[0])
    for doc in docs:
        session.apply(dict(doc))
    replay(trace, protocol_factory(protocol), tracer=tracers[1], metrics=registries[1])
    served, replayed = (
        [(ev.kind, ev.fields) for ev in tracer if ev.kind.startswith("proto.")]
        for tracer in tracers
    )
    assert served == replayed
    served, replayed = (
        {k: v for k, v in reg.snapshot().counters.items() if k.startswith("replay.")}
        for reg in registries
    )
    assert served == replayed


# ----------------------------------------------------------------------
# the guard: the contract's protocol calls live in one place
# ----------------------------------------------------------------------
#: The calls that decide or consume an arrival; only the family's steps
#: (and the places below) may make them.
GUARDED = {"wants_forced_checkpoint", "wants_checkpoint_after_send", "on_receive"}

#: Files allowed to make guarded calls, and how many each may make:
#: the family itself, the conformance kit (it drives one instance by
#: hand), and the crash engine's re-execution of a delivery half behind
#: a restored forced checkpoint (one ``on_receive``, documented there).
ALLOWED = {
    "src/repro/core/protocol.py": None,
    "src/repro/testing.py": None,
    "src/repro/sim/crashes.py": {"on_receive": 1},
}


def guarded_calls(root):
    """``{file: [(method, line), ...]}`` for guarded calls under
    ``root/src/repro``, ``super().<method>(...)`` calls excepted."""
    found = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            receiver = node.func.value
            if node.func.attr not in GUARDED or (
                isinstance(receiver, ast.Call)
                and getattr(receiver.func, "id", None) == "super"
            ):
                continue
            where = path.relative_to(root).as_posix()
            found.setdefault(where, []).append((node.func.attr, node.lineno))
    return found


def stray_calls(root):
    stray = {}
    for where, calls in guarded_calls(root).items():
        if where in ALLOWED and ALLOWED[where] is None:
            continue
        budget = dict(ALLOWED.get(where) or {})
        for method, line in calls:
            if budget.get(method, 0) > 0:
                budget[method] -= 1
            else:
                stray.setdefault(where, []).append((method, line))
    return stray


def test_the_scan_sees_the_steps():
    found = guarded_calls(REPO_ROOT)
    methods = {method for method, _ in found["src/repro/core/protocol.py"]}
    assert methods == GUARDED


def test_only_the_family_drives_an_arrival():
    stray = stray_calls(REPO_ROOT)
    assert not stray, f"protocol calls outside ProtocolFamily's steps: {stray}"
