"""The four workloads and their seeded inputs.

A workload is a deployment shape plus a traffic plan.  Its inputs are
protocol-independent traces from ``repro.sim.generate.generate_trace``,
flattened to plain op tuples before any clock starts: the programs
under test only ever see generated inputs, never the seed.

Sizes are the issue's shapes scaled down so that 4 + 22 x 4 driver runs
fit the contract's 3420 s and so that one run holds several rounds (the
estimators in ``stats`` need repetitions): ``n``, the session length of
the short sessions, windows and topology are untouched; what shrinks is
sessions per connection (``serve_short`` 200 -> 16, ``serve_prod``
60 -> 6, tails 10 -> 3 and 10 -> 2) and the ``duration`` of the two
deep workloads (``serve_deep`` 300 -> 120 with a 400-op tail,
``offline_cell`` 200 -> 60).  ``README.md`` records the factors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

#: ("c", pid) | ("s", src, dst, key) | ("d", key); ``key`` is the
#: trace's own message id, mapped to the server-assigned one on ack.
Op = Tuple

PROTOCOL = "bhmr"
BASIC_RATE = 0.1
CONNECTIONS = 2
BULK_WINDOW = 64
QUERY_KINDS = ("rdt_status", "z_cycles", "recovery_line")
#: The sweep cell of ``offline_cell`` (and of every traced cell pass).
CELL_PROTOCOLS = ("bhmr", "fdas", "cbr", "independent")


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    deployment: str  # "single" | "sharded" | "offline"
    n: int
    duration: float
    #: Sessions per connection in the pipelined (window 64) phase.
    bulk_sessions: int = 1
    bulk_query_every: int = 100
    #: Query kinds cycled in the pipelined phase.
    bulk_query_kinds: Tuple[str, ...] = ("rdt_status",)
    #: Fresh sessions per connection in the window-1 tail; 0 means the
    #: tail continues the bulk sessions for ``tail_ops`` more ops each.
    tail_sessions: int = 0
    tail_ops: int = 0
    tail_query_every: int = 10
    #: Sessions whose answers are checked against offline replay.
    gate_sample: int = 20

    def quick(self) -> "Spec":
        """Sizes / 20 for the self-test (shapes kept, numbers meaningless)."""
        if self.deployment == "offline":
            return replace(self, duration=max(8.0, self.duration / 10))
        if self.tail_sessions:
            return replace(
                self,
                bulk_sessions=max(2, self.bulk_sessions // 20),
                tail_sessions=1,
                gate_sample=3,
            )
        return replace(self, duration=self.duration / 10, tail_ops=60)


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="serve_short",
            why=(
                "many short sessions on one server: closures stay under 100 "
                "nodes, so client encode, wire, dispatch and predicates do the "
                "work; closure, WAL and router are bypassed"
            ),
            deployment="single",
            n=4,
            duration=50.0,
            bulk_sessions=16,
            tail_sessions=3,
        ),
        Spec(
            name="serve_deep",
            why=(
                "two long n=16 sessions on one server: IncrementalClosure."
                "add_edge cost grows with depth, so graph does the work and the "
                "wire is under 10%; queries read the closure ingest writes"
            ),
            deployment="single",
            n=16,
            duration=120.0,
            bulk_query_every=50,
            bulk_query_kinds=QUERY_KINDS,
            tail_ops=400,
            gate_sample=2,
        ),
        Spec(
            name="serve_prod",
            why=(
                "serve_short's ops through router + 2 WAL shards, then kill -9 "
                "and restart: the difference is the topology, router hop and "
                "WAL group commit; proves ack implies durable"
            ),
            deployment="sharded",
            n=4,
            duration=50.0,
            bulk_sessions=6,
            tail_sessions=2,
        ),
        Spec(
            name="offline_cell",
            why=(
                "one in-process sweep cell (generate, replay, closure, RDT "
                "checkers) plus an offline audit of an ingest log: the batch "
                "use of the reachability layer serve_deep uses incrementally"
            ),
            deployment="offline",
            n=16,
            duration=60.0,
        ),
    )
}


@dataclass
class Session:
    """One client computation: identity plus its op stream."""

    sid: str
    n: int
    ops: List[Op]
    protocol: str = PROTOCOL
    gated: bool = False


#: One connection's work in one phase: (session, first op, one past last).
Plan = List[Tuple[Session, int, int]]


@dataclass
class Inputs:
    spec: Spec
    seed: int
    sessions: List[Session] = field(default_factory=list)
    #: Per connection, the pipelined phase and the window-1 tail.
    bulk: List[Plan] = field(default_factory=list)
    tail: List[Plan] = field(default_factory=list)

    @property
    def gated(self) -> List[Session]:
        return [s for s in self.sessions if s.gated]


def trace_ops(n: int, duration: float, seed: int):
    """``(ops, times)`` of one generated ``random`` trace."""
    from repro.sim.generate import generate_trace
    from repro.sim.trace import TraceOpKind
    from repro.workloads import WORKLOADS

    trace = generate_trace(
        n, WORKLOADS["random"](), duration=duration, seed=seed,
        basic_rate=BASIC_RATE,
    )
    ops: List[Op] = []
    for op in trace.ops:
        if op.kind is TraceOpKind.BASIC_CHECKPOINT:
            ops.append(("c", op.pid))
        elif op.kind is TraceOpKind.SEND:
            ops.append(("s", op.pid, op.peer, op.msg_id))
        else:
            ops.append(("d", op.msg_id))
    return ops, [op.time for op in trace.ops]


def trace_seed(seed: int, index: int) -> int:
    """Distinct generator seed per (benchmark seed, session index)."""
    return seed * 100_003 + index


def build_inputs(spec: Spec, seed: int) -> Inputs:
    """Generate every session of ``spec`` from ``seed`` (set-up, untimed).

    Session ids deliberately omit the seed: every round runs on a fresh
    deployment, so ids can repeat, and fixed ids pin the consistent-hash
    placement -- shard balance is then a constant of the workload
    instead of a per-seed draw that would blur ``serve_prod``.
    """
    inputs = Inputs(spec, seed)
    if spec.deployment == "offline":
        return inputs
    index = 0
    for conn in range(CONNECTIONS):
        bulk: Plan = []
        tail: Plan = []
        for i in range(spec.bulk_sessions):
            if spec.tail_sessions:
                ops, _ = trace_ops(spec.n, spec.duration, trace_seed(seed, index))
                cut = len(ops)
            else:
                # One long trace: the bulk phase ends where the nominal
                # duration does, the tail plays what follows.
                ops, times = trace_ops(
                    spec.n, spec.duration * 1.25 + 10, trace_seed(seed, index)
                )
                cut = sum(1 for t in times if t <= spec.duration)
                ops = ops[: cut + spec.tail_ops]
            session = Session(f"{spec.name}-c{conn}-b{i:03d}", spec.n, ops)
            inputs.sessions.append(session)
            bulk.append((session, 0, cut))
            if not spec.tail_sessions:
                tail.append((session, cut, len(ops)))
            index += 1
        for i in range(spec.tail_sessions):
            ops, _ = trace_ops(spec.n, spec.duration, trace_seed(seed, index))
            session = Session(f"{spec.name}-c{conn}-t{i:03d}", spec.n, ops)
            inputs.sessions.append(session)
            tail.append((session, 0, len(ops)))
            index += 1
        inputs.bulk.append(bulk)
        inputs.tail.append(tail)
    rng = random.Random(f"ledger-gate:{seed}")
    count = min(spec.gate_sample, len(inputs.sessions))
    for session in rng.sample(inputs.sessions, count):
        session.gated = True
    return inputs
