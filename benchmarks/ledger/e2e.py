"""Untraced end-to-end rounds: what a user of the system would see.

One *round* is one repetition of a workload on a fresh deployment:
spawn (``setup_s``), pipelined phase (``events_per_s``,
``events_per_cpu_s``), window-1 tail (``rtt_*``, ``query_*``), live
differential, ``kill -9`` of the process group, restart on the same
state (``recover_s``), differential again, graceful stop.

Rounds repeat identical work, which is what makes the numbers steady on
a shared box: throughput is total events over the *position-wise best*
slice times across rounds, latency percentiles are taken over the
position-wise best latency of every op (see ``stats.best_of``), so each
piece of work counts at the speed it ran when nothing interfered.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Set

from . import deploy
from .deploy import Deployment, LedgerError
from .driver import SessionState, ask, run_phase
from .gate import Gate, live_answers, verdict_digest
from .stats import best_of, percentile, slices
from .workloads import BULK_WINDOW, QUERY_KINDS, Inputs, Spec

#: Stop starting new rounds past this many (a fast box gains nothing more).
MAX_ROUNDS = 12
#: Acks per slice of the pipelined phase (four windows).
SLICE_ACKS = 4 * BULK_WINDOW


@dataclass
class Round:
    """The raw observations of one round."""

    setup_s: float = 0.0
    recover_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: Work units of the throughput phase (acked events / trace ops).
    events: int = 0
    #: Durations of that phase's slices, in position order.
    slice_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    #: CPU seconds over that phase, by role ("server", "router", "shard",
    #: "loadgen"; for ``offline_cell`` the one process is the "cell").
    cpu_s: Dict[str, float] = field(default_factory=dict)
    #: Per-op latencies in position order (connections concatenated).
    rtt_ms: List[float] = field(default_factory=list)
    query_ms: List[float] = field(default_factory=list)
    bulk_ms: List[float] = field(default_factory=list)
    #: What the router's ``stats`` verb said before the cut (empty
    #: without a router), under the per-layer metric names.
    router: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    digest: str = ""


def serve_round(inputs: Inputs, gate: Gate, cpus: Set[int]) -> Round:
    spec = inputs.spec
    sharded = spec.deployment == "sharded"
    states = {s.sid: SessionState(s) for s in inputs.sessions}
    gated = [states[s.sid] for s in inputs.gated]
    out = Round()
    with Deployment(sharded, cpus) as dep:
        out.setup_s = dep.spawn()
        pids = dep.server_pids()
        cpu0 = {
            role: sum(deploy.proc_cpu_s(p) for p in group)
            for role, group in pids.items()
        }
        bulk = run_phase(
            dep.address, inputs.bulk, states, window=BULK_WINDOW,
            query_every=spec.bulk_query_every, query_kinds=spec.bulk_query_kinds,
        )
        out.cpu_s = {
            role: sum(deploy.proc_cpu_s(p) for p in group) - cpu0[role]
            for role, group in pids.items()
        }
        # The tail's connections take turns, so exactly one frame is in
        # flight in the whole deployment: two window-1 connections at
        # once fall into lockstep and time each other's queries (2x,
        # or not, depending on the seed) instead of the server.
        tails = [
            run_phase(
                dep.address, [plan], states, window=1,
                query_every=spec.tail_query_every, query_kinds=QUERY_KINDS,
            )
            for plan in inputs.tail
        ]
        for report in (bulk, *tails):
            out.attempted += report.submitted
            if report.failures:
                # Positions no longer line up across rounds, and a failed
                # frame misses every limit: fail the run, never average.
                raise LedgerError(f"{spec.name}: frames failed: {report.failures}")
        before = live_answers(dep.address, gated)
        if not sharded:
            # No WAL here: a snapshot is what this deployment can come
            # back from, so the sampled sessions take one before the cut.
            ask(dep.address, inputs.gated, [("snapshot", {})])
        out.peak_rss_mb = sum(
            deploy.proc_peak_rss_mb(p) for group in pids.values() for p in group
        )
        stats = dep.stats() if sharded else None
        dep.kill9()

        started = time.perf_counter()
        dep.spawn()
        resumed = ask(dep.address, inputs.gated, [("hello", {})])
        out.recover_s = time.perf_counter() - started
        after = live_answers(dep.address, gated)
        summary = dep.stop()

    out.events = bulk.acked
    out.slice_s = slices(bulk.ack_s, SLICE_ACKS)
    out.wall_s = bulk.wall_s
    out.cpu_s["loadgen"] = bulk.loadgen_cpu_s
    out.rtt_ms = [ms for tail in tails for ms in tail.ingest_ms[0]]
    out.query_ms = [ms for tail in tails for ms in tail.query_ms[0]]
    out.bulk_ms = [ms for conn in bulk.ingest_ms for ms in conn]
    if stats is not None:
        forwarded = [int(s["forwarded"]) for s in stats["shards"]]
        out.router = {
            "serve.shardmap.balance_max_over_mean": max(forwarded)
            / (sum(forwarded) / len(forwarded)),
            "serve.router.forwarded": float(sum(forwarded)),
            "serve.router.shed": float(stats["shed"]),
            "serve.router.restarts": float(
                sum(int(s["restarts"]) for s in stats["shards"])
            ),
        }

    # The gate: answers before and after the cut, and durability.
    gate.differential("live", gated, before)
    gate.differential("after kill -9", gated, after)
    for state in gated:
        events = int(resumed[state.session.sid][0]["events"])
        gate.expect(
            events >= state.acked,
            f"{state.session.sid}: {events} events after restart < "
            f"{state.acked} acked",
        )
    if sharded:
        # WAL on: *every* session must have survived, not just the sample.
        for state in states.values():
            events = summary.get(state.session.sid, 0)
            gate.expect(
                events >= state.acked,
                f"{state.session.sid}: {events} durable events < {state.acked} acked",
            )
    out.digest = verdict_digest(
        {
            state.session.sid: {
                "forced": json.loads(before[state.session.sid]["rdt_status"])["forced"],
                "answers": before[state.session.sid],
            }
            for state in gated
        }
    )
    return out


def offline_round(spec: Spec, seed: int, gate: Gate, cpus: Set[int]) -> Round:
    """One ``offline_cell`` repetition in a fresh interpreter, which makes
    ``setup_s`` (spawn -> ``import repro.api`` done), CPU and peak RSS
    properties of that process alone."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "benchmarks.ledger.offline",
            "--seed", str(seed), "--n", str(spec.n),
            "--duration", str(spec.duration),
        ],
        env=deploy.child_env(),
        cwd=str(deploy.ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
        text=True,
    )
    os.sched_setaffinity(proc.pid, cpus)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        stdout, stderr = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise LedgerError(f"offline cell child failed: {stderr[-800:]}")
    doc = json.loads(stdout.splitlines()[-1])
    gate.checked += int(doc["checked"])
    gate.mismatches.extend(doc["mismatches"])
    return Round(
        setup_s=setup_s,
        recover_s=doc["recover_s"],
        peak_rss_mb=doc["peak_rss_mb"],
        events=doc["events"],
        slice_s=doc["slice_s"],
        wall_s=doc["wall_s"],
        cpu_s={"cell": doc["cpu_s"]},
        rtt_ms=doc["rtt_ms"],
        query_ms=doc["query_ms"],
        digest=str(doc["digest"]),
    )


@dataclass
class Measurement:
    rounds: List[Round]
    gate: Gate

    def _events_per_s(self) -> float:
        events = self.rounds[0].events
        if any(r.events != events for r in self.rounds):
            raise LedgerError("rounds completed different event counts")
        return events / sum(best_of([r.slice_s for r in self.rounds]))

    def _cpu_per_wall(self, *roles: str) -> float:
        """CPU seconds of ``roles`` per wall second, over every round: the
        neighbour that slows a round inflates both alike, so the ratio
        holds while either alone wanders."""
        wall = sum(r.wall_s for r in self.rounds)
        return sum(r.cpu_s.get(role, 0.0) for r in self.rounds for role in roles) / wall

    def end_to_end(self) -> Dict[str, float]:
        rounds = self.rounds
        rate = self._events_per_s()
        rtt = best_of([r.rtt_ms for r in rounds])
        query = best_of([r.query_ms for r in rounds])
        return {
            "setup_s": statistics.median(r.setup_s for r in rounds),
            "events_per_s": rate,
            "events_per_cpu_s": rate
            / self._cpu_per_wall("server", "router", "shard", "cell"),
            "rtt_p50_ms": percentile(rtt, 0.50),
            "rtt_p99_ms": percentile(rtt, 0.99),
            "query_p50_ms": percentile(query, 0.50),
            "query_p95_ms": percentile(query, 0.95),
            "recover_s": min(r.recover_s for r in rounds),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
        }

    def process_rows(self) -> Dict[str, float]:
        """Process-level rows of the per-layer ledger (all zero where
        the process does not exist: no router, or no deployment)."""
        rate = self._events_per_s()

        def us_per_event(*roles: str) -> float:
            return self._cpu_per_wall(*roles) / rate * 1e6

        first = self.rounds[0]
        worker = us_per_event("server", "shard")
        router = us_per_event("router")
        bulk = best_of([r.bulk_ms for r in self.rounds]) if first.bulk_ms else [0.0]
        out = {
            "serve.client.loadgen_cpu_us_per_event": us_per_event("loadgen"),
            "serve.client.bulk_p50_ms": percentile(bulk, 0.50),
            "serve.client.bulk_p99_ms": percentile(bulk, 0.99),
            "serve.server.cpu_us_per_event": worker,
            "serve.router.cpu_us_per_event": router,
            "serve.router.tax": router / worker if worker else 0.0,
            # A shed frame fails the round, so a reported run shed none.
            "serve.server.shed": 0.0,
        }
        for name in (
            "serve.shardmap.balance_max_over_mean", "serve.router.forwarded",
            "serve.router.shed", "serve.router.restarts",
        ):
            out[name] = first.router.get(name, 0.0)
        return out

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.rounds) + self.gate.checked

    @property
    def failed(self) -> int:
        return len(self.gate.mismatches)

    @property
    def digest(self) -> str:
        return self.rounds[0].digest

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(
            r.digest == self.digest for r in self.rounds
        )


def measure(inputs: Inputs, seconds: float, min_rounds: int = 1) -> Measurement:
    """Run rounds until ``seconds`` of wall time are spent (at least
    ``min_rounds``, at most ``MAX_ROUNDS``)."""
    deploy.require_proc()
    gate = Gate()
    rounds: List[Round] = []
    deadline = time.monotonic() + seconds
    with deploy.cpu_plan(inputs.spec.deployment == "sharded") as cpus:
        while len(rounds) < min_rounds or (
            time.monotonic() < deadline and len(rounds) < MAX_ROUNDS
        ):
            if inputs.spec.deployment == "offline":
                rounds.append(offline_round(inputs.spec, inputs.seed, gate, cpus))
            else:
                rounds.append(serve_round(inputs, gate, cpus))
    return Measurement(rounds, gate)
