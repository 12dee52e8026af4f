"""One workload, one pass: measure, gate, and name every metric.

``BENCHMARK.json`` is the catalogue: the metric names and units printed
here are read from it, so the contract file and the program cannot
drift apart (the self-test checks that every catalogued metric is
emitted exactly once per workload).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from dataclasses import dataclass
from typing import Dict, List, Optional

from . import deploy
from .deploy import LedgerError  # noqa: F401  (re-exported for run.py)
from .e2e import measure
from .spans import SpanLog
from .workloads import SPECS, Inputs, Session, build_inputs, trace_ops

CATALOGUE = deploy.ROOT / "BENCHMARK.json"
#: Rounds the full ledger takes per workload (the driver's runs are
#: time-boxed instead, see ``run_seconds``).
LEDGER_ROUNDS = 4
#: Fewest rounds of any pass: best-of needs a choice.  Also what a traced
#: run takes for its process-level rows, and a ``--quick`` run in all.
MIN_ROUNDS = 2

#: Per-layer metrics that are counts of a seeded, single-threaded replay:
#: two runs of one commit and seed must print them identically, which is
#: what lets a later change claim on them (a count, never a speed-up).
EXACT_METRICS = (
    "serve.session.events", "serve.session.forced", "core.forced_ratio",
    "core.piggyback_bits_per_msg", "graph.closure_nodes", "graph.closure_edges",
    "graph.closure_rows_touched_per_edge", "graph.closure_noop_edge_share",
    "recovery.logged_messages", "serve.wire.request_bytes_per_event",
    "serve.wire.reply_bytes_per_event", "serve.wal.commits",
    "serve.wal.records_per_commit", "serve.wal.bytes_per_event",
    "serve.wal.segments", "serve.snapshots.bytes", "analysis.rdt_checks",
)


def catalogue() -> Dict[str, object]:
    with open(CATALOGUE, "r", encoding="utf-8") as f:
        return json.load(f)


def environment() -> Dict[str, object]:
    """Where the numbers were taken (recorded beside them)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(deploy.ROOT),
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "commit": commit,
    }


@dataclass
class Result:
    doc: Dict[str, object]
    lines: List[str]
    detail: Dict[str, object]


def _traced_sessions(inputs: Inputs) -> List[Session]:
    """The op stream the traced pass replays: the workload's own
    sessions, or for ``offline_cell`` the cell's two seed traces."""
    spec = inputs.spec
    if spec.deployment != "offline":
        return inputs.sessions
    return [
        Session(f"{spec.name}-{k}", spec.n, trace_ops(spec.n, spec.duration, inputs.seed + k)[0])
        for k in range(2)
    ]


def _attribute(values: Dict[str, float], sharded: bool) -> None:
    """Server CPU per event against the in-process self times of the
    layers on its path; the rest is asyncio/queue/syscall residue."""
    cpu = values["serve.server.cpu_us_per_event"]
    if not cpu:  # no server process on this workload
        values["serve.server.unattributed_us_per_event"] = 0.0
        values["serve.server.ledger_coverage"] = 0.0
        return
    attributed = (
        values["serve.wire.decode_us_per_frame"]
        + values["serve.wire.encode_us_per_frame"]
        + values["serve.session.apply_us_per_event"]
        + values["serve.session.query_us_per_event"]
    )
    if sharded:
        attributed += (
            values["serve.wal.append_us_per_record"]
            + values["serve.wal.sync_cpu_us_per_record"]
        )
    values["serve.server.unattributed_us_per_event"] = cpu - attributed
    values["serve.server.ledger_coverage"] = attributed / cpu


def run_workload(
    name: str,
    seed: int,
    *,
    seconds: Optional[float] = None,
    trace: bool = False,
    quick: bool = False,
    min_rounds: int = MIN_ROUNDS,
) -> Result:
    if name not in SPECS:
        raise LedgerError(f"unknown workload {name!r}; known: {', '.join(SPECS)}")
    cat = catalogue()
    if seconds is None:
        seconds = 0.0 if quick else float(cat["run_seconds"])
    spec = SPECS[name].quick() if quick else SPECS[name]
    env = environment()
    lines = [
        f"# {name} seed={seed} trace={int(trace)} nproc={env['nproc']} "
        f"loadavg={env['loadavg_1m']:.2f} python={env['python']} "
        f"commit={env['commit'][:12]}"
    ]
    if env["loadavg_1m"] > 0.5:
        lines.append(
            f"# WARNING: 1-min loadavg {env['loadavg_1m']:.2f} > 0.5; "
            f"timings share the box with other work"
        )
    inputs = build_inputs(spec, seed)
    detail: Dict[str, object] = {"env": env}

    if not trace:
        m = measure(inputs, seconds, min_rounds=min_rounds)
        values = m.end_to_end()
        section = cat["end_to_end"]
    else:
        m = measure(inputs, 0.0, min_rounds=MIN_ROUNDS)
        spans = SpanLog()
        from .layers import traced_pass

        values, counts = traced_pass(spec, _traced_sessions(inputs), seed, spans)
        values.update({k: float(v) for k, v in counts.items()})
        values.update(m.process_rows())
        _attribute(values, spec.deployment == "sharded")
        trace_path = deploy.OUT / f"trace-{name}.json"
        spans.dump(trace_path)
        lines.append(
            f"# {len(spans.rows)} spans -> {trace_path.relative_to(deploy.ROOT)}"
        )
        section = cat["per_layer"]

    metrics = {}
    for entry in section:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        lines.append(f"{entry['name']:<46} {values[entry['name']]:>14.4f} {entry['unit']}")
    first = m.rounds[0]
    lines.append(
        f"# rounds={len(m.rounds)} events/round={first.events} "
        f"slices/round={len(first.slice_s)} rtt_samples={len(first.rtt_ms)} "
        f"query_samples={len(first.query_ms)}"
    )
    for what in m.gate.mismatches[:10]:
        lines.append(f"# GATE: {what}")
    lines.append(f"verdict_digest {name} {m.digest}")
    detail.update(
        {
            "rounds": len(m.rounds),
            "per_round": [
                {
                    "setup_s": r.setup_s, "recover_s": r.recover_s,
                    "peak_rss_mb": r.peak_rss_mb, "wall_s": r.wall_s,
                    "cpu_s": r.cpu_s,
                }
                for r in m.rounds
            ],
            "samples": {
                "events": first.events, "slices": len(first.slice_s),
                "rtt": len(first.rtt_ms), "query": len(first.query_ms),
            },
            "verdict_digest": m.digest,
        }
    )
    doc = {
        "correct": m.correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }
    return Result(doc, lines, detail)
