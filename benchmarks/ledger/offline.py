"""The ``offline_cell`` workload: the paper's own path, in-process.

Two parts, both single-threaded with no server:

* :func:`run_cell` -- one sweep cell through the public ``repro.api``:
  ``compare`` (generate -> replay -> closure -> RDT checkers for every
  protocol x seed), then the four offline analyses on the
  ``independent`` history.  This is the *batch* use of the reachability
  layer that ``serve_deep`` uses incrementally.
* :func:`run_audit` -- the offline audit of a recorded ingest log: feed
  one trace through an in-process ``ServeSession`` op by op (what an
  embedder of the library waits per event and per query), then rebuild
  it from its log with ``replay_log`` (what recovery pays per session)
  and check the answers against ``offline_answers``.

Run as a module (``python -m benchmarks.ledger.offline``) it is the
child of one end-to-end round: it prints ``ready`` once ``repro.api`` is
imported, runs both parts, and prints one JSON result line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from time import perf_counter, process_time
from typing import Dict, List, Optional, Sequence

from .deploy import proc_peak_rss_mb
from .spans import ROOT, SpanLog
from .workloads import BASIC_RATE, CELL_PROTOCOLS, PROTOCOL, QUERY_KINDS, trace_ops

AUDIT_QUERY_EVERY = 10


def _span(spans: Optional[SpanLog], name: str, parent: int):
    return spans.span(name, parent) if spans is not None else nullcontext(ROOT)


def run_cell(
    seed: int,
    n: int,
    duration: float,
    seeds: int = 2,
    spans: Optional[SpanLog] = None,
    parent: int = ROOT,
) -> Dict[str, object]:
    """One sweep cell; returns values, slice times, counts and verdicts.

    The cell is issued as its (seed, protocol) sub-cells -- one
    ``api.compare`` each, sharing one ``Profiler`` -- plus the five
    analysis calls, so that every piece is a slice whose best time over
    rounds can be kept (``stats.best_of``); the work is the cell's.
    """
    from repro import api
    from repro.analysis.zcycle import has_z_cycle
    from repro.core.registry import PROTOCOLS

    cell_seeds = tuple(seed + k for k in range(seeds))
    trace_lens = {s: len(trace_ops(n, duration, s)[0]) for s in cell_seeds}
    profiler = api.Profiler()
    slice_s: List[float] = []
    analyses: Dict[str, float] = {}

    @contextmanager
    def piece(name: str, cell: int, analysis: bool = False):
        phase = profiler.phase("analyze") if analysis else nullcontext()
        with _span(spans, name, cell), phase:
            started = perf_counter()
            yield
            slice_s.append(perf_counter() - started)
            if analysis:
                analyses[name] = slice_s[-1] * 1e3

    forced = dict.fromkeys(CELL_PROTOCOLS, 0)
    rdt_ok = dict.fromkeys(CELL_PROTOCOLS, True)
    cpu0 = process_time()
    started = perf_counter()
    with _span(spans, "harness.cell", parent) as cell:
        for cell_seed in cell_seeds:
            for protocol in CELL_PROTOCOLS:
                with piece("harness.compare", cell):
                    aggregate = api.compare(
                        "random", protocols=(protocol,), baseline=protocol,
                        seeds=(cell_seed,), verify_rdt=True, n=n,
                        duration=duration, basic_rate=BASIC_RATE,
                        profiler=profiler,
                    ).aggregate(protocol)
                forced[protocol] += aggregate.forced_total
                rdt_ok[protocol] = rdt_ok[protocol] and aggregate.rdt_ok
        with piece("sim.run", cell):
            history = api.run(
                "random", protocol="independent", n=n, duration=duration,
                seed=seed, basic_rate=BASIC_RATE, profiler=profiler,
            ).history
        with piece("analysis.check_rdt_tdv", cell, analysis=True):
            tdv = api.analyze_rdt(history, method="tdv")
        with piece("analysis.check_rdt_vectorized", cell, analysis=True):
            vectorized = api.analyze_rdt(history, method="vectorized")
        with piece("analysis.z_cycle_batch", cell, analysis=True):
            z_batch = has_z_cycle(history)
        with piece("analysis.z_cycle_incremental", cell, analysis=True):
            z_incremental = has_z_cycle(history, incremental=True)
    wall = perf_counter() - started
    cpu = process_time() - cpu0

    phases = profiler.snapshot()
    values = {
        "harness.cell_overhead_s": wall - sum(phases.values()),
        "analysis.share_of_cell": phases.get("analyze", 0.0) / wall,
    }
    for name in ("generate", "simulate", "closure", "analyze"):
        values[f"obs.phase_s.{name}"] = phases.get(name, 0.0)
    for name, ms in analyses.items():
        values[f"{name}_ms"] = ms

    checks = [
        (rdt_ok[name], f"{name} ensures RDT but a pattern violated it")
        for name in CELL_PROTOCOLS
        if PROTOCOLS[name].ensures_rdt
    ]
    checks += [
        (forced["bhmr"] <= forced["fdas"] <= forced["cbr"],
         f"forced checkpoints not ordered bhmr <= fdas <= cbr: {forced}"),
        (tdv.holds == vectorized.holds, "check_rdt tdv and vectorized disagree"),
        (z_batch == z_incremental, "batch and incremental has_z_cycle disagree"),
    ]
    return {
        "values": values,
        "events": sum(trace_lens.values()) * len(CELL_PROTOCOLS) + trace_lens[seed],
        "rdt_checks": len(CELL_PROTOCOLS) * seeds + 2,
        "slice_s": slice_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "checked": len(checks),
        "mismatches": [what for ok, what in checks if not ok],
        "verdicts": {
            "forced": forced,
            "rdt_ok": rdt_ok,
            "independent_rdt": tdv.holds,
            "z_cycle": z_batch,
        },
    }


def ingest_docs(ops: Sequence[tuple]) -> List[Dict[str, object]]:
    """The ingest-log documents of one op stream.  Message ids are
    assigned in send order (``ServeSession`` mints 0, 1, 2, ...), so the
    log a driver would record is known before anything runs."""
    docs: List[Dict[str, object]] = []
    msg_ids: Dict[object, int] = {}
    for op in ops:
        if op[0] == "c":
            docs.append({"kind": "checkpoint", "pid": op[1]})
        elif op[0] == "s":
            msg_ids[op[3]] = len(msg_ids)
            docs.append({"kind": "send", "src": op[1], "dst": op[2]})
        else:
            docs.append({"kind": "deliver", "msg_id": msg_ids[op[1]]})
    return docs


def run_audit(seed: int, n: int, duration: float) -> Dict[str, object]:
    """In-process per-op and per-query latency, rebuild time, and the
    differential of live answers against ``offline_answers``."""
    from repro.obs.jsonio import canonical_dumps
    from repro.serve.session import ServeSession, offline_answers

    docs = ingest_docs(trace_ops(n, duration, seed)[0])
    session = ServeSession("audit", n, PROTOCOL)
    apply_ms: List[float] = []
    query_ms: List[float] = []
    for i, doc in enumerate(docs, 1):
        started = perf_counter()
        session.apply(dict(doc))
        apply_ms.append((perf_counter() - started) * 1e3)
        if i % AUDIT_QUERY_EVERY == 0:
            what = QUERY_KINDS[(i // AUDIT_QUERY_EVERY) % len(QUERY_KINDS)]
            started = perf_counter()
            session.query(what)
            query_ms.append((perf_counter() - started) * 1e3)
    live = {kind: canonical_dumps(session.query(kind)) for kind in QUERY_KINDS}
    started = perf_counter()
    rebuilt = ServeSession.replay_log("audit", n, PROTOCOL, session.ingest_log)
    recover_s = perf_counter() - started
    offline = offline_answers("audit", n, PROTOCOL, docs)
    checks = [
        (live[kind] == canonical_dumps(offline[kind]),
         f"audit {kind} differs from offline_answers")
        for kind in QUERY_KINDS
    ]
    checks.append(
        (rebuilt.forced_total == session.forced_total,
         "replay_log rebuilt a different forced count")
    )
    return {
        "apply_ms": apply_ms,
        "query_ms": query_ms,
        "recover_s": recover_s,
        "checked": len(checks),
        "mismatches": [what for ok, what in checks if not ok],
        "verdicts": {"forced": session.forced_total, "answers": live},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--duration", type=float, required=True)
    args = parser.parse_args(argv)

    import repro.api  # noqa: F401  (the import *is* this workload's set-up)

    print("ready", flush=True)
    from .gate import verdict_digest

    cell = run_cell(args.seed, args.n, args.duration)
    audit = run_audit(args.seed, args.n, args.duration)
    print(
        json.dumps(
            {
                "events": cell["events"],
                "slice_s": cell["slice_s"],
                "wall_s": cell["wall_s"],
                "cpu_s": cell["cpu_s"],
                "rtt_ms": audit["apply_ms"],
                "query_ms": audit["query_ms"],
                "recover_s": audit["recover_s"],
                "peak_rss_mb": proc_peak_rss_mb(os.getpid()),
                "checked": cell["checked"] + audit["checked"],
                "mismatches": cell["mismatches"] + audit["mismatches"],
                "digest": verdict_digest([cell["verdicts"], audit["verdicts"]]),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
