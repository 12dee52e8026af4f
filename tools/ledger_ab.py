#!/usr/bin/env python3
"""Paired A/B of the frozen ledger: a parent checkout against this tree.

    python tools/ledger_ab.py /root/scratch/parent --workload serve_short --pairs 10

Runs the command ``BENCHMARK.json`` names once per side per pair, for
``run_seconds`` each, alternating which side goes first so drift on a
shared box lands on both.  Every run made is printed as it finishes;
the closing table gives, per end-to-end metric, each side's median and
quartiles, the change in the median, how many pairs the change won
(ties count for neither side) and a verdict against the metric's
``bound``:

* ``GAIN``   -- from ten pairs up: won at least nine tenths of them
  *and* the medians differ by more than the parent's own inter-quartile
  spread (the only rows a PR may claim);
* ``unresolved`` -- the parent's own spread is wider than the bound
  (and the change's runs do not all beat the parent's), so "unchanged"
  cannot be told from "regressed";
* ``WORSE``  -- median worse than the parent's by more than the bound;
* ``better`` / ``ok`` -- median better, or worse by no more than the
  bound.

``--markdown`` prints that closing table as a GitHub table instead, so
a CHANGES entry pastes it rather than retyping it into prose.

The tool only *invokes* the benchmark in each checkout; it reads the
bounds from this tree's ``BENCHMARK.json`` and never writes to either.
Exit status is 1 when a run failed its correctness gate or a metric
came out ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Fewer pairs than this can rank two commits, not carry a claim.
CLAIM_PAIRS = 10


def run_once(
    checkout: Path, command: Sequence[str], workload: str, seed: int, seconds: float
) -> Dict[str, float]:
    """One benchmark run inside ``checkout``; its metrics by name."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(
        argv, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"ledger_ab: {' '.join(argv)} failed in {checkout}")
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    if not doc["correct"] or doc["failed"]:
        raise SystemExit(
            f"ledger_ab: run in {checkout} not correct "
            f"(correct={doc['correct']}, failed={doc['failed']})"
        )
    return {name: float(m["value"]) for name, m in doc["metrics"].items()}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(
    parent: Sequence[float], change: Sequence[float], higher_is_better: bool, bound: float
) -> Tuple[float, int, str]:
    """(relative change of the median, pairs won, verdict) for one metric."""
    sign = 1.0 if higher_is_better else -1.0
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gain = sign * (cm - pm)  # > 0: the change reads better
    rel = (cm - pm) / pm if pm else 0.0
    spread = p3 - p1
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    pairs = len(parent)
    if pairs >= CLAIM_PAIRS and gain > spread and wins >= 0.9 * pairs:
        verdict = "GAIN"
    elif pm and spread / abs(pm) > bound and not dominates:
        verdict = "unresolved"
    elif pm and -gain / abs(pm) > bound:
        verdict = "WORSE"
    else:
        verdict = "better" if gain > 0 else "ok"
    return rel, wins, verdict


def closing_rows(
    specs: Sequence[Dict[str, object]], runs: Dict[str, List[Dict[str, float]]]
) -> List[Tuple[str, str, str, str, str, str, str]]:
    """One row of strings per end-to-end metric: name, each side's
    ``median [q1, q3]``, delta of the median, wins/pairs, bound, verdict."""
    rows = []
    for spec in specs:
        name = str(spec["name"])
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        rel, wins, verdict = judge(
            parent, change, spec["better"] == "higher", float(spec["bound"])
        )
        cells = []
        for values in (parent, change):
            q1, q2, q3 = quartiles(values)
            cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
        rows.append(
            (name, cells[0], cells[1], f"{rel:+.1%}", f"{wins}/{len(parent)}",
             f"{spec['bound']}", verdict)
        )
    return rows


HEADER = ("metric", "parent med [q1, q3]", "change med [q1, q3]",
          "delta", "wins", "bound", "verdict")


def render_text(rows: Sequence[Sequence[str]]) -> str:
    layout = "{:<18} {:<34} {:<34} {:>8} {:>6} {:>6}  {}"
    return "\n".join(layout.format(*row) for row in (HEADER, *rows))


def render_markdown(rows: Sequence[Sequence[str]]) -> str:
    """The closing table as a GitHub table (metric names as code)."""
    lines = ["| " + " | ".join(HEADER) + " |", "|---|---|---|---:|---:|---:|---|"]
    for name, *rest in rows:
        lines.append("| " + " | ".join((f"`{name}`", *rest)) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--markdown", action="store_true",
        help="print the closing table as a GitHub table",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    parent_root = args.parent.resolve()
    if parent_root == ROOT or not (parent_root / "BENCHMARK.json").is_file():
        parser.error(f"{args.parent} is not a separate checkout with a BENCHMARK.json")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = bench["command"], float(bench["run_seconds"])
    sides = {"parent": parent_root, "change": ROOT}
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            metrics = run_once(sides[side], command, args.workload, args.seed, seconds)
            runs[side].append(metrics)
            print(
                f"pair {pair + 1:>2} {side:<6} "
                + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                flush=True,
            )

    print(
        f"\n# {args.workload} seed={args.seed} pairs={args.pairs} "
        f"seconds={seconds:g} parent={parent_root}"
    )
    rows = closing_rows(bench["end_to_end"], runs)
    print(render_markdown(rows) if args.markdown else render_text(rows))
    return 1 if any(row[-1] == "WORSE" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
