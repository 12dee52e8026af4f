"""The whole ledger in one command: ``python -m benchmarks.ledger --seed 0``.

For every workload: ``LEDGER_ROUNDS`` untraced end-to-end rounds (each
metric built from the best of every position over the rounds, see
``stats.best_of``), then the traced per-layer pass.  Every
metric is printed by name with its unit, every workload ends with its
``verdict_digest``, and the run fails unless every gate passed.  With
``--sets 2`` the whole thing runs twice and the two sets are compared:
timings against the bounds in ``BENCHMARK.json``, exact counts and
digests for identity.  The result document goes to
``benchmarks/ledger/out/`` (or ``--out``), which is how
``history/*.json`` files are made.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from .deploy import OUT, SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from . import report  # noqa: E402  (needs src/ on the path first)


def run_set(names: List[str], seed: int, quick: bool) -> Dict[str, object]:
    workloads: Dict[str, object] = {}
    correct = True
    for name in names:
        section: Dict[str, object] = {}
        for trace in (False, True):
            result = report.run_workload(
                name, seed, seconds=0.0, trace=trace, quick=quick,
                min_rounds=report.MIN_ROUNDS if quick else report.LEDGER_ROUNDS,
            )
            for line in result.lines:
                print(line)
            sys.stdout.flush()
            correct = correct and bool(result.doc["correct"])
            key = "per_layer" if trace else "end_to_end"
            section[key] = {k: v["value"] for k, v in result.doc["metrics"].items()}
            if not trace:
                section.update(
                    {
                        "attempted": result.doc["attempted"],
                        "failed": result.doc["failed"],
                        "rounds": result.detail["rounds"],
                        "per_round": result.detail["per_round"],
                        "samples": result.detail["samples"],
                        "verdict_digest": result.detail["verdict_digest"],
                    }
                )
            section["env"] = result.detail["env"]
        workloads[name] = section
    return {"seed": seed, "quick": quick, "correct": correct, "workloads": workloads}


def compare_sets(first: Dict[str, object], second: Dict[str, object]) -> List[str]:
    """Lines describing where two sets of one commit and seed disagree;
    lines starting ``EXACT`` are failures, ``DRIFT`` are timing noise
    beyond the metric's own bound."""
    cat = report.catalogue()
    out: List[str] = []
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        if a["verdict_digest"] != b["verdict_digest"]:
            out.append(f"EXACT {name} verdict_digest differs")
        for metric in report.EXACT_METRICS:
            if a["per_layer"][metric] != b["per_layer"][metric]:
                out.append(
                    f"EXACT {name} {metric}: {a['per_layer'][metric]} != "
                    f"{b['per_layer'][metric]}"
                )
        for entry in cat["end_to_end"]:
            x, y = a["end_to_end"][entry["name"]], b["end_to_end"][entry["name"]]
            worse = (y - x) / x if entry["better"] == "lower" else (x - y) / x
            if abs(worse) > entry["bound"]:
                out.append(
                    f"DRIFT {name} {entry['name']}: {x:.4f} -> {y:.4f} "
                    f"({worse:+.1%} vs bound {entry['bound']:.0%})"
                )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="self-test sizes")
    parser.add_argument("--workload", action="append", choices=sorted(report.SPECS))
    parser.add_argument("--sets", type=int, default=1, help="repeat and compare")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    names = args.workload or list(report.SPECS)
    try:
        sets = []
        for index in range(args.sets):
            print(f"## set {index + 1} of {args.sets}")
            sets.append(run_set(names, args.seed, args.quick))
    except report.LedgerError as exc:
        sys.stderr.write(f"ledger: {exc}\n")
        return 1
    findings: List[str] = []
    for later in sets[1:]:
        findings += compare_sets(sets[0], later)
    for line in findings:
        print(line)
    path = args.out or OUT / f"ledger-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"sets": sets, "findings": findings}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"## wrote {path}")
    ok = all(s["correct"] for s in sets) and not any(
        line.startswith("EXACT") for line in findings
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
