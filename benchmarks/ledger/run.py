"""One benchmark run: ``--workload W --seed N --seconds S --trace 0|1``.

This is the entry point ``BENCHMARK.json`` names.  It runs from a plain
checkout (no install, not a git repository): the repo's ``src/`` and
root go on ``sys.path`` here, and a checkout without ``src/repro`` is
refused with a non-zero exit before anything is measured.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0`` (untraced rounds, median over rounds), every per-layer
metric with ``--trace 1`` (one untraced round for the process-level
rows, then the in-process traced pass).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def _bootstrap() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"ledger: {ROOT / 'src' / 'repro'} not found; the benchmark runs "
            f"the repository's own sources and needs a full checkout\n"
        )
        raise SystemExit(2)
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="self-test sizes (/20): every metric is emitted, none is meaningful",
    )
    args = parser.parse_args(argv)
    _bootstrap()

    from benchmarks.ledger import report

    try:
        result = report.run_workload(
            args.workload, args.seed, seconds=args.seconds,
            trace=bool(args.trace), quick=args.quick,
        )
    except report.LedgerError as exc:
        sys.stderr.write(f"ledger: {exc}\n")
        return 1
    for line in result.lines:
        print(line)
    print(json.dumps(result.doc))
    return 0 if result.doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
