"""Self-test of the ledger (``pytest benchmarks/ledger``; not tier-1).

Runs every workload at ``--quick`` sizes through the real entry point
and checks the contract between ``BENCHMARK.json`` and the program: each
catalogued metric is emitted exactly once per workload with its unit,
names and counts stay inside the contract's limits, and the recorded
spans nest.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT)) if p not in sys.path]

CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CATALOGUE["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload, trace, seed=0):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), "--quick",
        ],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()


def test_catalogue_is_within_the_contract():
    assert set(CATALOGUE) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CATALOGUE["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(CATALOGUE["workloads"]) <= 8
    assert 1 <= len(CATALOGUE["end_to_end"]) <= 16
    assert 1 <= len(CATALOGUE["per_layer"]) <= 128
    assert 1 <= CATALOGUE["run_seconds"] <= 60
    names = WORKLOADS + [
        m["name"] for m in CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for workload in CATALOGUE["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CATALOGUE["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CATALOGUE["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in CATALOGUE["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in CATALOGUE["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_every_catalogued_metric_once(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = CATALOGUE["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for metric in section:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        # ...and printed by name, once, in the human-readable part.
        printed = [l for l in lines[:-1] if l.split()[:1] == [metric["name"]]]
        assert len(printed) == 1 and printed[0].split()[-1] == metric["unit"]
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    assert sum(l.startswith(f"verdict_digest {workload} ") for l in lines) == 1

    if trace:
        doc = json.loads((HERE / "out" / f"trace-{workload}.json").read_text())
        spans = doc["spans"]
        assert spans, "no spans recorded"
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            assert 0 <= name < len(doc["names"]) and end >= start
            if parent >= 0:
                _, pstart, pend, _ = spans[parent]
                assert pstart <= start and end <= pend, "child outside parent"
                covered[parent] += end - start
        for (_, start, end, _), inner in zip(spans, covered):
            assert end - start - inner >= -1e-9, "negative self time"


def test_same_seed_prints_the_same_digest():
    def digest(lines):
        return [l for l in lines if l.startswith("verdict_digest ")]

    assert digest(_run("serve_short", 0, seed=3)) == digest(_run("serve_short", 0, seed=3))
    assert digest(_run("serve_short", 0, seed=3)) != digest(_run("serve_short", 0, seed=4))


def test_bare_directory_is_refused(tmp_path):
    """Without the repository's sources the benchmark must exit non-zero
    and print no result (the driver runs it that way on purpose)."""
    import shutil

    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [
            sys.executable, "benchmarks/ledger/run.py", "--workload", "serve_short",
            "--seed", "0", "--seconds", "1", "--trace", "0",
        ],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not any(l.startswith("{") for l in proc.stdout.splitlines())
