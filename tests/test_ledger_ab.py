"""The verdict rule of ``tools/ledger_ab.py`` (choosing-metrics §8).

The tool itself only shells out to the frozen benchmark; what can be
wrong in it is the arithmetic that turns paired runs into a claim, so
that is what is pinned here.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location(
        "ledger_ab", REPO_ROOT / "tools" / "ledger_ab.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gain_needs_nine_tenths_of_pairs_and_more_than_the_parent_spread(ab):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.0]
    change = [p + 10.0 for p in parent]
    rel, wins, verdict = ab.judge(parent, change, True, 0.25)
    assert (wins, verdict) == (10, "GAIN")
    assert rel == pytest.approx(0.10, abs=0.005)
    # Two lost pairs out of ten: better in the median, not claimable.
    change[0] = change[1] = 90.0
    assert ab.judge(parent, change, True, 0.25)[1:] == (8, "better")
    # Every pair won, but by less than the parent's own quartile spread.
    noisy = [100.0, 120.0, 80.0, 110.0, 90.0, 100.0, 120.0, 80.0, 110.0, 90.0]
    assert ab.judge(noisy, [p + 1.0 for p in noisy], True, 0.25)[1:] == (10, "better")


def test_lower_is_better_flips_the_sign(ab):
    parent = [0.200, 0.201, 0.199, 0.200]
    # Four pairs rank the sides but cannot carry a claim; ten can.
    assert ab.judge(parent, [p - 0.02 for p in parent], False, 0.25)[2] == "better"
    ten = parent * 2 + parent[:2]
    assert ab.judge(ten, [p - 0.02 for p in ten], False, 0.25)[2] == "GAIN"
    assert ab.judge(parent, [p + 0.02 for p in parent], False, 0.25)[2] == "ok"
    assert ab.judge(parent, [p + 0.06 for p in parent], False, 0.25)[2] == "WORSE"


def test_spread_wider_than_the_bound_is_unresolved_unless_dominated(ab):
    parent = [100.0, 50.0, 150.0, 60.0, 140.0]  # quartiles 60 / 100 / 140
    change = [95.0, 60.0, 140.0, 70.0, 130.0]
    assert ab.judge(parent, change, True, 0.25)[2] == "unresolved"
    # Every run of the change beats every run of the parent: resolved.
    change = [160.0, 151.0, 175.0, 152.0, 170.0]
    assert ab.judge(parent, change, True, 0.25)[2] == "better"


def test_ties_count_for_neither_side(ab):
    assert ab.judge([1.0, 1.0, 1.0], [1.0, 1.0, 2.0], True, 0.25)[1] == 1


def test_markdown_renders_the_closing_table_as_a_github_table(ab):
    specs = [
        {"name": "events_per_s", "better": "higher", "bound": 0.25},
        {"name": "query_p95_ms", "better": "lower", "bound": 0.25},
    ]
    runs = {
        "parent": [
            {"events_per_s": 100.0, "query_p95_ms": 0.9},
            {"events_per_s": 90.0, "query_p95_ms": 0.8},
        ],
        "change": [
            {"events_per_s": 101.0, "query_p95_ms": 0.3},
            {"events_per_s": 60.0, "query_p95_ms": 0.35},
        ],
    }
    rows = ab.closing_rows(specs, runs)
    assert ab.render_markdown(rows).splitlines() == [
        "| metric | parent med [q1, q3] | change med [q1, q3] "
        "| delta | wins | bound | verdict |",
        "|---|---|---|---:|---:|---:|---|",
        "| `events_per_s` | 95 [92.5, 97.5] | 80.5 [70.25, 90.75] "
        "| -15.3% | 1/2 | 0.25 | ok |",
        "| `query_p95_ms` | 0.85 [0.825, 0.875] | 0.325 [0.3125, 0.3375] "
        "| -61.8% | 2/2 | 0.25 | better |",
    ]
    # Same rows, same order, in the plain rendering.
    text = ab.render_text(rows).splitlines()
    assert [line.split()[0] for line in text] == [
        "metric", "events_per_s", "query_p95_ms"
    ]
    assert text[2].split()[-1] == "better" and "-61.8%" in text[2]
