"""Sample statistics shared by the end-to-end and per-layer passes.

The one unusual estimator here is :func:`best_of`.  On a shared box the
speed of one vCPU flips between an undisturbed mode and one up to 2x
slower (a neighbour on the sibling hardware thread), at a sub-second
time scale and with an occupancy that drifts over minutes; means and
medians over whole phases then wander by 20-30 % from run to run.  Every
repetition of a phase does the *same* work at the same position, so the
position-wise minimum over repetitions keeps, for each small piece of
work, the time it took when nobody interfered.  Measured on this box
the sum of those minima repeats within 3-6 % where the plain median of
the same repetitions spreads over 20 %.
"""

from __future__ import annotations

from typing import List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def best_of(repetitions: Sequence[Sequence[float]]) -> List[float]:
    """Position-wise minimum over repetitions of one sequence of work."""
    lengths = {len(r) for r in repetitions}
    if len(lengths) != 1:
        raise ValueError(f"repetitions differ in length: {sorted(lengths)}")
    return [min(column) for column in zip(*repetitions)]


def slices(ack_s: Sequence[float], size: int) -> List[float]:
    """Durations of consecutive ``size``-ack slices of one phase, from
    its ack arrival times (the last slice takes the remainder)."""
    out: List[float] = []
    previous = 0.0
    for end in range(size, len(ack_s) + size, size):
        last = ack_s[min(end, len(ack_s)) - 1]
        out.append(last - previous)
        previous = last
    return out
