"""The Rollback-Dependency Trackability checker.

RDT (Definition 3.4): every R-path of the pattern is on-line trackable.
This module decides RDT for arbitrary recorded histories two ways, one
fast and one definitional, and the test suite holds the fast one to the
other (equal violation lists, equal pair counts):

``method="tdv"`` (default, the fast pass)
    The paper's *visible* test.  R-path existence from the R-graph's
    closure bitsets; trackability from the offline reference TDV
    (``TDV_{j,y}[i] >= x``), also as bitsets, so the whole pair scan is
    one AND per checkpoint.  ``"vectorized"`` is an accepted spelling of
    the same pass.

``method="chains"`` (the definitional oracle)
    Trackability re-derived from first principles with the message-chain
    engine: an R-path ``a -> b`` (``a.pid != b.pid``) is trackable iff a
    *causal* chain reaches ``b`` from ``a`` (relaxed endpoints,
    Definition 3.3).  Slow, pair by pair, and kept that way.

R-path existence always comes from R-graph transitive closure; its
equivalence with zigzag-chain reachability (Wang's R-graph theorem) and
the agreement of the two methods are tested in
``tests/test_analysis_rdt.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.clocks.tdv import tdv_rows
from repro.events.history import History
from repro.graph.reachability import iter_bits, popcount
from repro.graph.rgraph import RGraph
from repro.graph.zpaths import ZPathAnalyzer
from repro.types import AnalysisError, CheckpointId


@dataclass
class RDTViolation:
    """One untrackable R-path ``source -> target``."""

    source: CheckpointId
    target: CheckpointId

    def __repr__(self) -> str:
        return f"<untrackable R-path {self.source} -> {self.target}>"


@dataclass
class RDTReport:
    """Outcome of an RDT check."""

    holds: bool
    violations: List[RDTViolation] = field(default_factory=list)
    checked_pairs: int = 0
    method: str = "tdv"

    def __bool__(self) -> bool:
        return self.holds

    def __repr__(self) -> str:
        status = "holds" if self.holds else f"{len(self.violations)} violations"
        return f"<RDTReport {status} over {self.checked_pairs} R-paths ({self.method})>"


def check_rdt(
    history: History,
    method: str = "tdv",
    max_violations: Optional[int] = None,
    rgraph: Optional[RGraph] = None,
) -> RDTReport:
    """Check whether a pattern satisfies Rollback-Dependency Trackability.

    The history is closed first (see :meth:`History.closed`) so that every
    interval containing events is delimited by a checkpoint; otherwise
    dependencies through open intervals would be silently ignored.

    Violations come in ``(source, target)`` order; ``max_violations``
    stops early once that many were found (``None`` collects all).
    """
    if method not in ("tdv", "chains", "vectorized"):
        raise AnalysisError(f"unknown RDT check method: {method}")
    history = history.closed()
    if rgraph is None:
        rgraph = RGraph(history)
    elif rgraph.history is not history or rgraph.include_volatile:
        raise AnalysisError("rgraph must be built on the closed history, no volatile")

    if method == "chains":
        violations, checked = _scan_chains(history, rgraph, max_violations)
    else:
        violations, checked = _scan_bitsets(history, rgraph, max_violations)
    return RDTReport(
        holds=not violations,
        violations=violations,
        checked_pairs=checked,
        method=method,
    )


def _scan_chains(
    history: History, rgraph: RGraph, max_violations: Optional[int]
) -> Tuple[List[RDTViolation], int]:
    trackable = _chain_trackable(history)
    violations: List[RDTViolation] = []
    checked = 0
    for a, b in rgraph.rpath_pairs():
        checked += 1
        if not trackable(a, b):
            violations.append(RDTViolation(a, b))
            if max_violations is not None and len(violations) >= max_violations:
                break
    return violations, checked


def _chain_trackable(history: History):
    analyzer = ZPathAnalyzer(history)
    cache = {}

    def trackable(a: CheckpointId, b: CheckpointId) -> bool:
        if a.pid == b.pid:
            return a.index <= b.index
        if a.index == 0:
            # Dependency on an initial checkpoint is vacuous: TDV entries
            # start at 0, so it is tracked without any chain.
            return True
        if a not in cache:
            cache[a] = analyzer.reach(a, causal=True)
        return cache[a].reaches(b)

    return trackable


def _scan_bitsets(
    history: History, rgraph: RGraph, max_violations: Optional[int]
) -> Tuple[List[RDTViolation], int]:
    """The fast pass: untrackable R-paths as ``reach & ~trackable``.

    ``at_least[i][x]`` is the set of checkpoints ``b`` with
    ``TDV_b[i] >= x``, i.e. every target an R-path from ``C(i,x)`` may
    end at and still be tracked.  Own-process targets need no special
    case: ``TDV_{i,y}[i] == y``, so forward is tracked, backward is not.
    In a closed history no entry ``i`` exceeds ``P_i``'s last index.
    """
    rows = tdv_rows(history)  # flattened, in node-id order
    at_least = [[0] * len(row) for row in rows]
    bit = 1
    for row in rows:
        for vec in row:
            for pid, x in enumerate(vec):
                at_least[pid][x] |= bit
            bit <<= 1
    for row in at_least:
        for x in range(len(row) - 2, -1, -1):
            row[x] |= row[x + 1]

    nodes = rgraph.nodes()
    reach = rgraph.closure_masks()
    violations: List[RDTViolation] = []
    checked = 0
    u = 0
    for row in at_least:
        for tracked in row:
            paths = reach[u] & ~(1 << u)  # pairs are ordered and distinct
            checked += popcount(paths)
            for v in iter_bits(paths & ~tracked):
                violations.append(RDTViolation(nodes[u], nodes[v]))
                if max_violations is not None and len(violations) >= max_violations:
                    return violations, checked
            u += 1
    return violations, checked


def untracked_pairs(history: History) -> List[Tuple[CheckpointId, CheckpointId]]:
    """Convenience: the list of untrackable R-path endpoints."""
    report = check_rdt(history)
    return [(v.source, v.target) for v in report.violations]


def explain_violation(
    history: History, source: CheckpointId, target: CheckpointId
) -> dict:
    """Concrete evidence for one RDT violation.

    Returns a dict with:

    * ``zigzag``: an explicit non-causal message chain realising the
      R-path ``source -> target`` (None only if the pair is not actually
      R-related);
    * ``causal``: an explicit causal chain doubling it (None exactly when
      the violation is real);
    * ``is_violation``: zigzag exists and causal doubling does not.

    Witnesses validate against :meth:`ZPathAnalyzer.is_chain` /
    :meth:`is_causal_chain` and use relaxed endpoints (same convention
    as trackability).
    """
    history = history.closed()
    analyzer = ZPathAnalyzer(history)
    zigzag = analyzer.witness_chain(source, target, causal=False)
    causal = analyzer.witness_chain(source, target, causal=True)
    return {
        "source": source,
        "target": target,
        "zigzag": zigzag,
        "causal": causal,
        "is_violation": zigzag is not None and causal is None,
    }
