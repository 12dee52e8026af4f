"""Property-based tests (hypothesis) over arbitrary generated patterns.

A pattern interpreter turns hypothesis-drawn op lists into valid
histories, giving much wilder structure than the seeded random
generator.  Properties checked:

* structural validity of everything the builder produces;
* vector clocks characterise happened-before;
* Wang's theorem: strict R-graph reachability == zigzag chain existence;
* the two RDT characterizations agree;
* both useless-checkpoint detectors agree, and RDT implies none exist;
* the min/max fixpoint GCPs are consistent, ordered, and extreme;
* the BHMR protocol run over arbitrary traces always yields RDT, with
  its piggybacked TDV matching the offline reference.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis import (
    check_rdt,
    is_consistent_gcp,
    max_consistent_gcp,
    min_consistent_gcp,
    useless_checkpoints,
    useless_checkpoints_rgraph,
)
from repro.clocks import tdv_snapshots
from tests.oracles.vector import Causality, vector_timestamps
from repro.core import protocol_factory
from repro.events import PatternBuilder, validate_history
from repro.graph import RGraph, ZPathAnalyzer
from repro.sim import Trace, TraceOp, TraceOpKind, replay
from repro.types import CheckpointId

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
op_strategy = st.tuples(
    st.integers(0, 2),  # 0 = send, 1 = deliver, 2 = checkpoint
    st.integers(0, 5),  # process selector
    st.integers(0, 7),  # secondary selector (dst offset / in-flight pick)
)

pattern_inputs = st.tuples(
    st.integers(2, 4),  # n
    st.lists(op_strategy, min_size=0, max_size=60),
)


def build_pattern(n, ops, close=True, in_transit=True):
    """Interpret an op list into a valid history (total function).

    ``in_transit=False`` delivers whatever is still in flight at the end.
    """
    builder = PatternBuilder(n)
    in_flight = []
    for code, a, b in ops:
        pid = a % n
        if code == 0:
            dst = (pid + 1 + b % (n - 1)) % n
            in_flight.append(builder.send(pid, dst))
        elif code == 1 and in_flight:
            builder.deliver(in_flight.pop(b % len(in_flight)))
        elif code == 2:
            builder.checkpoint(pid)
    if not in_transit:
        for msg_id in in_flight:
            builder.deliver(msg_id)
    return builder.build(close=close)


# ----------------------------------------------------------------------
# structural and causal properties
# ----------------------------------------------------------------------
@given(pattern_inputs)
@settings(max_examples=60, deadline=None)
def test_interpreter_builds_valid_histories(inputs):
    n, ops = inputs
    history = build_pattern(n, ops)
    validate_history(history)
    assert history.is_closed()


@given(pattern_inputs)
@settings(max_examples=40, deadline=None)
def test_vector_clocks_characterise_happened_before(inputs):
    n, ops = inputs
    history = build_pattern(n, ops)
    caus = Causality(history)
    stamps = vector_timestamps(history)
    events = list(history.all_events())
    for a in events:
        for b in events:
            if a.ref == b.ref:
                continue
            assert caus.precedes(a, b) == (stamps[a.ref] < stamps[b.ref])


@given(pattern_inputs)
@settings(max_examples=40, deadline=None)
def test_tdv_own_entry_and_monotonicity(inputs):
    n, ops = inputs
    history = build_pattern(n, ops)
    snaps = tdv_snapshots(history)
    for cid, vec in snaps.items():
        assert vec[cid.pid] == cid.index
        if cid.index > 0:
            prev = snaps[CheckpointId(cid.pid, cid.index - 1)]
            assert all(p <= c for p, c in zip(prev, vec))


# ----------------------------------------------------------------------
# graph-level equivalences
# ----------------------------------------------------------------------
@given(pattern_inputs)
@settings(max_examples=40, deadline=None)
def test_rgraph_reachability_equals_zigzag(inputs):
    n, ops = inputs
    history = build_pattern(n, ops)
    rgraph = RGraph(history)
    analyzer = ZPathAnalyzer(history)
    for a in history.checkpoint_ids():
        reach = analyzer.reach(a, causal=False, exact_start=False)
        for b in history.checkpoint_ids():
            via_chain = reach.reaches(b) or (a.pid == b.pid and a.index < b.index)
            assert rgraph.reaches_strictly(a, b) == via_chain, (a, b)


@given(pattern_inputs)
@settings(max_examples=40, deadline=None)
def test_rdt_characterizations_agree(inputs):
    n, ops = inputs
    history = build_pattern(n, ops)
    by_tdv = check_rdt(history, method="tdv")
    by_chains = check_rdt(history, method="chains")
    assert {(v.source, v.target) for v in by_tdv.violations} == {
        (v.source, v.target) for v in by_chains.violations
    }


@given(pattern_inputs)
@settings(max_examples=40, deadline=None)
def test_useless_detectors_agree_and_rdt_implies_none(inputs):
    n, ops = inputs
    history = build_pattern(n, ops)
    via_chains = useless_checkpoints(history)
    assert via_chains == useless_checkpoints_rgraph(history)
    if check_rdt(history).holds:
        assert via_chains == []


# ----------------------------------------------------------------------
# global checkpoint extremes
# ----------------------------------------------------------------------
@given(pattern_inputs)
@settings(max_examples=30, deadline=None)
def test_min_max_gcp_are_consistent_and_ordered(inputs):
    n, ops = inputs
    history = build_pattern(n, ops)
    for cid in history.checkpoint_ids():
        lo = min_consistent_gcp(history, [cid])
        hi = max_consistent_gcp(history, [cid])
        assert (lo is None) == (hi is None)
        if lo is not None and hi is not None:
            assert is_consistent_gcp(history, lo)
            assert is_consistent_gcp(history, hi)
            assert lo[cid.pid] == hi[cid.pid] == cid.index
            assert all(lo[p] <= hi[p] for p in lo)


@given(pattern_inputs)
@settings(max_examples=15, deadline=None)
def test_min_gcp_is_least_among_consistent_cuts(inputs):
    """Exhaustive minimality on small patterns: every consistent cut
    containing C dominates min_consistent_gcp(C) componentwise."""
    import itertools

    n, ops = inputs
    history = build_pattern(n, ops[:25])
    tops = [history.last_index(p) for p in range(n)]
    if any(t > 4 for t in tops):
        return  # keep the cartesian product small
    all_cuts = list(itertools.product(*(range(t + 1) for t in tops)))
    for cid in history.checkpoint_ids():
        lo = min_consistent_gcp(history, [cid])
        consistent = [
            cut
            for cut in all_cuts
            if cut[cid.pid] == cid.index
            and is_consistent_gcp(history, list(cut))
        ]
        if lo is None:
            assert consistent == []
        else:
            assert consistent
            for cut in consistent:
                assert all(lo[p] <= cut[p] for p in range(n))


# ----------------------------------------------------------------------
# protocol properties over arbitrary traces
# ----------------------------------------------------------------------
trace_inputs = st.tuples(
    st.integers(2, 4),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 5), st.integers(0, 7)),
        min_size=0,
        max_size=50,
    ),
)


def build_trace(n, ops):
    """Interpret ops into a Trace (send / deliver / basic checkpoint)."""
    time = 0.0
    trace_ops = []
    in_flight = []
    next_msg = 0
    for code, a, b in ops:
        time += 1.0
        pid = a % n
        if code == 0:
            dst = (pid + 1 + b % (n - 1)) % n
            trace_ops.append(
                TraceOp(time, TraceOpKind.SEND, pid, peer=dst, msg_id=next_msg)
            )
            in_flight.append((next_msg, pid, dst))
            next_msg += 1
        elif code == 1 and in_flight:
            msg_id, src, dst = in_flight.pop(b % len(in_flight))
            trace_ops.append(
                TraceOp(time, TraceOpKind.DELIVER, dst, peer=src, msg_id=msg_id)
            )
        elif code == 2:
            trace_ops.append(TraceOp(time, TraceOpKind.BASIC_CHECKPOINT, pid))
    # Deliver leftovers so the pattern is complete.
    for msg_id, src, dst in in_flight:
        time += 1.0
        trace_ops.append(
            TraceOp(time, TraceOpKind.DELIVER, dst, peer=src, msg_id=msg_id)
        )
    return Trace(n, trace_ops)


@given(trace_inputs)
@settings(max_examples=50, deadline=None)
def test_bhmr_ensures_rdt_on_arbitrary_traces(inputs):
    n, ops = inputs
    trace = build_trace(n, ops)
    result = replay(trace, protocol_factory("bhmr"))
    assert check_rdt(result.history).holds


@given(trace_inputs, st.sampled_from(["bhmr-nosimple", "bhmr-causalonly", "fdas"]))
@settings(max_examples=40, deadline=None)
def test_family_ensures_rdt_on_arbitrary_traces(inputs, protocol):
    n, ops = inputs
    trace = build_trace(n, ops)
    result = replay(trace, protocol_factory(protocol))
    assert check_rdt(result.history).holds, protocol


@given(trace_inputs)
@settings(max_examples=30, deadline=None)
def test_protocol_tdv_matches_reference(inputs):
    n, ops = inputs
    trace = build_trace(n, ops)
    result = replay(trace, protocol_factory("bhmr"))
    reference = tdv_snapshots(result.history)
    from repro.events import CheckpointKind

    for pid in range(n):
        for ev in result.history.checkpoints(pid):
            if ev.checkpoint_kind is CheckpointKind.FINAL:
                continue
            assert result.family[pid].saved_tdv(ev.checkpoint_index) == reference[
                CheckpointId(pid, ev.checkpoint_index)
            ]


@given(trace_inputs)
@settings(max_examples=30, deadline=None)
def test_corollary_45_on_arbitrary_traces(inputs):
    n, ops = inputs
    trace = build_trace(n, ops)
    result = replay(trace, protocol_factory("bhmr"))
    from repro.events import CheckpointKind

    for pid in range(n):
        for ev in result.history.checkpoints(pid):
            if ev.checkpoint_kind is CheckpointKind.FINAL:
                continue
            cid = CheckpointId(pid, ev.checkpoint_index)
            assert min_consistent_gcp(result.history, [cid]) == result.family[
                pid
            ].min_gcp_of(cid.index)


# ----------------------------------------------------------------------
# sender-log GC safety
# ----------------------------------------------------------------------
@given(pattern_inputs, st.floats(0.05, 0.95))
@settings(max_examples=40, deadline=None)
def test_gc_never_drops_a_message_a_later_line_needs(inputs, frac):
    """The headline GC-safety property behind the both-sides rule.

    For a floor computed at *any* earlier instant, no message the safe
    rule reclaims can appear in the replay plan of *any* later crash's
    recovery line: later lines never fall below the floor, and a
    reclaimed message sits at or below it on both endpoints.
    """
    import itertools

    from repro.recovery import (
        CrashSpec,
        build_sender_logs,
        global_recovery_floor,
        recovery_line,
        replay_plan,
        trim_log,
    )

    n, ops = inputs
    history = build_pattern(n, ops)
    last_time = max(ev.time for ev in history.all_events())
    at_time = last_time * frac
    floor = global_recovery_floor(history, at_time=at_time)

    logs = build_sender_logs(history)
    dropped = set()
    for pid, log in logs.items():
        before = set(log)
        trim_log(log, history, floor.cut)
        dropped |= before - set(log)

    for r in range(1, n + 1):
        for crashed in itertools.combinations(range(n), r):
            line = recovery_line(history, {p: CrashSpec(p) for p in crashed})
            # Later lines never cross the earlier floor ...
            assert all(line.cut[p] >= floor.cut[p] for p in range(n))
            needed = {m.msg_id for m in replay_plan(history, line.cut).messages()}
            # ... so nothing GC reclaimed is ever needed again, and every
            # needed message is still servable from its sender's log.
            assert not needed & dropped
            for m in replay_plan(history, line.cut).messages():
                assert m.msg_id in logs[m.src]
