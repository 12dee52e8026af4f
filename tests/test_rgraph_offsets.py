"""R-graph node ids as per-process offsets, against the dict-keyed builder.

:class:`RGraph` numbers ``C(p, x)`` as ``offset[p] + x`` and reads its
message edges off interval indices; ``tests/oracles/rgraph.py`` is the
builder that hashed every endpoint into an id table.  Both must give the
same nodes, edges and closure bitsets on arbitrary patterns -- with and
without volatile nodes, messages left in transit and open last
intervals -- and an id outside a process's block must be unknown, never
a neighbour's node.
"""

import pytest
from hypothesis import given, settings

from repro.events import PatternBuilder, figure1_pattern
from repro.graph import RGraph
from repro.types import CheckpointId as C
from tests.oracles.rgraph import DictRGraph
from tests.test_property_hypothesis import build_pattern, pattern_inputs


@pytest.mark.parametrize("include_volatile", [False, True])
@pytest.mark.parametrize("in_transit", [False, True])
@pytest.mark.parametrize("close", [False, True])
@given(pattern_inputs)
@settings(max_examples=25, deadline=None)
def test_offsets_match_dict_builder(close, in_transit, include_volatile, inputs):
    n, ops = inputs
    history = build_pattern(n, ops, close=close, in_transit=in_transit)
    rgraph = RGraph(history, include_volatile=include_volatile)
    oracle = DictRGraph(history, include_volatile=include_volatile)
    assert rgraph.nodes() == oracle.nodes()
    assert list(rgraph.edges()) == list(oracle.edges())
    assert rgraph.closure_masks() == oracle.closure_masks()
    for cid in oracle.nodes():
        assert rgraph.has_node(cid)


def _uneven_pattern():
    """Blocks of different lengths (P0 has 3 checkpoints, P1 one, P2
    two) and an open last interval on P0 and P2."""
    b = PatternBuilder(3)
    b.checkpoint(0)
    b.checkpoint(0)
    b.deliver(b.send(0, 2))
    b.checkpoint(2)
    b.deliver(b.send(2, 0))
    return b.build()


class TestIdBounds:
    @pytest.mark.parametrize("history", [figure1_pattern(), _uneven_pattern()])
    @pytest.mark.parametrize("include_volatile", [False, True])
    def test_ids_outside_a_block_are_unknown(self, history, include_volatile):
        rgraph = RGraph(history, include_volatile=include_volatile)
        n = history.num_processes
        extra = 1 if include_volatile else 0
        known = C(0, 0)
        unknown = [C(n, 0), C(n + 3, 1)]
        for pid in range(n):
            top = history.last_index(pid) + extra
            assert rgraph.has_node(C(pid, top))
            # Just past the block (its volatile node, if any), and further.
            unknown += [C(pid, top + 1), C(pid, top + 2)]
        for cid in unknown:
            assert not rgraph.has_node(cid), cid
            for a, b in ((cid, known), (known, cid)):
                with pytest.raises(KeyError):
                    rgraph.has_rpath(a, b)
                with pytest.raises(KeyError):
                    rgraph.reaches_strictly(a, b)
