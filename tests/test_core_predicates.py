"""Unit tests for the standalone forcing predicates."""

from repro.core import predicates
from tests.oracles.bhmr import decode_matrix


class TestNewDependency:
    def test_detects_strictly_greater_entry(self):
        assert predicates.new_dependency([1, 0, 2], [1, 1, 2])
        assert not predicates.new_dependency([1, 1, 2], [1, 1, 2])
        assert not predicates.new_dependency([2, 2, 2], [1, 1, 1])


class TestC1:
    def test_requires_a_sent_to_and_a_new_uncovered_dep(self):
        tdv = [1, 0, 0]
        m_tdv = (0, 1, 0)  # new dependency on P1
        no_cover = (0, 0, 0)
        assert decode_matrix(no_cover, 3) == ((False,) * 3,) * 3
        assert predicates.c1(tdv, [False, False, True], m_tdv, no_cover)
        assert not predicates.c1(tdv, [False, False, False], m_tdv, no_cover)

    def test_covered_dependency_does_not_fire(self):
        tdv = [1, 0, 0]
        m_tdv = (0, 1, 0)
        # causal[1][2] true: the chain towards P2 has a sibling.
        causal = (0b000, 0b100, 0b000)
        assert decode_matrix(causal, 3) == (
            (False, False, False),
            (False, False, True),
            (False, False, False),
        )
        assert not predicates.c1(tdv, [False, False, True], m_tdv, causal)
        # ...but a send towards P0 is not covered.
        assert predicates.c1(tdv, [True, False, False], m_tdv, causal)

    def test_no_new_dependency_never_fires(self):
        assert not predicates.c1([2, 2, 2], [True, True, True], (1, 1, 1),
                                 ((False,) * 3,) * 3)


class TestC2Family:
    def test_c2_needs_equal_own_entry_and_nonsimple(self):
        # m.simple as bits: 0b10 is (False, True), 0b11 is (True, True).
        assert predicates.c2(0, [3, 0], (3, 1), 0b10)
        assert not predicates.c2(0, [3, 0], (2, 1), 0b10)
        assert not predicates.c2(0, [3, 0], (3, 1), 0b11)

    def test_c2_prime(self):
        assert predicates.c2_prime(0, [3, 0], (3, 1))
        assert not predicates.c2_prime(0, [3, 0], (2, 1))
        assert not predicates.c2_prime(0, [3, 1], (3, 1))


class TestBaselinePredicates:
    def test_fdas(self):
        assert predicates.c_fdas(True, [0, 0], (0, 1))
        assert not predicates.c_fdas(False, [0, 0], (0, 1))
        assert not predicates.c_fdas(True, [0, 1], (0, 1))

    def test_fdi(self):
        assert predicates.c_fdi(True, [0, 0], (0, 1))
        assert not predicates.c_fdi(False, [0, 0], (0, 1))

    def test_nras_and_cbr_are_flag_only(self):
        assert predicates.c_nras(True) and not predicates.c_nras(False)
        assert predicates.c_cbr(True) and not predicates.c_cbr(False)
