"""Piggyback value objects and their wire-size accounting."""

from repro.core import (
    BHMRNoSimplePiggyback,
    BHMRPiggyback,
    EmptyPiggyback,
    FlagPiggyback,
    TDVPiggyback,
)


class TestSizes:
    def test_empty_is_free(self):
        assert EmptyPiggyback().size_bits() == 0

    def test_flag_is_one_bit(self):
        assert FlagPiggyback(flag=True).size_bits() == 1

    def test_tdv_is_n_indices(self):
        assert TDVPiggyback(tdv=(0, 1, 2)).size_bits() == 3 * 32

    def test_bhmr_pays_n2_plus_n_bits_over_fdas(self):
        n = 5
        tdv = tuple(range(n))
        fdas = TDVPiggyback(tdv=tdv)
        bhmr = BHMRPiggyback(
            tdv=tdv,
            simple=tuple([True] * n),
            causal=tuple(tuple([False] * n) for _ in range(n)),
        )
        assert bhmr.size_bits() - fdas.size_bits() == n * n + n

    def test_nosimple_saves_n_bits(self):
        n = 4
        full = BHMRPiggyback(
            tdv=tuple([0] * n),
            simple=tuple([True] * n),
            causal=tuple(tuple([False] * n) for _ in range(n)),
        )
        slim = BHMRNoSimplePiggyback(
            tdv=tuple([0] * n),
            causal=tuple(tuple([False] * n) for _ in range(n)),
        )
        assert full.size_bits() - slim.size_bits() == n


class TestValueSemantics:
    def test_frozen(self):
        import pytest

        pb = TDVPiggyback(tdv=(1, 2))
        with pytest.raises(AttributeError):
            pb.tdv = (3, 4)  # type: ignore[misc]

    def test_causal_entry_accessor(self):
        # Rows as bits: row 0 is (True, False), row 1 (False, True).
        pb = BHMRNoSimplePiggyback(tdv=(0, 0), causal=(0b01, 0b10))
        assert pb.causal_entry(0, 0) and not pb.causal_entry(0, 1)
        assert pb.causal_entry(1, 1) and not pb.causal_entry(1, 0)

    def test_snapshots_are_equal_by_value(self):
        a = TDVPiggyback(tdv=(1, 2))
        b = TDVPiggyback(tdv=(1, 2))
        assert a == b and hash(a) == hash(b)
