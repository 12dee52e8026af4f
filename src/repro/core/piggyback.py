"""Control information piggybacked on application messages.

Each communication-induced protocol defines what rides on messages; the
structures here are immutable snapshots taken at send time.  They also
account their own wire size in bits, which feeds the paper's overhead
comparison (section 5.2: the BHMR protocol pays ``n^2 + n`` extra bits
per message over FDAS's ``n`` integers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Wire width assumed for one checkpoint-interval index.
INDEX_BITS = 32


@dataclass(frozen=True)
class Piggyback:
    """Base class: piggybacks are value objects with a bit size."""

    def size_bits(self) -> int:
        return 0


@dataclass(frozen=True)
class EmptyPiggyback(Piggyback):
    """No control information (independent checkpointing)."""


@dataclass(frozen=True)
class TDVPiggyback(Piggyback):
    """A transitive dependency vector (FDAS / FDI and variants)."""

    tdv: Tuple[int, ...]

    def size_bits(self) -> int:
        return INDEX_BITS * len(self.tdv)


@dataclass(frozen=True)
class FlagPiggyback(Piggyback):
    """A single boolean (classical protocols needing only one flag)."""

    flag: bool

    def size_bits(self) -> int:
        return 1


def _bools(bits: int, n: int) -> Tuple[bool, ...]:
    return tuple(bool(bits >> j & 1) for j in range(n))


@dataclass(frozen=True)
class BHMRPiggyback(Piggyback):
    """The full BHMR control state: ``TDV``, ``simple``, ``causal``.

    ``causal`` holds the ``n x n`` boolean matrix as ``n`` row ints (bit
    ``j`` of row ``k`` is ``causal[k][j]``), ``simple`` the vector as one
    int; both are snapshots of the sender's state at send time.
    """

    tdv: Tuple[int, ...]
    simple: int
    causal: Tuple[int, ...]

    def size_bits(self) -> int:
        n = len(self.tdv)
        return INDEX_BITS * n + n + n * n

    def causal_entry(self, k: int, j: int) -> bool:
        return bool(self.causal[k] >> j & 1)

    def __repr__(self) -> str:
        n = len(self.tdv)
        return (f"BHMRPiggyback(tdv={self.tdv!r}, simple={_bools(self.simple, n)!r}, "
                f"causal={tuple(_bools(row, n) for row in self.causal)!r})")


@dataclass(frozen=True)
class BHMRNoSimplePiggyback(Piggyback):
    """Variant 1 of section 5.1: TDV + causal row ints, no simple vector."""

    tdv: Tuple[int, ...]
    causal: Tuple[int, ...]

    def size_bits(self) -> int:
        n = len(self.tdv)
        return INDEX_BITS * n + n * n

    causal_entry = BHMRPiggyback.causal_entry

    def __repr__(self) -> str:
        n = len(self.tdv)
        causal = tuple(_bools(row, n) for row in self.causal)
        return f"BHMRNoSimplePiggyback(tdv={self.tdv!r}, causal={causal!r})"
