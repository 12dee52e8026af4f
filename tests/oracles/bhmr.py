"""The tuple-of-bools BHMR family: the differential oracle for the bitsets.

:mod:`repro.core.bhmr` holds Figure 6's ``causal`` matrix as one int per
row and ``simple`` as one int.  This module is the same protocol, its
two section 5.1 variants, their piggybacks and predicates ``C1`` / ``C2``
written with the matrix as nested lists of bools, entry by entry as the
paper states them.  ``tests/test_bhmr_bitsets.py`` runs both families
side by side on random feeds and requires equal decisions, vectors and
decoded state after every event.  :func:`decode_matrix` and
:func:`decode_vector` turn the library's bit form into this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.piggyback import INDEX_BITS, Piggyback
from repro.core.predicates import c2_prime
from repro.core.protocol import CheckpointProtocol
from repro.types import ProcessId, ProtocolError

BoolMatrix = Tuple[Tuple[bool, ...], ...]


def decode_vector(bits: int, n: int) -> Tuple[bool, ...]:
    """Bit ``j`` of ``bits`` as entry ``j`` of an ``n``-bool vector.

    Bits at ``n`` and above would be entries past the vector's end, so
    they fail the decode instead of being dropped.
    """
    assert 0 <= bits < 1 << n, f"{bits:#b} has bits outside 0..{n - 1}"
    return tuple(bool(bits >> j & 1) for j in range(n))


def decode_matrix(rows: Sequence[int], n: int) -> BoolMatrix:
    """Row ints (bit ``l`` of row ``k`` is entry ``[k][l]``) as bools."""
    assert len(rows) == n, f"{len(rows)} rows for n={n}"
    return tuple(decode_vector(row, n) for row in rows)


@dataclass(frozen=True)
class BHMRPiggyback(Piggyback):
    """The full BHMR control state: ``TDV``, ``simple``, ``causal``.

    ``causal`` is an ``n x n`` boolean matrix flattened row-major into a
    tuple of row tuples; ``simple`` is a boolean vector.  Both are copies
    (snapshots) of the sender's state at send time.
    """

    tdv: Tuple[int, ...]
    simple: Tuple[bool, ...]
    causal: Tuple[Tuple[bool, ...], ...]

    def size_bits(self) -> int:
        n = len(self.tdv)
        return INDEX_BITS * n + n + n * n

    def causal_entry(self, k: int, j: int) -> bool:
        return self.causal[k][j]


@dataclass(frozen=True)
class BHMRNoSimplePiggyback(Piggyback):
    """Variant 1 of section 5.1: TDV + causal matrix, no simple vector."""

    tdv: Tuple[int, ...]
    causal: Tuple[Tuple[bool, ...], ...]

    def size_bits(self) -> int:
        n = len(self.tdv)
        return INDEX_BITS * n + n * n

    def causal_entry(self, k: int, j: int) -> bool:
        return self.causal[k][j]


def c1(
    tdv: Sequence[int],
    sent_to: Sequence[bool],
    m_tdv: Sequence[int],
    m_causal: BoolMatrix,
) -> bool:
    """Predicate C1 of the paper (section 4.1.1).

    "To the knowledge of P_i there is a non-causal message chain from
    some P_k to some P_j, breakable by P_i and without causal sibling":

        exists j: sent_to[j] and
        exists k: m.TDV[k] > TDV[k] and not m.causal[k][j]
    """
    new_deps = [k for k in range(len(tdv)) if m_tdv[k] > tdv[k]]
    if not new_deps:
        return False
    for j, sent in enumerate(sent_to):
        if not sent:
            continue
        for k in new_deps:
            if not m_causal[k][j]:
                return True
    return False


def c2(
    pid: int,
    tdv: Sequence[int],
    m_tdv: Sequence[int],
    m_simple: Sequence[bool],
) -> bool:
    """Predicate C2 of the paper (section 4.1.2).

    "A causal chain left my current interval and came back having crossed
    a checkpoint: a non-causal chain C(k,z) -> C(k,z-1) is breakable only
    by me":

        m.TDV[i] == TDV[i] and not m.simple[i]
    """
    return m_tdv[pid] == tdv[pid] and not m_simple[pid]


class BHMRProtocol(CheckpointProtocol):
    """The full protocol of Figure 6 (predicate ``C1 or C2``)."""

    name = "bhmr"
    ensures_rdt = True
    #: Does this variant keep the causal diagonal permanently true?
    diagonal_true = True
    #: Does this variant maintain/piggyback the ``simple`` vector?
    uses_simple = True

    def __init__(self, pid: ProcessId, n: int) -> None:
        super().__init__(pid, n)
        # (S0): causal starts as the identity; simple[i] is permanently
        # true, other entries start false (reset of take_checkpoint).
        self.causal: List[List[bool]] = [
            [self.diagonal_true and k == j for j in range(n)] for k in range(n)
        ]
        self.simple: List[bool] = [j == pid for j in range(n)]
        #: Attribution of forced checkpoints to the predicate that fired
        #: (a delivery may trip both).  Filled by the driver sequence
        #: wants_forced_checkpoint -> on_checkpoint(forced=True).
        self.c1_fires = 0
        self.c2_fires = 0
        self._pending_cause: tuple = ()

    # ------------------------------------------------------------------
    def on_checkpoint(self, forced: bool = False) -> None:
        """take_checkpoint of Figure 6 (resets beyond the base's)."""
        super().on_checkpoint(forced)
        for j in range(self.n):
            if j != self.pid:
                self.simple[j] = False
                self.causal[self.pid][j] = False
        if forced and self._pending_cause:
            fired_c1, fired_c2 = self._pending_cause
            self.c1_fires += 1 if fired_c1 else 0
            self.c2_fires += 1 if fired_c2 else 0
        self._pending_cause = ()

    def make_piggyback(self, dst: ProcessId) -> Piggyback:
        return BHMRPiggyback(
            tdv=tuple(self.tdv),
            simple=tuple(self.simple),
            causal=tuple(tuple(row) for row in self.causal),
        )

    # ------------------------------------------------------------------
    def wants_forced_checkpoint(self, pb: Piggyback, sender: ProcessId) -> bool:
        if not isinstance(pb, BHMRPiggyback):
            raise ProtocolError(f"{self.name} cannot interpret {type(pb).__name__}")
        fired_c1 = c1(self.tdv, self.sent_to, pb.tdv, pb.causal)
        fired_c2 = c2(self.pid, self.tdv, pb.tdv, pb.simple)
        # Memoise the attribution for the driver's on_checkpoint(forced)
        # call; recomputation on repeated queries is idempotent, so the
        # predicate stays observably side-effect free.
        self._pending_cause = (fired_c1, fired_c2)
        return fired_c1 or fired_c2

    # ------------------------------------------------------------------
    def on_receive(self, pb: Piggyback, sender: ProcessId) -> None:
        """The control-variable update block of statement (S2)."""
        if not isinstance(pb, (BHMRPiggyback, BHMRNoSimplePiggyback)):
            raise ProtocolError(f"{self.name} cannot interpret {type(pb).__name__}")
        super().on_receive(pb, sender)
        for k in range(self.n):
            if pb.tdv[k] > self.tdv[k]:
                self.tdv[k] = pb.tdv[k]
                self._set_simple_from(pb, k, replace=True)
                for l in range(self.n):
                    self.causal[k][l] = pb.causal_entry(k, l)
            elif pb.tdv[k] == self.tdv[k]:
                self._set_simple_from(pb, k, replace=False)
                for l in range(self.n):
                    self.causal[k][l] = self.causal[k][l] or pb.causal_entry(k, l)
        # The message itself is a causal chain from the sender's current
        # interval; close the knowledge transitively.
        if self.diagonal_true or sender != self.pid:
            self.causal[sender][self.pid] = True
        for l in range(self.n):
            if not self.diagonal_true and l == self.pid:
                continue
            self.causal[l][self.pid] = self.causal[l][self.pid] or self.causal[l][sender]

    def _set_simple_from(self, pb: Piggyback, k: int, replace: bool) -> None:
        if not self.uses_simple:
            return
        assert isinstance(pb, BHMRPiggyback)
        if replace:
            self.simple[k] = pb.simple[k]
        else:
            self.simple[k] = self.simple[k] and pb.simple[k]


class BHMRNoSimpleProtocol(BHMRProtocol):
    """Variant 1 (section 5.1): predicate ``C1 or C2'``, no ``simple``.

    Saves ``n`` bits per message; forces at least as often as the full
    protocol (``C2 implies C2'`` on reachable states).
    """

    name = "bhmr-nosimple"
    uses_simple = False

    def make_piggyback(self, dst: ProcessId) -> Piggyback:
        return BHMRNoSimplePiggyback(
            tdv=tuple(self.tdv),
            causal=tuple(tuple(row) for row in self.causal),
        )

    def wants_forced_checkpoint(self, pb: Piggyback, sender: ProcessId) -> bool:
        if not isinstance(pb, BHMRNoSimplePiggyback):
            raise ProtocolError(f"{self.name} cannot interpret {type(pb).__name__}")
        fired_c1 = c1(self.tdv, self.sent_to, pb.tdv, pb.causal)
        fired_c2p = c2_prime(self.pid, self.tdv, pb.tdv)
        self._pending_cause = (fired_c1, fired_c2p)
        return fired_c1 or fired_c2p


class BHMRCausalOnlyProtocol(BHMRNoSimpleProtocol):
    """Variant 2 (section 5.1): ``C1`` alone, causal diagonal kept false.

    With ``causal[k][k]`` permanently false, a message closing a chain
    back towards its own origin always looks "sibling-less", so ``C1``
    subsumes the same-process case that ``C2`` handled.
    """

    name = "bhmr-causalonly"
    diagonal_true = False

    def wants_forced_checkpoint(self, pb: Piggyback, sender: ProcessId) -> bool:
        if not isinstance(pb, BHMRNoSimplePiggyback):
            raise ProtocolError(f"{self.name} cannot interpret {type(pb).__name__}")
        fired_c1 = c1(self.tdv, self.sent_to, pb.tdv, pb.causal)
        self._pending_cause = (fired_c1, False)
        return fired_c1


#: Oracle classes by registry name, for the differential.
ORACLES = {
    cls.name: cls
    for cls in (BHMRProtocol, BHMRNoSimpleProtocol, BHMRCausalOnlyProtocol)
}
