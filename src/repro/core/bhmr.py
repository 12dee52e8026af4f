"""The BHMR protocol (Figure 6 of the paper) and its two variants.

The protocol tracks, besides the transitive dependency vector:

* ``sent_to[j]`` -- did I send to ``P_j`` in the current interval?
  (identifies the non-causal chains I could break);
* ``causal[k][j]`` -- to my knowledge, is there an on-line trackable
  R-path from ``C(k, TDV[k])`` to ``C(j, TDV[j])``?  (identifies chains
  that already have a causal sibling and need no breaking);
* ``simple[j]`` -- to my knowledge, are all causal chains from
  ``C(j, TDV[j])`` to my current state *simple* (no intermediate
  checkpoint)?  (detects the same-process case ``C(k,z) -> C(k,z-1)``).

A forced checkpoint is taken before delivering ``m`` iff ``C1 or C2``
(see :mod:`repro.core.predicates`).  Compared with FDAS the protocol is
strictly less conservative: ``C1 or C2  implies  C_FDAS`` (section 5.2),
which the test suite re-verifies at every arrival of every run.

Variants (section 5.1), each trading piggyback size for extra forced
checkpoints while still ensuring RDT:

* :class:`BHMRNoSimpleProtocol` -- drops the ``simple`` vector and uses
  ``C1 or C2'``;
* :class:`BHMRCausalOnlyProtocol` -- additionally pins the diagonal of
  ``causal`` to false, making ``C1`` alone sufficient.

Every variant inherits the on-the-fly minimum-consistent-global-
checkpoint property (Corollary 4.5): the vector saved with checkpoint
``C(i,x)`` *is* the minimum consistent global checkpoint containing it.
"""

from __future__ import annotations

from typing import List

from repro.core import predicates
from repro.core.piggyback import BHMRNoSimplePiggyback, BHMRPiggyback, Piggyback
from repro.core.protocol import CheckpointProtocol
from repro.types import ProcessId, ProtocolError


class BHMRProtocol(CheckpointProtocol):
    """The full protocol of Figure 6 (predicate ``C1 or C2``)."""

    name = "bhmr"
    ensures_rdt = True
    #: Does this variant keep the causal diagonal permanently true?
    diagonal_true = True
    #: Does this variant maintain/piggyback the ``simple`` vector?
    uses_simple = True
    #: The piggyback this variant sends, and the only one it interprets.
    piggyback_type: type = BHMRPiggyback

    def __init__(self, pid: ProcessId, n: int) -> None:
        super().__init__(pid, n)
        # (S0): causal starts as the identity; simple[i] is permanently
        # true, other entries start false (reset of take_checkpoint).  Both
        # are bits: causal[k] is row k (bit l is causal[k][l]), simple one int.
        self.causal: List[int] = [int(self.diagonal_true) << k for k in range(n)]
        self.simple: int = 1 << pid
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
        own = 1 << self.pid
        self.simple &= own
        self.causal[self.pid] &= own
        if forced and self._pending_cause:
            fired_c1, fired_c2 = self._pending_cause
            self.c1_fires += 1 if fired_c1 else 0
            self.c2_fires += 1 if fired_c2 else 0
        self._pending_cause = ()

    def make_piggyback(self, dst: ProcessId) -> Piggyback:
        return BHMRPiggyback(
            tdv=tuple(self.tdv), simple=self.simple, causal=tuple(self.causal)
        )

    # ------------------------------------------------------------------
    def _refuse_foreign(self, pb: Piggyback) -> None:
        """Both the predicate and the update refuse, before reading or
        changing any state, a piggyback of another variant."""
        if not isinstance(pb, self.piggyback_type):
            raise ProtocolError(f"{self.name} cannot interpret {type(pb).__name__}")

    def wants_forced_checkpoint(self, pb: Piggyback, sender: ProcessId) -> bool:
        self._refuse_foreign(pb)
        fired_c1 = predicates.c1(self.tdv, self.sent_to, pb.tdv, pb.causal)
        fired_c2 = predicates.c2(self.pid, self.tdv, pb.tdv, pb.simple)
        # Memoise the attribution for the driver's on_checkpoint(forced)
        # call; recomputation on repeated queries is idempotent, so the
        # predicate stays observably side-effect free.
        self._pending_cause = (fired_c1, fired_c2)
        return fired_c1 or fired_c2

    # ------------------------------------------------------------------
    def on_receive(self, pb: Piggyback, sender: ProcessId) -> None:
        """The control-variable update block of statement (S2)."""
        self._refuse_foreign(pb)
        super().on_receive(pb, sender)
        tdv, causal, m_causal = self.tdv, self.causal, pb.causal
        newer = same = 0  # bit k: m.TDV[k] > TDV[k], resp. ==
        for k, m_entry in enumerate(pb.tdv):
            if m_entry > tdv[k]:
                tdv[k] = m_entry
                causal[k] = m_causal[k]
                newer |= 1 << k
            elif m_entry == tdv[k]:
                causal[k] |= m_causal[k]
                same |= 1 << k
        if self.uses_simple:
            # simple[k] := m.simple[k] where m is newer, and-ed where equal.
            m_simple = pb.simple
            self.simple = self.simple & ~newer & (m_simple | ~same) | m_simple & newer
        # The message itself is a causal chain from the sender's current
        # interval; close the knowledge transitively.
        own, via = 1 << self.pid, 1 << sender
        if self.diagonal_true or sender != self.pid:
            causal[sender] |= own
        for l in range(self.n):
            if causal[l] & via and (self.diagonal_true or l != self.pid):
                causal[l] |= own


class BHMRNoSimpleProtocol(BHMRProtocol):
    """Variant 1 (section 5.1): predicate ``C1 or C2'``, no ``simple``.

    Saves ``n`` bits per message; forces at least as often as the full
    protocol (``C2 implies C2'`` on reachable states).
    """

    name = "bhmr-nosimple"
    uses_simple = False
    piggyback_type = BHMRNoSimplePiggyback

    def make_piggyback(self, dst: ProcessId) -> Piggyback:
        return BHMRNoSimplePiggyback(tdv=tuple(self.tdv), causal=tuple(self.causal))

    def wants_forced_checkpoint(self, pb: Piggyback, sender: ProcessId) -> bool:
        self._refuse_foreign(pb)
        fired_c1 = predicates.c1(self.tdv, self.sent_to, pb.tdv, pb.causal)
        fired_c2p = predicates.c2_prime(self.pid, self.tdv, pb.tdv)
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
        self._refuse_foreign(pb)
        fired_c1 = predicates.c1(self.tdv, self.sent_to, pb.tdv, pb.causal)
        self._pending_cause = (fired_c1, False)
        return fired_c1
