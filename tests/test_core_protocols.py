"""Protocol unit tests: Figure 6 mechanics, hand-driven scenarios, errors.

These tests drive protocol instances directly through the driver
contract (no simulator), checking the state machine of Figure 6 step by
step on the scenarios of the paper's Figures 2-4.
"""

import pytest

from repro.core import (
    BHMRCausalOnlyProtocol,
    BHMRNoSimpleProtocol,
    BHMRProtocol,
    CASProtocol,
    CBRProtocol,
    FDASProtocol,
    FDIProtocol,
    IndependentProtocol,
    NRASProtocol,
    TDVPiggyback,
)
from repro.core.registry import PROTOCOLS
from repro.types import ProtocolError
from tests.oracles.bhmr import ORACLES, decode_matrix, decode_vector

BHMR_VARIANTS = [BHMRProtocol, BHMRNoSimpleProtocol, BHMRCausalOnlyProtocol]


class TestBaseState:
    def test_initialisation_is_s0(self):
        p = BHMRProtocol(1, 3)
        # After S0 (which includes taking C(i,0)): interval index 1.
        assert p.current_interval == 1
        assert p.saved_tdv(0) == (0, 0, 0)
        assert decode_vector(p.simple, 3) == (False, True, False)
        causal = decode_matrix(p.causal, 3)
        assert causal[0] == (True, False, False)
        assert causal[1] == (False, True, False)

    def test_checkpoint_advances_interval_and_saves_tdv(self):
        p = FDASProtocol(0, 2)
        p.on_checkpoint()
        assert p.current_interval == 2
        assert p.saved_tdv(1) == (1, 0)

    def test_forced_flag_counts(self):
        p = FDASProtocol(0, 2)
        p.on_checkpoint(forced=True)
        p.on_checkpoint(forced=False)
        assert p.forced_count == 1

    def test_send_sets_sent_to_and_counts_bits(self):
        p = FDASProtocol(0, 3)
        pb = p.on_send(2)
        assert p.sent_to == [False, False, True]
        assert p.after_first_send
        assert p.piggyback_bits_sent == pb.size_bits() > 0

    def test_checkpoint_resets_interval_flags(self):
        p = FDASProtocol(0, 2)
        p.on_send(1)
        p.on_receive(TDVPiggyback(tdv=(0, 1)), sender=1)
        assert p.had_communication
        p.on_checkpoint()
        assert not p.after_first_send and not p.had_communication

    def test_self_send_rejected(self):
        with pytest.raises(ProtocolError):
            FDASProtocol(0, 2).on_send(0)

    def test_bad_pid_rejected(self):
        with pytest.raises(ProtocolError):
            FDASProtocol(5, 2)

    def test_wrong_piggyback_type_rejected(self):
        p = BHMRProtocol(0, 2)
        with pytest.raises(ProtocolError):
            p.wants_forced_checkpoint(TDVPiggyback(tdv=(0, 0)), sender=1)
        p2 = FDASProtocol(0, 2)
        with pytest.raises(ProtocolError):
            p2.on_receive(
                BHMRProtocol(1, 2).make_piggyback(0), sender=1
            )


class TestFDAS:
    def test_no_send_no_force(self):
        p = FDASProtocol(0, 2)
        pb = TDVPiggyback(tdv=(0, 1))
        assert not p.wants_forced_checkpoint(pb, sender=1)

    def test_send_then_new_dependency_forces(self):
        p = FDASProtocol(0, 2)
        p.on_send(1)
        pb = TDVPiggyback(tdv=(0, 1))  # new dependency on P1's interval 1
        assert p.wants_forced_checkpoint(pb, sender=1)

    def test_send_then_old_dependency_does_not_force(self):
        p = FDASProtocol(0, 2)
        p.on_receive(TDVPiggyback(tdv=(0, 1)), sender=1)  # learn it first
        p.on_send(1)
        assert not p.wants_forced_checkpoint(TDVPiggyback(tdv=(0, 1)), sender=1)

    def test_merge_is_componentwise_max(self):
        p = FDASProtocol(0, 3)
        p.on_receive(TDVPiggyback(tdv=(0, 4, 1)), sender=1)
        p.on_receive(TDVPiggyback(tdv=(0, 2, 3)), sender=2)
        assert p.tdv == [1, 4, 3]


class TestFDI:
    def test_receive_then_new_dependency_forces(self):
        p = FDIProtocol(0, 3)
        p.on_receive(TDVPiggyback(tdv=(0, 1, 0)), sender=1)
        assert p.wants_forced_checkpoint(TDVPiggyback(tdv=(0, 0, 1)), sender=2)

    def test_fdas_would_not_force_there(self):
        p = FDASProtocol(0, 3)
        p.on_receive(TDVPiggyback(tdv=(0, 1, 0)), sender=1)
        assert not p.wants_forced_checkpoint(TDVPiggyback(tdv=(0, 0, 1)), sender=2)

    def test_fresh_interval_never_forces(self):
        p = FDIProtocol(0, 2)
        assert not p.wants_forced_checkpoint(TDVPiggyback(tdv=(0, 5)), sender=1)


class TestClassical:
    def test_nras_forces_iff_sent(self):
        p = NRASProtocol(0, 2)
        pb = p.make_piggyback(1)
        assert not p.wants_forced_checkpoint(pb, sender=1)
        p.on_send(1)
        assert p.wants_forced_checkpoint(pb, sender=1)

    def test_cbr_forces_on_any_activity(self):
        p = CBRProtocol(0, 2)
        pb = p.make_piggyback(1)
        assert not p.wants_forced_checkpoint(pb, sender=1)
        p.on_receive(pb, sender=1)
        assert p.wants_forced_checkpoint(pb, sender=1)

    def test_cas_checkpoints_after_each_send(self):
        # The hook is consulted by the driver right after each send and
        # is unconditional for CAS; it never forces at delivery time.
        p = CASProtocol(0, 2)
        p.on_send(1)
        assert p.wants_checkpoint_after_send()
        pb = p.make_piggyback(1)
        assert not p.wants_forced_checkpoint(pb, sender=1)

    def test_independent_never_forces(self):
        p = IndependentProtocol(0, 2)
        pb = p.make_piggyback(1)
        p.on_send(1)
        p.on_receive(pb, sender=1)
        assert not p.wants_forced_checkpoint(pb, sender=1)
        assert not p.ensures_rdt


def bhmr_msg(sender_proto):
    """Snapshot a piggyback the way the replay driver does."""
    return sender_proto.on_send


class TestBHMRFigure2Scenario:
    """Figure 2: P_i sent m', then m arrives bringing a new dependency
    whose chain has no known causal sibling: C1 must fire."""

    def test_c1_fires(self):
        n = 3
        i, j, k = 0, 1, 2
        pi = BHMRProtocol(i, n)
        pk = BHMRProtocol(k, n)
        pi.on_send(j)  # m' to P_j, still in my current interval
        pb = pk.on_send(i)  # m from P_k with TDV[k]=1, causal[k][j]=False
        assert pi.wants_forced_checkpoint(pb, sender=k)

    def test_no_send_means_no_c1(self):
        n = 3
        pi = BHMRProtocol(0, n)
        pk = BHMRProtocol(2, n)
        pb = pk.on_send(0)
        assert not pi.wants_forced_checkpoint(pb, sender=2)

    def test_known_sibling_suppresses_force(self):
        """Figure 3: the sender knows a causal chain C(k,.) -> C(j,.)
        exists (causal[k][j] true), so P_i need not break anything."""
        n = 3
        i, j, k = 0, 1, 2
        pl = BHMRProtocol(k, n)  # P_k will talk to P_j then to P_i
        pj = BHMRProtocol(j, n)
        pi = BHMRProtocol(i, n)
        # P_k -> P_j directly: afterwards P_j knows causal[k][j].
        pb_kj = pl.on_send(j)
        assert not pj.wants_forced_checkpoint(pb_kj, sender=k)
        pj.on_receive(pb_kj, sender=k)
        assert decode_matrix(pj.causal, n)[k][j]
        # P_j -> P_i: P_i learns the dependency on P_k *and* the sibling.
        pb_ji = pj.on_send(i)
        pi.on_send(j)  # P_i has sent to P_j in its current interval
        # The new dependency on k comes with causal[k][j] == True: the
        # only breakable chain (towards j) already has a sibling.  The
        # dependency on j itself also has causal[j][j] == True.
        assert not pi.wants_forced_checkpoint(pb_ji, sender=j)


class TestBHMRC2Scenario:
    """Figure 4: a causal chain leaves P_i's interval and returns having
    crossed a checkpoint: C2 must fire (and only then)."""

    @staticmethod
    def _play(crossing_checkpoint: bool):
        n = 2
        i, k = 0, 1
        pi = BHMRProtocol(i, n)
        pk = BHMRProtocol(k, n)
        pb_ik = pi.on_send(k)  # chain mu'' leaves I(i,1)
        assert not pk.wants_forced_checkpoint(pb_ik, sender=i)
        pk.on_receive(pb_ik, sender=i)
        if crossing_checkpoint:
            pk.on_checkpoint()  # C(k,1) sits inside the returning chain
        pb_ki = pk.on_send(i)  # chain mu' returns to P_i
        return pi, pb_ki

    def test_c2_fires_when_chain_crossed_a_checkpoint(self):
        pi, pb = self._play(crossing_checkpoint=True)
        assert pi.wants_forced_checkpoint(pb, sender=1)

    def test_c2_silent_when_chain_is_simple(self):
        pi, pb = self._play(crossing_checkpoint=False)
        assert not pi.wants_forced_checkpoint(pb, sender=1)

    def test_simple_flag_round_trip(self):
        pi, pb = self._play(crossing_checkpoint=True)
        # P_k reset simple[i] at its checkpoint
        assert not decode_vector(pb.simple, 2)[0]

    def test_variants_also_fire_there(self):
        n = 2
        for cls in (BHMRNoSimpleProtocol, BHMRCausalOnlyProtocol):
            pi = cls(0, n)
            pk = cls(1, n)
            pb_ik = pi.on_send(1)
            pk.on_receive(pb_ik, sender=0)
            pk.on_checkpoint()
            pb_ki = pk.on_send(0)
            assert pi.wants_forced_checkpoint(pb_ki, sender=1), cls.name


class TestBHMRStateInvariants:
    def test_simple_own_entry_stays_true(self):
        p = BHMRProtocol(0, 3)
        p.on_checkpoint()
        p.on_checkpoint()
        assert decode_vector(p.simple, 3)[0]

    def test_causal_diagonal_stays_true(self):
        p = BHMRProtocol(0, 3)
        other = BHMRProtocol(1, 3)
        p.on_receive(other.on_send(0), sender=1)
        p.on_checkpoint()
        causal = decode_matrix(p.causal, 3)
        for k in range(3):
            assert causal[k][k]

    def test_variant2_diagonal_stays_false(self):
        p = BHMRCausalOnlyProtocol(0, 3)
        other = BHMRCausalOnlyProtocol(1, 3)
        p.on_receive(other.on_send(0), sender=1)
        p.on_checkpoint()
        causal = decode_matrix(p.causal, 3)
        for k in range(3):
            assert not causal[k][k]

    def test_variant2_close_skips_its_own_row(self):
        # Reachable states never set causal[pid][sender] before the close
        # runs, so set it by hand: closing column pid through the sender
        # must still leave causal[pid][pid] false.
        p = BHMRCausalOnlyProtocol(0, 3)
        other = BHMRCausalOnlyProtocol(1, 3)
        p.causal[0] |= 1 << 1
        p.on_receive(other.on_send(0), sender=1)
        causal = decode_matrix(p.causal, 3)
        assert causal[0] == (False, True, False)
        assert causal[1][0]  # the close itself still ran
        for k in range(3):
            assert not causal[k][k]

    def test_checkpoint_resets_own_causal_row(self):
        p = BHMRProtocol(0, 3)
        other = BHMRProtocol(1, 3)
        p.on_receive(other.on_send(0), sender=1)  # sets causal[1][0]
        assert decode_matrix(p.causal, 3)[1][0]
        p.on_checkpoint()
        causal = decode_matrix(p.causal, 3)
        assert causal[0] == (True, False, False)
        # Knowledge about *other* processes' chains survives checkpoints.
        assert causal[1][0]

    def test_transitive_closure_on_receive(self):
        # P2 knows causal[0][1] (learned elsewhere); when P2 sends to me
        # (P1... here pid 1 receiving from 2), column updates close
        # transitively: causal[l][me] |= causal[l][sender].
        n = 3
        p2 = BHMRProtocol(2, n)
        p0 = BHMRProtocol(0, n)
        p2.on_receive(p0.on_send(2), sender=0)  # causal[0][2] := True
        me = BHMRProtocol(1, n)
        me.on_receive(p2.on_send(1), sender=2)
        causal = decode_matrix(me.causal, n)
        assert causal[2][1]  # direct
        assert causal[0][1]  # transitive through the sender

    def test_min_gcp_of_initial(self):
        p = BHMRProtocol(0, 3)
        assert p.min_gcp_of(0) == {0: 0, 1: 0, 2: 0}


def _piggybacks(n=3):
    """One piggyback per registered protocol and per list-form oracle,
    sent by P2 to P0 after P2 has checkpointed once."""
    out = {}
    oracles = {"oracle-" + name: cls for name, cls in ORACLES.items()}
    for name, cls in {**PROTOCOLS, **oracles}.items():
        sender = cls(2, n)
        sender.on_checkpoint()
        out[name] = sender.on_send(0)
    return out


def _predicate_refuses(variant, pb):
    try:
        variant(0, 3).wants_forced_checkpoint(pb, sender=2)
    except ProtocolError:
        return True
    return False


FOREIGN = [
    (variant, source)
    for variant in BHMR_VARIANTS
    for source, pb in _piggybacks().items()
    if _predicate_refuses(variant, pb)
]


class TestBHMRRefusesForeignPiggybacks:
    """``on_receive`` refuses, before any change, every piggyback the
    variant's predicate refuses."""

    @pytest.mark.parametrize(
        "variant,source", FOREIGN, ids=[f"{v.name}<-{s}" for v, s in FOREIGN]
    )
    def test_refused_without_a_state_change(self, variant, source):
        p = variant(0, 3)
        # A state away from S0: one delivery, one send, one checkpoint.
        p.on_receive(variant(1, 3).on_send(0), sender=1)
        p.on_send(1)
        p.on_checkpoint()

        def state():
            return list(p.tdv), list(p.causal), p.simple, p.deliveries_in_interval

        before = state()
        with pytest.raises(ProtocolError, match="cannot interpret"):
            p.on_receive(_piggybacks()[source], sender=2)
        assert state() == before
