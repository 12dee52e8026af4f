"""The forcing predicates of the protocol family, as inspectable functions.

Every communication-induced protocol in this library decides "take a
forced checkpoint before delivering m" by one predicate over (local
control state, piggyback).  Besides living inside the protocol classes,
the predicates are exposed here as standalone functions so that

* the test suite can verify the paper's generality claims *pointwise on
  reachable states* -- e.g. ``C1 or C2  implies  C_FDAS`` is checked at
  every arrival of every simulated run (section 5.2's argument), and
* users can study *why* a particular delivery forced a checkpoint.

Conventions: ``tdv`` is the local vector, ``m_tdv`` the piggybacked one;
boolean structures follow Figure 6's names, held as bits: ``m_causal``
is one int per row (bit ``j`` of row ``k`` is ``m.causal[k][j]``), ``m_simple`` one int.
"""

from __future__ import annotations

from typing import Sequence


def new_dependency(tdv: Sequence[int], m_tdv: Sequence[int]) -> bool:
    """``exists k: m.TDV[k] > TDV[k]`` -- m brings a new dependency."""
    return any(mv > lv for mv, lv in zip(m_tdv, tdv))


def c1(
    tdv: Sequence[int],
    sent_to: Sequence[bool],
    m_tdv: Sequence[int],
    m_causal: Sequence[int],
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
            if not (m_causal[k] >> j) & 1:
                return True
    return False


def c2(
    pid: int,
    tdv: Sequence[int],
    m_tdv: Sequence[int],
    m_simple: int,
) -> bool:
    """Predicate C2 of the paper (section 4.1.2).

    "A causal chain left my current interval and came back having crossed
    a checkpoint: a non-causal chain C(k,z) -> C(k,z-1) is breakable only
    by me":

        m.TDV[i] == TDV[i] and not m.simple[i]
    """
    return m_tdv[pid] == tdv[pid] and not (m_simple >> pid) & 1


def c2_prime(pid: int, tdv: Sequence[int], m_tdv: Sequence[int]) -> bool:
    """Variant predicate C2' (section 5.1, suggested by Y.M. Wang).

    Replaces the ``simple`` test by "any new dependency":

        m.TDV[i] == TDV[i] and exists k: m.TDV[k] > TDV[k]
    """
    return m_tdv[pid] == tdv[pid] and new_dependency(tdv, m_tdv)


def c_fdas(
    after_first_send: bool, tdv: Sequence[int], m_tdv: Sequence[int]
) -> bool:
    """Wang's Fixed-Dependency-After-Send predicate (section 5.2)."""
    return after_first_send and new_dependency(tdv, m_tdv)


def c_fdi(
    had_communication: bool, tdv: Sequence[int], m_tdv: Sequence[int]
) -> bool:
    """Fixed-Dependency-Interval: the dependency vector may only change
    while the interval is still 'fresh' (no send or delivery yet)."""
    return had_communication and new_dependency(tdv, m_tdv)


def c_nras(after_first_send: bool) -> bool:
    """Russell's No-Receive-After-Send: any receive after a send forces."""
    return after_first_send


def c_cbr(had_any_event: bool) -> bool:
    """Checkpoint-Before-Receive: any receive into a non-fresh interval
    forces (each delivery starts its own interval)."""
    return had_any_event
