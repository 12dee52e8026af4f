"""Transitive dependency vectors: the offline TDV reference.

(The Lamport, vector and matrix clocks the tests check against live in
``tests/oracles``.)
"""

from repro.clocks.tdv import (
    TrackabilityOracle,
    event_tdvs,
    message_tdvs,
    tdv_snapshots,
)

__all__ = [
    "TrackabilityOracle",
    "event_tdvs",
    "message_tdvs",
    "tdv_snapshots",
]
