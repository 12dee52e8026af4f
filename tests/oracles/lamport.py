"""Lamport scalar clocks.

Provides both an online :class:`LamportClock` and an offline computation
of Lamport timestamps for every event of a recorded history.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.events.event import EventKind
from repro.events.history import History


class LamportClock:
    """A scalar logical clock (Lamport 1978).

    ``tick()`` stamps a local or send event; ``merge(ts)`` incorporates the
    timestamp piggybacked on a received message and stamps the delivery.
    """

    def __init__(self) -> None:
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def tick(self) -> int:
        self._value += 1
        return self._value

    def merge(self, received: int) -> int:
        self._value = max(self._value, received) + 1
        return self._value

    def __repr__(self) -> str:
        return f"LamportClock({self._value})"


def lamport_timestamps(history: History) -> Dict[Tuple[int, int], int]:
    """Offline Lamport timestamp of every event, keyed by ``(pid, seq)``.

    Events are replayed in global time order (valid because histories
    guarantee send-before-delivery times), so the result satisfies the
    clock condition: ``e -> e'`` implies ``L(e) < L(e')``.
    """
    clocks = [LamportClock() for _ in range(history.num_processes)]
    send_ts: Dict[int, int] = {}
    stamps: Dict[Tuple[int, int], int] = {}
    for ev in history.events_by_time():
        clock = clocks[ev.pid]
        if ev.kind is EventKind.DELIVER:
            assert ev.msg_id is not None
            stamp = clock.merge(send_ts[ev.msg_id])
        else:
            stamp = clock.tick()
            if ev.kind is EventKind.SEND:
                assert ev.msg_id is not None
                send_ts[ev.msg_id] = stamp
        stamps[ev.ref] = stamp
    return stamps
