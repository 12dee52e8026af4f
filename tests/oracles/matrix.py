"""Matrix clocks: second-order knowledge of vector time.

A matrix clock ``M`` at process ``i`` stores in row ``k`` process ``i``'s
best knowledge of process ``k``'s vector clock; the diagonal row is the
process's own vector clock.  Matrix clocks are the general mechanism
behind "knowledge about other processes' knowledge", of which the BHMR
protocol's boolean ``causal`` matrix is a specialised, cheaper instance
(one bit instead of one integer per entry); ``min(column)`` is what a
garbage collector would use to discard logged messages.
"""

from __future__ import annotations

from typing import List, Tuple


class MatrixClock:
    """An ``n x n`` matrix clock owned by process ``pid``."""

    def __init__(self, pid: int, n: int) -> None:
        self._pid = pid
        self._n = n
        self._m: List[List[int]] = [[0] * n for _ in range(n)]

    @property
    def pid(self) -> int:
        return self._pid

    @property
    def n(self) -> int:
        return self._n

    def row(self, k: int) -> Tuple[int, ...]:
        return tuple(self._m[k])

    def own_vector(self) -> Tuple[int, ...]:
        return tuple(self._m[self._pid])

    def entry(self, k: int, j: int) -> int:
        return self._m[k][j]

    def local_event(self) -> None:
        """Advance own component (internal or send event)."""
        self._m[self._pid][self._pid] += 1

    def snapshot(self) -> List[List[int]]:
        """Deep copy suitable for piggybacking on a message."""
        return [row[:] for row in self._m]

    def deliver(self, sender: int, piggyback: List[List[int]]) -> None:
        """Merge the matrix piggybacked by ``sender`` and stamp delivery.

        Rules: own row takes the component-wise max of itself and the
        sender's own row; every row ``k`` takes the component-wise max of
        itself and the piggybacked row ``k``; then own component advances.
        """
        for k in range(self._n):
            mine, theirs = self._m[k], piggyback[k]
            for j in range(self._n):
                if theirs[j] > mine[j]:
                    mine[j] = theirs[j]
        own, sender_row = self._m[self._pid], piggyback[sender]
        for j in range(self._n):
            if sender_row[j] > own[j]:
                own[j] = sender_row[j]
        self._m[self._pid][self._pid] += 1

    def min_known(self, j: int) -> int:
        """``min`` over rows of column ``j``: every process is known (to
        this process's knowledge) to have seen at least this many events of
        process ``j``.  Classic garbage-collection bound."""
        return min(self._m[k][j] for k in range(self._n))

    def __repr__(self) -> str:
        rows = "; ".join(str(tuple(r)) for r in self._m)
        return f"MatrixClock(P{self._pid}: {rows})"
