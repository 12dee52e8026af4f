"""In-memory spans recorded from outside the program under test.

A span is ``(name, start, end, parent)`` around one call into a layer's
public function.  Spans live in memory for the whole traced pass and are
written out once, at the end (``out/trace-<workload>.json``); a span's
*self time* is its duration minus what its child spans cover.
Tracing inside ``src/repro`` is a later issue -- these spans are all the
benchmark can see without touching it.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List

from .stats import best_of

ROOT = -1


class SpanLog:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: ``(name id, start, end, parent index)``; hot loops append
        #: finished rows directly (see :meth:`name_id`).  Tuples of
        #: numbers, so the collector stops tracking them: a list per
        #: span made every later pass pay for scanning the earlier ones.
        self.rows: List[tuple] = []
        #: name id -> parent -> durations, rebuilt when ``rows`` has grown.
        self._grouped: Dict[int, Dict[int, List[float]]] = {}
        self._grouped_rows = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def span(self, name: str, parent: int = ROOT) -> Iterator[int]:
        """An enclosing span; yields its index for children to point at."""
        index = len(self.rows)
        nid, started = self.name_id(name), perf_counter()
        self.rows.append((nid, started, started, parent))
        try:
            yield index
        finally:
            self.rows[index] = (nid, started, perf_counter(), parent)

    def _repetitions(self, name: str) -> List[List[float]]:
        """Durations of the ``name`` spans, one list per parent span: a
        pass that is repeated records each repetition under its own
        parent, so the lists line up position by position."""
        if self._grouped_rows != len(self.rows):
            self._grouped = {}
            for nid, start, end, parent in self.rows:
                by_parent = self._grouped.setdefault(nid, {})
                by_parent.setdefault(parent, []).append(end - start)
            self._grouped_rows = len(self.rows)
        return list(self._grouped.get(self._ids.get(name, -1), {}).values())

    def best_seconds(self, name: str) -> float:
        """Total time of the ``name`` calls of one repetition, each call
        at its best over the repetitions (``stats.best_of``)."""
        groups = self._repetitions(name)
        return sum(best_of(groups)) if groups else 0.0

    def calls(self, name: str) -> int:
        """How many ``name`` calls one repetition makes."""
        groups = self._repetitions(name)
        return len(groups[0]) if groups else 0

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent"],
                    "names": self.names,
                    "spans": self.rows,
                },
                f,
                separators=(",", ":"),
            )
