"""The correctness gate: no number is reported over a wrong answer.

For every gated session the live ``rdt_status`` / ``z_cycles`` /
``recovery_line`` answers must be byte-identical (canonical JSON) to
``offline_answers`` over the *driver's own* op list -- the differential
contract of ``repro.serve`` -- before and after the ``kill -9`` restart,
and the server must hold at least every event the client saw acked.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence

from repro.obs.jsonio import canonical_dumps
from repro.serve.session import offline_answers

from .driver import SessionState, ask
from .workloads import QUERY_KINDS

Answers = Dict[str, Dict[str, str]]  # session id -> query kind -> JSON


def live_answers(address: str, states: Sequence[SessionState]) -> Answers:
    replies = ask(
        address,
        [state.session for state in states],
        [("query", {"what": kind}) for kind in QUERY_KINDS],
    )
    return {
        sid: {
            kind: canonical_dumps(reply["result"])
            for kind, reply in zip(QUERY_KINDS, answers)
        }
        for sid, answers in replies.items()
    }


class Gate:
    """Differential checker; counts verdicts checked and mismatching."""

    def __init__(self) -> None:
        self.checked = 0
        self.mismatches: List[str] = []
        #: Rounds replay identical inputs, so one offline replay per
        #: session serves all of them (keyed by the op list it replayed).
        self._offline: Dict[str, tuple] = {}

    def expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.mismatches.append(what)

    def offline(self, state: SessionState) -> Dict[str, str]:
        session = state.session
        cached = self._offline.get(session.sid)
        if cached is None or cached[0] != state.log:
            answers = offline_answers(
                session.sid, session.n, session.protocol, state.log
            )
            cached = (
                list(state.log),
                {kind: canonical_dumps(answers[kind]) for kind in QUERY_KINDS},
            )
            self._offline[session.sid] = cached
        return cached[1]

    def differential(
        self, stage: str, states: Sequence[SessionState], live: Answers
    ) -> None:
        for state in states:
            expected = self.offline(state)
            for kind in QUERY_KINDS:
                self.expect(
                    live[state.session.sid][kind] == expected[kind],
                    f"{stage}: {state.session.sid} {kind} differs from offline replay",
                )


def verdict_digest(doc: object) -> str:
    """sha256 of the canonical JSON of a workload's verdicts."""
    return hashlib.sha256(canonical_dumps(doc).encode("utf-8")).hexdigest()
