"""The ledger's own load driver over the public ``AsyncClient``.

``repro.serve.loadgen.run_load`` opens one connection per session and
ties session length to run length; the ledger instead multiplexes many
fixed-length sessions back to back on ``CONNECTIONS`` connections (never
more than ``nproc``) from one process, closed loop, in two separately
timed phases: a pipelined one (window 64) for throughput and a
window-1 tail for round-trip times.  Op counts are fixed by the inputs,
so counts repeat exactly from run to run.

Every frame is accounted for: acked, or failed under a named class
(error code, ``timeout``, ``skipped_deliver``, ``disconnect``).
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.serve.client import AsyncClient, RequestTimeout

from .workloads import Plan, Session

REQUEST_TIMEOUT_S = 30.0


class SessionState:
    """Driver-side memory of one session across phases and restarts."""

    def __init__(self, session: Session) -> None:
        self.session = session
        #: trace message key -> server-assigned id, for sends whose
        #: deliver has not been submitted yet.
        self.msg_ids: Dict[object, int] = {}
        #: The driver's own op list (ingest-log schema), kept only for
        #: sessions the correctness gate samples.
        self.log: Optional[List[Dict[str, object]]] = [] if session.gated else None
        self.acked = 0


@dataclass
class PhaseReport:
    wall_s: float = 0.0
    loadgen_cpu_s: float = 0.0
    submitted: int = 0
    acked: int = 0
    queries: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    #: Submit-to-reply latency of every acked ingest frame / answered
    #: query, one list per connection, in that connection's op order --
    #: so position ``i`` is the same op in every repetition of the phase.
    ingest_ms: List[List[float]] = field(default_factory=list)
    query_ms: List[List[float]] = field(default_factory=list)
    #: Seconds from phase start to each ingest ack, in completion order.
    ack_s: List[float] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, code: str, count: int = 1) -> None:
        if count:
            self.failures[code] = self.failures.get(code, 0) + count


_INGEST, _QUERY, _HELLO = 0, 1, 2


async def _drive_conn(
    client: AsyncClient,
    plan: Plan,
    states: Dict[str, SessionState],
    window: int,
    query_every: int,
    query_kinds: Sequence[str],
    report: PhaseReport,
    started_s: float,
) -> None:
    ingest_ms: List[float] = []
    query_ms: List[float] = []
    report.ingest_ms.append(ingest_ms)
    report.query_ms.append(query_ms)
    inflight: Deque[Tuple["asyncio.Future", float, int, SessionState, object]] = deque()
    pending_sends: Dict[Tuple[str, object], "asyncio.Future"] = {}

    async def reap() -> None:
        future, started, tag, state, key = inflight.popleft()
        reply = await client.reply(future)
        now = perf_counter()
        elapsed_ms = (now - started) * 1e3
        if not reply.get("ok", False):
            report.fail(str(reply.get("error", "error")))
            return
        if tag == _QUERY:
            query_ms.append(elapsed_ms)
        elif tag == _INGEST:
            ingest_ms.append(elapsed_ms)
            report.ack_s.append(now - started_s)
            report.acked += 1
            state.acked += 1
            if pending_sends.pop((state.session.sid, key), None) is not None:
                state.msg_ids[key] = int(reply["msg_id"])

    ops_done = 0
    queries_done = 0
    try:
        for session, start, stop in plan:
            state = states[session.sid]
            sid = session.sid
            if start == 0:
                future = client.submit(
                    "hello", session=sid, n=session.n, protocol=session.protocol
                )
                report.submitted += 1
                inflight.append((future, perf_counter(), _HELLO, state, None))
            for op in session.ops[start:stop]:
                while len(inflight) >= window:
                    await reap()
                key = None
                if op[0] == "c":
                    doc = {"kind": "checkpoint", "pid": op[1]}
                    future = client.submit("checkpoint", session=sid, pid=op[1])
                elif op[0] == "s":
                    key = op[3]
                    doc = {"kind": "send", "src": op[1], "dst": op[2]}
                    future = client.submit("send", session=sid, src=op[1], dst=op[2])
                    pending_sends[(sid, key)] = future
                else:
                    # A deliver needs the server-assigned id of its send.
                    msg_id = state.msg_ids.pop(op[1], None)
                    if msg_id is None:
                        sent = pending_sends.pop((sid, op[1]), None)
                        reply = await client.reply(sent) if sent is not None else {}
                        if not reply.get("ok", False):
                            report.fail("skipped_deliver")
                            continue
                        msg_id = int(reply["msg_id"])
                    doc = {"kind": "deliver", "msg_id": msg_id}
                    future = client.submit("deliver", session=sid, msg_id=msg_id)
                if state.log is not None:
                    state.log.append(doc)
                report.submitted += 1
                inflight.append((future, perf_counter(), _INGEST, state, key))
                ops_done += 1
                if ops_done % 64 == 0:
                    await client.flush()
                if query_every and ops_done % query_every == 0:
                    what = query_kinds[queries_done % len(query_kinds)]
                    queries_done += 1
                    future = client.submit("query", session=sid, what=what)
                    report.submitted += 1
                    report.queries += 1
                    inflight.append((future, perf_counter(), _QUERY, state, None))
        while inflight:
            await reap()
    except RequestTimeout:
        report.fail("timeout")
        report.fail("disconnect", len(inflight))
    except ConnectionError:
        report.fail("disconnect", len(inflight) + 1)


async def _run_phase(
    address: str,
    plans: Sequence[Plan],
    states: Dict[str, SessionState],
    window: int,
    query_every: int,
    query_kinds: Sequence[str],
) -> PhaseReport:
    report = PhaseReport()
    clients = [
        await AsyncClient.connect(address, timeout=REQUEST_TIMEOUT_S) for _ in plans
    ]
    try:
        cpu0 = process_time()
        started = perf_counter()
        await asyncio.gather(
            *(
                _drive_conn(
                    client, plan, states, window, query_every, query_kinds,
                    report, started,
                )
                for client, plan in zip(clients, plans)
            )
        )
        report.wall_s = perf_counter() - started
        report.loadgen_cpu_s = process_time() - cpu0
    finally:
        for client in clients:
            await client.close()
    return report


def run_phase(
    address: str,
    plans: Sequence[Plan],
    states: Dict[str, SessionState],
    *,
    window: int,
    query_every: int,
    query_kinds: Sequence[str],
) -> PhaseReport:
    """Drive one phase, one connection per plan; blocks until all acked."""
    return asyncio.run(
        _run_phase(address, plans, states, window, query_every, query_kinds)
    )


async def _ask(
    address: str, sessions: Sequence[Session], requests: Sequence[Tuple[str, Dict]]
) -> Dict[str, List[Dict[str, object]]]:
    out: Dict[str, List[Dict[str, object]]] = {}
    async with await AsyncClient.connect(address, timeout=REQUEST_TIMEOUT_S) as client:
        for session in sessions:
            out[session.sid] = [
                await client.call(kind, session=session.sid, **fields)
                for kind, fields in requests
            ]
    return out


def ask(
    address: str, sessions: Sequence[Session], requests: Sequence[Tuple[str, Dict]]
) -> Dict[str, List[Dict[str, object]]]:
    """Send ``requests`` (kind, fields) to each session in turn over one
    connection; returns the ok replies per session id (raises on errors)."""
    return asyncio.run(_ask(address, sessions, requests))
