"""Load generation: replay generated workloads through live connections.

The generator reuses the repo's own trace machinery
(:func:`repro.sim.generate.generate_trace`): each session gets a
deterministic protocol-independent trace of one registry workload
(seeded per session), which is then *pipelined* over its own connection
-- up to ``window`` frames in flight, delivers waiting only on their
own send's acknowledgement (the server assigns message ids).

What it measures: ingest throughput across all sessions, request
latency quantiles (ingest and, when ``query_every`` is set, analysis
queries running against the same live sessions), shed/error counts.
Shed frames are the backpressure contract working as designed -- the
generator counts them and skips deliveries whose send was shed, it does
not retry, so a saturated server shows up as shed count rather than as
a hang.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.serve.client import Address, AsyncClient, RequestTimeout
from repro.sim.generate import generate_trace
from repro.sim.trace import Trace, TraceOpKind
from repro.types import SimulationError
from repro.workloads import WORKLOADS


def _quantile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


@dataclass
class LoadReport:
    """What one load run observed, over all sessions."""

    sessions: int
    submitted: int = 0
    acked: int = 0
    shed: int = 0
    errors: int = 0
    skipped_delivers: int = 0
    disconnects: int = 0
    queries: int = 0
    duration_s: float = 0.0
    #: Per-error-code breakdown of everything that wasn't an ack:
    #: ``overloaded`` (also counted in ``shed``), ``shard_down``,
    #: ``wal_failure``, ..., plus ``"timeout"`` for per-request
    #: deadline misses.  Chaos benchmarks assert on these rates; a
    #: single ``errors`` scalar silently conflated them.
    errors_by_code: Dict[str, int] = field(default_factory=dict)
    ingest_latencies_s: List[float] = field(default_factory=list, repr=False)
    query_latencies_s: List[float] = field(default_factory=list, repr=False)
    per_session: Dict[str, int] = field(default_factory=dict)
    #: Frames handed to the transports and the writes that carried them,
    #: summed over connections (:attr:`AsyncClient.frames_sent` /
    #: :attr:`AsyncClient.writes`): how well the pipelined path batches.
    frames_sent: int = 0
    writes: int = 0

    @property
    def throughput(self) -> float:
        """Acknowledged ingest events per second, across all sessions."""
        return self.acked / self.duration_s if self.duration_s > 0 else 0.0

    def latency_quantiles(self) -> Dict[str, float]:
        ingest = sorted(self.ingest_latencies_s)
        query = sorted(self.query_latencies_s)
        return {
            "ingest_p50_s": _quantile(ingest, 0.50),
            "ingest_p99_s": _quantile(ingest, 0.99),
            "query_p50_s": _quantile(query, 0.50),
            "query_p99_s": _quantile(query, 0.99),
        }

    def as_doc(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "sessions": self.sessions,
            "submitted": self.submitted,
            "acked": self.acked,
            "shed": self.shed,
            "errors": self.errors,
            "skipped_delivers": self.skipped_delivers,
            "disconnects": self.disconnects,
            "errors_by_code": dict(sorted(self.errors_by_code.items())),
            "queries": self.queries,
            "duration_s": round(self.duration_s, 6),
            "throughput_events_per_s": round(self.throughput, 1),
            "frames_per_write": round(self.frames_sent / max(1, self.writes), 2),
            "per_session": dict(sorted(self.per_session.items())),
        }
        doc.update(
            {k: round(v, 6) for k, v in self.latency_quantiles().items()}
        )
        return doc


async def _drive_session(
    address: Union[str, Address],
    session_id: str,
    protocol: str,
    trace: Trace,
    window: int,
    query_every: int,
    report: LoadReport,
    request_timeout: Optional[float] = None,
) -> int:
    """Replay one trace through one pipelined connection.

    A mid-run disconnect (e.g. the server draining and stopping under
    load) is not an error: the session's accumulated counts stay in the
    report and ``disconnects`` is bumped, so shutdown-under-load tests
    can compare client-side acks against server-side applied counts.
    A per-request deadline miss (the server stalled; see
    :meth:`AsyncClient.reply`) is counted as ``errors_by_code["timeout"]``
    plus a disconnect, since the deadline invalidates the connection.

    Returns the number of ``send_futures`` entries left at the end:
    send replies are popped when their deliver consumes them, so the
    leftovers are exactly the trace's never-delivered sends -- long
    ``--duration`` runs must not accumulate one reply document per send
    for the whole run (that was a real RSS leak).
    """
    client = await AsyncClient.connect(
        address, timeout=request_timeout if request_timeout is not None else 10.0
    )
    inflight: Deque[Tuple["asyncio.Future", float, bool]] = deque()
    send_futures: Dict[object, "asyncio.Future"] = {}
    acked_here = 0

    def _miss(code: str) -> None:
        report.errors_by_code[code] = report.errors_by_code.get(code, 0) + 1

    try:
        await client.hello(session_id, n=trace.n, protocol=protocol)

        async def reap_one() -> None:
            nonlocal acked_here
            future, started, is_query = inflight.popleft()
            reply = await client.reply(future)
            latency = perf_counter() - started
            if reply.get("ok", False):
                if is_query:
                    report.query_latencies_s.append(latency)
                else:
                    report.ingest_latencies_s.append(latency)
                    report.acked += 1
                    acked_here += 1
            elif reply.get("error") == "overloaded":
                report.shed += 1
                _miss("overloaded")
            else:
                report.errors += 1
                _miss(str(reply.get("error", "error")))

        ops_done = 0
        for op in trace.ops:
            while len(inflight) >= window:
                await reap_one()
            if op.kind is TraceOpKind.BASIC_CHECKPOINT:
                future = client.submit(
                    "checkpoint", session=session_id, pid=op.pid
                )
            elif op.kind is TraceOpKind.SEND:
                future = client.submit(
                    "send", session=session_id, src=op.pid, dst=op.peer
                )
                send_futures[op.msg_id] = future
            else:  # DELIVER: needs the server-assigned id of its send
                # Pop, not read: each send reply has exactly one
                # consumer, and keeping it would pin every reply doc of
                # the run in memory.
                send_reply = await client.reply(send_futures.pop(op.msg_id))
                if not send_reply.get("ok", False):
                    report.skipped_delivers += 1
                    continue
                future = client.submit(
                    "deliver",
                    session=session_id,
                    msg_id=send_reply["msg_id"],
                )
            report.submitted += 1
            inflight.append((future, perf_counter(), False))
            ops_done += 1
            if ops_done % 64 == 0:
                await client.flush()  # transport backpressure, batched
            if query_every and ops_done % query_every == 0:
                qfuture = client.submit(
                    "query", session=session_id, what="rdt_status"
                )
                report.queries += 1
                inflight.append((qfuture, perf_counter(), True))
        while inflight:
            await reap_one()
    except RequestTimeout:
        # The deadline fired and invalidated the connection: the
        # stalled request is a classified error, the lost connection a
        # disconnect (every other in-flight frame died with it).
        report.errors += 1
        _miss("timeout")
        report.disconnects += 1
    except ConnectionError:
        report.disconnects += 1
        _miss("disconnect")
    finally:
        report.per_session[session_id] = acked_here
        await client.close()
        report.frames_sent += client.frames_sent
        report.writes += client.writes
    return len(send_futures)


async def run_load_async(
    address: Union[str, Address],
    *,
    sessions: int = 8,
    workload: str = "random",
    protocol: str = "bhmr",
    n: int = 4,
    duration: float = 50.0,
    seed: int = 0,
    basic_rate: float = 0.1,
    window: int = 64,
    query_every: int = 0,
    request_timeout: Optional[float] = None,
) -> LoadReport:
    """Drive ``sessions`` concurrent pipelined sessions; returns the report."""
    if workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        raise SimulationError(f"unknown workload {workload!r}; known: {known}")
    if sessions <= 0:
        raise SimulationError("sessions must be positive")
    if window <= 0:
        raise SimulationError("window must be positive")
    traces = [
        generate_trace(
            n,
            WORKLOADS[workload](),
            duration=duration,
            seed=seed + i,
            basic_rate=basic_rate,
        )
        for i in range(sessions)
    ]
    report = LoadReport(sessions=sessions)
    started = perf_counter()
    await asyncio.gather(
        *(
            _drive_session(
                address,
                f"load-{seed}-{i}",
                protocol,
                traces[i],
                window,
                query_every,
                report,
                request_timeout,
            )
            for i in range(sessions)
        )
    )
    report.duration_s = perf_counter() - started
    return report


def run_load(
    address: Union[str, Address],
    *,
    sessions: int = 8,
    workload: str = "random",
    protocol: str = "bhmr",
    n: int = 4,
    duration: float = 50.0,
    seed: int = 0,
    basic_rate: float = 0.1,
    window: int = 64,
    query_every: int = 0,
    request_timeout: Optional[float] = None,
) -> LoadReport:
    """Blocking wrapper around :func:`run_load_async` (the CLI entrypoint)."""
    return asyncio.run(
        run_load_async(
            address,
            sessions=sessions,
            workload=workload,
            protocol=protocol,
            n=n,
            duration=duration,
            seed=seed,
            basic_rate=basic_rate,
            window=window,
            query_every=query_every,
            request_timeout=request_timeout,
        )
    )
