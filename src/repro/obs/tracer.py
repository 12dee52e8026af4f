"""The structured trace bus: typed, deterministic, zero-cost when off.

A :class:`Tracer` collects typed events from every layer of the stack --
scheduler ticks, message deliveries, protocol predicate evaluations
(with their inputs), forced-checkpoint decisions, closure updates, sweep
cells -- and renders them as JSONL.  Two properties are contractual:

* **Determinism.**  Events are keyed by ``(t, seq)`` where ``t`` is
  *simulation* time and ``seq`` a per-tracer insertion counter; wall
  clock never appears.  Together with canonical JSON encoding
  (:mod:`repro.obs.jsonio`) this makes trace files *byte-identical*
  across runs of the same seed, so they can be diffed and golden-tested.
  (Wall-clock profiling lives in :mod:`repro.obs.profile`, deliberately
  outside the trace.)

* **Zero overhead when disabled.**  Instrumented call sites hold either
  ``None`` or a tracer and guard with ``if tracer:`` -- a disabled
  tracer is falsy, so the cost of instrumentation without tracing is
  one truthiness check, nothing allocated, nothing formatted.

Event kinds are an open vocabulary; the ones emitted by this repo are
listed in :data:`KINDS` and documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, TextIO, Union

from repro.obs.jsonio import canonical_dumps, jsonable

#: The event vocabulary emitted by the instrumented layers.  User code
#: may emit its own kinds; every literal kind this package emits must be
#: here and in docs/OBSERVABILITY.md (``tests/test_obs_trace_kinds.py``).
KINDS = (
    "sim.step",         # scheduler processed one event
    "sim.send",         # trace generation recorded a send
    "sim.deliver",      # trace generation recorded a delivery
    "sim.basic",        # trace generation recorded a basic checkpoint
    "proto.predicate",  # forcing predicate evaluated (with inputs)
    "proto.forced",     # predicate fired: forced checkpoint taken
    "proto.ckpt",       # any checkpoint recorded during replay
    "closure.node",     # incremental R-graph grew a node
    "closure.edge",     # incremental R-graph closure absorbed an edge
    "sweep.cell",       # one sweep cell finished (or was served cached)
    "phase",            # span open/close marker (begin/end field)
    "recovery.crash",   # injected failure struck (crashed pids)
    "recovery.line",    # online recovery line computed at a crash
    "recovery.replay",  # rollback done: re-execution + log replay stats
    "net.drop",         # physical copy (or ack) lost / cut by a partition
    "net.dup",          # physical layer duplicated a transmission
    "net.retransmit",   # transport retried an unacked message
    "net.deliver",      # transport handed a message to the protocol layer
    "net.ack",          # sender received the delivery ack
    "net.degraded",     # watchdog gave up on a message; link degraded
    "serve.start",      # daemon bound its listening address
    "serve.stop",       # daemon drained and stopped (session count)
    "serve.conn",       # connection opened/closed (mark field)
    "serve.shed",       # backpressure refused a frame (full shard queue)
    "serve.snapshot",   # session snapshotted on request
    "serve.evict",      # idle session snapshotted and dropped from RAM
    "serve.restore",    # evicted session replayed back to live state
    "serve.stop.degraded",  # shutdown after a WAL failure skipped snapshots
    "serve.layout",     # a router handed this shard its layout
    "serve.retire",     # a rebalance retired this shard's live session copy
    "serve.wal.commit",    # group-commit fsync done (durable watermark)
    "serve.wal.failed",    # a group commit failed; the server halts intake
    "serve.wal.rotate",    # a new WAL segment file was opened
    "serve.wal.truncate",  # snapshot-covered segments reclaimed
    "serve.wal.recover",   # startup rebuilt one session from WAL + snapshot
    "serve.wal.repair",    # startup dropped a torn (never-acked) WAL tail
    "serve.router.start",  # router bound its address with its shards up
    "serve.router.stop",   # router drained and stopped its shards
    "serve.shard.spawn",   # a shard process was launched
    "serve.shard.up",      # a shard holds its layout and is published up
    "serve.shard.down",    # the supervisor saw a shard process die
    "serve.shard.respawn_failed",  # a respawn attempt failed
    "serve.shard.flapping",  # crash-loop trip wire fired; shard parked
    "serve.shard.rebalance",  # a live snapshot-and-re-home completed
    "serve.shard.reconcile",  # startup re-homed sessions to a new layout
    "serve.chaos.start",   # chaos proxy bound (seed, upstream)
    "serve.chaos.stop",    # chaos proxy stopped (connection/fault totals)
    "serve.chaos.conn",    # chaos proxy accepted a connection (its plan)
    "serve.chaos.fault",   # a scheduled wire fault fired
    "serve.chaos.upstream_refused",  # the proxy could not dial upstream
    "serve.client.retry",    # a refused-unwritten frame, about to back off
    "serve.client.circuit",  # circuit breaker open/half_open/closed
)


@dataclass(frozen=True)
class TraceEvent:
    """One typed event: kind, simulation time, sequence, open fields."""

    kind: str
    t: float
    seq: int
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {"kind": self.kind, "t": self.t, "seq": self.seq}
        doc.update(self.fields)
        return doc

    def line(self) -> str:
        """The event's canonical JSONL rendition."""
        return canonical_dumps(self.to_dict())


class _Span:
    """An open span; :meth:`end` emits the matching close event."""

    __slots__ = ("_tracer", "kind", "span_id", "_closed")

    def __init__(self, tracer: "Tracer", kind: str, span_id: int) -> None:
        self._tracer = tracer
        self.kind = kind
        self.span_id = span_id
        self._closed = False

    def end(self, t: float, **fields: object) -> None:
        if self._closed:
            return
        self._closed = True
        self._tracer.event(self.kind, t, span=self.span_id, mark="end", **fields)


class Tracer:
    """Collects trace events; falsy (and inert) when disabled.

    Parameters
    ----------
    enabled:
        A disabled tracer drops every event and is falsy, letting call
        sites share one ``if tracer:`` guard for both ``None`` and
        "constructed but off".
    stream:
        Optional text stream to write each event line to as it happens
        (events are buffered in memory regardless, for :meth:`lines` /
        :meth:`write`).
    """

    def __init__(self, enabled: bool = True, stream: Optional[TextIO] = None):
        self.enabled = enabled
        self._stream = stream
        self._events: List[TraceEvent] = []
        self._seq = 0

    def __bool__(self) -> bool:
        return self.enabled

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def event(self, kind: str, t: float, **fields: object) -> None:
        """Record one event at simulation time ``t``.

        Field values pass through :func:`repro.obs.jsonio.jsonable`, so
        tuples, dicts and dataclass-repr'able objects are all safe.
        """
        if not self.enabled:
            return
        ev = TraceEvent(
            kind=kind,
            t=t,
            seq=self._seq,
            fields={k: jsonable(v) for k, v in fields.items()},
        )
        self._seq += 1
        self._events.append(ev)
        if self._stream is not None:
            self._stream.write(ev.line() + "\n")

    def span(self, kind: str, t: float, **fields: object) -> _Span:
        """Open a span: emits the begin marker now, the end on ``.end(t)``.

        The span id is the begin event's ``seq``, which pairs the two
        markers unambiguously even when spans of one kind nest.
        """
        span_id = self._seq
        self.event(kind, t, span=span_id, mark="begin", **fields)
        return _Span(self, kind, span_id)

    # ------------------------------------------------------------------
    # inspection / output
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [ev for ev in self._events if ev.kind == kind]

    def lines(self) -> List[str]:
        """Every event as its canonical JSONL line, in emission order."""
        return [ev.line() for ev in self._events]

    def dumps(self) -> str:
        """The whole trace as one JSONL string (trailing newline)."""
        return "".join(line + "\n" for line in self.lines())

    def write(self, path: Union[str, Path]) -> int:
        """Write the buffered trace to ``path``; returns the event count."""
        Path(path).write_text(self.dumps(), encoding="utf-8")
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self._seq = 0

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"<Tracer {state} events={len(self._events)}>"


#: A shared, always-disabled tracer: pass where ``Optional[Tracer]``
#: feels awkward; behaviourally identical to passing ``None``.
NULL_TRACER = Tracer(enabled=False)
