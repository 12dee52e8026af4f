"""One live session: a distributed computation observed over the wire.

A :class:`ServeSession` is the server-side state of one client
computation of ``n`` processes checkpointing under one registry
protocol.  It is the *online* composition of three layers that already
exist offline:

* a :class:`~repro.core.protocol.ProtocolFamily` -- the CIC sidecar,
  whose steps take the session as their sink: every ``send`` mints the
  piggyback, every ``deliver`` consumes it in the forcing predicate and
  replies ``force_checkpoint`` (the paper's visible, on-line decision).
  The session plays both ends of the message, so the piggyback never
  leaves it: it is held only while its message is in transit, and
  replies carry the decision, not the vectors;
* a :class:`~repro.recovery.manager.RecoveryManager` (which owns the
  live :class:`~repro.graph.incremental.IncrementalRGraph` and the one
  record of each sent message, read back at deliver), so
  ``rdt_status`` / ``z_cycles`` / ``recovery_line`` queries answer from
  incrementally-maintained closure state in O(update), never O(replay);
* an append-only **ingest log** of every accepted operation.

The ingest log is the session's source of truth and its differential
contract: :func:`offline_answers` replays a recorded log through a
fresh session and must produce *byte-identical* canonical-JSON answers
to the live session's -- ``tests/test_serve_differential.py`` holds
every server to that, across eviction/restore cycles.

Sessions are single-threaded by construction (the server shards each
session onto exactly one worker), so no locking appears here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.core.piggyback import Piggyback
from repro.core.protocol import ProtocolFamily
from repro.core.registry import PROTOCOLS
from repro.events.event import CheckpointKind, Message
from repro.recovery.manager import RecoveryManager
from repro.types import ReproError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer


class SessionError(ReproError):
    """An ingest or query operation was invalid for the session state."""


#: Query kinds ``query`` understands.
QUERIES = ("rdt_status", "z_cycles", "recovery_line", "metrics")

#: Ingest operation kinds (the ones that mutate state and are logged).
INGEST_OPS = ("checkpoint", "send", "deliver")


class ServeSession:
    """Live state of one served computation.

    Parameters
    ----------
    session_id:
        The client-chosen name; opaque to the server beyond sharding.
    n:
        Number of processes of the computation.
    protocol:
        Registry name of the CIC protocol run as the sidecar.
    """

    def __init__(
        self,
        session_id: str,
        n: int,
        protocol: str,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if protocol not in PROTOCOLS:
            known = ", ".join(sorted(PROTOCOLS))
            raise SimulationError(f"unknown protocol {protocol!r}; known: {known}")
        if not isinstance(n, int) or n <= 0:
            raise SimulationError(f"a session needs n >= 1 processes, got {n!r}")
        self.session_id = session_id
        self.n = n
        self.protocol_name = protocol
        self.family = ProtocolFamily(PROTOCOLS[protocol], n, tracer, metrics)
        self.manager = RecoveryManager(n, tracer=tracer, metrics=metrics)
        #: Every accepted ingest op, in order -- the recorded stream.
        self.ingest_log: List[Dict[str, object]] = []
        #: The piggybacks of the messages in transit, by message id.
        self._piggybacks: Dict[int, Piggyback] = {}
        self._next_msg_id = 0
        self.forced_total = 0
        self.queries_answered = 0

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    @property
    def clock(self) -> float:
        """The logical ingest clock: ops so far (stamps graph events)."""
        return float(len(self.ingest_log))

    def apply(self, doc: Dict[str, object]) -> Dict[str, object]:
        """Apply one ingest operation; returns the reply body.

        ``doc`` needs ``kind`` plus the op's fields (``pid`` for
        checkpoint, ``src``/``dst`` for send, ``msg_id`` for deliver).
        Every reply carries the protocol's online decision and the
        indices, nothing else: ``{ok, index, force_checkpoint}`` for a
        checkpoint, ``{ok, msg_id, force_checkpoint, forced_index}``
        for a send or a deliver.
        """
        kind = doc.get("kind")
        if kind == "checkpoint":
            return self._apply_checkpoint(doc)
        if kind == "send":
            return self._apply_send(doc)
        if kind == "deliver":
            return self._apply_deliver(doc)
        raise SessionError(
            f"unknown ingest op {kind!r}; known: {', '.join(INGEST_OPS)}"
        )

    def _pid(self, doc: Dict[str, object], field: str) -> int:
        pid = doc.get(field)
        # ``type(...) is int``: JSON ``true`` is an ``int`` to isinstance.
        if type(pid) is not int or not 0 <= pid < self.n:
            raise SessionError(f"{field}={pid!r} out of range for n={self.n}")
        return pid

    def _apply_checkpoint(self, doc: Dict[str, object]) -> Dict[str, object]:
        pid = self._pid(doc, "pid")
        t = self.clock
        self.ingest_log.append({"kind": "checkpoint", "pid": pid})
        index = self.family.checkpoint(pid, t, self)
        return {"ok": True, "index": index, "force_checkpoint": False}

    def _apply_send(self, doc: Dict[str, object]) -> Dict[str, object]:
        src = self._pid(doc, "src")
        dst = self._pid(doc, "dst")
        if src == dst:
            raise SessionError(f"send src == dst == {src}")
        t = self.clock
        self.ingest_log.append({"kind": "send", "src": src, "dst": dst})
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        proto = self.family.members[src]
        before = proto.forced_count
        self._piggybacks[msg_id] = self.family.send(src, dst, msg_id, t, self)
        return self._reply(msg_id, src, proto.forced_count > before)

    def _apply_deliver(self, doc: Dict[str, object]) -> Dict[str, object]:
        msg_id = doc.get("msg_id")
        # ``1.0`` and ``False`` hash equal to message ids 1 and 0.
        message = self.manager.sent_message(msg_id) if type(msg_id) is int else None
        if message is None:
            raise SessionError(f"deliver of unknown msg_id {msg_id!r}")
        # Delivery consumes the piggyback: one is held only while its
        # message is in transit, so a missing one means delivered already.
        pb = self._piggybacks.pop(msg_id, None)
        if pb is None:
            raise SessionError(f"message m{msg_id} delivered twice")
        t = self.clock
        self.ingest_log.append({"kind": "deliver", "msg_id": msg_id})
        forced = self.family.arrive(message.dst, message.src, msg_id, pb, t, self)
        return self._reply(msg_id, message.dst, forced)

    def _reply(self, msg_id: int, pid: int, forced: bool) -> Dict[str, object]:
        self.forced_total += forced
        return {
            "ok": True,
            "msg_id": msg_id,
            "force_checkpoint": forced,
            "forced_index": self.manager.last_taken(pid) if forced else None,
        }

    # -- the family's sink: the manager feed ---------------------------
    def record_checkpoint(self, pid: int, time: float, kind: CheckpointKind) -> None:
        self.manager.on_checkpoint(pid, self.manager.last_taken(pid) + 1, time)

    def record_send(self, pid: int, dst: int, msg: int, time: float) -> None:
        seq = len(self.ingest_log) - 1
        message = Message(msg_id=msg, src=pid, dst=dst, send_seq=seq)
        self.manager.on_send(message, time)

    def record_deliver(self, pid: int, sender: int, msg: int, time: float) -> None:
        self.manager.on_deliver(self.manager.sent_message(msg), time)

    # ------------------------------------------------------------------
    # queries (read-only, never logged)
    # ------------------------------------------------------------------
    def query(self, what: str, **params: object) -> Dict[str, object]:
        """Answer one analysis query from live incremental state."""
        if what == "rdt_status":
            answer = self._query_rdt_status()
        elif what == "z_cycles":
            answer = self._query_z_cycles()
        elif what == "recovery_line":
            answer = self._query_recovery_line(params.get("crashed"))
        elif what == "metrics":
            answer = self._query_metrics()
        else:
            raise SessionError(
                f"unknown query {what!r}; known: {', '.join(QUERIES)}"
            )
        self.queries_answered += 1
        return answer

    def _query_rdt_status(self) -> Dict[str, object]:
        rgraph = self.manager.rgraph
        useless = rgraph.useless_checkpoints()
        return {
            "events": len(self.ingest_log),
            "n": self.n,
            "protocol": self.protocol_name,
            "ensures_rdt": PROTOCOLS[self.protocol_name].ensures_rdt,
            "last_index": [self.manager.last_taken(p) for p in range(self.n)],
            "forced": self.forced_total,
            "z_cycle_free": not rgraph.has_z_cycle(),
            "useless": [[cid.pid, cid.index] for cid in useless],
        }

    def _query_z_cycles(self) -> Dict[str, object]:
        cycles = self.manager.rgraph.cycles()
        return {
            "count": len(cycles),
            "cycles": [
                [[cid.pid, cid.index] for cid in comp] for comp in cycles
            ],
        }

    def _query_recovery_line(
        self, crashed: object
    ) -> Dict[str, object]:
        if crashed is None:
            pids: Sequence[int] = range(self.n)
        elif isinstance(crashed, (list, tuple)) and all(
            type(p) is int and 0 <= p < self.n for p in crashed
        ):
            pids = sorted(set(crashed))
        else:
            raise SessionError(
                f"crashed={crashed!r} must be a list of pids < {self.n}"
            )
        cut = self.manager.online_recovery_line(pids)
        plan = self.manager.replay_plan_ids(cut)
        return {
            "crashed": sorted(pids),
            "cut": [cut[p] for p in range(self.n)],
            "to_replay": len(plan),
            "logged": sum(len(log) for log in self.manager.logs.values()),
        }

    def _query_metrics(self) -> Dict[str, object]:
        # Every accepted send mints one message id and one piggyback, and
        # every accepted deliver consumes that piggyback, so the per-kind
        # counts are already kept; the remaining ops are the basic
        # checkpoints.  No log rescan.
        events = len(self.ingest_log)
        sends = self._next_msg_id
        delivers = sends - len(self._piggybacks)
        return {
            "events": events,
            "checkpoints": events - sends - delivers + self.forced_total,
            "sends": sends,
            "delivers": delivers,
            "forced": self.forced_total,
            "closure_nodes": self.manager.rgraph.num_nodes(),
            "closure_edges": self.manager.rgraph.num_edges(),
            "queries": self.queries_answered,
        }

    # ------------------------------------------------------------------
    # replay / restore
    # ------------------------------------------------------------------
    @classmethod
    def replay_log(
        cls,
        session_id: str,
        n: int,
        protocol: str,
        log: Sequence[Dict[str, object]],
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> "ServeSession":
        """A fresh session fed the recorded ingest stream, op by op.

        Deliver ops in a recorded log name server-assigned message ids;
        replay re-mints them in the same order, so ids line up by
        construction.
        """
        session = cls(session_id, n, protocol, tracer=tracer, metrics=metrics)
        for op in log:
            session.apply(dict(op))
        return session

    def __repr__(self) -> str:
        return (
            f"<ServeSession {self.session_id!r} n={self.n} "
            f"protocol={self.protocol_name} events={len(self.ingest_log)}>"
        )


def offline_answers(
    session_id: str,
    n: int,
    protocol: str,
    log: Sequence[Dict[str, object]],
    crashed: Optional[Sequence[int]] = None,
) -> Dict[str, object]:
    """Offline analysis of a recorded ingest stream.

    Replays ``log`` through a fresh session and returns the three
    paper-level verdicts.  The differential guarantee of the serve
    subsystem: for any live session, these answers are byte-identical
    (canonical JSON) to the ones the server gave online.
    """
    session = ServeSession.replay_log(session_id, n, protocol, log)
    return {
        "rdt_status": session.query("rdt_status"),
        "z_cycles": session.query("z_cycles"),
        "recovery_line": session.query(
            "recovery_line", crashed=list(crashed) if crashed is not None else None
        ),
    }
