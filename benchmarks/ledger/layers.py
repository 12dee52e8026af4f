"""The traced pass: one workload's op stream through each layer, in-process.

The same generated op stream the end-to-end rounds send over the wire
is replayed here through each layer's *public* functions, alone and
stacked, with a span around every call.  Alone-and-stacked is what
makes self time a subtraction the benchmark can do from outside::

    serve.session self = ServeSession.apply - (core + recovery)
    recovery self      = RecoveryManager.on_* - IncrementalRGraph.*
    graph.rgraph self  = IncrementalRGraph.* - IncrementalClosure.add_edge

The stacked pass also runs once with no spans at all; traced versus
untraced wall time of that pass is the tracing overhead.
"""

from __future__ import annotations

import gc
import shutil
import statistics
from contextlib import contextmanager
from time import perf_counter, process_time
from typing import Dict, List, Optional, Sequence, Tuple

from . import deploy
from .offline import ingest_docs, run_cell
from .spans import ROOT, SpanLog
from .workloads import BASIC_RATE, QUERY_KINDS, Session, Spec, trace_seed

#: The server reads and the router splits in chunks of this size.
CHUNK = 65536
#: ``repro serve``'s default ``--fsync-batch``.
FSYNC_BATCH = 64
#: Sessions sampled for the per-session layers (snapshots, sim, analysis).
SAMPLE = 4
#: Repetitions behind each "median at final depth" query figure.
QUERY_REPEATS = 5
#: Repetitions of every per-call pass; a call counts at its best time
#: over them (``stats.best_of``), which is what keeps alone-vs-stacked
#: subtractions meaningful on a box whose speed flips under a neighbour.
REPEATS = 3

Values = Dict[str, float]
Counts = Dict[str, int]


def _us(seconds: float, count: int) -> float:
    return seconds / count * 1e6 if count else 0.0


def _settle() -> None:
    """Collect, then park the survivors out of the collector's sight, so
    each pass pays for its own garbage only -- like a fresh process --
    and alone-versus-stacked subtractions compare like with like."""
    gc.collect()
    gc.freeze()


@contextmanager
def _layer_pass(spans: SpanLog, name: str):
    _settle()
    with spans.span(name) as parent:
        yield parent


# ----------------------------------------------------------------------
# serve.session, stacked (and the untraced twin)
# ----------------------------------------------------------------------
def _session_pass(
    spec: Spec, sessions: Sequence[Session], docs: Sequence[list],
    spans: Optional[SpanLog], parent: int,
):
    """Every session's docs through ``ServeSession.apply``, with the
    pipelined phase's query cadence.  Returns the live sessions and all
    replies; with ``spans=None`` nothing is recorded (the twin)."""
    from repro.serve.session import ServeSession

    live, replies = [], []
    if spans is not None:
        rows = spans.rows
        apply_id = spans.name_id("serve.session.apply")
        query_id = spans.name_id("serve.session.query")
    every, kinds = spec.bulk_query_every, spec.bulk_query_kinds
    done = queries = 0
    for session, session_docs in zip(sessions, docs):
        served = ServeSession(session.sid, session.n, session.protocol)
        apply, query = served.apply, served.query
        out = []
        for doc in session_docs:
            if spans is None:
                out.append(apply(doc))
            else:
                t0 = perf_counter()
                reply = apply(doc)
                rows.append((apply_id, t0, perf_counter(), parent))
                out.append(reply)
            done += 1
            if every and done % every == 0:
                what = kinds[queries % len(kinds)]
                queries += 1
                if spans is None:
                    query(what)
                else:
                    t0 = perf_counter()
                    query(what)
                    rows.append((query_id, t0, perf_counter(), parent))
        live.append(served)
        replies.append(out)
    return live, replies


# ----------------------------------------------------------------------
# core, alone
# ----------------------------------------------------------------------
def _core_pass(sessions: Sequence[Session], spans: SpanLog, parent: int) -> Counts:
    from repro.core.registry import make_family

    rows = spans.rows
    send_id = spans.name_id("core.on_send")
    pred_id = spans.name_id("core.predicate")
    ckpt_id = spans.name_id("core.on_checkpoint")
    basic = forced = bits = messages = 0
    for session in sessions:
        family = make_family(session.protocol, session.n)
        piggybacks: Dict[object, tuple] = {}
        for op in session.ops:
            if op[0] == "c":
                proto = family[op[1]]
                t0 = perf_counter()
                proto.on_checkpoint(forced=False)
                rows.append((ckpt_id, t0, perf_counter(), parent))
                basic += 1
            elif op[0] == "s":
                proto = family[op[1]]
                t0 = perf_counter()
                pb = proto.on_send(op[2])
                after = proto.wants_checkpoint_after_send()
                rows.append((send_id, t0, perf_counter(), parent))
                piggybacks[op[3]] = (pb, op[1], op[2])
                bits += pb.size_bits()
                messages += 1
                if after:
                    proto.on_checkpoint(forced=True)
                    forced += 1
            else:
                pb, src, dst = piggybacks.pop(op[1])
                proto = family[dst]
                t0 = perf_counter()
                wants = proto.wants_forced_checkpoint(pb, src)
                if wants:
                    proto.on_checkpoint(forced=True)
                proto.on_receive(pb, src)
                rows.append((pred_id, t0, perf_counter(), parent))
                forced += wants
    return {"basic": basic, "forced": forced, "bits": bits, "messages": messages}


# ----------------------------------------------------------------------
# recovery / graph, alone: the feed the session hands its manager
# ----------------------------------------------------------------------
def _manager_feed(session: Session, replies: Sequence[dict]) -> List[tuple]:
    """``("c", pid)`` / ``("s", key)`` / ``("d", key)`` in the order
    ``ServeSession`` feeds its ``RecoveryManager``, forced checkpoints
    included (read off the replies' ``force_checkpoint``)."""
    feed: List[tuple] = []
    endpoints: Dict[object, Tuple[int, int]] = {}
    for op, reply in zip(session.ops, replies):
        if op[0] == "c":
            feed.append(("c", op[1]))
        elif op[0] == "s":
            endpoints[op[3]] = (op[1], op[2])
            feed.append(("s", op[3], op[1], op[2]))
            if reply["force_checkpoint"]:
                feed.append(("c", op[1]))
        else:
            src, dst = endpoints[op[1]]
            if reply["force_checkpoint"]:
                feed.append(("c", dst))
            feed.append(("d", op[1], src, dst))
    return feed


def _recovery_pass(
    sessions: Sequence[Session], feeds: Sequence[list], spans: SpanLog, parent: int
):
    from repro.events.event import Message
    from repro.recovery.manager import RecoveryManager

    rows = spans.rows
    name_id = spans.name_id("recovery.manager.on_event")
    managers = []
    for session, feed in zip(sessions, feeds):
        manager = RecoveryManager(session.n)
        messages: Dict[object, Message] = {}
        for t, item in enumerate(feed):
            if item[0] == "c":
                index = manager.last_taken(item[1]) + 1
                t0 = perf_counter()
                manager.on_checkpoint(item[1], index, float(t))
                rows.append((name_id, t0, perf_counter(), parent))
            elif item[0] == "s":
                message = messages[item[1]] = Message(
                    msg_id=len(messages), src=item[2], dst=item[3], send_seq=t
                )
                t0 = perf_counter()
                manager.on_send(message, float(t))
                rows.append((name_id, t0, perf_counter(), parent))
            else:
                message = messages[item[1]]
                t0 = perf_counter()
                manager.on_deliver(message, float(t))
                rows.append((name_id, t0, perf_counter(), parent))
        managers.append(manager)
    return managers


def _rgraph_calls(session: Session, feed: Sequence[tuple]) -> List[tuple]:
    """The ``IncrementalRGraph`` calls the manager derives from ``feed``."""
    last = [0] * session.n
    sent: Dict[object, int] = {}
    calls: List[tuple] = []
    for item in feed:
        if item[0] == "c":
            last[item[1]] += 1
            calls.append((item[1],))
        elif item[0] == "s":
            sent[item[1]] = last[item[2]] + 1
        else:
            calls.append((item[2], sent[item[1]], item[3], last[item[3]] + 1))
    return calls


def _rgraph_pass(
    sessions: Sequence[Session], calls: Sequence[list], spans: Optional[SpanLog],
    parent: int,
):
    """Timed with ``spans``; with ``spans=None`` the graphs carry a
    ``Tracer`` instead, to harvest the closure's node/edge feed."""
    from repro.graph.incremental import IncrementalRGraph
    from repro.obs.tracer import Tracer

    tracers = []
    for session, session_calls in zip(sessions, calls):
        tracer = Tracer() if spans is None else None
        graph = IncrementalRGraph(session.n, tracer=tracer)
        take, observe = graph.take_checkpoint, graph.observe_delivery
        if spans is None:
            for call in session_calls:
                take(*call) if len(call) == 1 else observe(*call)
            tracers.append(tracer)
            continue
        rows = spans.rows
        name_id = spans.name_id("graph.rgraph.on_event")
        for call in session_calls:
            fn = take if len(call) == 1 else observe
            t0 = perf_counter()
            fn(*call)
            rows.append((name_id, t0, perf_counter(), parent))
    return tracers


def _closure_pass(tracers: Sequence, spans: SpanLog, parent: int) -> Counts:
    from repro.graph.reachability import IncrementalClosure

    rows = spans.rows
    name_id = spans.name_id("graph.closure.add_edge")
    nodes = edges = touched = noops = 0
    for tracer in tracers:
        closure = IncrementalClosure()
        ids: Dict[tuple, int] = {}
        add_edge = closure.add_edge
        for event in tracer.events:
            fields = event.fields
            if event.kind == "closure.node":
                ids[(fields["pid"], fields["index"])] = closure.add_node()
                continue
            u, v = ids[tuple(fields["src"])], ids[tuple(fields["dst"])]
            t0 = perf_counter()
            result = add_edge(u, v)
            rows.append((name_id, t0, perf_counter(), parent))
            touched += result
            noops += result == 0
            edges += 1
        nodes += closure.n
    return {"nodes": nodes, "edges": edges, "touched": touched, "noops": noops}


# ----------------------------------------------------------------------
# wire (client and server side), shardmap
# ----------------------------------------------------------------------
def _chunks(blob: bytes) -> List[bytes]:
    return [blob[i : i + CHUNK] for i in range(0, len(blob), CHUNK)]


def _encode(docs: Sequence[dict], spans: SpanLog, name: str, parent: int) -> bytes:
    from repro.serve.wire import encode_frame

    rows = spans.rows
    name_id = spans.name_id(name)
    frames = []
    for doc in docs:
        t0 = perf_counter()
        frame = encode_frame(doc)
        rows.append((name_id, t0, perf_counter(), parent))
        frames.append(frame)
    return b"".join(frames)


def _decode(blob: bytes, spans: SpanLog, name: str, parent: int, raw: bool = False) -> int:
    """Reassemble ``blob`` from 64 KiB chunks; one span per chunk (that
    is the call the reader makes), returns the frame count."""
    from repro.serve.wire import FrameBuffer, RawFrameBuffer

    rows = spans.rows
    name_id = spans.name_id(name)
    buffer = RawFrameBuffer() if raw else FrameBuffer()
    pop = buffer.next_payload if raw else buffer.next_doc
    frames = 0
    for chunk in _chunks(blob):
        t0 = perf_counter()
        buffer.feed(chunk)
        while pop() is not None:
            frames += 1
        rows.append((name_id, t0, perf_counter(), parent))
    return frames


def _wire_pass(
    sessions: Sequence[Session], docs: Sequence[list], replies: Sequence[list],
    spans: SpanLog, parent: int,
) -> Dict[str, int]:
    requests, answers = [], []
    seq = 0
    for session, session_docs, session_replies in zip(sessions, docs, replies):
        for doc, reply in zip(session_docs, session_replies):
            seq += 1
            requests.append(dict(doc, seq=seq, session=session.sid))
            answers.append(dict(reply, seq=seq))
    request_blob = _encode(requests, spans, "serve.client.encode", parent)
    reply_blob = _encode(answers, spans, "serve.wire.encode", parent)
    frames = _decode(request_blob, spans, "serve.wire.decode", parent)
    _decode(reply_blob, spans, "serve.client.decode", parent)
    _decode(request_blob, spans, "serve.wire.raw_split", parent, raw=True)
    return {
        "frames": frames,
        "request_bytes": len(request_blob),
        "reply_bytes": len(reply_blob),
    }


def _shardmap_pass(sessions: Sequence[Session], spans: SpanLog, parent: int) -> int:
    from repro.serve.shardmap import ShardMap

    rows = spans.rows
    name_id = spans.name_id("serve.shardmap.owner")
    layout = ShardMap(2)
    lookups = 0
    for session in sessions:
        for salt in range(64):  # cold: no id repeats, nothing memoized
            sid = f"{session.sid}/{salt}"
            t0 = perf_counter()
            layout.owner(sid)
            rows.append((name_id, t0, perf_counter(), parent))
            lookups += 1
    return lookups


# ----------------------------------------------------------------------
# serve.wal, serve.snapshots
# ----------------------------------------------------------------------
def _wal_pass(
    sessions: Sequence[Session], docs: Sequence[list], spans: SpanLog, parent: int
) -> Dict[str, float]:
    from repro.obs.jsonio import canonical_bytes
    from repro.serve.wal import IngestWal, read_wal, recover_sessions

    rows = spans.rows
    append_id = spans.name_id("serve.wal.append")
    sync_id = spans.name_id("serve.wal.sync")
    directory = deploy.scratch_dir("w")
    try:
        wal = IngestWal(directory)
        records = size = 0
        sync_cpu = 0.0
        for session, session_docs in zip(sessions, docs):
            hello = {"kind": "hello", "n": session.n, "protocol": session.protocol}
            for idx, doc in enumerate([hello] + list(session_docs), -1):
                t0 = perf_counter()
                record = wal.append(session.sid, idx, doc)
                rows.append((append_id, t0, perf_counter(), parent))
                records += 1
                # One line per record on disk; segment headers carry a
                # wall-clock stamp, so file sizes would not repeat.
                size += len(canonical_bytes(record.as_doc())) + 1
                if wal.pending() >= FSYNC_BATCH or idx == len(session_docs) - 1:
                    # fsync waits on the disk; what the shard's CPU pays
                    # is the serialisation, hence the second clock.
                    cpu0 = process_time()
                    t0 = perf_counter()
                    wal.sync(FSYNC_BATCH)
                    rows.append((sync_id, t0, perf_counter(), parent))
                    sync_cpu += process_time() - cpu0
        segments = len(wal.segment_names())
        wal.close()
        with spans.span("serve.wal.replay", parent):
            recovered = recover_sessions(read_wal(directory))
        if sum(len(s.log) for s in recovered.values()) != records - len(sessions):
            raise deploy.LedgerError("WAL replay lost records")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "records": records, "bytes": size, "sync_cpu_s": sync_cpu,
        "segments": segments,
    }


def _snapshot_pass(live: Sequence, spans: SpanLog, parent: int) -> Values:
    from repro.obs.jsonio import canonical_bytes
    from repro.serve.snapshots import restore_session, snapshot_doc

    sample = sorted(live, key=lambda s: -len(s.ingest_log))[:SAMPLE]
    size = 0
    for served in sample:
        with spans.span("serve.snapshots.snapshot_doc", parent):
            doc = snapshot_doc(served)
        size += len(canonical_bytes(doc))
        with spans.span("serve.snapshots.restore_session", parent):
            restore_session(doc)
    return {
        "serve.snapshots.snapshot_ms": spans.best_seconds("serve.snapshots.snapshot_doc")
        / len(sample) * 1e3,
        "serve.snapshots.restore_ms": spans.best_seconds("serve.snapshots.restore_session")
        / len(sample) * 1e3,
        "serve.snapshots.bytes": size / len(sample),
    }


# ----------------------------------------------------------------------
# sim, analysis (per sampled trace), queries at final depth
# ----------------------------------------------------------------------
def _sim_pass(spec: Spec, seed: int, spans: SpanLog, parent: int) -> Values:
    from repro.core.registry import protocol_factory
    from repro.sim.generate import generate_trace
    from repro.sim.replay import replay
    from repro.workloads import WORKLOADS

    sample = 1 if spec.n > 4 else SAMPLE
    ops = 0
    for index in range(sample):
        with spans.span("sim.generate_trace", parent):
            trace = generate_trace(
                spec.n, WORKLOADS["random"](), duration=spec.duration,
                seed=trace_seed(seed, index), basic_rate=BASIC_RATE,
            )
        with spans.span("sim.replay", parent):
            replay(trace, protocol_factory("bhmr"))
        ops += len(trace)
    return {
        "sim.generate_us_per_op": _us(spans.best_seconds("sim.generate_trace"), ops),
        "sim.replay_us_per_op": _us(spans.best_seconds("sim.replay"), ops),
    }


def _query_pass(live: Sequence, spans: SpanLog, parent: int) -> Values:
    deepest = max(live, key=lambda s: len(s.ingest_log))
    out: Values = {}
    for kind in QUERY_KINDS:
        samples = []
        for _ in range(QUERY_REPEATS):
            with spans.span(f"serve.session.query.{kind}", parent) as index:
                deepest.query(kind)
            _, start, end, _ = spans.rows[index]
            samples.append((end - start) * 1e3)
        out[f"serve.session.query_{kind}_ms"] = statistics.median(samples)
    with spans.span("recovery.online_recovery_line", parent) as index:
        deepest.manager.online_recovery_line(range(deepest.n))
    _, start, end, _ = spans.rows[index]
    out["recovery.line_ms"] = (end - start) * 1e3
    return out


# ----------------------------------------------------------------------
def traced_pass(
    spec: Spec, sessions: Sequence[Session], seed: int, spans: SpanLog
) -> Tuple[Values, Counts]:
    """Every in-process per-layer figure of one workload's op stream."""
    try:
        return _traced_pass(spec, sessions, seed, spans)
    finally:
        gc.unfreeze()


def _traced_pass(
    spec: Spec, sessions: Sequence[Session], seed: int, spans: SpanLog
) -> Tuple[Values, Counts]:
    docs = [ingest_docs(s.ops) for s in sessions]
    events = sum(len(d) for d in docs)
    values: Values = {}
    counts: Counts = {}

    def repeat(label: str, run):
        """``run(parent)`` REPEATS times, each under its own pass span."""
        for _ in range(REPEATS):
            with _layer_pass(spans, f"pass.{label}") as parent:
                result = run(parent)
        return result

    # The stacked pass alternates with its untraced twin, so warm-up and
    # drift land on both sides; best whole pass against best whole pass.
    traced_s, untraced_s = [], []
    for _ in range(REPEATS):
        _settle()
        started = perf_counter()
        _session_pass(spec, sessions, docs, None, ROOT)
        untraced_s.append(perf_counter() - started)
        with _layer_pass(spans, "pass.serve.session") as parent:
            live, replies = _session_pass(spec, sessions, docs, spans, parent)
        traced_s.append(spans.rows[parent][2] - spans.rows[parent][1])
    values["obs.trace_overhead_share"] = min(traced_s) / min(untraced_s) - 1.0

    core = repeat("core", lambda parent: _core_pass(sessions, spans, parent))
    feeds = [_manager_feed(s, r) for s, r in zip(sessions, replies)]
    managers = repeat(
        "recovery", lambda parent: _recovery_pass(sessions, feeds, spans, parent)
    )
    calls = [_rgraph_calls(s, f) for s, f in zip(sessions, feeds)]
    repeat("graph.rgraph", lambda parent: _rgraph_pass(sessions, calls, spans, parent))
    tracers = _rgraph_pass(sessions, calls, None, ROOT)
    closure = repeat(
        "graph.closure", lambda parent: _closure_pass(tracers, spans, parent)
    )

    apply_s = spans.best_seconds("serve.session.apply")
    core_s = sum(
        spans.best_seconds(f"core.{name}")
        for name in ("on_send", "predicate", "on_checkpoint")
    )
    recovery_s = spans.best_seconds("recovery.manager.on_event")
    rgraph_s = spans.best_seconds("graph.rgraph.on_event")
    closure_s = spans.best_seconds("graph.closure.add_edge")
    values.update(
        {
            "serve.session.apply_us_per_event": _us(apply_s, events),
            "serve.session.self_us_per_event": _us(
                apply_s - core_s - recovery_s, events
            ),
            "serve.session.query_us_per_event": _us(
                spans.best_seconds("serve.session.query"), events
            ),
            "core.us_per_event": _us(core_s, events),
            "core.on_send_us_per_send": _us(
                spans.best_seconds("core.on_send"), core["messages"]
            ),
            "core.predicate_us_per_deliver": _us(
                spans.best_seconds("core.predicate"), spans.calls("core.predicate")
            ),
            "core.forced_ratio": core["forced"] / core["basic"],
            "core.piggyback_bits_per_msg": core["bits"] / core["messages"],
            "recovery.manager_self_us_per_event": _us(recovery_s - rgraph_s, events),
            "graph.rgraph_self_us_per_event": _us(rgraph_s - closure_s, events),
            "graph.closure_us_per_event": _us(closure_s, events),
            "graph.closure_add_edge_us_per_edge": _us(closure_s, closure["edges"]),
            "graph.closure_rows_touched_per_edge": closure["touched"] / closure["edges"],
            "graph.closure_noop_edge_share": closure["noops"] / closure["edges"],
        }
    )
    counts.update(
        {
            "serve.session.events": events,
            "serve.session.forced": sum(s.forced_total for s in live),
            "graph.closure_nodes": closure["nodes"],
            "graph.closure_edges": closure["edges"],
            "recovery.logged_messages": sum(
                len(log) for m in managers for log in m.logs.values()
            ),
        }
    )
    if counts["serve.session.forced"] != core["forced"]:
        raise deploy.LedgerError(
            "core alone forced a different number of checkpoints than the session"
        )

    wire = repeat(
        "wire", lambda parent: _wire_pass(sessions, docs, replies, spans, parent)
    )
    lookups = repeat(
        "serve.shardmap", lambda parent: _shardmap_pass(sessions, spans, parent)
    )
    wal = repeat("serve.wal", lambda parent: _wal_pass(sessions, docs, spans, parent))
    frames, records = wire["frames"], wal["records"]
    commits = spans.calls("serve.wal.sync")
    best = spans.best_seconds
    values.update(
        {
            "serve.client.encode_us_per_frame": _us(best("serve.client.encode"), frames),
            "serve.client.decode_us_per_frame": _us(best("serve.client.decode"), frames),
            "serve.wire.encode_us_per_frame": _us(best("serve.wire.encode"), frames),
            "serve.wire.decode_us_per_frame": _us(best("serve.wire.decode"), frames),
            "serve.wire.raw_split_us_per_frame": _us(best("serve.wire.raw_split"), frames),
            "serve.wire.request_bytes_per_event": wire["request_bytes"] / frames,
            "serve.wire.reply_bytes_per_event": wire["reply_bytes"] / frames,
            "serve.shardmap.owner_us_per_lookup": _us(best("serve.shardmap.owner"), lookups),
            "serve.wal.append_us_per_record": _us(best("serve.wal.append"), records),
            "serve.wal.sync_ms_per_commit": best("serve.wal.sync") / commits * 1e3,
            "serve.wal.sync_cpu_us_per_record": _us(wal["sync_cpu_s"], records),
            "serve.wal.records_per_commit": records / commits,
            "serve.wal.bytes_per_event": wal["bytes"] / records,
            "serve.wal.replay_us_per_record": _us(best("serve.wal.replay"), records),
        }
    )
    counts["serve.wal.commits"] = commits
    counts["serve.wal.segments"] = int(wal["segments"])
    with _layer_pass(spans, "pass.serve.snapshots") as parent:
        values.update(_snapshot_pass(live, spans, parent))
    with _layer_pass(spans, "pass.queries") as parent:
        values.update(_query_pass(live, spans, parent))
    with _layer_pass(spans, "pass.sim") as parent:
        values.update(_sim_pass(spec, seed, spans, parent))
    with _layer_pass(spans, "pass.cell") as parent:
        cell = run_cell(
            seed, spec.n, spec.duration,
            seeds=2 if spec.deployment == "offline" else 1,
            spans=spans, parent=parent,
        )
    values.update(cell["values"])
    counts["analysis.rdt_checks"] = cell["rdt_checks"]
    if cell["mismatches"]:
        raise deploy.LedgerError("; ".join(cell["mismatches"]))
    return values, counts
