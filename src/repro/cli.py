"""Command-line interface: ``python -m repro <command>``.

Built on :mod:`repro.api`, the supported facade; commands add only
argument parsing and rendering.

Commands
--------
``run``      simulate one workload under one protocol, print metrics
``compare``  replay the same traces under several protocols (table + R)
``sweep``    R as a function of the basic-checkpoint rate (figure-style)
``analyze``  RDT/Z-cycle analysis of a built-in pattern or a fresh run
``recover``  crash a process mid-run and print the recovery line
``serve``    run the online checkpointing service in the foreground
``client``   one request against a running service (JSON reply)
``loadgen``  replay generated workloads through concurrent connections
``protocols``/``workloads``  list the registries (``--json`` for machines)

``run``/``compare``/``sweep`` share the observability flags:
``--trace FILE`` writes the deterministic JSONL event trace,
``--metrics`` collects and prints the metrics registry, ``--profile``
prints per-phase wall times, and ``--json`` switches the whole output
to one canonical machine-readable JSON document.

Examples::

    python -m repro run --workload client-server --protocol bhmr -n 6
    python -m repro compare --workload random -n 6 --seeds 0 1 2
    python -m repro sweep --workload groups -n 9 --metrics --json
    python -m repro run --protocol bhmr --trace run.jsonl --profile
    python -m repro analyze figure1
    python -m repro recover --protocol bhmr --crash-pid 1 --crash-time 30
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Dict, List, Optional, Sequence

from repro import api
from repro.analysis import find_z_cycles, useless_checkpoints
from repro.core import PROTOCOLS, RDT_FAMILY
from repro.events import figure1_pattern, ping_pong_domino_pattern
from repro.harness import render_runner_stats, render_series, render_table
from repro.obs import MetricsRegistry, Profiler, Tracer, canonical_dumps
from repro.recovery import CrashSpec, recovery_line, replay_plan
from repro.sim import Simulation, SimulationConfig
from repro.workloads import WORKLOADS


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _workload_kwargs(pairs: Optional[List[str]]) -> Dict[str, object]:
    kwargs: Dict[str, object] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"--workload-arg expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        kwargs[key] = _parse_value(value)
    return kwargs


def _make_workload(args):
    try:
        cls = WORKLOADS[args.workload]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise SystemExit(f"unknown workload {args.workload!r}; known: {known}")
    kwargs = _workload_kwargs(getattr(args, "workload_arg", None))
    return lambda: cls(**kwargs)


def _workload_spec(args) -> Dict[str, object]:
    """The facade's workload/config kwargs for one scenario command."""
    if args.workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        raise SystemExit(f"unknown workload {args.workload!r}; known: {known}")
    return {
        "workload": args.workload,
        "workload_args": _workload_kwargs(getattr(args, "workload_arg", None)),
        "n": args.n,
        "duration": args.duration,
        "basic_rate": args.basic_rate,
    }


def _config(args, seed: Optional[int] = None) -> SimulationConfig:
    return SimulationConfig(
        n=args.n,
        duration=args.duration,
        seed=args.seed if seed is None else seed,
        basic_rate=args.basic_rate,
        net_faults=_net_model(args),
    )


def _parse_partition(text: str) -> "Partition":
    """``A:B:START[:END]`` -> a symmetric partition window (END=forever)."""
    from repro.sim import FOREVER, Partition

    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise SystemExit(
            f"bad --partition {text!r}; expected A:B:START[:END]"
        )
    try:
        a, b = int(parts[0]), int(parts[1])
        start = float(parts[2])
        end = float(parts[3]) if len(parts) == 4 else FOREVER
        return Partition(a, b, start, end)
    except ValueError:
        raise SystemExit(f"bad --partition {text!r}; expected A:B:START[:END]")


def _net_model(args):
    """The ``NetFaultModel`` described by the network-fault flags (or None)."""
    from repro.sim import NetFaultModel

    loss = getattr(args, "loss", 0.0)
    dup = getattr(args, "dup", 0.0)
    reorder = getattr(args, "reorder", 0.0)
    partition = getattr(args, "partition", None) or []
    if not (loss or dup or reorder or partition):
        return None
    return NetFaultModel.uniform(
        loss=loss,
        duplicate=dup,
        reorder=reorder,
        partitions=[_parse_partition(p) for p in partition],
        seed=getattr(args, "net_seed", 0),
    )


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="random", help="workload name")
    parser.add_argument(
        "--workload-arg",
        action="append",
        metavar="KEY=VALUE",
        help="workload constructor argument (repeatable)",
    )
    parser.add_argument("-n", type=int, default=4, help="number of processes")
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--basic-rate", type=float, default=0.2)


def _add_net_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--loss",
        type=float,
        default=0.0,
        metavar="RATE",
        help="physical message-loss probability per transmission attempt",
    )
    parser.add_argument(
        "--dup",
        type=float,
        default=0.0,
        metavar="RATE",
        help="physical duplication probability per transmission",
    )
    parser.add_argument(
        "--reorder",
        type=float,
        default=0.0,
        metavar="RATE",
        help="probability a copy is held back by an extra reordering delay",
    )
    parser.add_argument(
        "--partition",
        action="append",
        metavar="A:B:START[:END]",
        help="cut the A<->B link during [START, END) (repeatable; no END "
        "means forever -- the watchdog degrades the link)",
    )
    parser.add_argument(
        "--net-seed",
        type=int,
        default=0,
        help="seed of the network-fault RNG stream",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write the deterministic JSONL event trace to FILE",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect and report the metrics registry",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="report per-phase wall-clock timings",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one canonical JSON document instead of tables",
    )


class _Obs:
    """The per-command observability bundle parsed from the flags."""

    def __init__(self, args) -> None:
        self.trace_path: Optional[str] = getattr(args, "trace", None)
        self.tracer = Tracer() if self.trace_path else None
        self.registry = MetricsRegistry() if getattr(args, "metrics", False) else None
        self.profiler = Profiler() if getattr(args, "profile", False) else None
        self.json = bool(getattr(args, "json", False))

    def kwargs(self) -> Dict[str, object]:
        return {
            "tracer": self.tracer,
            "metrics": self.registry,
            "profiler": self.profiler,
        }

    def finish(self, doc: Dict[str, object]) -> None:
        """Write the trace file; report obs either into ``doc`` (json
        mode) or as trailing tables/lines on stdout."""
        if self.tracer is not None:
            events = self.tracer.write(self.trace_path)
            if self.json:
                doc["trace"] = {"file": self.trace_path, "events": events}
            else:
                print(f"trace: {events} events -> {self.trace_path}")
        if self.registry is not None:
            snapshot = self.registry.snapshot()
            if self.json:
                doc["metrics"] = snapshot.to_dict()
            else:
                rows = [
                    {"metric": name, "value": value}
                    for name, value in sorted(snapshot.counters.items())
                ] + [
                    {"metric": name, "value": value}
                    for name, value in sorted(snapshot.gauges.items())
                ]
                if rows:
                    print(render_table(rows, title="metrics"))
        if self.profiler is not None:
            phases = self.profiler.snapshot()
            if self.json:
                doc["profile"] = phases
            elif phases:
                print(
                    "profile: "
                    + "  ".join(
                        f"{name}={phases[name]:.3f}s" for name in sorted(phases)
                    )
                )

    def emit(self, doc: Dict[str, object]) -> None:
        """In json mode, print the finished document (the only output)."""
        if self.json:
            print(canonical_dumps(doc))


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_run(args) -> int:
    obs = _Obs(args)
    net = _net_model(args)
    result = api.run(
        protocol=args.protocol,
        seed=args.seed,
        net_faults=net,
        **_workload_spec(args),
        **obs.kwargs(),
    )
    doc: Dict[str, object] = {
        "command": "run",
        "workload": args.workload,
        "protocol": args.protocol,
        "seed": args.seed,
        "run": dataclasses.asdict(result.metrics),
    }
    if net is not None:
        doc["net_faults"] = repr(net)
    if not obs.json:
        print(render_table([result.metrics.as_row()], title=f"run: {args.protocol}"))
    if args.save:
        from repro.events import save_history

        save_history(result.history, args.save)
        if not obs.json:
            print(f"history saved to {args.save}")
        doc["saved"] = args.save
    code = 0
    if args.check_rdt:
        report = api.analyze_rdt(result.history)
        doc["rdt"] = report.holds
        if not obs.json:
            print(f"RDT: {'holds' if report.holds else report}")
        if not report.holds:
            code = 1
    obs.finish(doc)
    obs.emit(doc)
    return code


def cmd_compare(args) -> int:
    obs = _Obs(args)
    comparison = api.compare(
        protocols=args.protocols,
        baseline=args.baseline,
        seeds=args.seeds,
        verify_rdt=args.check_rdt,
        **_workload_spec(args),
        **obs.kwargs(),
    )
    doc: Dict[str, object] = {"command": "compare", "compare": comparison.to_dict()}
    if not obs.json:
        print(render_table(comparison.rows(), title=f"compare: {args.workload}"))
    obs.finish(doc)
    obs.emit(doc)
    return 0


def cmd_sweep(args) -> int:
    obs = _Obs(args)
    # --metrics/--profile want per-phase timings and cache-hit counters
    # in the report even when the caller did not pass registries down;
    # the runner collects them whenever any instrument is active.
    sweep = api.sweep(
        xs=args.rates,
        x_label="basic_rate",
        protocols=args.protocols,
        baseline=args.baseline,
        seeds=args.seeds,
        workers=args.workers,
        cache=args.cache if args.cache is not None else False,
        **_workload_spec(args),
        **obs.kwargs(),
    )
    doc: Dict[str, object] = {"command": "sweep", "sweep": sweep.to_dict()}
    if not obs.json:
        print(
            render_series(
                "basic_rate",
                sweep.xs,
                sweep.ratio_series(),
                title=f"sweep: {args.workload} (R vs basic rate)",
            )
        )
        if sweep.stats is not None and (obs.registry or obs.profiler):
            print(render_runner_stats(sweep.stats, title="runner"))
    obs.finish(doc)
    obs.emit(doc)
    return 0


def cmd_analyze(args) -> int:
    if args.pattern == "figure1":
        history = figure1_pattern()
    elif args.pattern == "domino":
        history = ping_pong_domino_pattern(rounds=args.rounds)
    elif args.pattern == "file":
        if not args.path:
            raise SystemExit("analyze file requires --path")
        from repro.events import load_history

        history = load_history(args.path)
    else:  # a fresh simulated run
        sim = Simulation(_make_workload(args)(), _config(args))
        history = sim.run(args.protocol).history
    # Only the first --max-violations are printed (a negative value
    # slices from the end, so it needs them all).
    shown = args.max_violations
    limit = max(shown, 1) if shown >= 0 else None
    report = api.analyze_rdt(history, max_violations=limit)
    print(f"pattern:     {history!r}")
    print(f"RDT:         {'holds' if report.holds else 'VIOLATED'}")
    for violation in report.violations[: args.max_violations]:
        print(f"  {violation!r}")
        if args.explain:
            from repro.analysis import explain_violation

            evidence = explain_violation(history, violation.source, violation.target)
            chain = evidence["zigzag"]
            pretty = "?" if chain is None else "[" + ", ".join(
                f"m{x}" for x in chain
            ) + "]"
            print(f"    undoubled chain: {pretty}")
    cycles = find_z_cycles(history)
    print(f"Z-cycles:    {len(cycles)}")
    useless = useless_checkpoints(history)
    print(f"useless:     {useless if useless else 'none'}")
    return 0 if report.holds else 1


def cmd_recover(args) -> int:
    if args.inject_crashes or args.crash_at:
        return _cmd_recover_online(args)
    sim = Simulation(_make_workload(args)(), _config(args))
    history = sim.run(args.protocol).history
    crash = {args.crash_pid: CrashSpec(args.crash_pid, at_time=args.crash_time)}
    line = recovery_line(history, crash)
    print(f"crash:         P{args.crash_pid} at t={args.crash_time}")
    print(f"recovery line: {line.checkpoint_ids()}")
    print(f"events undone: {line.events_undone}")
    plan = replay_plan(history, line.cut)
    print(f"msgs to replay: {plan.total}")
    return 0


def _cmd_recover_online(args) -> int:
    """Crash-injection mode: the online recovery engine, end to end."""
    from repro.sim import CrashSchedule

    obs = _Obs(args)
    if args.crash_at:
        specs = []
        for item in args.crash_at:
            pid_s, _, time_s = item.partition(":")
            try:
                specs.append((int(pid_s), float(time_s)))
            except ValueError:
                raise SystemExit(f"bad --crash-at {item!r}; expected PID:TIME")
        schedule: object = CrashSchedule.at(*specs)
    else:
        schedule = CrashSchedule.random(
            args.n,
            args.duration,
            count=args.inject_crashes,
            seed=args.crash_seed,
        )
    result = api.recover(
        protocol=args.protocol,
        crashes=schedule,
        seed=args.seed,
        gc_every_ops=args.gc_every,
        net_faults=_net_model(args),
        **_workload_spec(args),
        **obs.kwargs(),
    )
    crash_docs = []
    for rec in result.crashes:
        crash_docs.append(
            {
                "t": rec.time,
                "crashed": list(rec.crashed),
                "cut": [rec.online.cut[p] for p in range(args.n)],
                "events_undone": rec.online.events_undone,
                "max_depth": rec.online.max_depth,
                "messages_replayed": rec.messages_replayed,
                "events_reexecuted": rec.events_reexecuted,
                "online_equals_offline": rec.offline_cut is None
                or rec.offline_cut == rec.online.cut,
            }
        )
    doc: Dict[str, object] = {
        "command": "recover",
        "workload": args.workload,
        "protocol": args.protocol,
        "seed": args.seed,
        "crash_seed": args.crash_seed,
        "crashes": crash_docs,
        "totals": {
            "events_undone": result.total_events_undone,
            "messages_replayed": result.total_messages_replayed,
            "max_rollback_depth": result.max_rollback_depth,
        },
    }
    if not obs.json:
        rows = [
            {
                "t": f"{c['t']:.3f}",
                "crashed": ",".join(f"P{p}" for p in c["crashed"]),
                "cut": " ".join(str(x) for x in c["cut"]),
                "undone": c["events_undone"],
                "depth": c["max_depth"],
                "replayed": c["messages_replayed"],
                "online==offline": "yes" if c["online_equals_offline"] else "NO",
            }
            for c in crash_docs
        ]
        title = f"recover: {args.protocol} ({len(crash_docs)} crashes)"
        if rows:
            print(render_table(rows, title=title))
        else:
            print(f"{title}: schedule was empty")
        print(
            f"totals: undone={result.total_events_undone} "
            f"replayed={result.total_messages_replayed} "
            f"max_depth={result.max_rollback_depth}"
        )
    obs.finish(doc)
    obs.emit(doc)
    return 0


def _doc_line(cls) -> str:
    """The one-line summary of a registry class (first docstring line)."""
    doc = (cls.__doc__ or "").strip()
    return doc.splitlines()[0].strip() if doc else ""


def cmd_protocols(args) -> int:
    if getattr(args, "json", False):
        entries = [
            {
                "name": name,
                "class": cls.__name__,
                "doc": _doc_line(cls),
                "ensures_rdt": cls.ensures_rdt,
                "carries_tdv": cls.carries_tdv,
                "family": "rdt" if name in RDT_FAMILY else "baseline",
            }
            for name, cls in sorted(PROTOCOLS.items())
        ]
        print(canonical_dumps({"command": "protocols", "protocols": entries}))
        return 0
    rows = [
        {
            "name": name,
            "ensures RDT": "yes" if cls.ensures_rdt else "no",
            "piggybacks TDV": "yes" if cls.carries_tdv else "no",
            "family": "rdt" if name in RDT_FAMILY else "baseline",
        }
        for name, cls in sorted(PROTOCOLS.items())
    ]
    print(render_table(rows, title="protocols"))
    return 0


def cmd_workloads(args) -> int:
    if getattr(args, "json", False):
        entries = [
            {"name": name, "class": cls.__name__, "doc": _doc_line(cls)}
            for name, cls in sorted(WORKLOADS.items())
        ]
        print(canonical_dumps({"command": "workloads", "workloads": entries}))
        return 0
    rows = [
        {"name": name, "class": cls.__name__}
        for name, cls in sorted(WORKLOADS.items())
    ]
    print(render_table(rows, title="workloads"))
    return 0


# ----------------------------------------------------------------------
# the service verbs
# ----------------------------------------------------------------------
#: ``repro serve`` flags whose ``dest`` is a deployment knob (the
#: observability flags are not).
_SERVE_KNOBS = frozenset(
    field.name
    for config in (api.ServerConfig, api.RouterConfig)
    for field in dataclasses.fields(config)
)


def cmd_serve(args) -> int:
    """Run the checkpointing daemon in the foreground until Ctrl-C."""
    import time

    from repro.types import SimulationError

    obs = _Obs(args)
    # Only the flags given: every default and rule is the config's.
    knobs = {
        name: value
        for name, value in vars(args).items()
        if name in _SERVE_KNOBS and value is not None
    }
    try:
        handle = api.serve(tracer=obs.tracer, metrics=obs.registry, **knobs)
    except SimulationError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if not obs.json:
        print(f"serving on {handle.connect_address()}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    summary = handle.close()
    doc: Dict[str, object] = {
        "command": "serve",
        "address": handle.connect_address(),
        "sessions": summary,
    }
    if not obs.json:
        print(f"drained {len(summary)} session(s)")
    obs.finish(doc)
    obs.emit(doc)
    return 0


def cmd_client(args) -> int:
    """One request against a running service; prints the JSON reply."""
    from repro.types import ReproError

    if args.session is None and args.op != "ping":
        raise SystemExit(f"--session is required for {args.op}")
    try:
        client = api.connect(args.address, timeout=args.timeout)
    except ConnectionError as exc:
        raise SystemExit(str(exc))
    try:
        if args.op == "ping":
            reply = client.ping()
        elif args.op == "hello":
            reply = client.hello(args.session, n=args.n, protocol=args.protocol)
        elif args.op == "checkpoint":
            reply = client.checkpoint(args.session, args.pid)
        elif args.op == "send":
            reply = client.send(args.session, args.src, args.dst)
        elif args.op == "deliver":
            reply = client.deliver(args.session, args.msg_id)
        elif args.op == "query":
            reply = client.query(args.session, args.what, crashed=args.crashed)
        else:  # snapshot
            reply = client.snapshot(args.session)
    except (ReproError, ConnectionError) as exc:
        raise SystemExit(str(exc))
    finally:
        client.close()
    print(canonical_dumps(reply))
    return 0


def cmd_loadgen(args) -> int:
    """Drive a running service with generated workload traffic."""
    from repro.serve.loadgen import run_load

    obs = _Obs(args)
    try:
        report = run_load(
            args.address,
            sessions=args.sessions,
            workload=args.workload,
            protocol=args.protocol,
            n=args.n,
            duration=args.duration,
            seed=args.seed,
            basic_rate=args.basic_rate,
            window=args.window,
            query_every=args.query_every,
            request_timeout=args.request_timeout,
        )
    except ConnectionError as exc:
        raise SystemExit(str(exc))
    doc: Dict[str, object] = {"command": "loadgen", "load": report.as_doc()}
    if not obs.json:
        quantiles = report.latency_quantiles()
        print(
            render_table(
                [
                    {
                        "sessions": report.sessions,
                        "acked": report.acked,
                        "shed": report.shed,
                        "errors": report.errors,
                        "events/s": f"{report.throughput:.0f}",
                        "p50 ms": f"{quantiles['ingest_p50_s'] * 1e3:.2f}",
                        "p99 ms": f"{quantiles['ingest_p99_s'] * 1e3:.2f}",
                    }
                ],
                title=f"loadgen: {args.workload} -> {args.address}",
            )
        )
    obs.emit(doc)
    return 0 if report.errors == 0 else 1


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="RDT checkpointing testbed"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="one workload under one protocol")
    _add_scenario_args(p)
    _add_net_args(p)
    _add_obs_args(p)
    p.add_argument("--protocol", default="bhmr", choices=sorted(PROTOCOLS))
    p.add_argument("--check-rdt", action="store_true")
    p.add_argument("--save", metavar="PATH", help="save the history as JSON")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="several protocols, same traces")
    _add_scenario_args(p)
    _add_obs_args(p)
    p.add_argument(
        "--protocols", nargs="+", default=["bhmr", "fdas", "cbr"],
        choices=sorted(PROTOCOLS),
    )
    p.add_argument("--baseline", default="fdas", choices=sorted(PROTOCOLS))
    p.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2])
    p.add_argument("--check-rdt", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="R vs basic checkpoint rate")
    _add_scenario_args(p)
    _add_obs_args(p)
    p.add_argument(
        "--rates", nargs="+", type=float, default=[0.05, 0.1, 0.2, 0.5]
    )
    p.add_argument("--protocols", nargs="+", default=["bhmr"])
    p.add_argument("--baseline", default="fdas")
    p.add_argument("--seeds", nargs="+", type=int, default=[0, 1])
    p.add_argument(
        "--workers", type=int, default=None, help="process-pool size"
    )
    p.add_argument(
        "--cache", metavar="DIR", default=None, help="result-cache directory"
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="RDT analysis of a pattern")
    p.add_argument(
        "pattern",
        choices=["figure1", "domino", "simulated", "file"],
        help="built-in pattern, fresh simulated run, or saved JSON",
    )
    _add_scenario_args(p)
    p.add_argument("--path", help="JSON history for 'analyze file'")
    p.add_argument(
        "--explain",
        action="store_true",
        help="print a witness chain for each violation",
    )
    p.add_argument("--protocol", default="independent", choices=sorted(PROTOCOLS))
    p.add_argument("--rounds", type=int, default=5, help="domino rounds")
    p.add_argument("--max-violations", type=int, default=10)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("recover", help="crash injection + online recovery")
    _add_scenario_args(p)
    _add_net_args(p)
    _add_obs_args(p)
    p.add_argument("--protocol", default="bhmr", choices=sorted(PROTOCOLS))
    p.add_argument("--crash-pid", type=int, default=0)
    p.add_argument("--crash-time", type=float, default=None)
    p.add_argument(
        "--inject-crashes",
        type=int,
        default=0,
        metavar="N",
        help="inject N seeded crashes and recover online (engine mode)",
    )
    p.add_argument(
        "--crash-seed",
        type=int,
        default=0,
        help="seed for the injected crash schedule",
    )
    p.add_argument(
        "--crash-at",
        action="append",
        metavar="PID:TIME",
        help="inject an explicit crash (repeatable; engine mode)",
    )
    p.add_argument(
        "--gc-every",
        type=int,
        default=None,
        metavar="OPS",
        help="run the online sender-log GC every OPS trace ops",
    )
    p.set_defaults(func=cmd_recover)

    # One flag per knob, dest = the config field; defaults and rules
    # live only in ServerConfig / RouterConfig (docs/SERVICE.md lists
    # them).  --port is the one deployment default of the command line.
    p = sub.add_parser("serve", help="run the checkpointing service")
    _add_obs_args(p)
    p.add_argument("--host", help="TCP address to bind")
    p.add_argument("--port", type=int, default=7463, help="0 = ephemeral")
    p.add_argument(
        "--unix", dest="unix_path", metavar="PATH", help="serve on a Unix socket"
    )
    p.add_argument(
        "--workers",
        type=int,
        help=(
            "session worker tasks per process (with --shard-procs: per "
            "shard process)"
        ),
    )
    p.add_argument(
        "--shard-procs",
        type=int,
        metavar="N",
        help=(
            "scale out to N shard processes under a router that clients "
            "ask where each session lives (consistent-hash session "
            "ownership; requires --data-dir)"
        ),
    )
    p.add_argument(
        "--data-dir",
        metavar="DIR",
        help=(
            "sharded deployment state: per-shard WAL/snapshot "
            "directories and the shard map live under DIR"
        ),
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        help="per-shard queue bound before frames are shed",
    )
    p.add_argument(
        "--idle-timeout",
        type=float,
        metavar="SECONDS",
        help="snapshot + evict sessions idle this long",
    )
    p.add_argument(
        "--snapshot-dir",
        metavar="DIR",
        help="persist session snapshots under DIR (omitted: in memory)",
    )
    p.add_argument(
        "--wal-dir",
        metavar="DIR",
        help=(
            "durable ingest WAL under DIR: every acked frame is fsynced "
            "before its ack and survives kill -9 (omitted: no WAL)"
        ),
    )
    p.add_argument(
        "--fsync-batch",
        type=int,
        metavar="RECORDS",
        help="max WAL records retired per fsync (group-commit batch cap)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("client", help="one request against a service")
    p.add_argument("address", help="host:port or unix:/path")
    p.add_argument(
        "op",
        choices=[
            "hello", "checkpoint", "send", "deliver", "query", "snapshot",
            "ping",
        ],
    )
    p.add_argument("--session", default=None, help="session id")
    p.add_argument("-n", type=int, default=None, help="hello: process count")
    p.add_argument("--protocol", default=None, choices=sorted(PROTOCOLS))
    p.add_argument("--pid", type=int, default=0, help="checkpoint: process")
    p.add_argument("--src", type=int, default=0, help="send: sender")
    p.add_argument("--dst", type=int, default=1, help="send: destination")
    p.add_argument("--msg-id", type=int, default=0, help="deliver: message id")
    p.add_argument(
        "--what",
        default="rdt_status",
        choices=["rdt_status", "z_cycles", "recovery_line", "metrics"],
    )
    p.add_argument(
        "--crashed", nargs="+", type=int, default=None,
        help="recovery_line: crashed pids (default: all)",
    )
    p.add_argument("--timeout", type=float, default=10.0)
    p.set_defaults(func=cmd_client)

    p = sub.add_parser("loadgen", help="drive a service with workloads")
    p.add_argument("address", help="host:port or unix:/path")
    _add_scenario_args(p)
    p.add_argument("--protocol", default="bhmr", choices=sorted(PROTOCOLS))
    p.add_argument("--sessions", type=int, default=8)
    p.add_argument(
        "--window", type=int, default=64, help="frames in flight per session"
    )
    p.add_argument(
        "--query-every",
        type=int,
        default=0,
        metavar="OPS",
        help="interleave an rdt_status query every OPS ingest ops",
    )
    p.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-request deadline in seconds (default 10; a stalled "
        "server surfaces as timeout errors, never a hang)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit one canonical JSON document instead of the table",
    )
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser("protocols", help="list known protocols")
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable listing (name, class, doc)",
    )
    p.set_defaults(func=cmd_protocols)
    p = sub.add_parser("workloads", help="list known workloads")
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable listing (name, class, doc)",
    )
    p.set_defaults(func=cmd_workloads)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
