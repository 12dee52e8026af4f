"""Rollback recovery after the fact: crash, recovery line, replay plan.

    python examples/recovery_after_crash.py

Walks the classical use-case of consistent checkpoints over a finished
run: a process crashes mid-run; the recovery line (latest consistent cut
below the crash) is computed by rollback propagation; the messages
crossing the line are the replay plan, served from sender-based logs.
Run twice -- once under independent checkpointing, once under the BHMR
protocol -- to see the domino effect appear and disappear.
``examples/online_recovery.py`` executes such a recovery.
"""

from repro import CrashSpec, api, recovery_line
from repro.harness import render_table
from repro.recovery import build_sender_logs, replay_plan


def crash_and_recover(protocol: str, seed: int = 7):
    history = api.run(
        workload="random",
        workload_args={"send_rate": 2.0},
        protocol=protocol,
        n=3,
        duration=40.0,
        seed=seed,
        basic_rate=0.4,
    ).history

    # P1 crashes at simulated time 30; its volatile tail is lost.
    crash = {1: CrashSpec(1, at_time=30.0)}
    line = recovery_line(history, crash)

    logs = build_sender_logs(history)
    plan = replay_plan(history, line.cut)
    return history, line, logs, plan


def main() -> None:
    rows = []
    for protocol in ("independent", "bhmr"):
        history, line, logs, plan = crash_and_recover(protocol)
        rows.append(
            {
                "protocol": protocol,
                "recovery line": ", ".join(map(repr, line.checkpoint_ids())),
                "events undone": line.events_undone,
                "ckpts discarded": line.checkpoints_discarded,
                "msgs to replay": plan.total,
            }
        )
    print(render_table(rows, title="Crash of P1 at t=30 (same traffic)"))

    history, line, logs, plan = crash_and_recover("bhmr")
    print("\nReplay plan after recovery (sender -> messages):")
    for sender, msgs in sorted(plan.by_sender.items()):
        ids = ", ".join(f"m{m.msg_id}" for m in msgs)
        print(f"  P{sender} (log holds {len(logs[sender])} msgs): {ids}")

    print(
        "\nexamples/online_recovery.py computes the line at the crash and "
        "executes the\nrecovery: rollback, log replay and re-execution back "
        "onto the crash-free run."
    )

if __name__ == "__main__":
    main()
