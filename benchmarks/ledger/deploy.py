"""Process hygiene: real ``python -m repro serve`` deployments as subprocesses.

Every deployment runs in its own process group with a private scratch
directory under ``benchmarks/ledger/out/`` (the benchmark may only
write inside its checkout, so no ``/tmp``), and is torn down on every
exit path -- normal return, exception, Ctrl-C -- by killing the whole
group.  All process-level measurement is from outside: CPU from
``/proc/<pid>/stat``, peak RSS from ``/proc/<pid>/status``; without
``/proc`` the run fails rather than reporting guesses.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: ``sockaddr_un.sun_path`` holds 108 bytes including the terminator.
_UNIX_PATH_MAX = 107

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class LedgerError(RuntimeError):
    """The benchmark could not run or produced a wrong answer."""


def require_proc() -> None:
    if not os.path.exists("/proc/self/stat"):
        raise LedgerError("the ledger needs /proc for per-process CPU and RSS")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def _stat_fields(pid: int) -> List[bytes]:
    """``/proc/<pid>/stat`` from the state field on (comm may contain
    spaces but is parenthesised, so split after it)."""
    with open(f"/proc/{pid}/stat", "rb") as f:
        return f.read().rpartition(b")")[2].split()


def proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds ``pid`` (all threads) has used so far."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise LedgerError(f"/proc/{pid}/status has no VmHWM line")


def _alive(pid: int) -> bool:
    try:
        return _stat_fields(pid)[0] != b"Z"
    except OSError:
        return False


def scratch_dir(tag: str) -> Path:
    """A fresh private directory under ``out/`` (caller removes it)."""
    OUT.mkdir(parents=True, exist_ok=True)
    for attempt in range(1000):
        path = OUT / f"{tag}{os.getpid()}-{attempt}"
        try:
            path.mkdir()
        except FileExistsError:
            continue
        return path
    raise LedgerError(f"cannot create a scratch directory under {OUT}")


@contextmanager
def cpu_plan(oversubscribed: bool) -> Iterator[Set[int]]:
    """Pin the load generator to the last allowed CPU and yield the CPUs
    of the deployment: the others -- or, for a deployment of more
    processes than cores (``oversubscribed``), all of them.

    Left to the scheduler, a window-64 client and its one server end up
    either side by side or taking turns on one CPU (wake-affine), and
    stay that way for minutes: wall throughput then has two values a
    third apart.  A fixed placement has one.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        yield set(allowed)
        return
    os.sched_setaffinity(0, {allowed[-1]})
    try:
        yield set(allowed) if oversubscribed else set(allowed[:-1])
    finally:
        os.sched_setaffinity(0, allowed)


class Deployment:
    """One ``repro serve`` deployment: a lone server, or router + shards.

    ``sharded`` selects ``--shard-procs 2 --data-dir`` (WAL on, default
    ``--fsync-batch``); otherwise one server with ``--workers 2`` and a
    directory-backed snapshot store, so that both shapes can come back
    on the same state after ``kill -9``.
    """

    def __init__(self, sharded: bool, cpus: Set[int]) -> None:
        self.sharded = sharded
        self.cpus = cpus
        self.dir = scratch_dir("d")
        self.sock = self.dir / "s.sock"
        deepest = (
            self.dir / "d" / "shard-00" / "serve.sock" if sharded else self.sock
        )
        if len(os.fsencode(str(deepest))) > _UNIX_PATH_MAX:
            self.remove()
            raise LedgerError(
                f"unix socket path too long ({deepest}); run the benchmark "
                f"from a shorter checkout path"
            )
        self.proc: Optional[subprocess.Popen] = None
        self._shard_pids: List[int] = []

    @property
    def address(self) -> str:
        return f"unix:{self.sock}"

    def argv(self) -> List[str]:
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--unix", str(self.sock), "--queue-depth", "1024", "--json",
        ]
        if self.sharded:
            return argv + ["--shard-procs", "2", "--data-dir", str(self.dir / "d")]
        return argv + ["--workers", "2", "--snapshot-dir", str(self.dir / "snaps")]

    def spawn(self) -> float:
        """Start the deployment; returns seconds from spawn to the first
        answered ``ping`` (for a router: with every shard up)."""
        from repro.serve.client import Client

        if self.sock.exists():
            self.sock.unlink()
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv(),
            env=child_env(),
            cwd=str(self.dir),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        # Only the main thread exists this early; every thread and shard
        # process created later inherits the mask.
        os.sched_setaffinity(self.proc.pid, self.cpus)
        deadline = started + 60.0
        while True:
            if self.proc.poll() is not None:
                err = self.proc.stderr.read().decode("utf-8", "replace")
                raise LedgerError(f"deployment exited at startup: {err[-800:]}")
            try:
                with Client(self.address, timeout=5.0) as client:
                    pong = client.ping()
                if not self.sharded or pong.get("shards_up") == pong.get("shards"):
                    elapsed = time.perf_counter() - started
                    break
            except (ConnectionError, OSError):
                pass
            if time.perf_counter() > deadline:
                raise LedgerError("deployment did not answer ping within 60s")
            time.sleep(0.005)
        if self.sharded:
            self._shard_pids = [int(s["pid"]) for s in self.stats()["shards"]]
        return elapsed

    def server_pids(self) -> Dict[str, List[int]]:
        """Server-side pids by role (shard pids are read from the router's
        ``stats`` verb at spawn)."""
        assert self.proc is not None
        if not self.sharded:
            return {"server": [self.proc.pid]}
        return {"router": [self.proc.pid], "shard": list(self._shard_pids)}

    def stats(self) -> Dict[str, object]:
        from repro.serve.client import Client

        with Client(self.address, timeout=10.0) as admin:
            return admin.call({"kind": "stats", "seq": "ledger"})

    def kill9(self) -> None:
        """``SIGKILL`` the whole process group, as a power cut would."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()
        self.proc = None
        # Shards are grandchildren: nobody here can wait() on them, so
        # watch /proc until each is gone (or a zombie awaiting init).
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in self._shard_pids):
            if time.monotonic() > deadline:
                raise LedgerError(f"shards survived SIGKILL: {self._shard_pids}")
            time.sleep(0.005)
        self._shard_pids = []

    def stop(self) -> Dict[str, int]:
        """Graceful drain (SIGINT); returns ``{session: events}``."""
        assert self.proc is not None
        self.proc.send_signal(signal.SIGINT)
        try:
            out, err = self.proc.communicate(timeout=60)
        finally:
            self.kill9()
        try:
            sessions = json.loads(out)["sessions"]
        except (ValueError, KeyError):
            raise LedgerError(
                "deployment printed no summary: "
                + err.decode("utf-8", "replace")[-800:]
            ) from None
        return {str(k): int(v) for k, v in sessions.items()}

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill9()
        self.remove()
