#!/usr/bin/env python3
"""Determinism lint: no ambient randomness or wall clock in ``src/repro``.

Every simulated run in this repo must be a pure function of its seeds --
that is what makes traces byte-identical, golden tests meaningful and
the sweep cache sound.  The enforcement is a small static pass over the
AST of every file under ``src/repro`` that flags the three ways ambient
nondeterminism leaks in:

* ``random.<fn>(...)`` -- calls on the *module-level* shared RNG
  (``random.random()``, ``random.choice(...)``, ``random.seed(...)``
  ...).  All randomness must flow through a caller-supplied, explicitly
  seeded ``random.Random`` instance.
* ``random.Random()`` with no arguments -- an unseeded RNG instance
  (seeded from the OS): every ``Random`` must be built from an explicit
  seed argument.
* ``time.time(...)`` / ``time.time_ns(...)`` -- wall clock in the
  simulation path.  (``time.perf_counter`` stays allowed: the profiler
  measures wall time *by design*, outside every deterministic artifact.)

Since the serve subsystem (``src/repro/serve``) went async, a fourth
rule protects the event loop rather than determinism: **no blocking
calls inside ``async def`` bodies** -- ``time.sleep`` (use
``asyncio.sleep``), synchronous socket operations (``.recv()``,
``.accept()``, ``.sendall()`` ...) and synchronous disk barriers
(``os.fsync`` / ``os.fdatasync``, which the ingest WAL runs on its
sync thread) stall every session sharing the loop.  The
blocking ``Client`` in ``repro.serve.client`` is a plain sync face that
waits, from its caller's thread, on an ``AsyncClient`` running on the
face's own loop thread; its methods are not coroutines, so the rule
leaves them alone, and the loop it waits on never blocks.

The rule is lexical: it only sees blocking calls written inside
``async def`` bodies, not ones reached *through* sync helpers called
from a coroutine.  One such case is accepted on purpose: the storage
seam's atomic write (``repro.serve.disk.Disk.write_atomic``), through
which a snapshot fsyncs synchronously on the loop via the sync
``_handle``/eviction path -- snapshots are rare and their durability
must complete before the eviction or ack proceeds; the trade-off is
documented there.  The per-frame WAL fsync, by contrast, must stay off
the loop (the group committer hands it to the WAL's long-lived sync
thread).

One escape hatch, and only one: a line ending in ``# lint:
allow-wall-clock`` may call ``time.time``/``time.time_ns``.  It exists
for *operational metadata* -- the WAL segment header stamps its
creation time for humans doing forensics on a crashed directory, and
that timestamp never enters a digest, a trace, or any other
deterministic artifact.  The pragma is deliberately loud at the call
site and suppresses nothing else (no RNG, no async-blocking rule), so
reaching for it remains a reviewed, greppable event.

Run from the repo root (exit code 1 on any violation)::

    python tools/lint_determinism.py [root ...]

``tests/test_lint_determinism.py`` wires this into the tier-1 gate.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, NamedTuple

#: ``module attr`` call patterns that are always forbidden.
_FORBIDDEN_CALLS = {
    ("time", "time"): "wall clock in the simulation path",
    ("time", "time_ns"): "wall clock in the simulation path",
}
_FORBIDDEN_MODULE_RNG = "call on the shared module-level RNG"
_FORBIDDEN_UNSEEDED = "random.Random() without an explicit seed argument"

#: The only pragma the lint honours, and the only rule it can relax.
_ALLOW_WALL_CLOCK = "# lint: allow-wall-clock"

#: ``module.attr`` calls that block the event loop inside ``async def``.
_BLOCKING_MODULE_CALLS = {
    ("time", "sleep"): "time.sleep blocks the event loop; use asyncio.sleep",
    ("os", "fsync"): (
        "os.fsync blocks the event loop; run it on a thread of its own, "
        "like the WAL group committer's sync thread"
    ),
    ("os", "fdatasync"): (
        "os.fdatasync blocks the event loop; run it on a thread of its own, "
        "like the WAL group committer's sync thread"
    ),
}
#: Method names that are synchronous socket I/O wherever they appear.
_BLOCKING_METHODS = {
    "recv": "synchronous socket recv blocks the event loop",
    "recv_into": "synchronous socket recv blocks the event loop",
    "recvfrom": "synchronous socket recv blocks the event loop",
    "recvfrom_into": "synchronous socket recv blocks the event loop",
    "accept": "synchronous socket accept blocks the event loop",
    "sendall": "synchronous socket sendall blocks the event loop",
}


class Violation(NamedTuple):
    path: Path
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.message} ({self.code})"


def _module_attr(func: ast.expr):
    """``(module, attr)`` when ``func`` is ``<Name>.<attr>``, else None."""
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id, func.attr
    return None


def _async_blocking(path: Path, tree: ast.AST) -> List[Violation]:
    """Blocking calls lexically inside any ``async def`` of the tree.

    Nested defs are included on purpose: a sync helper defined inside a
    coroutine still runs on the loop when called from it.  Awaited
    method calls (``await x.recv()``) are skipped -- an awaited call is
    an async API, not synchronous socket I/O.
    """
    awaited = {
        id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Await)
    }
    seen: set = set()
    found: List[Violation] = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.AsyncFunctionDef):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call) or id(node) in seen:
                continue
            seen.add(id(node))
            target = _module_attr(node.func)
            if target in _BLOCKING_MODULE_CALLS:
                found.append(
                    Violation(
                        path, node.lineno, f"async:{target[0]}.{target[1]}",
                        _BLOCKING_MODULE_CALLS[target],
                    )
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _BLOCKING_METHODS
                and id(node) not in awaited
            ):
                found.append(
                    Violation(
                        path, node.lineno, f"async:.{node.func.attr}",
                        _BLOCKING_METHODS[node.func.attr],
                    )
                )
    return found


def _wall_clock_waivers(source: str) -> set:
    """1-based line numbers carrying the ``allow-wall-clock`` pragma."""
    return {
        i
        for i, line in enumerate(source.splitlines(), start=1)
        if _ALLOW_WALL_CLOCK in line
    }


def check_source(path: Path, source: str) -> List[Violation]:
    """All determinism violations in one file's source text."""
    tree = ast.parse(source, filename=str(path))
    waived = _wall_clock_waivers(source)
    found: List[Violation] = _async_blocking(path, tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _module_attr(node.func)
        if target is None:
            continue
        module, attr = target
        if (module, attr) in _FORBIDDEN_CALLS:
            if node.lineno in waived:
                continue  # the one sanctioned escape hatch
            found.append(
                Violation(
                    path, node.lineno, f"{module}.{attr}",
                    _FORBIDDEN_CALLS[(module, attr)],
                )
            )
        elif module == "random":
            if attr == "Random":
                if not node.args and not node.keywords:
                    found.append(
                        Violation(
                            path, node.lineno, "random.Random()",
                            _FORBIDDEN_UNSEEDED,
                        )
                    )
            else:
                found.append(
                    Violation(
                        path, node.lineno, f"random.{attr}",
                        _FORBIDDEN_MODULE_RNG,
                    )
                )
    return found


def check_tree(root: Path) -> List[Violation]:
    """Violations in every ``*.py`` under ``root``, in path order."""
    violations: List[Violation] = []
    for path in sorted(root.rglob("*.py")):
        violations.extend(check_source(path, path.read_text(encoding="utf-8")))
    return violations


def main(argv: List[str]) -> int:
    roots = [Path(arg) for arg in argv] or [
        Path(__file__).resolve().parent.parent / "src" / "repro"
    ]
    violations: List[Violation] = []
    for root in roots:
        if not root.exists():
            print(f"lint_determinism: no such path: {root}", file=sys.stderr)
            return 2
        violations.extend(check_tree(root))
    for v in violations:
        print(v.render())
    if violations:
        print(f"{len(violations)} determinism violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
