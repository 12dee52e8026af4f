#!/usr/bin/env python3
"""Import-graph lint: every module under ``src/repro`` has a non-test
caller, and the sans-IO modules import no I/O.

Code kept only so the tests can compare against it belongs under
``tests/`` (the clock oracles in ``tests/oracles`` are the example), so
this pass fails when a ``src/`` module is reachable only from tests.

Reachability is a walk over static imports (``ast``; imports inside
functions and ``TYPE_CHECKING`` blocks count) from these roots:

* the program's entry points: ``repro`` (the top-level names),
  ``repro.__main__`` (the CLI) and ``repro.api``;
* every ``repro`` import of the non-test code outside ``src/``:
  ``examples/``, ``benchmarks/`` and ``tools/``;
* :data:`LIBRARY_ENTRY_POINTS` -- public modules whose callers are
  users, each with the reason it stays.

A subpackage ``__init__`` that re-exports a name is not a caller: ``from
pkg import name`` resolves to the module that defines ``name``.  So a
module that only its package's ``__init__`` imports is still flagged --
the shape the clock oracles had.  A package ``__init__`` is walked only
when a name it defines itself (or the package) is imported.

The modules in :data:`SANS_IO` decide without doing I/O: importing any
of :data:`IO_MODULES` (anywhere in the module, functions included) is a
finding too.

Run from the repo root (exit code 1 on any finding)::

    python tools/lint_imports.py

``tests/test_lint_imports.py`` wires this into the tier-1 gate.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Public modules with no caller in the tree, and why they stay in src/.
LIBRARY_ENTRY_POINTS = {
    "repro.testing": "conformance kit users run on their own protocols "
    "(docs/SIMULATOR.md)",
    "repro.serve.chaosproxy": "seeded fault-injection proxy for putting "
    "a deployment under wire chaos (docs/SERVICE.md)",
    "repro.analysis.characterizations": "the paper's visible "
    "characterization checker, public through repro.analysis",
}

#: Modules that must stay sans-IO (clock readings are passed in).
SANS_IO = (
    "repro.serve.clientcore",
    "repro.serve.servercore",
    "repro.serve.routecore",
)

#: What a sans-IO module may not import.
IO_MODULES = frozenset({"socket", "asyncio", "select", "time"})

#: Program entry points (see the module docstring).
ENTRY_POINTS = ("repro", "repro.__main__", "repro.api")

#: Directories of non-test code whose imports count as callers.
CALLER_DIRS = ("examples", "benchmarks", "tools")

Import = Tuple[str, Optional[str]]  # (module, imported name or None)


def module_names(src: Path) -> Dict[str, Path]:
    """Dotted name -> file of every module under ``src``."""
    out: Dict[str, Path] = {}
    for path in sorted(src.rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out[".".join(parts)] = path
    return out


def imports_of(path: Path, package: str) -> List[Import]:
    """Every import in ``path``; ``package`` anchors relative imports."""
    found: List[Import] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([node.module] if node.module else []))
            found.extend((base, alias.name) for alias in node.names)
    return found


class Graph:
    """The import graph of one source tree, with re-exports resolved."""

    def __init__(self, src: Path) -> None:
        self.modules = module_names(src)
        self.packages = {
            name for name, path in self.modules.items()
            if path.name == "__init__.py"
        }
        #: package -> {name it imports: module it came from}
        self._reexports: Dict[str, Dict[str, str]] = {
            package: {
                name: base
                for base, name in self.imports(package)
                if name is not None
            }
            for package in self.packages
        }

    def imports(self, module: str) -> List[Import]:
        package = module if module in self.packages else module.rpartition(".")[0]
        return imports_of(self.modules[module], package)

    def resolve(self, base: str, name: Optional[str]) -> Set[str]:
        """The modules an ``import base`` / ``from base import name`` uses."""
        if name is not None and f"{base}.{name}" in self.modules:
            return {f"{base}.{name}"}
        if name is not None and base in self.packages:
            source = self._reexports[base].get(name)
            if source is not None and source != base:
                return self.resolve(source, name)
        return {base} if base in self.modules else set()

    def callees(self, module: str) -> Set[str]:
        out: Set[str] = set()
        for base, name in self.imports(module):
            out |= self.resolve(base, name)
        return out

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        seen: Set[str] = set()
        stack = [root for root in roots if root in self.modules]
        while stack:
            module = stack.pop()
            if module not in seen:
                seen.add(module)
                stack.extend(self.callees(module))
        return seen


def check(
    root: Path,
    library: Mapping[str, str] = LIBRARY_ENTRY_POINTS,
    sans_io: Iterable[str] = SANS_IO,
) -> List[str]:
    """Findings for the repository at ``root`` (empty when clean)."""
    graph = Graph(root / "src")
    roots: Set[str] = set(ENTRY_POINTS)
    findings = [
        f"LIBRARY_ENTRY_POINTS names {name}, which does not exist"
        for name in sorted(library)
        if name not in graph.modules
    ]
    for name in sans_io:
        if name not in graph.modules:
            findings.append(f"SANS_IO names {name}, which does not exist")
            continue
        findings += [
            f"{graph.modules[name].relative_to(root)}: sans-IO module {name} "
            f"imports {base}"
            for base in sorted({base for base, _ in graph.imports(name)})
            if base.split(".")[0] in IO_MODULES
        ]
    roots |= set(library)
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            for base, name in imports_of(path, ""):
                roots |= graph.resolve(base, name)
    reached = graph.reachable(roots)
    findings += [
        f"{graph.modules[name].relative_to(root)}: {name} is reachable only "
        f"from tests -- move it under tests/ or give it a caller"
        for name in sorted(graph.modules)
        if name not in reached and name not in graph.packages
    ]
    return findings


def main(argv: List[str]) -> int:
    root = Path(argv[0]) if argv else ROOT
    findings = check(root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} import-graph finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
