"""Tier-1 wiring of the import-graph lint (``tools/lint_imports.py``):
no module under ``src/repro`` may be reachable only from tests, and the
sans-IO modules may not import I/O."""

import importlib.util
import shutil
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location(
        "lint_imports", REPO_ROOT / "tools" / "lint_imports.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_has_no_test_only_module(lint, capsys):
    assert lint.main([str(REPO_ROOT)]) == 0
    assert capsys.readouterr().out == ""


def _tree(tmp_path, files):
    """A miniature repository: ``files`` maps relative path -> source."""
    base = {
        "src/repro/__init__.py": "",
        "src/repro/__main__.py": "",
        "src/repro/api.py": "",
        "src/repro/pkg/__init__.py": (
            "from repro.pkg.oracle import reference\n"
            "REGISTRY = {}\n"
        ),
        "src/repro/pkg/oracle.py": "def reference():\n    pass\n",
    }
    base.update(files)
    for rel, source in base.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return tmp_path


def test_a_package_reexport_is_not_a_caller(lint, tmp_path):
    root = _tree(tmp_path, {
        "src/repro/pkg/__init__.py": (
            "from repro.pkg.oracle import reference\n"
            "from repro.pkg.used import helper\n"
        ),
        "src/repro/pkg/used.py": "def helper():\n    pass\n",
        "src/repro/api.py": "from repro.pkg import helper\n",
    })
    assert [f.split(": ")[1] for f in lint.check(root, library={}, sans_io=())] == [
        "repro.pkg.oracle is reachable only from tests -- move it under "
        "tests/ or give it a caller"
    ]


def test_a_name_defined_in_a_package_walks_its_init(lint, tmp_path):
    root = _tree(tmp_path, {"src/repro/api.py": "from repro.pkg import REGISTRY\n"})
    assert lint.check(root, library={}, sans_io=()) == []


def test_imports_resolve_through_reexports_to_the_defining_module(lint, tmp_path):
    root = _tree(tmp_path, {
        "src/repro/api.py": "def serve():\n    from repro.pkg import reference\n",
    })
    assert lint.check(root, library={}, sans_io=()) == []


@pytest.mark.parametrize("directory", ["examples", "benchmarks", "tools"])
def test_non_test_code_outside_src_is_a_caller(lint, tmp_path, directory):
    root = _tree(tmp_path, {f"{directory}/demo.py": "import repro.pkg.oracle\n"})
    assert lint.check(root, library={}, sans_io=()) == []


def test_library_entry_points_are_roots_and_must_exist(lint, tmp_path):
    root = _tree(tmp_path, {})
    assert lint.check(root, library={"repro.pkg.oracle": "public"}, sans_io=()) == []
    assert lint.check(root, sans_io=(), library={
        "repro.pkg.oracle": "public", "repro.gone": "stale",
    }) == ["LIBRARY_ENTRY_POINTS names repro.gone, which does not exist"]


def test_relative_imports_are_followed(lint, tmp_path):
    root = _tree(tmp_path, {
        "src/repro/api.py": "from .pkg import sub\n",
        "src/repro/pkg/sub.py": "from . import oracle\n",
    })
    assert lint.check(root, library={}, sans_io=()) == []


@pytest.mark.parametrize(
    "source",
    [
        "import socket\n",
        "from asyncio import sleep\n",
        "import select as poller\n",
        "def clock():\n    import time\n    return time.monotonic()\n",
    ],
)
def test_a_sans_io_module_may_not_import_io(lint, tmp_path, source):
    root = _tree(tmp_path, {"src/repro/pkg/oracle.py": source})
    findings = lint.check(root, library={"repro.pkg.oracle": "public"},
                          sans_io=("repro.pkg.oracle",))
    assert len(findings) == 1
    assert "sans-IO module repro.pkg.oracle imports" in findings[0]


def test_a_sans_io_module_may_import_pure_modules(lint, tmp_path):
    root = _tree(tmp_path, {
        "src/repro/pkg/oracle.py": "import random\nimport timeit\nfrom repro import api\n",
    })
    assert lint.check(root, library={"repro.pkg.oracle": "public"},
                      sans_io=("repro.pkg.oracle",)) == []


def test_sans_io_modules_must_exist(lint, tmp_path):
    root = _tree(tmp_path, {})
    assert lint.check(root, library={"repro.pkg.oracle": "public"},
                      sans_io=("repro.gone",)) == [
        "SANS_IO names repro.gone, which does not exist"
    ]


def test_the_request_core_is_sans_io(lint):
    assert "repro.serve.clientcore" in lint.SANS_IO


def test_the_router_core_is_sans_io(lint):
    assert "repro.serve.routecore" in lint.SANS_IO


def test_a_time_import_in_the_server_core_fails_the_lint(lint, tmp_path):
    assert "repro.serve.servercore" in lint.SANS_IO
    shutil.copytree(REPO_ROOT / "src", tmp_path / "src")
    core = tmp_path / "src" / "repro" / "serve" / "servercore.py"
    core.write_text("from time import monotonic\n" + core.read_text(encoding="utf-8"))
    assert [f for f in lint.check(tmp_path) if "sans-IO" in f] == [
        "src/repro/serve/servercore.py: sans-IO module repro.serve.servercore "
        "imports time"
    ]
