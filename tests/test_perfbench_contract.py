"""The benchmark's contract with the package, checked in tier-1.

``perfbench/`` imports ``repro`` names inside its functions and reads keys of
``CountingService.stats()`` snapshots.  Renaming or deleting one of those
would otherwise surface only when the benchmark runs.  These tests read
``perfbench/*.py`` with :mod:`ast` (nothing there is imported or executed)
and check each use against the live package.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

from repro.networks import k_network
from repro.serve import CountingService

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _trees():
    return [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]


def repro_imports() -> set[tuple[str, str | None]]:
    """``(module, name)`` for every ``repro`` import; ``name`` is None for
    ``import repro.x``."""
    found = set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                if node.module.split(".")[0] == "repro":
                    found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update(
                    (alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "repro"
                )
    return found


def _is_stats_call(node) -> bool:
    if isinstance(node, ast.Await):
        node = node.value
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "stats"
    )


def stats_key_paths() -> set[tuple[str, ...]]:
    """Constant key paths (``x["a"]["b"]``, ``x.get("a")``) read from any
    name that perfbench binds to a ``.stats()`` result."""
    trees = _trees()
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _is_stats_call(node.value):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    paths = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript):
                keys = []
                while isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
                    keys.append(node.slice.value)
                    node = node.value
                if keys and isinstance(node, ast.Name) and node.id in names:
                    paths.add(tuple(reversed(keys)))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in names
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                paths.add((node.args[0].value,))
    return paths


IMPORTS = sorted(repro_imports(), key=lambda mn: (mn[0], mn[1] or ""))


def test_scan_sees_the_benchmark():
    assert SOURCES, "perfbench/*.py not found"
    assert ("repro.core.compiled", "compile_network") in IMPORTS
    assert ("repro.serve.service", "CountingService") in IMPORTS
    assert ("max_delay",) in stats_key_paths()


@pytest.mark.parametrize(
    "module,name", IMPORTS, ids=[f"{m}:{n}" if n else m for m, n in IMPORTS]
)
def test_every_repro_import_resolves(module, name):
    mod = importlib.import_module(module)
    if name is None or hasattr(mod, name):
        return
    try:
        importlib.import_module(f"{module}.{name}")  # a submodule
    except ImportError:
        pytest.fail(f"perfbench imports {name} from {module}, which no longer has it")


def test_every_stats_key_read_exists():
    svc = CountingService(k_network([2, 3]))
    svc.issue_batch(4)
    stats = svc.stats()
    for path in sorted(stats_key_paths()):
        node = stats
        for key in path:
            assert isinstance(node, dict) and key in node, (
                f"perfbench reads stats{''.join(f'[{k!r}]' for k in path)}, "
                "which CountingService.stats() does not provide"
            )
            node = node[key]
