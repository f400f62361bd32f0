"""Shared helpers for the benchmark harness.

Every benchmark module reproduces one experiment from DESIGN.md §3 (one
table or figure of the paper).  Besides timing a representative kernel with
pytest-benchmark, each module *prints and saves* the reproduced table under
``benchmarks/results/`` so EXPERIMENTS.md can quote real measured rows, and
*asserts* the paper's qualitative claims (who wins, which bound holds).
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_table(results_dir):
    """Save (and echo) a reproduced table: ``save_table(name, rows)``."""

    def _save(name: str, rows: list[dict], columns: list[str] | None = None) -> str:
        from repro.analysis import format_table

        text = format_table(rows, columns)
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n--- {name} ---\n{text}\n")
        return text

    return _save


@pytest.fixture(scope="session")
def update_serve_scale():
    """Rewrite ``BENCH_serve_scale.json`` with new values for some keys,
    keeping the others: bench_serve owns ``rows`` and bench_cluster
    ``cluster_rows`` (which ``check_budgets.py`` gates), and either may run
    first.  ``update_serve_scale(rows=...)``."""
    from repro.obs import repo_root, write_bench_json

    def _update(**rows: list[dict]) -> None:
        try:
            old = json.loads((repo_root() / "BENCH_serve_scale.json").read_text())
        except (ValueError, OSError):
            old = {}
        kept = {k: old[k] for k in ("rows", "cluster_rows") if k in old}
        write_bench_json("serve_scale", {**kept, **rows}, family="K")

    return _update
