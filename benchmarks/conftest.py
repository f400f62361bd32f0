"""Shared helpers for the benchmark harness.

Every benchmark module reproduces one experiment from DESIGN.md §3 (one
table or figure of the paper).  Besides timing a representative kernel with
pytest-benchmark, each module *prints and saves* the reproduced table under
``benchmarks/results/`` so EXPERIMENTS.md can quote real measured rows, and
*asserts* the paper's qualitative claims (who wins, which bound holds).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess

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


def run_stamp() -> dict:
    """Who measured a set of rows: the checkout's commit, whether its
    tracked files differ from that commit, and the CPU count."""
    from repro.obs import repo_root
    from repro.obs.export import git_commit

    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=repo_root(), capture_output=True, text=True, timeout=10,
        )
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        dirty = None
    return {"commit": git_commit(), "dirty": dirty, "nproc": os.cpu_count()}


@pytest.fixture(scope="session")
def update_serve_scale():
    """Rewrite ``BENCH_serve_scale.json`` with new values for some keys,
    keeping the others: bench_serve owns ``rows`` and bench_cluster
    ``cluster_rows`` (which ``check_budgets.py`` gates), and either may run
    first.  ``update_serve_scale(rows=...)``.

    ``provenance[key]`` stamps each key's rows with the run that measured
    them (:func:`run_stamp`); a kept key keeps its stamp, and rows written
    before stamps existed inherit the old envelope's commit."""
    from repro.obs import repo_root, write_bench_json

    def _update(**rows: list[dict]) -> None:
        try:
            old = json.loads((repo_root() / "BENCH_serve_scale.json").read_text())
        except (ValueError, OSError):
            old = {}
        kept = {k: old[k] for k in ("rows", "cluster_rows") if k in old}
        legacy = {"commit": old.get("git_commit"), "dirty": None, "nproc": None}
        stamps = {k: old.get("provenance", {}).get(k, legacy) for k in kept}
        stamps.update(dict.fromkeys(rows, run_stamp()))
        write_bench_json(
            "serve_scale", {**kept, **rows, "provenance": stamps}, family="K"
        )

    return _update
