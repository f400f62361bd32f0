"""Shared plumbing for the benchmark: paths, timing statistics, provenance, output.

Every run is hermetic: scratch files (WALs, plan cache, cluster logs) live
in a fresh directory under ``.perfbench_tmp/`` in the checkout and are
removed when the run ends, so a run leaves the worktree as it found it.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
SCRATCH_PARENT = ROOT / ".perfbench_tmp"


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a run that measured a failure)."""


def require_source() -> None:
    """Put the checkout's ``src/`` on the import path, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no src/repro package under {ROOT}; run from the root of a repro checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child processes: the checkout's sources, obs off."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_OBS", None)
    return env


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory inside the checkout, removed on exit.

    ``REPRO_CACHE_DIR`` points into it for the duration, so no plan-cache
    artifact outlives the run either.
    """
    SCRATCH_PARENT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_PARENT))
    cache = path / "cache"
    prev = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    try:
        yield path
    finally:
        if prev is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = prev
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH_PARENT.rmdir()  # only succeeds when no other run is using it


def percentile(samples, pct: float) -> float:
    import numpy as np

    if len(samples) == 0:
        raise BenchError("no samples to take a percentile of")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), pct))


def median(samples) -> float:
    return percentile(samples, 50)


def latency_metrics(latency, units: float, elapsed: float) -> dict:
    """``ops_per_s``, ``p50_ms`` and ``p90_ms`` over every measured op.

    ``units`` counts what one op delivers (one ``INC``, a batch of input
    vectors, a whole proof's 2^24 inputs); ``elapsed`` is the time the rate
    is taken over.
    """
    return {
        "ops_per_s": metric(units * len(latency) / elapsed, "1/s"),
        "p50_ms": metric(percentile(latency, 50) * 1e3, "ms"),
        "p90_ms": metric(percentile(latency, 90) * 1e3, "ms"),
    }


def tail_summary(latency) -> dict:
    """Sample count and p99 for the record, next to the reported metrics."""
    return {"ops": len(latency), "p99_ms": percentile(latency, 99) * 1e3}


def time_calls(fn, *, repeat: int, warmup: int = 2) -> list[float]:
    """Wall-clock seconds of ``repeat`` calls to ``fn`` after ``warmup`` calls."""
    for _ in range(warmup):
        fn()
    out = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def per_call_us(fn, *, loops: int, rounds: int = 7) -> float:
    """Median over ``rounds`` of the mean microseconds per call of a ``loops``-call loop."""
    out = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        out.append((time.perf_counter() - t0) / loops * 1e6)
    return median(out)


# -- provenance -------------------------------------------------------------


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: no history to stamp
    try:
        res = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout


def fs_type(path) -> str | None:
    """Filesystem type holding ``path`` (longest matching mount point)."""
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    target = os.path.realpath(path)
    best, best_type = "", None
    for line in lines:
        left, _, right = line.partition(" - ")
        fields = left.split()
        if len(fields) < 5 or not right:
            continue
        mount = fields[4]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, best_type = mount, right.split()[0]
    return best_type


def provenance(workload: str, seed: int, seconds: float, trace: bool, config: dict) -> dict:
    """The stamp every record carries."""
    import numpy as np

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit.strip() if commit else None,
        "dirty": None if status is None else bool(status.strip()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": config,
    }


# -- output -----------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class Result:
    """What one run reports: correctness gates, counts, metrics, and a record."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.gates: dict[str, bool] = {}
        self.metrics: dict[str, dict] = {}
        self.record: dict = {}

    def gate(self, name: str, ok: bool) -> None:
        """Record one correctness gate; a gate checked twice must pass both times."""
        self.gates[name] = self.gates.get(name, True) and bool(ok)

    def check_depth(self, net, n_factors: int) -> None:
        """Gate: a built K network's depth equals ``depth_formulas.k_depth``."""
        from repro.networks.depth_formulas import k_depth

        self.gate(f"depth.{net.name}", net.depth == k_depth(n_factors))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.gates.values())

    def emit(self) -> None:
        """Print the record line, then the result line (always the last line of stdout)."""
        record = dict(self.record, gates=self.gates)
        print(json.dumps({"record": record}, default=str, sort_keys=True))
        print(
            json.dumps(
                {
                    "correct": self.correct,
                    "attempted": int(self.attempted),
                    "failed": int(self.failed),
                    "metrics": self.metrics,
                }
            ),
            flush=True,
        )
