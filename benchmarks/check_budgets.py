#!/usr/bin/env python
"""CI perf gate: compare BENCH_*.json files against benchmarks/budgets.json.

Usage::

    python benchmarks/check_budgets.py [BENCH_build_scale.json] [budgets.json] [BENCH_throughput.json] [BENCH_serve_scale.json]

Exits nonzero when any measured metric exceeds ``regression_factor`` times
its budget — i.e. a >2x regression of build or evaluation cost fails CI
while ordinary runner noise does not.  Budgets are plain expected values,
so tightening them is a one-line diff reviewed like any other.

A ``throughput_backends`` section gates *minimum* speedups instead: the
bit-sliced exhaustive proof must stay at least ``budget /
regression_factor`` times faster than the int64 path (10.0 / 2.0 = a hard
5x floor against runner noise, with 10x the expected steady number).

``throughput_sim`` is a hard ceiling with no slack: an acceptance
criterion stated as a ratio of two timings measured in one process, so
runner speed divides out.  ``cluster`` is hard too: every row
exactly-once with zero rejected requests, a p99 ceiling per shard count
and a speedup floor, each bound set from measured runs (see the
budgets ``_note``).
"""

from __future__ import annotations

import json
import pathlib
import sys

DEFAULT_BENCH = "BENCH_build_scale.json"
DEFAULT_BUDGETS = pathlib.Path(__file__).parent / "budgets.json"
DEFAULT_THROUGHPUT = "BENCH_throughput.json"
DEFAULT_SERVE_SCALE = "BENCH_serve_scale.json"


def check_backend_speedups(throughput_path, spec) -> list[str]:
    """Min-bound gate: measured ``speedup_x`` per width in ``backend_rows``
    must stay above ``min_speedup_x / regression_factor``."""
    budgets = spec.get("throughput_backends")
    if not budgets:
        return []
    path = pathlib.Path(throughput_path)
    if not path.exists():
        return [f"throughput_backends budget set but {throughput_path} missing"]
    factor = float(spec.get("regression_factor", 2.0))
    bench = json.loads(path.read_text())
    rows = {str(r["width"]): r for r in bench.get("backend_rows", [])}
    failures = []
    for width, budget in budgets.items():
        row = rows.get(width)
        if row is None:
            failures.append(f"width {width}: no backend_rows entry in {throughput_path}")
            continue
        floor = float(budget["min_speedup_x"]) / factor
        measured = float(row["speedup_x"])
        if measured < floor:
            failures.append(
                f"width {width}: bitsliced speedup_x={measured} below "
                f"floor {floor:g} (budget {budget['min_speedup_x']} / {factor})"
            )
        else:
            print(
                f"ok width {width} speedup_x={measured} "
                f"(budget {budget['min_speedup_x']}, floor {floor:g})"
            )
    return failures


def check_sim_speedups(throughput_path, spec) -> list[str]:
    """Hard ceiling on the simulator-substrate sweep.

    The ``sim_rows`` ``vs_npsort_x`` (plan sort time over ``np.sort(axis=1)``
    on the same batch) at each budgeted width must not exceed
    ``max_vs_npsort_x``, with no regression_factor slack.  Both timings run
    on the same machine in the same process, so runner speed cancels out
    of the ratio.  A budgeted width with no row fails.
    """
    budgets = spec.get("throughput_sim")
    if not budgets:
        return []
    path = pathlib.Path(throughput_path)
    if not path.exists():
        return [f"throughput_sim budget set but {throughput_path} missing"]
    bench = json.loads(path.read_text())
    rows = {str(r["width"]): r for r in bench.get("sim_rows", [])}
    failures = []
    for width, budget in budgets.items():
        row = rows.get(width)
        if row is None or "vs_npsort_x" not in row:
            failures.append(
                f"sim width {width}: no vs_npsort_x sim_rows entry in {throughput_path}"
            )
            continue
        ceiling = float(budget["max_vs_npsort_x"])
        measured = float(row["vs_npsort_x"])
        if measured > ceiling:
            failures.append(
                f"sim width {width}: sort plan vs_npsort_x={measured} "
                f"above hard ceiling {ceiling:g}"
            )
        else:
            print(f"ok sim width {width} sort vs_npsort_x={measured} (ceiling {ceiling:g})")
    return failures


def check_cluster_rows(serve_scale_path, spec) -> list[str]:
    """Hard gate on the cluster weak-scaling sweep (E22).

    Every ``cluster_rows`` row — whatever its shard count — must report
    ``exactly_once``, ``stride == shards`` and zero rejected requests (a
    fast cluster that double-issues or sheds is not a cluster).  Each
    budgeted shard count must have a row whose ``p99_ms`` is at most
    ``max_p99_ms`` and, where a ``min_speedup_x`` is set, whose
    ``speedup_vs_1shard`` meets it.  No regression_factor slack: the bounds
    already carry their margin.
    """
    budgets = spec.get("cluster")
    if not budgets:
        return []
    path = pathlib.Path(serve_scale_path)
    if not path.exists():
        return [f"cluster budget set but {serve_scale_path} missing"]
    bench = json.loads(path.read_text())
    rows = bench.get("cluster_rows", [])
    failures = []
    for row in rows:
        shards = row.get("shards")
        if not row.get("exactly_once"):
            failures.append(
                f"cluster shards={shards}: exactly_once is false "
                f"(duplicates={row.get('duplicates')}, gaps={row.get('gap_total')})"
            )
        if row.get("stride") != shards:
            failures.append(f"cluster shards={shards}: stride={row.get('stride')}")
        if row.get("rejected") != 0:
            failures.append(f"cluster shards={shards}: rejected={row.get('rejected')}")
    by_shards = {str(r["shards"]): r for r in rows}
    for shards, budget in budgets.items():
        row = by_shards.get(shards)
        if row is None:
            failures.append(f"cluster shards={shards}: no cluster_rows entry in {serve_scale_path}")
            continue
        ceiling = float(budget["max_p99_ms"])
        p99 = float(row.get("p99_ms", float("inf")))
        if p99 > ceiling:
            failures.append(f"cluster shards={shards}: p99_ms={p99} above ceiling {ceiling:g}")
        else:
            print(f"ok cluster shards={shards} p99_ms={p99} (ceiling {ceiling:g})")
        if "min_speedup_x" in budget:
            floor = float(budget["min_speedup_x"])
            measured = float(row.get("speedup_vs_1shard", 0.0))
            if measured < floor:
                failures.append(
                    f"cluster shards={shards}: speedup_vs_1shard={measured} "
                    f"below floor {floor:g}"
                )
            else:
                print(f"ok cluster shards={shards} speedup_vs_1shard={measured} (floor {floor:g})")
    return failures


def check(
    bench_path,
    budgets_path,
    throughput_path=DEFAULT_THROUGHPUT,
    serve_scale_path=DEFAULT_SERVE_SCALE,
) -> list[str]:
    bench = json.loads(pathlib.Path(bench_path).read_text())
    spec = json.loads(pathlib.Path(budgets_path).read_text())
    factor = float(spec.get("regression_factor", 2.0))
    budgets = spec["build_scale"]
    rows = {
        str(r["width"]): r
        for r in bench["rows"]
        if r.get("build_ms") is not None  # skip the workers/aggregate rows
    }
    failures = []
    for width, budget in budgets.items():
        row = rows.get(width)
        if row is None:
            failures.append(f"width {width}: no measured row in {bench_path}")
            continue
        for metric, limit in budget.items():
            measured = row.get(metric)
            if measured is None:
                failures.append(f"width {width}: metric {metric} missing")
            elif float(measured) > factor * float(limit):
                failures.append(
                    f"width {width}: {metric}={measured} exceeds "
                    f"{factor}x budget {limit}"
                )
            else:
                print(
                    f"ok width {width} {metric}={measured} "
                    f"(budget {limit}, limit {factor * float(limit):g})"
                )
    failures.extend(check_backend_speedups(throughput_path, spec))
    failures.extend(check_sim_speedups(throughput_path, spec))
    failures.extend(check_cluster_rows(serve_scale_path, spec))
    return failures


def main(argv: list[str]) -> int:
    bench = argv[1] if len(argv) > 1 else DEFAULT_BENCH
    budgets = argv[2] if len(argv) > 2 else DEFAULT_BUDGETS
    throughput = argv[3] if len(argv) > 3 else DEFAULT_THROUGHPUT
    serve_scale = argv[4] if len(argv) > 4 else DEFAULT_SERVE_SCALE
    failures = check(bench, budgets, throughput, serve_scale)
    for f in failures:
        print(f"PERF REGRESSION: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
