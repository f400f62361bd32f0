"""E13 — the shared-memory throughput experiment motivated by Felten,
LaMarca and Ladner [9] (cited in paper §1).

For a fixed width, the discrete-event contention model sweeps the K family
across concurrency levels.  Expected shape (and the paper's stated reason
for wanting a *family*): at low concurrency the shallow wide-balancer
networks win; as concurrency grows, contention on wide balancers dominates
and an intermediate balancer size becomes optimal.

The model rows are complemented by a **measured** wall-clock section
(``wall_rows``): the contention model charges every member the same
sequential service at ``procs=1``, so factorization never showed up there.
The wall section evaluates each member's flat execution plan on large
batches (after warmup, with the batch-harness overhead measured on an
identity network of the same width and subtracted), so depth and segment
count — i.e. the factorization — set the measured cost.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest

from repro.analysis import build_family
from repro.core.network import identity_network
from repro.core.plan import plan_executor
from repro.networks import k_network
from repro.obs import write_bench_json
from repro.sim import ContentionSimulator


def _family_nets(w: int):
    return [(e.factors, k_network(list(e.factors))) for e in build_family(w, "K")]


_WALL_BATCH = 8192
_WALL_REPS = 3


def _timed_eval(ex, x: np.ndarray) -> float:
    """Median-of-reps seconds for one warm plan evaluation of ``x``."""
    ex.run(x)  # warmup: scratch-pool allocation, numpy lazy init
    times = []
    for _ in range(_WALL_REPS):
        t0 = time.perf_counter()
        ex.run(x)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def _wall_rows(nets, w: int) -> list[dict]:
    """Network-bound wall-clock cost per family member at procs=1."""
    rng = np.random.default_rng(0)
    x = rng.integers(0, 10_000, size=(_WALL_BATCH, w)).astype(np.int64)
    # Harness overhead: the same executor machinery over a network with no
    # balancers measures validation + input scatter + output gather alone.
    overhead_s = _timed_eval(plan_executor(identity_network(w)), x)
    rows = []
    for factors, net in nets:
        net_s = max(_timed_eval(plan_executor(net), x) - overhead_s, 0.0)
        rows.append(
            {
                "factors": "x".join(map(str, factors)),
                "depth": net.depth,
                "size": net.size,
                "max_balancer": net.max_balancer_width,
                "batch": _WALL_BATCH,
                "net_ms_per_batch": round(net_s * 1e3, 3),
                "Mvals_per_s": round(_WALL_BATCH * w / max(net_s, 1e-9) / 1e6, 1),
            }
        )
    return rows


def test_throughput_sweep(save_table):
    w = 64
    nets = _family_nets(w)
    rows = []
    winners: dict[int, tuple] = {}
    for procs in (1, 4, 16, 64):
        best = None
        for factors, net in nets:
            stats = ContentionSimulator(net).run(
                n_procs=procs, ops_per_proc=6, collect_latencies=True
            )
            rows.append(
                {
                    "procs": procs,
                    "factors": "x".join(map(str, factors)),
                    "depth": net.depth,
                    "max_balancer": net.max_balancer_width,
                    "throughput": round(stats.throughput, 4),
                    "mean_latency": round(stats.mean_latency, 2),
                    "p95_latency": round(stats.latency_percentile(95), 2),
                }
            )
            if best is None or stats.throughput > best[0]:
                best = (stats.throughput, factors, net)
        winners[procs] = best
    wall_rows = _wall_rows(nets, w)
    save_table("E13_throughput_w64", rows)
    save_table("E13_wall_clock_w64", wall_rows)
    # Machine-readable trajectory: BENCH_throughput.json at the repo root,
    # preserving the sections the other bench tests own.
    from repro.obs.export import read_bench_json, repo_root

    payload = {"width": w, "rows": rows, "wall_rows": wall_rows}
    bench_path = repo_root() / "BENCH_throughput.json"
    if bench_path.exists():
        prior = read_bench_json(bench_path)
        for key in ("backend_rows", "sim_rows"):
            if key in prior:
                payload[key] = prior[key]
    write_bench_json("throughput", payload, family="K")

    # Low concurrency: the single balancer (depth 1) is unbeatable.
    assert winners[1][2].depth == 1
    # High concurrency: the winner is an intermediate member — neither the
    # 1-factor network nor the all-binary one.
    hi = winners[64][1]
    assert 1 < len(hi) < 6, hi

    # Measured section: factorization must matter at procs=1.  The deepest
    # member runs an order of magnitude more plan segments than the single
    # balancer; its measured per-batch cost has to show that.
    by_depth = sorted(wall_rows, key=lambda r: r["depth"])
    shallow, deep = by_depth[0], by_depth[-1]
    assert deep["depth"] > shallow["depth"]
    assert deep["net_ms_per_batch"] >= 1.5 * shallow["net_ms_per_batch"], (
        shallow,
        deep,
    )


_BACKEND_FACTORS = ([2, 2, 3], [2, 7], [2, 2, 2, 2])  # widths 12, 14, 16
_BACKEND_REPS = 5


def _timed_proof(net, backend: str) -> float:
    """Median warm seconds for one exhaustive 2^w sorting proof."""
    from repro.verify import find_sorting_violation

    w = net.width
    # Warmup carries the plan lowering, scratch allocation and numpy lazy
    # init — the steady-state number is what the budget gates.
    assert find_sorting_violation(net, exhaustive_limit=w, backend=backend) is None
    times = []
    for _ in range(_BACKEND_REPS):
        t0 = time.perf_counter()
        v = find_sorting_violation(net, exhaustive_limit=w, backend=backend)
        times.append(time.perf_counter() - t0)
        assert v is None
    times.sort()
    return times[len(times) // 2]


def test_backend_throughput(save_table):
    """Exhaustive-proof wall clock, int64 vs bit-sliced, at the widths the
    promoted test tiers actually sweep.  Both backends must return the
    identical verdict; the bit-sliced engine must clear 10x at one width
    (budgets.json gates this via ``backend_rows`` in
    BENCH_throughput.json)."""
    from repro.obs.export import read_bench_json, repo_root

    rows = []
    for factors in _BACKEND_FACTORS:
        net = k_network(list(factors))
        t_int = _timed_proof(net, "int64")
        t_bit = _timed_proof(net, "bitsliced")
        rows.append(
            {
                "width": net.width,
                "factors": "x".join(map(str, factors)),
                "inputs": 1 << net.width,
                "int64_ms": round(t_int * 1e3, 3),
                "bitsliced_ms": round(t_bit * 1e3, 3),
                "speedup_x": round(t_int / max(t_bit, 1e-9), 1),
            }
        )
    save_table("E14_backend_throughput", rows)
    # Merge into the throughput bench file: keep the contention-model rows
    # the sweep test wrote (if it ran this session), add the backend table.
    payload = {"width": 64, "rows": [], "wall_rows": []}
    bench_path = repo_root() / "BENCH_throughput.json"
    if bench_path.exists():
        prior = read_bench_json(bench_path)
        for key in ("width", "rows", "wall_rows", "sim_rows"):
            if key in prior:
                payload[key] = prior[key]
    payload["backend_rows"] = rows
    write_bench_json("throughput", payload, family="K")

    # The headline claim: >= 10x at the widest measured width, and the
    # bit-sliced path never loses anywhere in the sweep range.
    assert max(r["speedup_x"] for r in rows) >= 10.0, rows
    assert all(r["speedup_x"] >= 2.0 for r in rows), rows


_SIM_WIDTHS = (256, 1024, 2048)
_SIM_BATCH = 256
_SIM_REPS = 5


def _median_seconds(fn, reps: int = _SIM_REPS) -> float:
    fn()  # warmup: plan lowering, scratch pool, numpy lazy init
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def test_sim_semantics_throughput(save_table):
    """Plan-substrate sort vs ``np.sort(axis=1)`` on the same batch, in the
    same process, at the headline widths.

    ``vs_npsort_x`` is the ratio perfbench reports as ``sort_vs_npsort_x``;
    both timings share one process, so runner speed cancels out of it.
    budgets.json holds a hard ceiling on it at width 2048
    (``throughput_sim``), enforced here and by check_budgets.py against the
    ``sim_rows`` section merged into BENCH_throughput.json.
    """
    from repro.obs.export import read_bench_json, repo_root
    from repro.sim import evaluate_comparators

    rng = np.random.default_rng(0)
    rows = []
    for w in _SIM_WIDTHS:
        net = k_network([2] * int(np.log2(w)))
        x = rng.integers(0, 10_000, size=(_SIM_BATCH, w)).astype(np.int64)
        assert np.array_equal(evaluate_comparators(net, x), np.sort(x, axis=1)[:, ::-1])
        t_npsort = _median_seconds(lambda: np.sort(x, axis=1))
        t_plan = _median_seconds(lambda: evaluate_comparators(net, x))
        rows.append(
            {
                "width": w,
                "batch": _SIM_BATCH,
                "npsort_ms": round(t_npsort * 1e3, 3),
                "plan_ms": round(t_plan * 1e3, 3),
                "vs_npsort_x": round(t_plan / max(t_npsort, 1e-9), 1),
            }
        )

    save_table("E15_sim_semantics_throughput", rows)
    # Merge into the shared throughput bench file, preserving whatever the
    # other bench tests wrote this session (same pattern as backend_rows).
    payload = {"width": 64, "rows": [], "wall_rows": []}
    bench_path = repo_root() / "BENCH_throughput.json"
    if bench_path.exists():
        prior = read_bench_json(bench_path)
        for key in ("width", "rows", "wall_rows", "backend_rows"):
            if key in prior:
                payload[key] = prior[key]
    payload["sim_rows"] = rows
    write_bench_json("throughput", payload, family="K")

    budgets = json.loads((pathlib.Path(__file__).parent / "budgets.json").read_text())
    for width, budget in budgets["throughput_sim"].items():
        row = next(r for r in rows if r["width"] == int(width))
        assert row["vs_npsort_x"] <= budget["max_vs_npsort_x"], rows


def test_latency_monotone_in_depth_when_uncontended():
    nets = _family_nets(64)
    lat = [
        (net.depth, ContentionSimulator(net).run(1, 2).mean_latency) for _, net in nets
    ]
    lat.sort()
    depths = [d for d, _ in lat]
    latencies = [l for _, l in lat]
    assert all(a <= b for a, b in zip(latencies, latencies[1:])), list(zip(depths, latencies))


def test_threaded_counter_scaling(save_table):
    """Real threads on three family members plus the single-lock baseline:
    correctness at every scale and the measured ops/s trend.  Under
    CPython's GIL the plain lock wins on raw ops/s (serialization is
    already global, so the network only adds hops); the parallel-hardware
    story where the network wins is the ContentionSimulator's job."""
    import time

    from repro.sim import SingleLockCounter, ThreadedCounter

    rows = []
    cases = [("single-lock", None, SingleLockCounter())]
    for factors in ([8, 8], [4, 4, 4], [2, 2, 2, 2, 2, 2]):
        net = k_network(factors)
        cases.append(("x".join(map(str, factors)), net, ThreadedCounter(net)))
    for label, net, counter in cases:
        t0 = time.perf_counter()
        stats = counter.run_threads(n_threads=8, ops_per_thread=200)
        dt = time.perf_counter() - t0
        assert sorted(stats.all_values()) == list(range(1600))
        rows.append(
            {
                "counter": label,
                "depth": net.depth if net else 0,
                "ops": stats.total_ops,
                "ops_per_sec": int(stats.total_ops / dt),
            }
        )
    save_table("E13b_threaded_counter", rows)


def test_bench_contention_model(benchmark):
    net = k_network([4, 4, 4])
    sim = ContentionSimulator(net)
    benchmark(lambda: sim.run(n_procs=32, ops_per_proc=4))
