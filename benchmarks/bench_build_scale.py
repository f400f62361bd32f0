"""E15 — construction cost: network size and build/evaluation scaling.

The paper's practicality claim rests on small constants; this harness
records how balancer count, depth, and wall-clock build/evaluate costs grow
with width for the K and L families.

Each row carries, for the flat-plan engine:

* ``eval64_ms`` — the :class:`~repro.core.plan.PlanExecutor` count sweep
  (the number the perf budget tracks), checked row by row against the
  step sequence a counting network must produce;
* ``build_ms`` / ``build_warm_ms`` — cold construction vs a
  :class:`~repro.core.cache.PlanCache` hit that loads the stored plan.
"""

from __future__ import annotations

import tempfile
import time

import numpy as np
import pytest

from repro.analysis import balanced_factorization, prime_factors
from repro.core.cache import PlanCache, cached_plan
from repro.core.plan import PlanExecutor, plan_executor
from repro.core.sequences import make_step
from repro.networks import k_network, l_network
from repro.networks.counting import clear_construction_cache
from repro.obs import write_bench_json
from repro.sim import propagate_counts


#: The last pre-plan BENCH_build_scale.json numbers at width 2048 — the
#: baseline the flat-plan acceptance bars are measured against.
_COMMITTED_EVAL64_MS_2048 = 720.9
_COMMITTED_BUILD_MS_2048 = 741.4


def test_scaling_table(save_table):
    rows = []
    cache = PlanCache(tempfile.mkdtemp(prefix="repro-bench-cache-"))
    for w in (16, 64, 256, 1024, 2048):
        factors = list(prime_factors(w))
        clear_construction_cache()
        t0 = time.perf_counter()
        net = k_network(factors)
        build = time.perf_counter() - t0
        cache.put_network("K", factors, net)
        cache.put_plan("K", factors, plan_executor(net).plan)
        t0 = time.perf_counter()
        plan = cached_plan("K", factors, lambda: k_network(factors), cache=cache)
        build_warm = time.perf_counter() - t0
        ex = PlanExecutor(plan)

        x = np.random.default_rng(0).integers(0, 100, size=(64, w))
        ex.run(x)  # warm the scratch pool: steady state is what serving sees
        t0 = time.perf_counter()
        out = ex.run(x)
        evaluate = time.perf_counter() - t0
        # A counting network's quiescent output is the step sequence of the
        # row's total, whatever the input distribution.
        steps = np.array([make_step(w, int(t)) for t in x.sum(axis=1)])
        assert np.array_equal(out, steps)
        rows.append(
            {
                "width": w,
                "factors": "x".join(map(str, factors)),
                "depth": net.depth,
                "size": net.size,
                "build_ms": round(build * 1e3, 1),
                "build_warm_ms": round(build_warm * 1e3, 2),
                "eval64_ms": round(evaluate * 1e3, 2),
            }
        )
    # Parallel sharding on the widest network, one row of its own.
    net = k_network(prime_factors(2048))
    ex = plan_executor(net)
    big = np.random.default_rng(1).integers(0, 100, size=(256, 2048))
    serial = ex.run(big)
    # Warm the pool (fork + per-worker plan materialization + first-call
    # scratch allocation) so the row records steady-state sharded cost.
    assert np.array_equal(ex.run_parallel(big, workers=4), serial)
    t0 = time.perf_counter()
    assert np.array_equal(ex.run_parallel(big, workers=4), serial)
    workers_ms = (time.perf_counter() - t0) * 1e3
    ex.close_pool()
    rows.append(
        {
            "width": 2048,
            "factors": "batch256-workers4",
            "depth": net.depth,
            "size": net.size,
            "build_ms": None,
            "build_warm_ms": None,
            "eval64_ms": round(workers_ms, 2),
        }
    )
    save_table("E15_build_scale_k", rows)
    # Machine-readable trajectory: BENCH_build_scale.json at the repo root.
    write_bench_json("build_scale", {"family": "K", "rows": rows})
    # Size grows roughly like w * depth / mean-balancer-width: superlinear
    # in w but far from quadratic blow-up.
    sizes = {r["width"]: r["size"] for r in rows if r["build_ms"] is not None}
    assert sizes[2048] < 2048 * k_network(prime_factors(2048)).depth
    # The flat plan must actually pay off where it matters.  The acceptance
    # bars are against the committed pre-plan trajectory (which, like any
    # fresh process, paid compile_network on its one evaluation): >= 3x on
    # eval, >= 5x on warm-cache build.
    wide = next(r for r in rows if r["width"] == 2048 and r["build_ms"] is not None)
    assert wide["eval64_ms"] * 3 <= _COMMITTED_EVAL64_MS_2048
    assert wide["build_warm_ms"] * 5 <= _COMMITTED_BUILD_MS_2048


def test_searched_vs_stock_table(save_table):
    """Depth + serve-latency columns comparing stock vs searched-base K
    (repro.search registry substitution), merged into
    BENCH_build_scale.json as ``searched_rows``."""
    import asyncio

    from repro.obs.export import read_bench_json, repo_root
    from repro.serve import CountingService, LoadGenerator

    def serve_p50_ms(net) -> float:
        async def run():
            service = CountingService(net, max_batch=32)
            gen = LoadGenerator(mode="closed", clients=8, ops=40, seed=0)
            async with service:
                return await gen.run_service(service)

        report = asyncio.run(run())
        assert report.exactly_once
        return round(report.latency_percentile(50) * 1e3, 3)

    rows = []
    for factors in ([2, 2, 2, 2], [2, 2, 2, 2, 2], [4, 4, 2, 2]):
        stock = k_network(factors)
        searched = k_network(factors, variant="searched")
        rows.append(
            {
                "width": stock.width,
                "factors": "x".join(map(str, factors)),
                "depth_stock": stock.depth,
                "depth_searched": searched.depth,
                "depth_delta": stock.depth - searched.depth,
                "size_stock": stock.size,
                "size_searched": searched.size,
                "serve_p50_stock_ms": serve_p50_ms(stock),
                "serve_p50_searched_ms": serve_p50_ms(searched),
            }
        )
    save_table("E15d_searched_vs_stock_k", rows)
    # Merge into the build-scale bench file: keep the stock scaling rows the
    # earlier test wrote (if it ran this session), add the comparison.
    payload = {"family": "K", "rows": []}
    bench_path = repo_root() / "BENCH_build_scale.json"
    if bench_path.exists():
        prior = read_bench_json(bench_path)
        payload["family"] = prior.get("family", "K")
        payload["rows"] = prior.get("rows", [])
    payload["searched_rows"] = rows
    write_bench_json("build_scale", payload)
    # Acceptance: searched-base K is strictly shallower for at least one
    # factorization (the registry's bitonic-16 beats the stock C(2,2,2,2)
    # prefix), and never deeper anywhere.
    assert any(r["depth_delta"] > 0 for r in rows)
    assert all(r["depth_delta"] >= 0 for r in rows)


def test_l_scaling_table(save_table):
    rows = []
    for w, cap in ((24, 4), (60, 5), (128, 4), (360, 6)):
        factors = list(balanced_factorization(w, cap))
        t0 = time.perf_counter()
        net = l_network(factors)
        build = time.perf_counter() - t0
        rows.append(
            {
                "width": w,
                "factors": "x".join(map(str, factors)),
                "depth": net.depth,
                "size": net.size,
                "max_balancer": net.max_balancer_width,
                "build_ms": round(build * 1e3, 1),
            }
        )
        assert net.max_balancer_width <= cap
    save_table("E15b_build_scale_l", rows)
    write_bench_json("build_scale_l", {"family": "L", "rows": rows})


@pytest.mark.parametrize("w", [64, 256, 1024])
def test_bench_build_k_width(benchmark, w):
    factors = list(prime_factors(w))
    benchmark(lambda: k_network(factors))


def test_bench_eval_wide(benchmark):
    net = k_network(prime_factors(1024))
    x = np.random.default_rng(0).integers(0, 100, size=(32, 1024))
    benchmark(lambda: propagate_counts(net, x))


def test_eval_rate_vs_numpy(save_table):
    """Honesty table: values/second through the vectorized network
    evaluator vs np.sort.  The network is software-slower (it does more
    comparisons and they are oblivious); its value is the data-independent
    schedule, not software speed."""
    import numpy as np

    from repro.sim import evaluate_comparators

    rows = []
    rng = np.random.default_rng(0)
    for factors in ([4, 4], [4, 4, 4], [2, 2, 2, 2, 2, 2]):
        net = k_network(factors)
        batch = rng.integers(0, 10_000, size=(2000, net.width))
        t0 = time.perf_counter()
        out = evaluate_comparators(net, batch)
        t_net = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref = np.sort(batch, axis=1)[:, ::-1]
        t_np = time.perf_counter() - t0
        assert np.array_equal(out, ref)
        values = batch.size
        rows.append(
            {
                "network": net.name,
                "width": net.width,
                "net_Mvals_per_s": round(values / t_net / 1e6, 2),
                "numpy_Mvals_per_s": round(values / t_np / 1e6, 2),
                "overhead_x": round(t_net / t_np, 1),
            }
        )
    save_table("E15c_eval_rate_vs_numpy", rows)
