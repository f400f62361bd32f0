"""E21 — the serving layer under closed-loop load.

The paper's contention story (§1, after Felten, LaMarca and Ladner [9]) is
about *concurrent* fetch-and-increment traffic; ``repro.serve`` is the
repo's real concurrent substrate.  This bench sweeps closed-loop client
counts against an in-process :class:`CountingService` and shows the
batching mechanism doing its job: mean batch size grows with offered
concurrency (requests coalesce into one vectorized network pass), while
exactly-once issuance holds at every point.
"""

from __future__ import annotations

import asyncio

from repro.networks import k_network
from repro.serve import CountingService, LoadGenerator


def _run_point(clients: int, ops: int) -> dict:
    async def main() -> dict:
        async with CountingService(k_network([2, 3, 2]), max_batch=128) as svc:
            gen = LoadGenerator(mode="closed", clients=clients, ops=ops, seed=clients)
            report = await gen.run_service(svc)
            s = report.summary()
            return {
                "clients": clients,
                "requests": s["requests"],
                "throughput": round(report.throughput, 1),
                "p50_ms": round(report.latency_percentile(50) * 1e3, 3),
                "p99_ms": round(report.latency_percentile(99) * 1e3, 3),
                "mean_batch": round(s["mean_batch_size"], 2),
                "exactly_once": s["exactly_once"],
            }

    return asyncio.run(main())


def test_serve_closed_loop_scaling(save_table, update_serve_scale):
    rows = [_run_point(clients, ops) for clients, ops in ((1, 40), (4, 30), (16, 20), (64, 10))]
    save_table("E21_serve_closed_loop", rows)
    update_serve_scale(rows=rows)

    # Exactly-once at every concurrency level.
    assert all(r["exactly_once"] for r in rows)
    # A lone closed-loop client cannot batch...
    assert rows[0]["mean_batch"] == 1.0
    # ...but concurrency must coalesce: visibly multi-request batches.
    assert rows[-1]["mean_batch"] > 4.0
    assert rows[-1]["mean_batch"] > rows[0]["mean_batch"]


def test_issue_batch_kernel(benchmark):
    """Time the vectorized issuance kernel itself (one 256-token batch)."""
    svc = CountingService(k_network([4, 4, 4]), validate=True)
    benchmark(svc.issue_batch, 256)
    assert svc.issued > 0
