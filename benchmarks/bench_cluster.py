"""E22 — horizontal scaling: the sharded cluster vs one serving process.

The paper's whole point is that counting scales by *adding width* instead
of sharing one hot location; :mod:`repro.cluster` applies the same move at
process granularity (shard ``i`` of ``S`` dispenses the residue class
``i + S·k``).  This bench sweeps 1/2/4 shards behind the splice-mode
router under multi-process closed-loop load — weak scaling, with a fixed
client pool per shard — and verifies both the performance claim (the
4-shard cluster at least doubles the 1-shard throughput through the
identical TCP + WAL + router path) and the correctness claim (the union
of every client's values is exactly-once across the whole sweep).

The measured rows are merged into ``BENCH_serve_scale.json`` as
``cluster_rows`` alongside the existing single-process ``rows``;
``check_budgets.py`` gates the 4-shard speedup and exactly-once flags.
"""

from __future__ import annotations

import asyncio
import tempfile

from repro.cluster import Cluster, ClusterConfig
from repro.serve import run_multiprocess_tcp

CLIENTS_PER_PROC = 8
OPS = 40


def _cluster_point(shards: int) -> dict:
    """One weak-scaling point: ``shards`` workers, one loadgen proc each."""

    async def main() -> dict:
        with tempfile.TemporaryDirectory(prefix="bench-cluster-") as wal_dir:
            cfg = ClusterConfig(
                shards=shards,
                wal_dir=wal_dir,
                factors=(2, 3, 2),
                mode="splice",
                max_batch=128,
                # A deliberately dominant linger: every point pays the same
                # per-shard coalescing window, so the sweep measures how many
                # such windows run side by side (weak scaling), not how fast
                # one CPU can turn the crank on a single batcher.
                max_delay=0.005,
                fsync=False,  # scaling measurement; chaos tests own durability
                supervise=False,
            )
            async with Cluster(cfg) as cluster:
                host, port = cluster.address
                report = await asyncio.to_thread(
                    run_multiprocess_tcp,
                    host,
                    port,
                    procs=shards,
                    clients=CLIENTS_PER_PROC,
                    ops=OPS,
                    seed=shards,
                )
        audit = report.audit()
        return {
            "shards": shards,
            "procs": shards,
            "clients": report.clients,
            "requests": report.requests,
            "throughput": round(report.throughput, 1),
            "p50_ms": round(report.latency_percentile(50) * 1e3, 3),
            "p99_ms": round(report.latency_percentile(99) * 1e3, 3),
            "stride": report.stride,
            "duplicates": audit["duplicates"],
            "gap_total": audit["gap_total"],
            "exactly_once": audit["exactly_once"],
        }

    return asyncio.run(main())


def test_cluster_weak_scaling(save_table, update_serve_scale):
    cluster_rows = [_cluster_point(shards) for shards in (1, 2, 4)]
    base = cluster_rows[0]["throughput"]
    for row in cluster_rows:
        row["speedup_vs_1shard"] = round(row["throughput"] / base, 2)

    save_table("E22_cluster_scaling", cluster_rows)
    update_serve_scale(cluster_rows=cluster_rows)

    # Exactly-once across every point: values distinct, residue classes
    # gap-free (nothing was killed, so the gap budget is zero).
    for row in cluster_rows:
        assert row["exactly_once"], row
        assert row["stride"] == row["shards"]

    # The acceptance floor: 4 shards at least double the 1-shard cluster
    # throughput through the same router/WAL/TCP path.
    assert cluster_rows[-1]["speedup_vs_1shard"] >= 2.0, cluster_rows
