"""``repro top`` rendering: pure-function frames over synthetic samples."""

from __future__ import annotations

import asyncio

import repro.obs as obs
from repro.networks import k_network
from repro.obs.exposition import parse_prometheus
from repro.serve import CountingServer, CountingService, TCPCounterClient
from repro.serve.top import TopSample, render_frame, sample_server


def make_stats(issued=1000, submitted=500, rejected=0, queue_depth=3) -> dict:
    return {
        "network": {"name": "K(2,3)", "width": 6, "depth": 1},
        "issued": issued,
        "submitted": submitted,
        "rejected": rejected,
        "queue_depth": queue_depth,
        "queue_limit": 1024,
        "mean_batch_size": 7.5,
        "executor": {"buffer_allocs": 2, "buffer_reuses": 98, "batches": 100},
    }


def make_series(count=100) -> dict:
    text = (
        "# TYPE repro_serve_request_seconds histogram\n"
        f'repro_serve_request_seconds_bucket{{le="0.001"}} {count // 2}\n'
        f'repro_serve_request_seconds_bucket{{le="0.01"}} {count}\n'
        f'repro_serve_request_seconds_bucket{{le="+Inf"}} {count}\n'
        f"repro_serve_request_seconds_sum {count * 0.002}\n"
        f"repro_serve_request_seconds_count {count}\n"
        "# TYPE repro_serve_request_seconds_max gauge\n"
        "repro_serve_request_seconds_max 0.008\n"
    )
    return parse_prometheus(text)


class TestRenderFrame:
    def test_rates_come_from_deltas(self):
        prev = TopSample(10.0, make_stats(issued=1000, submitted=500), make_series())
        cur = TopSample(12.0, make_stats(issued=3000, submitted=1500), make_series())
        frame = render_frame(prev, cur)
        assert "1,000 tok/s" in frame  # (3000-1000)/2s
        assert "500.0 req/s" in frame
        assert "K(2,3)" in frame

    def test_latency_percentiles_are_finite_and_formatted(self):
        prev = TopSample(0.0, make_stats(), make_series())
        cur = TopSample(1.0, make_stats(issued=2000), make_series())
        frame = render_frame(prev, cur)
        assert "latency p50" in frame and "latency p99" in frame
        assert "inf" not in frame.lower()
        # p99 clamps to the exported max (8ms), rendered in ms
        assert "ms" in frame

    def test_cache_hit_rate_and_buffer_reuse(self):
        """Buffer reuse renders; there is no plan-cache row to render."""
        prev = TopSample(0.0, make_stats(), make_series())
        cur = TopSample(1.0, make_stats(), make_series())
        frame = render_frame(prev, cur)
        assert "cache" not in frame
        assert "98.0%" in frame  # 98 reuses / 100 touches

    def test_shed_rate(self):
        prev = TopSample(0.0, make_stats(submitted=0, rejected=0), make_series())
        cur = TopSample(1.0, make_stats(submitted=90, rejected=10), make_series())
        frame = render_frame(prev, cur)
        assert "10.0%" in frame

    def test_degrades_without_metrics_series(self):
        prev = TopSample(0.0, make_stats(), {})
        cur = TopSample(1.0, make_stats(issued=2000), {})
        frame = render_frame(prev, cur)
        assert "n/a" in frame
        assert "REPRO_OBS=1" in frame


class TestSampleServer:
    def test_live_sample_round_trip(self):
        with obs.capture():
            async def main():
                server = CountingServer(CountingService(k_network([2, 3])), port=0)
                async with server:
                    client = await TCPCounterClient.connect(*server.address)
                    try:
                        await client.inc(4)
                        s0 = await sample_server(client)
                        await client.inc(4)
                        s1 = await sample_server(client)
                    finally:
                        await client.close()
                    return s0, s1

            s0, s1 = asyncio.run(main())
        assert s1.stats["issued"] == s0.stats["issued"] + 4
        assert "repro_serve_request_seconds_bucket" in s1.series
        frame = render_frame(s0, s1)
        assert "issued total" in frame


def make_cluster_stats(s0_submitted=400, s1_submitted=300, s1_up=True) -> dict:
    st = make_stats(submitted=s0_submitted + s1_submitted)
    st["cluster"] = {
        "num_shards": 2,
        "value_stride": 2,
        "router": {"mode": "line", "throttled": 4, "shard_errors": 1},
        "shards": [
            {
                "shard_id": 0,
                "up": True,
                "reachable": True,
                "submitted": s0_submitted,
                "rejected": 0,
                "queue_depth": 2,
                "queue_limit": 1024,
                "request_p99_s": 0.004,
                "restarts": 0,
            },
            {
                "shard_id": 1,
                "up": s1_up,
                "reachable": s1_up,
                "submitted": s1_submitted,
                "rejected": 10,
                "queue_depth": 0,
                "queue_limit": 1024,
                "request_p99_s": None,
                "restarts": 1,
            },
        ],
    }
    return st


class TestClusterFrame:
    def test_per_shard_rows_render(self):
        prev = TopSample(0.0, make_cluster_stats(100, 100))
        cur = TopSample(2.0, make_cluster_stats(500, 300))
        frame = render_frame(prev, cur)
        assert "cluster: 2 shards" in frame
        assert "mode=line" in frame
        assert "throttled=4" in frame
        # Per-shard request rates are deltas over dt: (500-100)/2, (300-100)/2.
        assert "200.0" in frame
        assert "100.0" in frame
        assert "4.00ms" in frame  # shard 0 p99
        assert frame.count("up") >= 2

    def test_down_shard_is_flagged(self):
        prev = TopSample(0.0, make_cluster_stats())
        cur = TopSample(1.0, make_cluster_stats(s1_up=False))
        frame = render_frame(prev, cur)
        assert "DOWN" in frame

    def test_missing_prev_shard_degrades_to_na(self):
        prev = TopSample(0.0, make_stats())  # no cluster key last sample
        cur = TopSample(1.0, make_cluster_stats())
        frame = render_frame(prev, cur)
        assert "cluster: 2 shards" in frame
        assert "n/a" in frame  # rates need two cluster samples

    def test_single_process_layout_unchanged(self):
        prev = TopSample(0.0, make_stats(), make_series())
        cur = TopSample(1.0, make_stats(issued=2000), make_series())
        frame = render_frame(prev, cur)
        assert "cluster" not in frame
        assert "shard" not in frame
