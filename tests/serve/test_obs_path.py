"""Observability along the serve path: no-op guarantee, spans, METRICS.

The repo-wide promise is that with obs off the serving stack enters **zero**
frames of ``repro/obs`` code anywhere along server → batcher → service →
executor; with obs on, one request produces a linked request → batch →
executor span chain and populates the hot-path histograms.  Both are
asserted mechanically (``sys.setprofile`` call counting, as in
``tests/obs/test_overhead.py``).
"""

from __future__ import annotations

import asyncio
import sys
from collections import Counter

import repro.obs as obs
from repro.networks import k_network
from repro.obs.exposition import histogram_from_samples, parse_prometheus
from repro.serve import CountingServer, CountingService, TCPCounterClient


def run(coro):
    return asyncio.run(coro)


def make_server(**service_kwargs) -> CountingServer:
    return CountingServer(CountingService(k_network([2, 3]), **service_kwargs), port=0)


def count_obs_calls(fn) -> int:
    """Run ``fn()`` counting frames entered in repro/obs code."""
    counts = {"obs": 0}
    sep = "repro" + "/".join(["", "obs", ""])  # "repro/obs/"

    def tracer(frame, event, arg):
        if event == "call":
            fname = frame.f_code.co_filename.replace("\\", "/")
            if sep in fname:
                counts["obs"] += 1
        return None

    sys.setprofile(tracer)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts["obs"]


async def _drive_requests(server: CountingServer, n: int = 6) -> None:
    client = await TCPCounterClient.connect(*server.address)
    try:
        for _ in range(n):
            await client.inc(2)
    finally:
        await client.close()


class TestNoOpGuarantee:
    def test_serve_path_enters_zero_obs_frames_when_off(self):
        # sys.setprofile cannot wrap a single await from inside the loop, so
        # profile the whole asyncio.run: server accept, protocol parse,
        # batcher dispatch, service issue, and executor run all execute
        # under the profiler.
        def whole_stack():
            async def main():
                async with make_server() as server:
                    await _drive_requests(server, n=6)

            asyncio.run(main())

        obs.disable()
        assert count_obs_calls(whole_stack) == 0

    def test_positive_control_obs_on_enters_obs_frames(self):
        """The zero above is meaningful only if the counter can see frames."""

        def whole_stack():
            with obs.capture():
                async def main():
                    async with make_server() as server:
                        await _drive_requests(server, n=6)

                asyncio.run(main())

        assert count_obs_calls(whole_stack) > 0


class TestSpanChain:
    def test_request_batch_executor_linkage_over_tcp(self):
        with obs.capture():
            async def main():
                async with make_server() as server:
                    await _drive_requests(server, n=4)

            run(main())
            rec = obs.default_span_recorder()
            requests = rec.completed("request")
            batches = {s.span_id: s for s in rec.completed("batch")}
            executors = {s.span_id: s for s in rec.completed("executor")}
            assert requests and batches and executors
            linked = [r for r in requests if "batch_id" in r.fields]
            assert linked, "no request span was linked to a batch"
            for r in linked:
                assert r.status == "ok"
                for mark in ("parsed", "enqueued", "batched", "responded"):
                    assert mark in r.marks, (mark, r.to_dict())
                b = batches[r.fields["batch_id"]]
                assert "executed" in b.marks and "verified" in b.marks
                e = executors[b.fields["executor_run"]]
                assert e.parent_id == b.span_id

    def test_each_inc_adds_one_request_batch_and_executor_span(self):
        """After a warm-up INC, every further INC adds exactly one span of
        each kind to the one ring, and span ids stay unique across the
        zero-duration events and the timed spans."""
        with obs.capture() as (_, spans):
            async def main():
                async with make_server() as server:
                    client = await TCPCounterClient.connect(*server.address)
                    try:
                        await client.inc(2)  # warm-up
                        deltas = []
                        for _ in range(5):
                            before = Counter(s.kind for s in spans.completed())
                            await client.inc(2)
                            deltas.append(Counter(s.kind for s in spans.completed()) - before)
                        return deltas
                    finally:
                        await client.close()

            deltas = run(main())
        assert deltas == [Counter(request=1, batch=1, executor=1)] * 5
        ids = [s.span_id for s in spans.completed()]
        assert len(ids) == len(set(ids))
        assert spans.completed("build"), "construction events share the ring"

    def test_service_origin_spans_without_server(self):
        """In-process callers get a full chain too (what chaos runs need)."""
        with obs.capture():
            async def main():
                async with CountingService(k_network([2, 3])) as svc:
                    await svc.fetch_and_increment_many(3)

            run(main())
            rec = obs.default_span_recorder()
            reqs = rec.completed("request")
            assert reqs and reqs[0].fields.get("origin") == "service"
            assert "batch_id" in reqs[0].fields


class TestMetricsVerb:
    def test_metrics_scrape_parses_and_covers_required_series(self):
        with obs.capture():
            async def main():
                async with make_server() as server:
                    client = await TCPCounterClient.connect(*server.address)
                    try:
                        for _ in range(8):
                            await client.inc(2)
                        return await client.metrics()
                    finally:
                        await client.close()

            text = run(main())
        series = parse_prometheus(text)  # validating parser
        for want in (
            "repro_serve_queue_depth",
            "repro_serve_shed_total",
            "repro_plan_buffer_allocs_total",
            "repro_plan_buffer_reuses_total",
            "repro_serve_request_seconds_bucket",
            "repro_serve_queue_wait_seconds_bucket",
            "repro_serve_batch_seconds_bucket",
            "repro_serve_batch_size_bucket",
        ):
            assert want in series, want
        hist = histogram_from_samples(series, "repro_serve_request_seconds")
        assert hist is not None and hist[3] >= 8
        # The serve path never reads the plan cache, so it reports none.
        assert not any(name.startswith("repro_cache_") for name in series)

    def test_metrics_works_with_obs_off(self):
        obs.disable()

        async def main():
            async with make_server() as server:
                client = await TCPCounterClient.connect(*server.address)
                try:
                    await client.inc(2)
                    return await client.metrics()
                finally:
                    await client.close()

        series = parse_prometheus(run(main()))
        assert series["repro_obs_enabled"]["samples"][0][1] == 0.0
        assert series["repro_serve_issued_total"]["samples"][0][1] == 2.0
        # Hot-path histograms need obs on.
        assert "repro_serve_request_seconds_bucket" not in series

    def test_flight_verb_on_demand(self):
        with obs.capture():
            async def main():
                async with make_server() as server:
                    client = await TCPCounterClient.connect(*server.address)
                    try:
                        await client.inc(2)
                        return await client.flight()
                    finally:
                        await client.close()

            payload = run(main())
        assert payload["reason"] == "on-demand"
        assert any(s["kind"] == "request" for s in payload["spans"])


class TestStatsSurface:
    def test_stats_exposes_cache_and_executor_counters(self):
        """STATS carries the executor's counters and no plan-cache block:
        the on-disk cache's lifetime counters belong to other processes."""
        async def main():
            async with make_server() as server:
                client = await TCPCounterClient.connect(*server.address)
                try:
                    await client.inc(2)
                    return await client.stats()
                finally:
                    await client.close()

        stats = run(main())
        assert "cache" not in stats
        ex = stats["executor"]
        assert {"buffer_allocs", "buffer_reuses", "batches"} <= set(ex)
        assert ex["batches"] >= 1
