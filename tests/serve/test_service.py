"""Tests for CountingService: exactly-once issuance, batching, validation."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.networks import k_network, l_network
from repro.serve import CountingService, ExactlyOnceError, OverloadedError


def run(coro):
    return asyncio.run(coro)


class TestIssueBatch:
    def test_values_are_the_next_contiguous_range(self):
        svc = CountingService(k_network([2, 3]))
        assert svc.issue_batch(7).tolist() == list(range(7))
        assert svc.issue_batch(5).tolist() == list(range(7, 12))
        assert svc.issued == 12

    def test_single_value_batches(self):
        svc = CountingService(l_network([2, 2, 2]))
        for expect in range(20):
            assert svc.issue_batch(1).tolist() == [expect]

    def test_values_come_from_network_wires(self):
        # The per-wire decomposition must match the network's own output
        # counts: wire i dispenses i, i+w, i+2w, ...
        net = k_network([3, 2])
        svc = CountingService(net)
        values = svc.issue_batch(11)
        wires = values % net.width
        counts = np.bincount(wires, minlength=net.width)
        # 11 tokens over 6 wires round-robin: step sequence 2,2,2,2,2,1.
        assert counts.tolist() == [2, 2, 2, 2, 2, 1]

    def test_rejects_nonpositive(self):
        svc = CountingService(k_network([2, 2]))
        with pytest.raises(ValueError):
            svc.issue_batch(0)


class TestExactlyOnceGuard:
    def test_corrupted_totals_trip_the_delta_guard(self):
        svc = CountingService(k_network([2, 3]))
        svc.issue_batch(9)
        svc._out_counts = svc._out_counts + 1  # simulate double-issuance state
        with pytest.raises(ExactlyOnceError, match="deltas"):
            svc.issue_batch(4)

    def test_skewed_wire_counts_trip_the_range_guard(self):
        svc = CountingService(k_network([2, 3]))
        svc.issue_batch(9)
        # Move one dispensed value between wires: totals still match (so the
        # delta guard passes), but the dispensed set now has a duplicate and
        # a gap, which the contiguous-range guard must catch.
        svc._out_counts = svc._out_counts.copy()
        svc._out_counts[0] -= 1
        svc._out_counts[1] += 1
        with pytest.raises(ExactlyOnceError, match="exactly-once"):
            svc.issue_batch(10)

    def test_validate_off_skips_the_guard(self):
        svc = CountingService(k_network([2, 3]), validate=False)
        svc.issue_batch(9)
        svc._out_counts = svc._out_counts.copy()
        svc._out_counts[0] -= 1
        svc._out_counts[1] += 1
        svc.issue_batch(10)  # silently wrong, but that is what was asked for


class TestAsyncAPI:
    def test_exactly_once_under_concurrency(self):
        """N concurrent clients x M ops each receive N*M distinct values
        forming a contiguous range (the acceptance criterion)."""
        n_clients, m_ops = 16, 25

        async def main():
            async with CountingService(k_network([2, 3, 2]), max_delay=0.001) as svc:

                async def client() -> list[int]:
                    return [await svc.fetch_and_increment() for _ in range(m_ops)]

                per_client = await asyncio.gather(*(client() for _ in range(n_clients)))
                values = [v for vs in per_client for v in vs]
                assert len(values) == n_clients * m_ops
                assert sorted(values) == list(range(n_clients * m_ops))
                return svc.batcher_stats

        stats = run(main())
        # Concurrency must actually exercise the batching path.
        assert stats.mean_batch_size > 1

    def test_many_splits_across_requests(self):
        async def main():
            async with CountingService(k_network([2, 2])) as svc:
                a, b, c = await asyncio.gather(
                    svc.fetch_and_increment_many(3),
                    svc.fetch_and_increment_many(4),
                    svc.fetch_and_increment_many(5),
                )
                assert [len(a), len(b), len(c)] == [3, 4, 5]
                assert sorted(a + b + c) == list(range(12))
                # Each request's values are ascending within the request.
                for chunk in (a, b, c):
                    assert chunk == sorted(chunk)

        run(main())

    def test_many_rejects_nonpositive(self):
        async def main():
            async with CountingService(k_network([2, 2])) as svc:
                with pytest.raises(ValueError):
                    await svc.fetch_and_increment_many(0)

        run(main())

    def test_overload_surfaces_to_caller(self):
        async def main():
            svc = CountingService(
                k_network([2, 2]), max_batch=1, max_delay=0.0, queue_limit=1
            )
            async with svc:
                results = await asyncio.gather(
                    *(svc.fetch_and_increment() for _ in range(100)),
                    return_exceptions=True,
                )
            got = [r for r in results if isinstance(r, int)]
            rejected = [r for r in results if isinstance(r, OverloadedError)]
            assert rejected, "expected overload with queue_limit=1"
            # Accepted requests still form a contiguous exactly-once range.
            assert sorted(got) == list(range(len(got)))

        run(main())


class TestSteadyStateAllocation:
    def test_issue_batches_reuse_executor_buffers(self):
        """Steady-state serving must not allocate per-batch state arrays:
        after the first issuance warms the scratch pool, every subsequent
        batch is a pool hit (the service always evaluates one step
        vector, so one pooled batch size covers them all)."""
        svc = CountingService(k_network([2, 2, 2]))
        ex = svc._executor
        assert ex is not None  # pristine networks get the plan executor
        svc.issue_batch(3)
        allocs_after_warmup = ex.buffer_allocs
        reuses_before = ex.buffer_reuses
        for n in (1, 7, 2, 64, 5):
            svc.issue_batch(n)
        assert ex.buffer_allocs == allocs_after_warmup, "steady state allocated"
        assert ex.buffer_reuses == reuses_before + 5
        assert svc.stats()["executor"]["buffer_reuses"] == ex.buffer_reuses

    def test_faulty_network_has_no_executor(self):
        from repro.faults.mutator import FaultyNetwork, StuckOverride

        base = k_network([2, 2])
        faulty = FaultyNetwork(
            base.inputs,
            base.outputs,
            base.balancers,
            base.num_wires,
            name=base.name,
            fault_overrides={0: StuckOverride(0)},
        )
        svc = CountingService(faulty, validate=False)
        assert svc._executor is None
        assert svc.stats()["executor"] is None
        svc.issue_batch(2)  # still serves, via the override path


class TestConstruction:
    def test_from_plan_pads_unfactorable_widths(self):
        svc = CountingService.from_plan(34, 8)  # 34 = 2*17 needs padding
        assert svc.net.width >= 34
        assert svc.net.max_balancer_width <= 8
        assert svc.issue_batch(10).tolist() == list(range(10))

    def test_stats_snapshot(self):
        svc = CountingService(k_network([2, 3]), max_batch=32)
        svc.issue_batch(5)
        s = svc.stats()
        assert s["network"]["name"] == "K(2,3)"
        assert s["issued"] == 5
        assert s["max_batch"] == 32
        assert "batch_size_hist" in s

    def test_default_batches_without_a_linger(self):
        assert CountingService(k_network([2, 3])).stats()["max_delay"] == 0.0

    def test_closed_loop_fills_batches_exactly_once(self):
        async def main():
            async with CountingService(k_network([2, 3])) as svc:

                async def client():
                    return [await svc.fetch_and_increment() for _ in range(5)]

                got = await asyncio.gather(*(client() for _ in range(96)))
                return svc.stats(), sorted(v for vs in got for v in vs)

        stats, values = run(main())
        assert values == list(range(480))
        assert stats["batch_size_hist"] == {"64": 7, "32": 1}
