"""Tests for the asyncio micro-batcher: coalescing, bounds, backpressure."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.batching import Batcher, OverloadedError


def run(coro):
    return asyncio.run(coro)


def echo_batch(requests):
    return list(requests)


class TestLifecycle:
    def test_submit_before_start_raises(self):
        async def main():
            b = Batcher(echo_batch)
            with pytest.raises(RuntimeError, match="not running"):
                await b.submit(1)

        run(main())

    def test_context_manager_starts_and_stops(self):
        async def main():
            async with Batcher(echo_batch) as b:
                assert b.running
                assert await b.submit("x") == "x"
            assert not b.running

        run(main())

    def test_stop_drains_queued_work(self):
        async def main():
            b = Batcher(echo_batch, max_batch=2, max_delay=0.0)
            await b.start()
            futs = [asyncio.ensure_future(b.submit(i)) for i in range(10)]
            await asyncio.sleep(0)  # let every submission reach the queue
            await b.stop()
            assert [await f for f in futs] == list(range(10))

        run(main())


class TestCoalescing:
    def test_concurrent_submissions_share_batches(self):
        async def main():
            async with Batcher(echo_batch, max_batch=64, max_delay=0.002) as b:
                results = await asyncio.gather(*(b.submit(i) for i in range(100)))
                assert results == list(range(100))
                assert b.stats.batches < 100  # genuinely coalesced
                assert b.stats.mean_batch_size > 1
                assert b.stats.completed == 100

        run(main())

    def test_max_batch_respected(self):
        sizes = []

        def apply(requests):
            sizes.append(len(requests))
            return list(requests)

        async def main():
            async with Batcher(apply, max_batch=8, max_delay=0.002) as b:
                await asyncio.gather(*(b.submit(i) for i in range(50)))

        run(main())
        assert max(sizes) <= 8
        assert sum(sizes) == 50

    def test_histogram_accounts_every_batch(self):
        async def main():
            async with Batcher(echo_batch, max_batch=4, max_delay=0.0) as b:
                await asyncio.gather(*(b.submit(i) for i in range(17)))
                hist = b.stats.batch_size_hist
                assert sum(hist.values()) == b.stats.batches
                assert sum(s * n for s, n in hist.items()) == 17

        run(main())

    def test_single_item_flushes_after_max_delay(self):
        async def main():
            async with Batcher(echo_batch, max_batch=1024, max_delay=0.01) as b:
                loop = asyncio.get_running_loop()
                t0 = loop.time()
                assert await b.submit("solo") == "solo"
                assert loop.time() - t0 < 5.0  # flushed, not stuck

        run(main())


class _TimerCount:
    """Count the timers the running loop schedules (``call_at``/``call_later``)."""

    def __init__(self, loop):
        self.calls = 0
        self._loop = loop
        for name in ("call_at", "call_later"):
            setattr(loop, name, self._counting(getattr(loop, name)))

    def _counting(self, fn):
        def wrapped(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)

        return wrapped

    def close(self):
        for name in ("call_at", "call_later"):
            delattr(self._loop, name)


class TestOneTurnPolicy:
    """The default batcher (``max_delay=0``) waits for company by yielding
    one event-loop turn, never by a timer."""

    def test_default_schedules_no_timer(self):
        async def main():
            timers = _TimerCount(asyncio.get_running_loop())
            try:
                async with Batcher(echo_batch) as b:
                    assert b.max_delay == 0.0
                    assert await b.submit("solo") == "solo"
                    burst = await asyncio.gather(*(b.submit(i) for i in range(10)))
                    assert burst == list(range(10))
            finally:
                timers.close()
            assert timers.calls == 0

        run(main())

    def test_explicit_delay_schedules_its_window(self):
        async def main():
            timers = _TimerCount(asyncio.get_running_loop())
            try:
                async with Batcher(echo_batch, max_delay=0.001) as b:
                    assert await b.submit("solo") == "solo"
            finally:
                timers.close()
            assert timers.calls > 0

        run(main())

    def test_lone_request_dispatches_within_two_turns(self):
        ticks = 0
        dispatched_at = []

        def apply(requests):
            dispatched_at.append(ticks)
            return list(requests)

        async def ticker():
            nonlocal ticks
            while True:
                await asyncio.sleep(0)
                ticks += 1

        async def main():
            async with Batcher(apply) as b:
                await asyncio.sleep(0)  # the worker blocks on the empty queue
                t = asyncio.ensure_future(ticker())
                await asyncio.sleep(0)
                submitted_at = ticks
                assert await b.submit("solo") == "solo"
                t.cancel()
            assert len(dispatched_at) == 1
            assert dispatched_at[0] - submitted_at <= 2

        run(main())

    def test_closed_loop_clients_fill_batches(self):
        # 96 closed-loop clients over max_batch 64: the one turn lets the
        # clients the previous batch resolved resubmit before dispatch, so
        # only the final batch (480 = 7 * 64 + 32) is partial.
        sizes = []

        def apply(requests):
            sizes.append(len(requests))
            return list(requests)

        async def main():
            async with Batcher(apply, max_batch=64) as b:

                async def client(i):
                    for _ in range(5):
                        assert await b.submit(i) == i

                await asyncio.gather(*(client(i) for i in range(96)))
                hist = b.stats.batch_size_hist
            assert hist == {64: 7, 32: 1}
            assert sizes[:-1] == [64] * 7

        run(main())

    def test_stop_during_the_turn_still_dispatches(self):
        async def main():
            b = Batcher(echo_batch, max_batch=64)
            await b.start()
            fut = asyncio.ensure_future(b.submit("last"))
            await asyncio.sleep(0)  # the request is queued
            await asyncio.sleep(0)  # the worker took it and is yielding its turn
            await b.stop()
            assert await fut == "last"
            assert b.stats.batches == 1

        run(main())


class TestBackpressure:
    def test_overload_rejects_cleanly(self):
        async def main():
            b = Batcher(echo_batch, max_batch=1, max_delay=0.0, queue_limit=2)
            await b.start()
            # All 200 submissions race in before the worker gets a turn;
            # only queue_limit of them can be pending at once.
            results = await asyncio.gather(
                *(b.submit(i) for i in range(200)), return_exceptions=True
            )
            rejected = [r for r in results if isinstance(r, OverloadedError)]
            completed = [r for r in results if not isinstance(r, Exception)]
            assert rejected, "queue bound never tripped"
            assert len(rejected) + len(completed) == 200
            assert b.stats.rejected == len(rejected)
            # A rejected submission has no side effects: everything accepted
            # completes, nothing else does.
            assert b.stats.completed == len(completed) == b.stats.submitted
            await b.stop()

        run(main())


class TestFailures:
    def test_apply_exception_propagates_to_all_waiters(self):
        def boom(requests):
            raise ValueError("kernel exploded")

        async def main():
            async with Batcher(boom, max_batch=8, max_delay=0.002) as b:
                results = await asyncio.gather(
                    *(b.submit(i) for i in range(5)), return_exceptions=True
                )
                assert all(isinstance(r, ValueError) for r in results)

        run(main())

    def test_result_count_mismatch_is_an_error(self):
        def short(requests):
            return list(requests)[:-1]

        async def main():
            async with Batcher(short, max_batch=4, max_delay=0.0) as b:
                with pytest.raises(RuntimeError, match="results for"):
                    await b.submit(1)

        run(main())


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_delay": -1.0},
            {"queue_limit": 0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Batcher(echo_batch, **kwargs)
