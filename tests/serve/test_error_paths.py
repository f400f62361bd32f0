"""Serving-layer error paths: overload under a slow consumer, abrupt client
disconnects mid-INC, and cancelled waiters.

These are the failure modes the chaos harness (:mod:`repro.faults.chaos`)
injects statistically; here each one is pinned down deterministically."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.networks import k_network
from repro.serve import CountingServer, CountingService, OverloadedError, TCPCounterClient


def run(coro):
    return asyncio.run(coro)


class TestSlowConsumerOverload:
    def test_overload_with_slow_batch_consumer(self):
        """A slow apply function (installed via the wrap_apply seam) keeps
        the bounded queue full; excess submissions get OverloadedError
        immediately and the accepted ones stay exactly-once."""

        async def main():
            svc = CountingService(
                k_network([2, 2]), max_batch=4, queue_limit=4
            )

            def slow(original, requests):
                time.sleep(0.002)  # slow consumer: batch takes "forever"
                return original(requests)

            svc._batcher.wrap_apply(slow)
            async with svc:
                results = await asyncio.gather(
                    *(svc.fetch_and_increment() for _ in range(200)),
                    return_exceptions=True,
                )
            got = [r for r in results if isinstance(r, int)]
            rejected = [r for r in results if isinstance(r, OverloadedError)]
            assert rejected, "expected overload with a slow consumer and queue_limit=4"
            assert len(got) + len(rejected) == 200
            # Rejection is load-shedding, not corruption: accepted values
            # are still the contiguous exactly-once range.
            assert sorted(got) == list(range(len(got)))
            assert svc.batcher_stats.rejected == len(rejected)
            return svc

        run(main())

    def test_rejected_requests_have_no_side_effects(self):
        async def main():
            svc = CountingService(
                k_network([2, 2]), max_batch=1, queue_limit=1
            )
            async with svc:
                results = await asyncio.gather(
                    *(svc.fetch_and_increment() for _ in range(50)),
                    return_exceptions=True,
                )
                accepted = [r for r in results if isinstance(r, int)]
                # Whatever was rejected was never issued: the next request
                # continues the contiguous range with no gap.
                nxt = await svc.fetch_and_increment()
                assert nxt == len(accepted)
                assert svc.issued == len(accepted) + 1

        run(main())


class TestClientDisconnectMidInc:
    def test_disconnect_after_inc_does_not_wedge_server(self):
        """A client that sends INC and vanishes: its values are burned
        (issued, undeliverable), the handler survives the broken pipe, and
        the server keeps serving other clients without double-issuing."""

        async def main():
            service = CountingService(k_network([2, 3]))
            async with CountingServer(service, port=0) as server:
                host, port = server.address
                # Rude client: request 5 values, never read the reply.
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"INC 5\n")
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                # Let the server process the request against the dead socket.
                for _ in range(50):
                    if service.issued >= 5:
                        break
                    await asyncio.sleep(0.005)
                assert service.issued == 5, "the in-flight INC must still be served"
                # The server is alive and does not re-issue the burned values.
                c = await TCPCounterClient.connect(host, port)
                try:
                    assert await c.inc(2) == [5, 6]
                finally:
                    await c.close()

        run(main())

    def test_disconnect_mid_pipeline_other_clients_unaffected(self):
        async def main():
            service = CountingService(k_network([2, 3]))
            async with CountingServer(service, port=0) as server:
                host, port = server.address
                healthy = await TCPCounterClient.connect(host, port)
                try:
                    before = await healthy.inc()
                    # Rude client pipelines several requests and slams the door.
                    _, writer = await asyncio.open_connection(host, port)
                    writer.write(b"INC 3\nINC 4\n")
                    await writer.drain()
                    writer.close()
                    await writer.wait_closed()
                    for _ in range(50):
                        if service.issued >= len(before) + 7:
                            break
                        await asyncio.sleep(0.005)
                    after = await healthy.inc()
                    # No duplicates: the healthy client's values never collide
                    # with the burned ones.
                    assert set(after).isdisjoint(before)
                    assert max(before) < min(after)
                    # Server still tracks connections and serves stats.
                    stats = await healthy.stats()
                    assert stats["issued"] == service.issued
                finally:
                    await healthy.close()

        run(main())


class TestCancelledWaiter:
    def test_cancelled_request_burns_values_but_stays_exactly_once(self):
        """Cancelling a waiter mid-flight must not corrupt accounting: the
        batcher may still issue the values (burned), and later requests get
        fresh, non-overlapping values — the invariant the chaos audit
        checks statistically."""

        async def main():
            async with CountingService(k_network([2, 2])) as svc:
                task = asyncio.ensure_future(svc.fetch_and_increment_many(3))
                await asyncio.sleep(0)  # let it enqueue
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                values = await svc.fetch_and_increment_many(2)
                assert len(values) == len(set(values)) == 2
                # Everything issued is either delivered or burned — never
                # delivered twice.
                assert max(values) < svc.issued
                assert min(values) >= 0

        run(main())
