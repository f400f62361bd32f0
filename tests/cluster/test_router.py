"""Router tests against in-process shard servers (no child processes).

Two :class:`CountingService`\\ s configured with the cluster's residue
parameters (``value_base=i``, ``value_stride=2``) behind real
:class:`CountingServer` sockets stand in for shard processes — the router
cannot tell the difference, and the tests stay fast and loop-local.
"""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro.cluster import ClientRateLimiter, ClusterRouter
from repro.networks import k_network
from repro.obs.exposition import parse_prometheus
from repro.serve import (
    CountingServer,
    CountingService,
    OverloadedError,
    TCPCounterClient,
    ThrottledError,
    audit_values,
)


def run(coro):
    return asyncio.run(coro)


@contextlib.asynccontextmanager
async def mini_cluster(num_shards=2, *, rate_limiter=None):
    """``num_shards`` in-process shard servers behind one router."""
    services = [
        CountingService(k_network([2, 2]), value_base=i, value_stride=num_shards)
        for i in range(num_shards)
    ]
    servers = []
    addresses = {}
    async with contextlib.AsyncExitStack() as stack:
        for i, svc in enumerate(services):
            server = await stack.enter_async_context(CountingServer(svc, port=0))
            servers.append(server)
            addresses[i] = server.address
        router = await stack.enter_async_context(
            ClusterRouter(addresses, port=0, rate_limiter=rate_limiter)
        )
        yield router


class TestLineMode:
    def test_values_partition_across_clients(self):
        async def main():
            async with mini_cluster(2) as router:
                host, port = router.address
                clients = [await TCPCounterClient.connect(host, port) for _ in range(6)]
                values = []
                for _ in range(10):
                    for c in clients:
                        values.extend(await c.inc())
                for c in clients:
                    await c.close()
                return values, router.forwarded

        values, forwarded = run(main())
        audit = audit_values(values, stride=2)
        assert audit["exactly_once"]
        assert forwarded == 60

    def test_one_connection_sticks_to_one_shard(self):
        async def main():
            async with mini_cluster(2) as router:
                client = await TCPCounterClient.connect(*router.address)
                values = []
                for _ in range(8):
                    values.extend(await client.inc())
                await client.close()
                return values

        values = run(main())
        residues = {v % 2 for v in values}
        assert len(residues) == 1  # pinned: one residue class end to end

    def test_stats_aggregates_the_cluster(self):
        async def main():
            async with mini_cluster(2) as router:
                client = await TCPCounterClient.connect(*router.address)
                for _ in range(5):
                    await client.inc(2)
                stats = await client.stats()
                await client.close()
                return stats

        stats = run(main())
        cluster = stats["cluster"]
        assert cluster["num_shards"] == 2
        assert cluster["value_stride"] == 2
        assert len(cluster["shards"]) == 2
        assert all(s["reachable"] for s in cluster["shards"])
        assert stats["issued"] == 10  # summed over shards
        assert "mode" not in cluster["router"]
        assert cluster["router"]["forwarded"] == 5

    def test_concurrent_control_verbs_do_not_desync(self):
        # Two connections ask STATS and METRICS at once.  Each shard is asked
        # over its own control connection per call, so neither request can
        # read the other's reply, and later stats are not stale.
        async def main():
            async with mini_cluster(2) as router:
                a, b = [await TCPCounterClient.connect(*router.address) for _ in range(2)]

                async def ask(client):
                    return await client.stats(), await client.metrics()

                burst = await asyncio.gather(ask(a), ask(b))
                for _ in range(3):
                    await a.inc()
                after = await b.stats()
                await a.close()
                await b.close()
                return burst, after

        burst, after = run(main())
        for stats, text in burst:
            assert stats["issued"] == 0
            assert all(s["reachable"] for s in stats["cluster"]["shards"])
            assert parse_prometheus(text)["repro_cluster_shards_up"]["samples"][0][1] == 2
        assert after["issued"] == 3
        assert all(s["reachable"] for s in after["cluster"]["shards"])

    def test_metrics_are_relabelled_and_parse(self):
        async def main():
            async with mini_cluster(2) as router:
                client = await TCPCounterClient.connect(*router.address)
                await client.inc()
                text = await client.metrics()
                await client.close()
                return text

        text = run(main())
        series = parse_prometheus(text)  # validates merged histograms too
        assert series["repro_cluster_num_shards"]["samples"][0][1] == 2
        assert series["repro_cluster_shards_up"]["samples"][0][1] == 2
        assert 'shard="0"' in text and 'shard="1"' in text

    def test_ping_and_flight_are_answered_locally(self):
        async def main():
            async with mini_cluster(1) as router:
                client = await TCPCounterClient.connect(*router.address)
                reader, writer = client._reader, client._writer
                writer.write(b"PING\n")
                await writer.drain()
                pong = await reader.readline()
                flight = await client.flight()
                await client.close()
                return pong, flight

        pong, flight = run(main())
        assert pong == b"OK pong\n"
        assert "router" in flight

    def test_bad_request_line(self):
        async def main():
            async with mini_cluster(1) as router:
                reader, writer = await asyncio.open_connection(*router.address)
                writer.write(b"BOGUS nonsense\n")
                await writer.drain()
                line = await reader.readline()
                writer.close()
                return line

        line = run(main())
        assert line.startswith(b"ERR bad-request")

    def test_rate_limit_rejects_with_throttled(self):
        async def main():
            limiter = ClientRateLimiter(rate=0.001, burst=2.0)
            async with mini_cluster(1, rate_limiter=limiter) as router:
                client = await TCPCounterClient.connect(*router.address)
                await client.inc()
                await client.inc()  # burst spent
                with pytest.raises(ThrottledError):
                    await client.inc()
                await client.close()
                return router.throttled, limiter.rejected

        throttled, rejected = run(main())
        assert throttled == 1
        assert rejected == 1

    def test_dead_shard_yields_overloaded(self):
        async def main():
            # Reserve a port nothing listens on.
            probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            addr = probe.sockets[0].getsockname()[:2]
            probe.close()
            await probe.wait_closed()
            async with ClusterRouter({0: addr}, port=0) as router:
                client = await TCPCounterClient.connect(*router.address)
                with pytest.raises(OverloadedError, match="unavailable"):
                    await client.inc()
                await client.close()
                return router.shard_errors

        assert run(main()) >= 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            ClusterRouter({})
        with pytest.raises(TypeError, match="mapping"):
            ClusterRouter(lambda sid: ("h", 1))

