"""Tests for the load generator: both loops, both targets, the report."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.networks import k_network
from repro.serve import CountingServer, CountingService, LoadGenerator, LoadReport


def run(coro):
    return asyncio.run(coro)


class TestClosedLoop:
    def test_in_process_report(self):
        async def main():
            async with CountingService(k_network([2, 3])) as svc:
                gen = LoadGenerator(mode="closed", clients=8, ops=10, seed=2)
                return await gen.run_service(svc)

        rep = run(main())
        assert rep.requests == 80
        assert rep.tokens == 80
        assert rep.rejected == 0
        assert rep.exactly_once
        assert rep.throughput > 0
        assert len(rep.latencies_s) == 80
        assert rep.latency_percentile(50) <= rep.latency_percentile(99)
        # High client counts must drive mean batch size above 1.
        assert rep.service_stats["mean_batch_size"] > 1

    def test_vector_amounts(self):
        async def main():
            async with CountingService(k_network([2, 2])) as svc:
                gen = LoadGenerator(mode="closed", clients=4, ops=5, amount=3)
                return await gen.run_service(svc)

        rep = run(main())
        assert rep.tokens == 4 * 5 * 3
        assert rep.exactly_once

    def test_tcp_target(self):
        async def main():
            svc = CountingService(k_network([2, 3]))
            async with CountingServer(svc, port=0) as server:
                gen = LoadGenerator(mode="closed", clients=6, ops=8, seed=0)
                return await gen.run_tcp(*server.address)

        rep = run(main())
        assert rep.tokens == 48
        assert rep.exactly_once
        # service stats came over the wire
        assert rep.service_stats["issued"] == 48


class TestOpenLoop:
    def test_open_loop_accounting(self):
        async def main():
            async with CountingService(k_network([2, 3])) as svc:
                gen = LoadGenerator(mode="open", clients=4, ops=60, rate=5000.0, seed=9)
                return await gen.run_service(svc)

        rep = run(main())
        assert rep.requests == 60
        assert len(rep.latencies_s) + rep.rejected == 60
        assert rep.tokens == 60 - rep.rejected
        assert rep.exactly_once  # whatever was accepted is contiguous

    def test_overload_counted_not_raised(self):
        async def main():
            svc = CountingService(
                k_network([2, 2]), max_batch=1, queue_limit=1
            )
            async with svc:
                gen = LoadGenerator(mode="open", clients=2, ops=200, rate=1e6, seed=5)
                return await gen.run_service(svc)

        rep = run(main())
        assert rep.rejected > 0
        assert rep.exactly_once

    def test_seeded_schedule_is_deterministic(self):
        # The arrival schedule is a pure function of (seed, rate, ops).
        g1 = LoadGenerator(mode="open", ops=50, rate=1000.0, seed=42)
        g2 = LoadGenerator(mode="open", ops=50, rate=1000.0, seed=42)
        s1 = np.cumsum(np.random.default_rng(g1.seed).exponential(1 / g1.rate, g1.ops))
        s2 = np.cumsum(np.random.default_rng(g2.seed).exponential(1 / g2.rate, g2.ops))
        assert np.array_equal(s1, s2)


class TestReport:
    def test_bench_payload_shape(self):
        async def main():
            async with CountingService(k_network([2, 3])) as svc:
                gen = LoadGenerator(mode="closed", clients=4, ops=6, seed=1)
                return await gen.run_service(svc)

        payload = run(main()).bench_payload()
        summary = payload["summary"]
        for key in (
            "throughput",
            "latency_p50_s",
            "latency_p99_s",
            "mean_batch_size",
            "exactly_once",
            "seed",
        ):
            assert key in summary, key
        assert isinstance(payload["batch_size_hist"], dict)
        assert payload["service"]["issued"] == 24

    def test_empty_report_is_nan_not_crash(self):
        rep = LoadReport(
            mode="closed",
            clients=1,
            requests=0,
            rejected=0,
            values=[],
            latencies_s=np.array([]),
            duration_s=0.0,
        )
        assert rep.throughput != rep.throughput  # nan
        assert not rep.exactly_once
        assert rep.summary()["latency_p50_s"] is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "sideways"},
            {"clients": 0},
            {"ops": 0},
            {"amount": 0},
            {"rate": 0.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LoadGenerator(**kwargs)


class TestAuditValues:
    def test_contiguous_single_stride(self):
        from repro.serve import audit_values

        audit = audit_values([0, 1, 2, 3, 4])
        assert audit["exactly_once"]
        assert audit["gap_total"] == 0
        assert audit["duplicates"] == 0

    def test_duplicates_are_counted(self):
        from repro.serve import audit_values

        audit = audit_values([0, 1, 1, 2])
        assert not audit["exactly_once"]
        assert audit["duplicates"] == 1
        assert not audit["distinct"]

    def test_gaps_inside_a_class_span(self):
        from repro.serve import audit_values

        audit = audit_values([0, 1, 3, 4])  # 2 is missing
        assert audit["gap_total"] == 1
        assert not audit["exactly_once"]

    def test_residue_classes_audit_independently(self):
        from repro.serve import audit_values

        # Two shards of stride 2, each contiguous in its own class but with
        # very different totals — globally full of "holes", still exactly-once.
        values = [0, 2, 4, 6] + [1, 3]
        audit = audit_values(values, stride=2)
        assert audit["exactly_once"]
        assert audit["classes"][0]["n"] == 4
        assert audit["classes"][1]["n"] == 2

    def test_class_gap_detected_at_stride(self):
        from repro.serve import audit_values

        audit = audit_values([0, 2, 6, 1, 3], stride=2)  # class 0 missing 4
        assert audit["gap_total"] == 1
        assert audit["classes"][0]["gaps"] == 1
        assert audit["classes"][1]["gaps"] == 0

    def test_empty_is_not_exactly_once(self):
        from repro.serve import audit_values

        assert not audit_values([])["exactly_once"]

    def test_stride_validation(self):
        from repro.serve import audit_values

        with pytest.raises(ValueError):
            audit_values([1], stride=0)


class DroppyCounterServer:
    """A line-protocol counter that drops each connection once, mid-request.

    The first ``INC`` on every fresh connection is answered by closing the
    socket with no response — exactly the failure surface a router exposes
    when its shard dies with a request in flight.  Subsequent connections
    serve sequential values normally.
    """

    def __init__(self, drops: int = 1):
        self.drops_left = drops
        self.next_value = 0
        self.connections = 0
        self._server = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        return self

    async def __aexit__(self, *exc):
        self._server.close()
        await self._server.wait_closed()

    @property
    def address(self):
        return self._server.sockets[0].getsockname()[:2]

    async def _handle(self, reader, writer):
        self.connections += 1
        while True:
            line = await reader.readline()
            if not line:
                break
            if self.drops_left > 0:
                self.drops_left -= 1
                break  # drop the connection with the request unanswered
            amount = int(line.split()[1]) if len(line.split()) > 1 else 1
            vals = range(self.next_value, self.next_value + amount)
            self.next_value += amount
            writer.write(f"OK {' '.join(map(str, vals))}\n".encode())
            await writer.drain()
        writer.close()


class TestReconnect:
    def test_inc_survives_a_dropped_connection(self):
        from repro.serve import TCPCounterClient

        async def main():
            async with DroppyCounterServer(drops=1) as server:
                host, port = server.address
                client = await TCPCounterClient.connect(
                    host, port, reconnect=True, backoff_base=0.001, backoff_seed=3
                )
                vals = await client.inc()
                more = await client.inc()
                await client.close()
                return vals, more, client, server.connections

        vals, more, client, connections = run(main())
        assert vals == [0]
        assert more == [1]
        assert client.reconnects == 1
        assert client.risked == 1
        assert connections == 2

    def test_without_reconnect_the_error_surfaces(self):
        from repro.serve import TCPCounterClient

        async def main():
            async with DroppyCounterServer(drops=1) as server:
                client = await TCPCounterClient.connect(*server.address)
                await client.inc()

        with pytest.raises((ConnectionError, asyncio.IncompleteReadError, EOFError)):
            run(main())

    def test_gives_up_after_max_retries(self):
        from repro.serve import TCPCounterClient

        async def main():
            async with DroppyCounterServer(drops=100) as server:
                client = await TCPCounterClient.connect(
                    *server.address,
                    reconnect=True,
                    max_retries=2,
                    backoff_base=0.001,
                )
                await client.inc()

        with pytest.raises(ConnectionError):
            run(main())

    def test_backoff_is_capped_jittered_and_seeded(self):
        from repro.serve import TCPCounterClient

        async def main():
            async with DroppyCounterServer(drops=0) as server:
                a = await TCPCounterClient.connect(
                    *server.address, reconnect=True, backoff_seed=42,
                    backoff_base=0.05, backoff_cap=2.0,
                )
                b = await TCPCounterClient.connect(
                    *server.address, reconnect=True, backoff_seed=42,
                    backoff_base=0.05, backoff_cap=2.0,
                )
                delays_a = [a.backoff_delay(k) for k in range(12)]
                delays_b = [b.backoff_delay(k) for k in range(12)]
                await a.close()
                await b.close()
                return delays_a, delays_b

        delays_a, delays_b = run(main())
        assert delays_a == delays_b  # same seed, same schedule
        assert all(d <= 2.0 for d in delays_a)  # capped
        assert all(d >= 0.5 * 0.05 for d in delays_a)  # jitter floor of first step
        assert delays_a[1] != delays_a[2] or delays_a[2] != delays_a[3]
