"""Shard services and workers: residue classes, WAL commits, kill/restart."""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster.shard import ShardSpec, ShardWorker, make_shard_service
from repro.cluster.wal import replay
from repro.serve import TCPCounterClient, audit_values


def run(coro):
    return asyncio.run(coro)


def spec_for(tmp_path, shard_id=1, num_shards=3, **kw):
    defaults = dict(
        shard_id=shard_id,
        num_shards=num_shards,
        factors=(2, 2),
        wal_path=str(tmp_path / f"shard-{shard_id}.wal"),
        fsync=False,
    )
    defaults.update(kw)
    return ShardSpec(**defaults)


class TestMakeShardService:
    def test_values_come_from_the_residue_class(self, tmp_path):
        spec = spec_for(tmp_path, shard_id=1, num_shards=3)

        async def main():
            service, wal, rep = make_shard_service(spec)
            assert rep.total == 0
            async with service:
                vals = await asyncio.gather(
                    *(service.fetch_and_increment() for _ in range(20))
                )
            wal.close()
            return vals

        vals = run(main())
        assert sorted(vals) == [1 + 3 * k for k in range(20)]

    def test_every_batch_is_committed_before_ack(self, tmp_path):
        spec = spec_for(tmp_path)

        async def main():
            service, wal, _ = make_shard_service(spec)
            async with service:
                await service.fetch_and_increment_many(5)
                # The ack has happened, so the WAL already holds the batch.
                assert wal.total == 5
                await service.fetch_and_increment_many(3)
                assert wal.total == 8
            wal.close()

        run(main())
        rep = replay(spec.wal_path)
        assert rep.total == 8
        assert rep.clean

    def test_restart_replays_and_never_reissues(self, tmp_path):
        spec = spec_for(tmp_path, shard_id=0, num_shards=2)

        async def issue(n):
            service, wal, rep = make_shard_service(spec)
            async with service:
                vals = await asyncio.gather(
                    *(service.fetch_and_increment() for _ in range(n))
                )
            wal.close()
            return rep, vals

        rep1, first = run(issue(12))
        rep2, second = run(issue(9))
        assert rep1.total == 0
        assert rep2.total == 12  # replayed state, not zero
        audit = audit_values(first + second, stride=2)
        assert audit["duplicates"] == 0
        assert audit["exactly_once"]

    def test_wal_seq_continues_after_restart(self, tmp_path):
        spec = spec_for(tmp_path)

        async def one_batch():
            service, wal, _ = make_shard_service(spec)
            async with service:
                await service.fetch_and_increment()
            seq = wal.seq
            wal.close()
            return seq

        seq1 = run(one_batch())
        seq2 = run(one_batch())
        assert seq2 > seq1  # restored _batch_seq keeps the log monotonic


class TestShardWorker:
    def test_spawn_kill_restart_round_trip(self, tmp_path):
        spec = spec_for(tmp_path, shard_id=0, num_shards=2)
        worker = ShardWorker(spec, start_timeout=60.0)
        info = worker.start()
        try:
            assert worker.alive
            assert worker.restarts == 0
            assert info["recovered_total"] == 0
            host, port = worker.address

            async def grab(n):
                client = await TCPCounterClient.connect(host, port)
                vals = []
                for _ in range(n):
                    vals.extend(await client.inc())
                await client.close()
                return vals

            first = run(grab(10))
            worker.kill()
            assert not worker.alive

            info2 = worker.start()
            assert worker.restarts == 1
            assert worker.address == (host, port)  # port pinned across restarts
            assert info2["recovered_total"] >= len(first)

            second = run(grab(6))
            audit = audit_values(first + second, stride=2)
            assert audit["duplicates"] == 0
            assert audit["exactly_once"]
            assert worker.as_dict()["recovered_total"] == info2["recovered_total"]
        finally:
            worker.terminate()

    def test_double_start_raises(self, tmp_path):
        worker = ShardWorker(spec_for(tmp_path))
        worker.start()
        try:
            with pytest.raises(RuntimeError, match="already running"):
                worker.start()
        finally:
            worker.terminate()

    def test_address_before_start_raises(self, tmp_path):
        worker = ShardWorker(spec_for(tmp_path))
        with pytest.raises(RuntimeError, match="never started"):
            worker.address
