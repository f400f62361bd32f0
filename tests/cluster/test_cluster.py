"""Full-cluster tests: real shard processes, supervision, kill → replay."""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.serve import TCPCounterClient, audit_values


def run(coro):
    return asyncio.run(coro)


def config_for(tmp_path, **kw):
    defaults = dict(
        shards=2,
        wal_dir=str(tmp_path / "wal"),
        factors=(2, 2),
        fsync=False,
        supervise=False,
        poll_interval=0.1,
    )
    defaults.update(kw)
    return ClusterConfig(**defaults)


async def wait_settled(cluster, timeout=30.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not cluster.settled:
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("cluster did not settle after the kill")
        await asyncio.sleep(0.05)


class TestClusterConfig:
    def test_requires_wal_dir(self):
        with pytest.raises(ValueError, match="wal_dir"):
            ClusterConfig(shards=2)

    def test_requires_positive_shards(self, tmp_path):
        with pytest.raises(ValueError, match="shards"):
            ClusterConfig(shards=0, wal_dir=str(tmp_path))

    def test_shard_specs_partition_the_value_space(self, tmp_path):
        cfg = config_for(tmp_path, shards=3)
        specs = [cfg.shard_spec(i) for i in range(3)]
        assert [s.shard_id for s in specs] == [0, 1, 2]
        assert all(s.num_shards == 3 for s in specs)
        assert len({s.wal_path for s in specs}) == 3


class TestClusterLifecycle:
    def test_start_serve_state_file_stop(self, tmp_path):
        cfg = config_for(tmp_path)

        async def main():
            async with Cluster(cfg) as cluster:
                host, port = cluster.address
                clients = [await TCPCounterClient.connect(host, port) for _ in range(4)]
                values = []
                for _ in range(10):
                    for c in clients:
                        values.extend(await c.inc())
                for c in clients:
                    await c.close()

                state = Cluster.read_state(cfg.wal_dir)
                status = cluster.status()

                with pytest.raises(RuntimeError, match="alive"):
                    await cluster.restart_shard(0)
                return values, state, status

        values, state, status = run(main())
        audit = audit_values(values, stride=2)
        assert audit["exactly_once"]
        assert len(values) == 40

        assert state["num_shards"] == 2
        assert set(state["router"]) == {"host", "port"}  # one forwarding path: no mode
        assert state["pid"] == os.getpid()
        assert len(state["shards"]) == 2
        assert all(s["up"] for s in state["shards"])
        assert status["started"]
        assert status["restarts"] == 0
        # stop() removed the published state file.
        assert not os.path.exists(cfg.state_path)

    def test_kill_restart_replays_to_exactly_once(self, tmp_path):
        cfg = config_for(tmp_path, supervise=True)

        async def main():
            async with Cluster(cfg) as cluster:
                host, port = cluster.address
                client = await TCPCounterClient.connect(
                    host, port, reconnect=True, backoff_base=0.02, backoff_seed=7
                )
                first = []
                for _ in range(30):
                    first.extend(await client.inc())
                victim = first[0] % 2  # the shard this connection is pinned to

                cluster.kill_shard(victim)
                await wait_settled(cluster)
                assert cluster.restarts == 1
                assert cluster.workers[victim].restarts == 1

                second = []
                for _ in range(20):
                    second.extend(await client.inc())
                risked = client.risked
                await client.close()

                info = cluster.workers[victim].last_ready
                return first, second, risked, info

        first, second, risked, info = run(main())
        audit = audit_values(first + second, stride=2)
        assert audit["duplicates"] == 0, "WAL replay under-counted: duplicate values"
        # Every value acked before the kill was WAL-durable, so replay resumed
        # past all of them.
        assert info["recovered_total"] >= sum(1 for v in first if v % 2 == first[0] % 2)
        # Gaps only from requests the client itself risked across the drop.
        assert audit["gap_total"] <= risked
        assert len(first) + len(second) == 50
