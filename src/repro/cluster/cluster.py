"""Cluster assembly and supervision: shards + router + restart loop.

:class:`Cluster` owns the whole topology described in
:mod:`repro.cluster`: it spawns one :class:`~repro.cluster.shard.ShardWorker`
per residue class, fronts them with a :class:`~repro.cluster.router.ClusterRouter`,
and runs a supervisor task that restarts any shard found dead — each
restart replays that shard's WAL before the socket reopens, so a
``kill -9`` mid-load costs availability (a few rejected/risked requests)
but never duplicates a value.

A small JSON state file (``<wal_dir>/cluster.json``) records the router
address and per-shard pids/ports so ``repro cluster status``/``kill-shard``
in *another* process can find the running cluster.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass, field

from .ratelimit import ClientRateLimiter
from .router import ClusterRouter
from .shard import ShardSpec, ShardWorker

__all__ = ["ClusterConfig", "Cluster", "STATE_FILENAME"]

STATE_FILENAME = "cluster.json"


@dataclass
class ClusterConfig:
    """The whole cluster in picklable primitives (one per ``repro cluster start``)."""

    shards: int = 2
    wal_dir: str = ""
    factors: tuple[int, ...] = (2, 3)
    construction: str = "K"
    host: str = "127.0.0.1"
    router_port: int = 0
    mode: str = "line"
    max_batch: int = 64
    max_delay: float = 0.0
    queue_limit: int = 1024
    fsync: bool = True
    adaptive: bool = False
    obs: bool = False
    rate: float | None = None  # per-client tokens/second (None = no limiting)
    burst: float | None = None  # bucket capacity (defaults to 2×rate)
    replicas: int = 64
    supervise: bool = True
    poll_interval: float = 0.2
    start_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if not self.wal_dir:
            raise ValueError("wal_dir is required (one WAL file per shard lives there)")

    def shard_spec(self, shard_id: int) -> ShardSpec:
        return ShardSpec(
            shard_id=shard_id,
            num_shards=self.shards,
            factors=tuple(self.factors),
            construction=self.construction,
            wal_path=os.path.join(self.wal_dir, f"shard-{shard_id}.wal"),
            host=self.host,
            max_batch=self.max_batch,
            max_delay=self.max_delay,
            queue_limit=self.queue_limit,
            fsync=self.fsync,
            adaptive=self.adaptive,
            obs=self.obs,
        )

    @property
    def state_path(self) -> str:
        return os.path.join(self.wal_dir, STATE_FILENAME)


class Cluster:
    """A running sharded counting cluster (shards, router, supervisor)."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.workers = [
            ShardWorker(config.shard_spec(i), start_timeout=config.start_timeout)
            for i in range(config.shards)
        ]
        self.addresses: dict[int, tuple[str, int]] = {}
        self.router: ClusterRouter | None = None
        self.rate_limiter: ClientRateLimiter | None = None
        self.restarts = 0
        self._supervisor: asyncio.Task | None = None
        self._restarting: set[int] = set()
        self._started = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self.router is None:
            raise RuntimeError("cluster is not started")
        return self.router.address

    def worker_info(self) -> dict[int, dict]:
        return {w.shard_id: w.as_dict() for w in self.workers}

    @property
    def settled(self) -> bool:
        """Every shard is up and no restart is in flight.

        ``worker.alive`` flips True early in a restart (the process exists
        before its socket is bound), so waiters must check this, not
        per-worker aliveness, to know a chaos kill has been fully healed.
        """
        return all(w.alive for w in self.workers) and not self._restarting

    async def start(self) -> None:
        os.makedirs(self.config.wal_dir, exist_ok=True)
        for worker in self.workers:
            await asyncio.to_thread(worker.start)
            self.addresses[worker.shard_id] = worker.address
        if self.config.rate is not None:
            burst = self.config.burst if self.config.burst is not None else 2 * self.config.rate
            self.rate_limiter = ClientRateLimiter(self.config.rate, burst)
        self.router = ClusterRouter(
            self.addresses,
            host=self.config.host,
            port=self.config.router_port,
            mode=self.config.mode,
            rate_limiter=self.rate_limiter,
            replicas=self.config.replicas,
            worker_info=self.worker_info,
        )
        await self.router.start()
        if self.config.supervise:
            self._supervisor = asyncio.get_running_loop().create_task(self._supervise())
        self._started = True
        self.write_state()

    async def stop(self) -> None:
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
            self._supervisor = None
        if self.router is not None:
            await self.router.stop()
        for worker in self.workers:
            await asyncio.to_thread(worker.terminate)
        self._started = False
        try:
            os.unlink(self.config.state_path)
        except OSError:
            pass

    async def __aenter__(self) -> "Cluster":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # -- supervision ----------------------------------------------------------

    async def _supervise(self) -> None:
        """Restart dead shards forever (the chaos-recovery path)."""
        while True:
            await asyncio.sleep(self.config.poll_interval)
            for worker in self.workers:
                if not worker.alive and worker.shard_id not in self._restarting:
                    self._restarting.add(worker.shard_id)
                    try:
                        await self.restart_shard(worker.shard_id)
                    except Exception:  # noqa: BLE001 — keep supervising; retry next tick
                        pass
                    finally:
                        self._restarting.discard(worker.shard_id)

    async def restart_shard(self, shard_id: int) -> dict:
        """Bring one (dead) shard back: WAL replay + same pinned port."""
        worker = self.workers[shard_id]
        if worker.alive:
            raise RuntimeError(f"shard {shard_id} is alive; kill it first")
        info = await asyncio.to_thread(worker.start)
        self.addresses[worker.shard_id] = worker.address
        self.restarts += 1
        self.write_state()
        return info

    def kill_shard(self, shard_id: int) -> None:
        """SIGKILL one shard (chaos); the supervisor will restart it."""
        self.workers[shard_id].kill()

    # -- state ----------------------------------------------------------------

    def status(self) -> dict:
        return {
            "started": self._started,
            "router": {
                "host": self.config.host,
                "port": self.router.address[1] if self.router is not None else None,
                "mode": self.config.mode,
            },
            "num_shards": self.config.shards,
            "restarts": self.restarts,
            "wal_dir": self.config.wal_dir,
            "shards": [w.as_dict() for w in self.workers],
        }

    def write_state(self) -> None:
        """Atomically publish the state file other processes read."""
        state = self.status()
        state["pid"] = os.getpid()
        state["written_at"] = time.time()
        tmp = self.config.state_path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            json.dump(state, fh, indent=2)
        os.replace(tmp, self.config.state_path)

    @staticmethod
    def read_state(wal_dir: str) -> dict:
        """Read another process's state file (``repro cluster status``)."""
        with open(os.path.join(wal_dir, STATE_FILENAME), encoding="ascii") as fh:
            return json.load(fh)
