"""Shard workers: one process, one network slice, one executor, one WAL.

A shard is a full :class:`~repro.serve.service.CountingService` (own
:class:`~repro.core.plan.PlanExecutor`, own batcher) configured to serve
one residue class of the cluster's value space: shard ``i`` of ``S``
dispenses ``i, i+S, i+2S, ...`` (``value_base=i``, ``value_stride=S``).
That is the paper's decomposition applied one level up — the cluster
behaves like a width-``S`` balancer whose output wires are whole worker
processes, and exactly-once for the cluster reduces to exactly-once per
shard, which each shard re-verifies per batch as always.

Durability: every batch appends to the shard's :class:`TokenWAL` *before*
any waiter is acked (the service ``commit`` hook).  A killed shard is
restarted by the cluster supervisor with :func:`make_shard_service`, which
replays the log and :meth:`~repro.serve.service.CountingService.restore`\\ s
the token count — so a value acked before the kill is never re-issued.

:class:`ShardWorker` is the parent-side handle: it spawns the child with
the ``spawn`` multiprocessing context (no inherited event loops), waits
for the child's ready message (bound port + replayed token count), and can
``kill()`` it dead for chaos testing.  After the first start the bound
port is pinned into the spec so a restart listens on the same address and
the router's connections simply reconnect.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import os
import signal
from dataclasses import dataclass

from .wal import TokenWAL, WALReplay

__all__ = ["ShardSpec", "ShardWorker", "make_shard_service", "shard_main"]


@dataclass
class ShardSpec:
    """Everything a shard process needs, in picklable primitives."""

    shard_id: int
    num_shards: int
    factors: tuple[int, ...] = (2, 3)
    construction: str = "K"
    wal_path: str = ""
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral on first start; pinned after
    max_batch: int = 64
    queue_limit: int = 1024
    fsync: bool = True
    obs: bool = False

    def build_network(self):
        from ..networks import counting_network, k_network, l_network

        builders = {"K": k_network, "L": l_network, "C": counting_network}
        return builders[self.construction](list(self.factors))


def make_shard_service(spec: ShardSpec):
    """Build the shard's durable service: replay the WAL, wire the commit.

    Returns ``(service, wal, replay)``; the service is restored to the
    replayed token count and every future batch appends before acking.
    """
    net = spec.build_network()
    wal = TokenWAL.open(spec.wal_path, fsync=spec.fsync)
    replay: WALReplay = wal.last_replay
    from ..serve.service import CountingService

    service = CountingService(
        net,
        max_batch=spec.max_batch,
        queue_limit=spec.queue_limit,
        value_base=spec.shard_id,
        value_stride=spec.num_shards,
        commit=wal.append,
    )
    if replay.total:
        service.restore(replay.total)
        service._batch_seq = replay.seq
    return service, wal, replay


def shard_main(spec: ShardSpec, ready) -> None:
    """Child-process entry point: serve one shard until terminated.

    ``ready`` is the parent's pipe end; one dict is sent once the listening
    socket is bound (or an ``error`` dict if startup fails).
    """
    if spec.obs:
        from .. import obs

        obs.enable()
    try:
        service, wal, replay = make_shard_service(spec)
    except Exception as exc:  # noqa: BLE001 — report startup failure to parent
        ready.send({"shard_id": spec.shard_id, "error": f"{type(exc).__name__}: {exc}"})
        return

    from ..serve.server import CountingServer

    server = CountingServer(service, host=spec.host, port=spec.port)
    stop = asyncio.Event()

    async def run() -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        await server.start()
        ready.send(
            {
                "shard_id": spec.shard_id,
                "pid": os.getpid(),
                "port": server.address[1],
                "recovered_total": replay.total,
                "recovered_records": replay.records,
                "torn_bytes": replay.torn_bytes,
            }
        )
        try:
            await stop.wait()
        finally:
            await server.stop()
            wal.close()

    asyncio.run(run())


class ShardWorker:
    """Parent-side handle for one shard process."""

    def __init__(self, spec: ShardSpec, *, start_timeout: float = 60.0) -> None:
        self.spec = spec
        self.start_timeout = float(start_timeout)
        self.process: multiprocessing.process.BaseProcess | None = None
        self.port: int | None = spec.port or None
        self.restarts = -1  # first start() brings this to 0
        self.last_ready: dict | None = None

    @property
    def shard_id(self) -> int:
        return self.spec.shard_id

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def address(self) -> tuple[str, int]:
        if self.port is None:
            raise RuntimeError(f"shard {self.shard_id} was never started")
        return self.spec.host, self.port

    def start(self) -> dict:
        """Spawn the shard and block until its socket is bound (or fail)."""
        if self.alive:
            raise RuntimeError(f"shard {self.shard_id} is already running")
        ctx = multiprocessing.get_context("spawn")
        parent_end, child_end = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=shard_main,
            args=(self.spec, child_end),
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        self.process.start()
        child_end.close()
        if not parent_end.poll(self.start_timeout):
            self.process.kill()
            raise RuntimeError(f"shard {self.shard_id} did not come up in {self.start_timeout}s")
        info = parent_end.recv()
        parent_end.close()
        if "error" in info:
            self.process.join(timeout=5)
            raise RuntimeError(f"shard {self.shard_id} failed to start: {info['error']}")
        # Pin the bound port so a restart reuses the address the router knows.
        self.port = int(info["port"])
        self.spec = dataclasses.replace(self.spec, port=self.port)
        self.restarts += 1
        self.last_ready = info
        return info

    def kill(self) -> None:
        """SIGKILL — the chaos path: no cleanup, no WAL close, no flushing."""
        if self.process is not None:
            self.process.kill()
            self.process.join(timeout=10)

    def terminate(self, timeout: float = 10.0) -> None:
        """Graceful stop (SIGTERM, drains the batcher and closes the WAL)."""
        if self.process is None:
            return
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover — stuck child fallback
            self.process.kill()
            self.process.join(timeout=5)

    def as_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "pid": self.process.pid if self.process is not None else None,
            "port": self.port,
            "up": self.alive,
            "restarts": max(self.restarts, 0),
            "wal_path": self.spec.wal_path,
            "recovered_total": (self.last_ready or {}).get("recovered_total", 0),
        }
