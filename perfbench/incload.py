"""Closed-loop ``INC`` load: the durable cluster over TCP and the wide in-process service.

Both workloads issue ``INC 1`` from a closed loop (a client sends its next
request only after the previous reply), time every request from the
client side, and audit every value handed out with the stride-aware
exactly-once audit.  A request that fails or is refused counts as failed.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from common import (
    ROOT,
    BenchError,
    child_env,
    fs_type,
    median,
    latency_metrics,
    metric,
    tail_summary,
)

#: Closed-loop TCP connections for ``inc-durable-tcp``: one per core.
TCP_CONNECTIONS = os.cpu_count() or 2
#: Coroutine clients for ``inc-wide-inproc``: 1.5x ``max_batch``, so batches
#: fill instead of lingering.  At exact multiples of ``max_batch`` (64, 128)
#: the latency distribution has two modes whose mix drifts from run to run,
#: and the p50 jumps between them.
INPROC_CLIENTS = 96
#: ``inc-wide-inproc`` serves K(2^10): width 1024, depth 117.
INPROC_FACTORS = [2] * 10
SETUP_REPEATS = 3
WARMUP_S = 0.5


# -- the cluster as a child process -----------------------------------------


def ping(addr, timeout: float = 2.0) -> bool:
    """One ``PING`` on a fresh connection; True on ``OK pong``."""
    try:
        with socket.create_connection(addr, timeout=timeout) as sock:
            sock.sendall(b"PING\n")
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = sock.recv(64)
                if not chunk:
                    return False
                buf += chunk
    except OSError:
        return False
    return buf == b"OK pong\n"


class ClusterProcess:
    """``repro cluster start --shards 1`` at default settings, in its own session.

    The shard process is a grandchild; the own session lets :meth:`stop`
    make sure nothing the cluster started outlives it.
    """

    def __init__(self, workdir: Path, name: str, *, obs: bool = False) -> None:
        self.wal_dir = workdir / name
        self.log_path = workdir / f"{name}.log"
        self.obs = obs
        self.proc: subprocess.Popen | None = None
        self.router: tuple[str, int] | None = None
        self.shard: tuple[str, int] | None = None
        self._log = None

    def start(self, timeout: float = 90.0) -> float:
        """Spawn the cluster; return seconds from spawn until the router answers PING."""
        cmd = [sys.executable, "-m", "repro", "cluster", "start", "--shards", "1",
               "--wal-dir", str(self.wal_dir)]
        if self.obs:
            cmd.append("--obs")
        self._log = open(self.log_path, "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        state_path = self.wal_dir / "cluster.json"
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"cluster exited with {self.proc.returncode}: {self.log_tail()}")
            if time.perf_counter() - t0 > timeout:
                raise BenchError(f"cluster did not answer PING within {timeout}s")
            try:
                state = json.loads(state_path.read_text())
            except (OSError, ValueError):
                time.sleep(0.002)
                continue
            host = state["router"]["host"]
            self.router = (host, int(state["router"]["port"]))
            self.shard = (host, int(state["shards"][0]["port"]))
            if ping(self.router):
                return time.perf_counter() - t0

    def log_tail(self, limit: int = 2000) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-limit:]
        except OSError:
            return ""

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (the CLI stops its shards and closes the WAL), then reap the session."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        self.proc = None
        if self._log is not None:
            self._log.close()
            self._log = None


# -- closed-loop load -------------------------------------------------------


class Sample:
    """What a closed loop saw: completion time and latency of each measured
    request, every value handed out, and failures."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.values: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.elapsed = 0.0

    def p50_ms(self) -> float:
        return median(self.latencies) * 1e3

    def summary(self) -> dict:
        out = {
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_frac": self.failed / self.attempted if self.attempted else None,
            "errors": self.errors,
            "elapsed_s": self.elapsed,
        }
        if self.latencies:
            out.update(tail_summary(self.latencies))
        return out


async def drive(submits, seconds: float, sample: Sample, *, measure: bool = True) -> None:
    """Run one closed-loop window: each ``submit()`` is one client's ``INC 1``.

    A refused or failed request is counted and the client carries on; a
    dropped connection is counted and ends that client.
    """
    from repro.serve.batching import OverloadedError
    from repro.serve.protocol import ProtocolError
    from repro.serve.service import ExactlyOnceError

    t_start = time.perf_counter()
    t_end = t_start + seconds
    last = t_start

    def fail(exc: BaseException) -> None:
        sample.failed += 1
        name = type(exc).__name__
        sample.errors[name] = sample.errors.get(name, 0) + 1

    async def client(submit) -> None:
        nonlocal last
        while time.perf_counter() < t_end:
            sample.attempted += 1
            t0 = time.perf_counter()
            try:
                got = await submit()
            except (OverloadedError, ProtocolError, ExactlyOnceError) as exc:
                fail(exc)
                continue
            except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
                fail(exc)
                return
            t1 = time.perf_counter()
            sample.values.extend(got)
            if measure:
                sample.latencies.append(t1 - t0)
                last = max(last, t1)

    await asyncio.gather(*(client(s) for s in submits))
    if measure:
        sample.elapsed += last - t_start


class TCPClients:
    """``n`` protocol connections to one address (router or shard)."""

    def __init__(self, clients) -> None:
        self.clients = clients

    @classmethod
    async def open(cls, addr, n: int) -> "TCPClients":
        from repro.serve.loadgen import TCPCounterClient

        return cls([await TCPCounterClient.connect(*addr) for _ in range(n)])

    @property
    def submits(self):
        return [lambda c=c: c.inc(1) for c in self.clients]

    async def close(self) -> None:
        for c in self.clients:
            await c.close()


def audit(result, values, name: str) -> dict:
    """Stride-1 exactly-once audit over every value one counter handed out."""
    from repro.serve.loadgen import audit_values

    rep = audit_values(values, 1)
    result.gate(f"{name}.exactly_once", rep["exactly_once"])
    return {k: rep[k] for k in ("n", "duplicates", "gap_total", "exactly_once")}


def inc_metrics(result, sample: Sample, setup_s: list[float]) -> None:
    """The end-to-end metrics of an ``inc-*`` run (omitted when nothing succeeded)."""
    result.attempted += sample.attempted
    result.failed += sample.failed
    result.metrics["setup_s"] = metric(median(setup_s), "s")
    if sample.latencies:
        result.metrics.update(latency_metrics(sample.latencies, 1, sample.elapsed))


# -- inc-durable-tcp ----------------------------------------------------------


async def cluster_load(cluster: ClusterProcess, seconds: float) -> tuple[Sample, dict]:
    """Warm up, then one measured closed-loop window through the router."""
    router = await TCPClients.open(cluster.router, TCP_CONNECTIONS)
    try:
        sample = Sample()
        await drive(router.submits, WARMUP_S, sample, measure=False)
        await drive(router.submits, seconds, sample)
        stats = await router.clients[0].stats()
    finally:
        await router.close()
    return sample, stats


def start_clusters(scratch: Path, repeats: int) -> tuple[list[float], ClusterProcess]:
    """Start ``repeats`` fresh clusters for the set-up time; keep the last running."""
    setup_s = []
    for i in range(repeats):
        cluster = ClusterProcess(scratch, f"setup-{i}")
        try:
            setup_s.append(cluster.start())
        except BaseException:
            cluster.stop()
            raise
        if i < repeats - 1:
            cluster.stop()
    return setup_s, cluster


def run_durable_tcp(result, scratch: Path, seed: int, seconds: float) -> None:
    """``inc-durable-tcp``: closed loop of ``INC 1`` over ``nproc`` connections."""
    setup_s, cluster = start_clusters(scratch, SETUP_REPEATS)
    try:
        sample, stats = asyncio.run(cluster_load(cluster, seconds))
    finally:
        cluster.stop()
    inc_metrics(result, sample, setup_s)
    result.record.update(
        config={"cluster": "repro cluster start --shards 1 (defaults: line router, "
                "fsync WAL, K(2,3), max_batch 64, max_delay 1 ms)",
                "connections": TCP_CONNECTIONS, "warmup_s": WARMUP_S},
        transport="loopback TCP to 127.0.0.1",
        wal_fs=fs_type(scratch),
        setup_runs_s=setup_s,
        load=sample.summary(),
        mean_batch=stats.get("mean_batch_size"),
        audit=audit(result, sample.values, "inc-durable-tcp"),
    )


# -- inc-wide-inproc ----------------------------------------------------------


async def start_service(net_factory):
    """Cold-build the network and start a default service; return (seconds, service)."""
    from repro.networks.counting import clear_construction_cache
    from repro.serve.service import CountingService

    clear_construction_cache()
    t0 = time.perf_counter()
    svc = CountingService(net_factory())
    await svc.start()
    return time.perf_counter() - t0, svc


def wide_network():
    from repro.networks import k_network

    return k_network(INPROC_FACTORS)


def inproc_submits(svc) -> list:
    return [lambda: svc.fetch_and_increment_many(1)] * INPROC_CLIENTS


async def inproc_load(svc, seconds: float) -> Sample:
    """Warm up, then one measured window of ``INPROC_CLIENTS`` coroutine clients."""
    sample = Sample()
    await drive(inproc_submits(svc), WARMUP_S, sample, measure=False)
    await drive(inproc_submits(svc), seconds, sample)
    return sample


def run_wide_inproc(result, seed: int, seconds: float, net_factory=wide_network) -> None:
    """``inc-wide-inproc``: ``INPROC_CLIENTS`` coroutine clients against ``CountingService(K(2^10))``."""

    async def main():
        setup_s = []
        svc = None
        for _ in range(SETUP_REPEATS):
            if svc is not None:
                await svc.stop()
            dt, svc = await start_service(net_factory)
            setup_s.append(dt)
        try:
            sample = await inproc_load(svc, seconds)
        finally:
            await svc.stop()
        return setup_s, svc, sample

    setup_s, svc, sample = asyncio.run(main())
    result.check_depth(svc.net, len(INPROC_FACTORS))
    inc_metrics(result, sample, setup_s)
    stats = svc.stats()
    result.record.update(
        config={"network": svc.net.name, "width": svc.net.width, "depth": svc.net.depth,
                "clients": INPROC_CLIENTS, "max_batch": stats["max_batch"],
                "max_delay": stats["max_delay"], "validate": svc.validate,
                "warmup_s": WARMUP_S},
        transport="in-process (one event loop, no sockets)",
        setup_runs_s=setup_s,
        load=sample.summary(),
        mean_batch=stats["mean_batch_size"],
        audit=audit(result, sample.values, "inc-wide-inproc"),
    )
