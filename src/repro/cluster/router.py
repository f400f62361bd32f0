"""The cluster front-end: one listening socket, many shard processes.

Clients connect to the router exactly as they would to a single
:class:`~repro.serve.server.CountingServer` — same line protocol, same
responses — and the router pins each connection to one shard via the
consistent :class:`~repro.cluster.hashing.HashRing` over the peer address.
Because shards dispense disjoint residue classes (shard ``i`` of ``S``
serves ``i + S·k``), a shard's ``OK`` line is already cluster-correct and
the router never rewrites payload bytes.

The router parses each request line.  ``INC`` passes through the
per-client token bucket (``ERR throttled`` when empty) and is forwarded
verbatim; ``STATS``/``METRICS`` are answered by the *router* with a
cluster-wide aggregation (per-shard stats merged, per-shard Prometheus
payloads relabelled with ``shard="i"``), each shard asked over a control
connection opened for that one call; ``PING``/``FLIGHT`` are answered
locally.

Failure semantics: the router never retries an ``INC`` on a dead shard —
a lost in-flight request must surface to the client (whose reconnect path
accounts the risked tokens for the exactly-once audit).  A shard that is
down at request time yields ``ERR overloaded shard <i> unavailable``,
which clients already treat as a clean, value-free rejection.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Mapping

from ..serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    encode_error,
    encode_payload,
    encode_stats,
    parse_request,
)
from .hashing import HashRing
from .ratelimit import ClientRateLimiter

__all__ = ["ClusterRouter"]


class _Upstream:
    """One client's lazily-opened connection to its shard."""

    __slots__ = ("reader", "writer")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer


class ClusterRouter:
    """Route one listening address onto a set of shard servers.

    Parameters
    ----------
    shards:
        ``{shard_id: (host, port)}`` or a callable ``shard_id -> (host,
        port)``.  Looked up per connection/reconnect, so a live mapping
        (ports are pinned across shard restarts) keeps routing correct
        through chaos.
    rate_limiter:
        Optional :class:`ClientRateLimiter`; each ``INC n`` costs ``n``.
    worker_info:
        Optional callable returning ``{shard_id: dict}`` of supervisor
        facts (pid, restarts, recovered_total) merged into ``STATS``.
    """

    def __init__(
        self,
        shards,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        rate_limiter: ClientRateLimiter | None = None,
        replicas: int = 64,
        worker_info: Callable[[], dict] | None = None,
    ) -> None:
        if callable(shards):
            raise TypeError("pass a mapping of shard addresses; a live dict works")
        if not isinstance(shards, Mapping) or not shards:
            raise ValueError("shards must be a non-empty mapping {shard_id: (host, port)}")
        self.shards = shards
        self.host = host
        self.port = port
        self.rate_limiter = rate_limiter
        self.worker_info = worker_info
        self.ring = HashRing(sorted(shards), replicas=replicas)
        self._server: asyncio.AbstractServer | None = None
        # Always-maintained counters (mirrored into METRICS).
        self.connections = 0
        self.active = 0
        self.forwarded = 0
        self.throttled = 0
        self.shard_errors = 0

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("router is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle_line, self.host, self.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "ClusterRouter":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    def shard_address(self, shard_id: int) -> tuple[str, int]:
        return tuple(self.shards[shard_id])

    def shard_for(self, key: str) -> int:
        return self.ring.node_for(key)

    def router_stats(self) -> dict:
        return {
            "connections": self.connections,
            "active": self.active,
            "forwarded": self.forwarded,
            "throttled": self.throttled,
            "shard_errors": self.shard_errors,
            "rate_limited_clients": len(self.rate_limiter) if self.rate_limiter else 0,
        }

    # -- forwarding -----------------------------------------------------------

    async def _handle_line(self, reader, writer) -> None:
        self.connections += 1
        self.active += 1
        peer = writer.get_extra_info("peername") or ("?", 0)
        key = f"{peer[0]}:{peer[1]}"
        shard_id = self.shard_for(key)
        upstream: _Upstream | None = None
        try:
            while True:
                try:
                    raw = await reader.readline()
                except ConnectionError:
                    return
                if not raw:
                    return
                if len(raw) > MAX_LINE_BYTES:
                    writer.write(encode_error("bad-request", "line too long"))
                    await writer.drain()
                    return
                try:
                    req = parse_request(raw.decode("ascii", errors="replace"))
                except ProtocolError as exc:
                    writer.write(encode_error("bad-request", str(exc)))
                    await writer.drain()
                    continue
                if req.verb == "inc":
                    if self.rate_limiter is not None and not self.rate_limiter.allow(
                        key, req.amount
                    ):
                        self.throttled += 1
                        writer.write(encode_error("throttled", f"client {key} over rate limit"))
                        await writer.drain()
                        continue
                    if upstream is None or upstream.writer.is_closing():
                        upstream = await self._connect_upstream(shard_id)
                        if upstream is None:
                            writer.write(
                                encode_error("overloaded", f"shard {shard_id} unavailable")
                            )
                            await writer.drain()
                            continue
                    response = await self._forward(upstream, raw)
                    if response is None:
                        # The shard died with this request in flight.  Do not
                        # retry (the values may be committed — the client's
                        # reconnect path accounts the risked tokens); drop the
                        # connection so the client knows the request is lost.
                        self.shard_errors += 1
                        upstream = None
                        return
                    self.forwarded += 1
                    writer.write(response)
                elif req.verb == "ping":
                    writer.write(b"OK pong\n")
                elif req.verb == "stats":
                    writer.write(encode_stats(await self.cluster_stats()))
                elif req.verb == "metrics":
                    body = await self.cluster_metrics()
                    writer.write(encode_payload(body.encode("ascii", errors="replace")))
                else:  # flight
                    writer.write(encode_payload(self._flight_json()))
                try:
                    await writer.drain()
                except ConnectionError:
                    return
        finally:
            self.active -= 1
            if self.rate_limiter is not None:
                self.rate_limiter.forget(key)
            if upstream is not None:
                upstream.writer.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _connect_upstream(self, shard_id: int) -> _Upstream | None:
        try:
            r, w = await asyncio.open_connection(*self.shard_address(shard_id))
        except (ConnectionError, OSError):
            self.shard_errors += 1
            return None
        return _Upstream(r, w)

    async def _forward(self, upstream: _Upstream, raw: bytes) -> bytes | None:
        """One request line to the shard, one response line back."""
        try:
            upstream.writer.write(raw)
            await upstream.writer.drain()
            line = await upstream.reader.readline()
        except (ConnectionError, OSError):
            return None
        if not line:
            return None
        return line

    # -- aggregation ----------------------------------------------------------

    async def cluster_stats(self) -> dict:
        """The cluster-wide ``STATS`` payload.

        Top-level keys mirror a single shard's stats (summed where that is
        meaningful) so existing consumers keep working; the ``"cluster"``
        key carries the router view and one entry per shard, which is what
        ``repro top`` switches its layout on.
        """
        shard_ids = sorted(self.shards)
        results = await asyncio.gather(*(self._shard_stats(sid) for sid in shard_ids))
        infos = {}
        if self.worker_info is not None:
            try:
                infos = self.worker_info()
            except Exception:  # noqa: BLE001 — supervisor info is best-effort
                infos = {}
        shards = []
        agg = {"issued": 0, "submitted": 0, "rejected": 0, "queue_depth": 0, "queue_limit": 0}
        network = None
        batch_means = []
        for sid, res in zip(shard_ids, results):
            host, port = self.shard_address(sid)
            entry = {"shard_id": sid, "host": host, "port": port}
            info = infos.get(sid, {})
            for k in ("pid", "up", "restarts", "recovered_total", "wal_path"):
                if k in info:
                    entry[k] = info[k]
            if res is None:
                entry["reachable"] = False
                entry.setdefault("up", False)
            else:
                stats, p99 = res
                entry["reachable"] = True
                entry.setdefault("up", True)
                for k in (
                    "issued",
                    "submitted",
                    "rejected",
                    "queue_depth",
                    "queue_limit",
                    "mean_batch_size",
                    "value_base",
                    "value_stride",
                ):
                    if k in stats:
                        entry[k] = stats[k]
                entry["request_p99_s"] = p99
                if network is None:
                    network = stats.get("network")
                for k in agg:
                    agg[k] += stats.get(k, 0) or 0
                if stats.get("mean_batch_size"):
                    batch_means.append(stats["mean_batch_size"])
            shards.append(entry)
        out = {
            "cluster": {
                "num_shards": len(shard_ids),
                "value_stride": len(shard_ids),
                "router": self.router_stats(),
                "shards": shards,
            },
            "network": network or {},
            "mean_batch_size": (sum(batch_means) / len(batch_means)) if batch_means else None,
        }
        out.update(agg)
        return out

    async def _shard_stats(self, shard_id: int):
        """``(stats, request_p99_s)`` for one shard, None when unreachable."""

        async def ask(client):
            return await client.stats(), await self._shard_p99(client)

        return await self._ask(shard_id, ask)

    async def _shard_p99(self, client) -> float | None:
        """p99 request latency from the shard's own METRICS, when obs is on."""
        from ..obs.exposition import (
            histogram_from_samples,
            parse_prometheus,
            percentile_from_buckets,
        )

        try:
            series = parse_prometheus(await client.metrics())
            hist = histogram_from_samples(series, "repro_serve_request_seconds")
            if hist is None:
                return None
            bounds, cum, _sum, total = hist
            if not total:
                return None
            hmax = series.get("repro_serve_request_seconds_max")
            max_value = hmax["samples"][0][1] if hmax else None
            return float(percentile_from_buckets(bounds, cum, 99, max_value=max_value))
        except (ConnectionError, OSError, ValueError):
            return None

    async def cluster_metrics(self) -> str:
        """The cluster-wide ``METRICS`` payload.

        The router's own counters render first; then every reachable
        shard's exposition, relabelled with ``shard="i"`` and merged with
        de-duplicated ``# TYPE`` lines — one scrape, per-shard series.
        """
        from ..obs.exposition import merge_expositions, relabel_exposition, render_registry
        from ..obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.gauge("cluster.num_shards").set(len(self.shards))
        reg.counter("cluster.router_connections_total").inc(self.connections)
        reg.gauge("cluster.router_active_connections").set(self.active)
        reg.counter("cluster.router_forwarded_total").inc(self.forwarded)
        reg.counter("cluster.router_throttled_total").inc(self.throttled)
        reg.counter("cluster.router_shard_errors_total").inc(self.shard_errors)
        if self.rate_limiter is not None:
            reg.counter("cluster.router_rate_rejected_total").inc(self.rate_limiter.rejected)
        shard_ids = sorted(self.shards)
        results = await asyncio.gather(
            *(self._ask(sid, lambda client: client.metrics()) for sid in shard_ids)
        )
        shard_texts = [
            relabel_exposition(text, {"shard": str(sid)})
            for sid, text in zip(shard_ids, results)
            if text is not None
        ]
        up_reg = MetricsRegistry()
        up_reg.gauge("cluster.shards_up").set(len(shard_texts))
        return merge_expositions([render_registry(reg), render_registry(up_reg), *shard_texts])

    def _flight_json(self) -> bytes:
        import json

        from ..obs.flight import flight_payload

        payload = flight_payload("on-demand", detail="router FLIGHT")
        payload["router"] = self.router_stats()
        return (json.dumps(payload, default=str) + "\n").encode("ascii", errors="replace")

    # -- control connections --------------------------------------------------

    async def _ask(self, shard_id: int, ask):
        """Open a control connection to one shard, ``await ask(client)`` on
        it, and close it; None when the shard is unreachable or the exchange
        fails.  Every call dials its own connection, so concurrent
        ``STATS``/``METRICS`` from many clients never share (and never
        desynchronise) one reply stream."""
        from ..serve.loadgen import TCPCounterClient

        try:
            client = await TCPCounterClient.connect(*self.shard_address(shard_id))
        except (ConnectionError, OSError):
            return None
        try:
            return await ask(client)
        except (ConnectionError, OSError, ProtocolError):
            return None
        finally:
            await client.close()
