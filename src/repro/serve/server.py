"""Asyncio TCP front-end for :class:`~repro.serve.service.CountingService`.

Each client connection is handled by one coroutine reading request lines
(see :mod:`repro.serve.protocol`) and awaiting the service; requests from
*different* connections land in the same batcher queue, so concurrency
across connections is what drives batch sizes up.  Within one connection
requests are processed in order — clients wanting parallelism open several
connections (exactly what :class:`~repro.serve.loadgen.LoadGenerator`
does).

Overload is a *response*, not a disconnect: a rejected request yields
``ERR overloaded ...`` and the connection stays usable, so well-behaved
clients can back off and retry without re-handshaking.
"""

from __future__ import annotations

import asyncio

from ..obs import runtime as _obs
from .batching import OverloadedError
from .protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    encode_error,
    encode_payload,
    encode_stats,
    encode_values,
    parse_request,
)
from .service import CountingService

__all__ = ["CountingServer"]


class CountingServer:
    """Serve a :class:`CountingService` over a TCP line protocol.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    :meth:`start`.  The server owns the service lifecycle: ``start`` starts
    the batcher, ``stop`` drains and stops it.
    """

    def __init__(
        self,
        service: CountingService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self.connections = 0

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (only valid after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> None:
        """Start the service batcher and bind the listening socket."""
        await self.service.start()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)

    async def stop(self) -> None:
        """Close the listener, then drain and stop the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def serve_forever(self) -> None:
        """Block serving until cancelled (the CLI entry point)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def __aenter__(self) -> "CountingServer":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # -- connection handling --------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        if _obs.enabled:
            from ..obs.metrics import default_registry

            default_registry().counter("serve.connections").inc()
        try:
            while True:
                try:
                    raw = await reader.readline()
                except ConnectionError:
                    return
                if not raw:  # EOF
                    return
                if len(raw) > MAX_LINE_BYTES:
                    writer.write(encode_error("bad-request", "line too long"))
                    await writer.drain()
                    return
                writer.write(await self._respond(raw))
                try:
                    await writer.drain()
                except ConnectionError:
                    return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, raw: bytes) -> bytes:
        """One request line in, one response out; never raises."""
        span = self._obs_request_begin() if _obs.enabled else None
        try:
            req = parse_request(raw.decode("ascii", errors="replace"))
        except ProtocolError as exc:
            if span is not None:
                self._obs_request_end(span, "bad-request")
            return encode_error("bad-request", str(exc))
        if span is not None:
            span.fields["verb"] = req.verb
            span.mark("parsed")
        try:
            if req.verb == "inc":
                if span is not None:
                    span.fields["amount"] = req.amount
                values = await self.service.fetch_and_increment_many(req.amount, span=span)
                out = encode_values(values)
            elif req.verb == "stats":
                out = encode_stats(self.service.stats())
            elif req.verb == "metrics":
                out = encode_payload(self._metrics_text().encode("ascii", errors="replace"))
            elif req.verb == "flight":
                out = encode_payload(self._flight_json())
            else:
                out = b"OK pong\n"
            if span is not None:
                self._obs_request_end(span, "ok")
            return out
        except OverloadedError as exc:
            if span is not None:
                self._obs_request_end(span, "shed")
            return encode_error("overloaded", str(exc))
        except Exception as exc:  # noqa: BLE001 — a bug must not kill the loop
            if span is not None:
                self._obs_request_end(span, "error")
            return encode_error("internal", f"{type(exc).__name__}: {exc}")

    # -- exposition -----------------------------------------------------------

    def _metrics_text(self) -> str:
        """Render the ``METRICS`` payload.

        A fresh mirror registry (always-maintained service/batcher/executor
        counters — meaningful even with obs off) is rendered first, then the
        process-global registry (hot-path histograms, only populated while
        obs is on); the mirror wins name collisions.
        """
        from ..obs.exposition import render_registries
        from ..obs.metrics import MetricsRegistry, default_registry

        mirror = MetricsRegistry()
        self.service.publish_metrics(mirror)
        mirror.gauge("obs.enabled").set(1.0 if _obs.enabled else 0.0)
        mirror.counter("serve.connections_total").inc(self.connections)
        registries = [mirror]
        if _obs.enabled:
            registries.append(default_registry())
        return render_registries(registries)

    def _flight_json(self) -> bytes:
        """Render the on-demand ``FLIGHT`` payload (current span ring)."""
        import json

        from ..obs.flight import flight_payload

        payload = flight_payload("on-demand", detail="FLIGHT verb")
        return (json.dumps(payload, default=str) + "\n").encode("ascii", errors="replace")

    # -- instrumentation (obs-on only) ----------------------------------------

    def _obs_request_begin(self):
        from ..obs.spans import default_span_recorder

        return default_span_recorder().start("request", origin="server")

    def _obs_request_end(self, span, status: str) -> None:
        from ..obs.metrics import DEFAULT_TIME_BUCKETS, default_registry
        from ..obs.spans import default_span_recorder

        span.mark("responded")
        dur = default_span_recorder().finish(span, status)
        reg = default_registry()
        reg.histogram("serve.request_seconds", DEFAULT_TIME_BUCKETS).observe(dur)
        if status == "shed":
            reg.counter("serve.shed").inc()
