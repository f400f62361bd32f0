"""An asyncio Fetch&Increment service backed by a counting network.

This is the serving-layer realization of the paper's thesis: a counting
network *is* a low-contention shared counter.  :class:`CountingService`
owns one network (built directly, or planned with
:func:`repro.analysis.plan_network`) and exposes ``fetch_and_increment``
over an async API; concurrent requests are coalesced by a
:class:`~repro.serve.batching.Batcher` into vectorized batches.

Batched issuance uses the quiescent-state identity that powers all the
repo's verification (see :mod:`repro.sim.count_sim`): tokens enter
round-robin, so after ``T`` total tokens the input count vector is the
step sequence ``make_step(w, T)`` and the per-wire output counts follow
from one :func:`propagate_counts` pass over the compiled network.  The
values dispensed by a batch of ``n`` tokens are, per output wire ``i``,
``i + w*k`` for each newly dispensed ``k`` — and because a counting
network's outputs have the step property, their union is *exactly* the
contiguous range ``[T, T+n)``.  Exactly-once issuance is therefore not a
locking discipline here; it is the counting property itself, and the
service re-verifies it on every batch (``validate=True``) so a non-counting
network is caught immediately rather than corrupting clients.
"""

from __future__ import annotations

import asyncio
from typing import Sequence

import numpy as np

from ..core.network import Network
from ..core.plan import PlanExecutor, plan_executor
from ..core.sequences import make_step
from ..obs import runtime as _obs
from ..sim.count_sim import propagate_counts
from .batching import Batcher, BatcherStats, OverloadedError

__all__ = ["ExactlyOnceError", "CountingService", "OverloadedError"]


class ExactlyOnceError(RuntimeError):
    """A batch's dispensed values were not the expected contiguous range.

    Raised when the served network violates the counting property — e.g. a
    sorting-only or deliberately broken network was plugged in.  The batch
    that trips this is *not* issued.
    """


class CountingService:
    """Exactly-once ``fetch_and_increment`` over a counting network.

    Parameters
    ----------
    net:
        The backing network.  Must be a counting network for the
        exactly-once guarantee to hold; violations raise
        :class:`ExactlyOnceError` at issue time when ``validate`` is on.
    max_batch / queue_limit:
        Batching and backpressure knobs, passed to
        :class:`~repro.serve.batching.Batcher`: at most ``max_batch``
        requests per vectorized pass; at most ``queue_limit`` requests
        pending before submissions are rejected with
        :class:`~repro.serve.batching.OverloadedError`.
    validate:
        Re-check per batch that dispensed values form the contiguous range
        ``[issued, issued + n)``.  Costs one O(n) comparison per batch.
    value_base / value_stride:
        Affine transform applied to dispensed values: the ``k``-th token this
        service issues is handed out as ``value_base + value_stride * k``.
        The defaults (0, 1) are the plain counter.  A shard in a
        :mod:`repro.cluster` deployment serves ``value_base=shard_id`` and
        ``value_stride=num_shards`` so the shards jointly partition the
        integers by residue class — the same decomposition the paper applies
        to a counting network's output wires — and exactly-once across the
        cluster reduces to exactly-once per shard.  Validation always runs
        on the untransformed local values.
    commit:
        Optional durability hook ``commit(seq, total)`` called after a batch
        is issued and validated but *before* any waiter is acked — the
        append-before-ack point where :class:`repro.cluster.TokenWAL`
        records ``total`` (tokens issued so far).  If it raises, the batch's
        waiters all receive the error and the values count as lost (clients
        retry and get fresh ones); the hook is never retried for that batch.
    flight_dir:
        When set (and observability is on), the first
        :class:`ExactlyOnceError` this service raises writes a
        flight-recorder dump (see :mod:`repro.obs.flight`) into this
        directory before propagating; the path lands in
        :attr:`last_flight_dump`.
    """

    def __init__(
        self,
        net: Network,
        *,
        max_batch: int = 64,
        queue_limit: int = 1024,
        validate: bool = True,
        flight_dir=None,
        value_base: int = 0,
        value_stride: int = 1,
        commit=None,
    ) -> None:
        if value_stride < 1:
            raise ValueError("value_stride must be >= 1")
        if value_base < 0 or value_base >= value_stride:
            raise ValueError("value_base must be in [0, value_stride)")
        self.net = net
        self.validate = bool(validate)
        self.flight_dir = flight_dir
        self.value_base = int(value_base)
        self.value_stride = int(value_stride)
        self.commit = commit
        self._batch_seq = 0
        self.last_flight_dump = None
        self._flight_dumped = False
        self._total = 0
        self._out_counts = np.zeros(net.width, dtype=np.int64)
        self._wire_ids = np.arange(net.width, dtype=np.int64)
        # Long-lived executor over the network's flat plan: lowering happens
        # once here (not on the first request), and the scratch-buffer pool
        # makes steady-state issuance allocation-free.  Networks carrying
        # semantic fault overrides (FaultyNetwork) are not plannable — they
        # stay on propagate_counts' override path.
        self._executor: PlanExecutor | None = (
            None if getattr(net, "fault_overrides", None) else plan_executor(net)
        )
        self._batcher = Batcher(
            self._apply_batch,
            max_batch=max_batch,
            queue_limit=queue_limit,
        )

    @classmethod
    def from_plan(
        cls,
        width: int,
        max_balancer: int,
        family: str = "K",
        variant: str = "stock",
        **kwargs,
    ) -> "CountingService":
        """Plan the shallowest in-budget family member and serve it.

        Accepts the same constraints as :func:`repro.analysis.plan_network`
        (the served width may be padded up when ``width`` has no in-budget
        factorization — padding is sound for counting).  ``variant=
        "searched"`` plans and serves the searched-base construction.
        """
        from ..analysis.planner import plan_network

        plan = plan_network(width, max_balancer, family, variant=variant)
        return cls(plan.build(), **kwargs)

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        await self._batcher.start()

    async def stop(self) -> None:
        await self._batcher.stop()

    async def __aenter__(self) -> "CountingService":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # -- async API ----------------------------------------------------------

    async def fetch_and_increment(self, *, span=None) -> int:
        """Take the next counter value (one token through the network)."""
        values = await self._submit(1, span)
        return int(values[0])

    async def fetch_and_increment_many(self, n: int, *, span=None) -> list[int]:
        """Take ``n`` values in one request (still one queue slot)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        values = await self._submit(int(n), span)
        return [int(v) for v in values]

    async def _submit(self, amount: int, span):
        """Submit through the batcher, minting a request span when needed.

        Callers with their own span (the TCP server) pass it through; bare
        in-process callers (tests, chaos clients) get a service-origin span
        so the request → batch → executor linkage exists without a server.
        """
        if span is None and _obs.enabled:
            from ..obs.spans import default_span_recorder

            with default_span_recorder().span(
                "request", verb="inc", amount=amount, origin="service"
            ) as span:
                return await self._batcher.submit(amount, span)
        return await self._batcher.submit(amount, span)

    # -- introspection ------------------------------------------------------

    @property
    def issued(self) -> int:
        """Total values dispensed so far (local token count, pre-transform)."""
        return self._total

    def restore(self, total: int) -> None:
        """Reset issuance state to ``total`` tokens already dispensed.

        This is the WAL-recovery entry point (see :mod:`repro.cluster.wal`):
        a restarted shard replays its log to the last durable token count and
        resumes issuing from there, never re-dispensing a value that could
        already have been acked.  The per-wire output counts are re-derived
        from the quiescent-state identity — ``total`` alone determines them —
        so no per-wire state needs logging.  Only valid while no batch is in
        flight (call before :meth:`start` or between batches).
        """
        if total < 0:
            raise ValueError("total must be >= 0")
        w = self.net.width
        self._total = int(total)
        self._out_counts = (
            propagate_counts(self.net, make_step(w, int(total)))
            if total
            else np.zeros(w, dtype=np.int64)
        )

    @property
    def batcher_stats(self) -> BatcherStats:
        return self._batcher.stats

    def stats(self) -> dict:
        """One JSON-friendly snapshot: network, issuance, batching, executor."""
        return {
            "network": {
                "name": self.net.name,
                "width": self.net.width,
                "depth": self.net.depth,
                "size": self.net.size,
            },
            "issued": self._total,
            "value_base": self.value_base,
            "value_stride": self.value_stride,
            "queue_depth": self._batcher.queue_depth,
            "max_batch": self._batcher.max_batch,
            # The batcher never lingers; the key stays for snapshot readers
            # (perfbench records it).
            "max_delay": 0.0,
            "queue_limit": self._batcher.queue_limit,
            "executor": self._executor.scratch_stats() if self._executor else None,
            **self._batcher.stats.as_dict(),
        }

    def publish_metrics(self, registry) -> None:
        """Mirror the always-maintained service stats into ``registry``.

        This is the scrape-time half of the ``METRICS`` verb: the counters
        here (issuance, batching, shed, executor buffers) are plain
        attributes kept regardless of the obs switch, so a scrape is
        meaningful even with ``REPRO_OBS`` off; when obs is on the server
        renders the hot-path histograms from the default registry alongside.
        """
        registry.gauge("serve.queue_depth").set(self._batcher.queue_depth)
        registry.counter("serve.issued_total").inc(self._total)
        bs = self._batcher.stats
        registry.counter("serve.submitted_total").inc(bs.submitted)
        registry.counter("serve.shed_total").inc(bs.rejected)
        registry.counter("serve.completed_total").inc(bs.completed)
        registry.counter("serve.batches_total").inc(bs.batches)
        if bs.batches:
            registry.gauge("serve.mean_batch_size").set(bs.mean_batch_size)
        if self._executor is not None:
            registry.counter("plan.buffer_allocs_total").inc(self._executor.buffer_allocs)
            registry.counter("plan.buffer_reuses_total").inc(self._executor.buffer_reuses)
            registry.counter("plan.batches_total").inc(self._executor.batches)
        registry.gauge("net.width").set(self.net.width)
        registry.gauge("net.depth").set(self.net.depth)

    # -- issuance core ------------------------------------------------------

    def issue_batch(self, n: int) -> np.ndarray:
        """Synchronously dispense the next ``n`` values (ascending).

        This is the vectorized kernel behind the async API; it is also
        usable directly from synchronous code (tests, benchmarks).  Not
        thread-safe — the async API serializes all calls on the batcher
        worker.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        w = self.net.width
        t0 = self._total
        t1 = t0 + n
        out_after = propagate_counts(self.net, make_step(w, t1))
        if _obs.enabled:
            self._obs_mark("executed")
        delta = out_after - self._out_counts
        if self.validate and (np.any(delta < 0) or int(delta.sum()) != n):
            raise self._exactly_once_error(
                f"{self.net.name}: batch of {n} produced per-wire deltas "
                f"summing to {int(delta.sum())}"
            )
        # Wire i dispenses values i + w*k for k in [out_before[i], out_after[i]).
        reps = np.repeat(self._wire_ids, delta)
        offs = np.arange(n, dtype=np.int64) - np.repeat(np.cumsum(delta) - delta, delta)
        values = np.sort(reps + w * (self._out_counts[reps] + offs))
        if self.validate and not np.array_equal(values, np.arange(t0, t1)):
            raise self._exactly_once_error(
                f"{self.net.name} is not serving exactly-once: batch after "
                f"{t0} tokens dispensed {values[:8].tolist()}... expected "
                f"[{t0}, {t1})"
            )
        self._total = t1
        self._out_counts = out_after
        if _obs.enabled:
            self._obs_mark("verified")
        if self.value_stride != 1 or self.value_base:
            return self.value_base + self.value_stride * values
        return values

    def _exactly_once_error(self, message: str) -> ExactlyOnceError:
        """Build the violation error, taking a flight dump first.

        The dump is written at most once per service, only while obs is on,
        and only when a dump directory was opted into (``flight_dir`` or the
        ``REPRO_FLIGHT_DIR`` environment variable) — a bare test tripping
        the validator must not litter the working directory.
        """
        import os

        if (
            _obs.enabled
            and not self._flight_dumped
            and (self.flight_dir is not None or os.environ.get("REPRO_FLIGHT_DIR"))
        ):
            self._flight_dumped = True
            from ..obs.flight import dump_flight

            try:
                self.last_flight_dump = dump_flight(
                    "exactly-once-violation", detail=message, directory=self.flight_dir
                )
            except OSError:
                self.last_flight_dump = None
        return ExactlyOnceError(message)

    def _obs_mark(self, name: str) -> None:
        """Stamp a phase boundary on the in-flight batch span, if any."""
        from ..obs.spans import default_span_recorder

        batch_span = default_span_recorder().current_batch
        if batch_span is not None:
            batch_span.mark(name)

    def _apply_batch(self, amounts: list[int]) -> Sequence[np.ndarray]:
        """Batcher callback: one vectorized pass serves every request."""
        n = int(sum(amounts))
        values = self.issue_batch(n)
        self._batch_seq += 1
        if self.commit is not None:
            # Append-before-ack: the durability hook sees the post-batch
            # token count before any waiter's future resolves.  A failure
            # here fails the whole batch — issued but unacked values are
            # lost, never silently handed out without a durable record.
            self.commit(self._batch_seq, self._total)
        if _obs.enabled:
            self._obs_record(len(amounts), n)
        bounds = np.cumsum(amounts[:-1])
        return np.split(values, bounds)

    def _obs_record(self, requests: int, tokens: int) -> None:
        """Publish one batch's accounting (only reached while obs is on)."""
        from ..obs.metrics import default_registry

        reg = default_registry()
        reg.counter("serve.batches").inc()
        reg.counter("serve.requests").inc(requests)
        reg.counter("serve.tokens").inc(tokens)
        reg.histogram("serve.batch_size", tuple(float(2**i) for i in range(11))).observe(
            requests
        )
