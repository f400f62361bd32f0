"""Asyncio micro-batching with bounded-queue backpressure.

The serving layer's throughput story rests on *coalescing*: many concurrent
``fetch_and_increment`` requests become one vectorized pass over the
compiled network (one ``propagate_counts`` call per batch instead of one
lock-protected traversal per token).  :class:`Batcher` is the generic
engine: callers :meth:`~Batcher.submit` requests, a single worker task
drains the queue into batches of at most ``max_batch`` items and applies
the caller's ``apply_batch`` function to each batch.

A batch that is not yet full waits for company by yielding one event-loop
turn and draining again, with no timer: requests that queued while the
previous batch was being applied (swept, fsynced, answered) are already
there, and the one turn lets the callers that batch just resolved submit
again.  Like a balancer, the batcher never holds a request back to wait
for company.

Backpressure is load-shedding, not blocking: the queue holds at most
``queue_limit`` pending requests and :meth:`~Batcher.submit` raises
:class:`OverloadedError` immediately when it is full.  A rejected request
has no side effects — the caller can retry, back off, or surface the error.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..obs import runtime as _obs

__all__ = ["OverloadedError", "BatcherStats", "Batcher"]


class OverloadedError(RuntimeError):
    """The pending-request queue is full; the request was rejected."""


@dataclass
class BatcherStats:
    """Counters maintained by a :class:`Batcher` across its lifetime.

    ``batch_size_hist`` maps batch size (requests coalesced into one
    ``apply_batch`` call) to the number of batches of that size.
    """

    submitted: int = 0
    rejected: int = 0
    completed: int = 0
    batches: int = 0
    batch_size_hist: dict[int, int] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        """Mean requests per batch (nan before the first batch)."""
        if not self.batches:
            return float("nan")
        return sum(s * n for s, n in self.batch_size_hist.items()) / self.batches

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "batch_size_hist": {str(k): v for k, v in sorted(self.batch_size_hist.items())},
        }


class Batcher:
    """Coalesce concurrent submissions into bounded batches.

    ``apply_batch`` receives the list of submitted request objects and must
    return one result per request, in order; it runs on the event loop (the
    serving use case is vectorized numpy, which releases nothing and
    finishes in microseconds).  If it raises, every request of that batch
    receives the exception.

    The batcher must be started (``await batcher.start()`` or
    ``async with batcher:``) before :meth:`submit` is called.
    """

    def __init__(
        self,
        apply_batch: Callable[[list[Any]], Sequence[Any]],
        *,
        max_batch: int = 64,
        queue_limit: int = 1024,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self._apply = apply_batch
        self.max_batch = int(max_batch)
        self.queue_limit = int(queue_limit)
        self.stats = BatcherStats()
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_limit)
        self._worker: asyncio.Task | None = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Start the drain worker (idempotent)."""
        if self._worker is None:
            self._closed = False
            self._worker = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Stop accepting work, drain what is queued, and join the worker."""
        if self._worker is None:
            return
        self._closed = True
        # Sentinel wakes the worker even when the queue is empty.  The queue
        # may be full of real work; put_nowait would raise, so use put().
        await self._queue.put(_STOP)
        await self._worker
        self._worker = None

    async def __aenter__(self) -> "Batcher":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    @property
    def running(self) -> bool:
        return self._worker is not None and not self._worker.done()

    def wrap_apply(
        self, wrapper: Callable[[Callable[[list[Any]], Sequence[Any]], list[Any]], Sequence[Any]]
    ) -> None:
        """Install ``wrapper(original_apply, requests)`` around the batch
        function — the documented interception seam for fault injection and
        tests (see :mod:`repro.faults.chaos`).

        The wrapper runs on the worker exactly like ``apply_batch``: it may
        call the original zero, one or several times, or raise to fail the
        whole batch.  Wrappers compose (each call wraps the current chain).
        """
        original = self._apply
        self._apply = lambda requests: wrapper(original, requests)

    @property
    def queue_depth(self) -> int:
        """Requests currently queued (waiting for a batch slot)."""
        return self._queue.qsize()

    # -- submission ---------------------------------------------------------

    async def submit(self, request: Any, span: Any | None = None) -> Any:
        """Enqueue ``request`` and await its result.

        ``span`` (optional, obs-on only) is the caller's request span: it
        rides the queue alongside the request so the worker can link it to
        the batch that serves it and measure queue wait.  Raises
        :class:`OverloadedError` immediately if the queue is full, and
        ``RuntimeError`` if the batcher is not running.
        """
        if self._closed or self._worker is None:
            raise RuntimeError("batcher is not running; call start() first")
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((request, fut, span))
        except asyncio.QueueFull:
            self.stats.rejected += 1
            raise OverloadedError(
                f"pending queue full ({self.queue_limit} requests); retry later"
            ) from None
        self.stats.submitted += 1
        if span is not None:
            span.mark("enqueued")
        return await fut

    # -- worker -------------------------------------------------------------

    async def _run(self) -> None:
        while True:
            first = await self._queue.get()
            if first is _STOP:
                return
            batch = [first]
            # Drain whatever is already queued.  A short batch then yields
            # one loop turn, so callers the previous batch just resolved can
            # submit again, and drains once more.
            stop = self._drain_available(batch)
            if not stop and len(batch) < self.max_batch:
                await asyncio.sleep(0)
                stop = self._drain_available(batch)
            self._dispatch(batch)
            if stop:
                return

    def _drain_available(self, batch: list) -> bool:
        """Move already-queued items into ``batch``; True if _STOP was hit."""
        while len(batch) < self.max_batch and not self._queue.empty():
            item = self._queue.get_nowait()
            if item is _STOP:
                return True
            batch.append(item)
        return False

    def _dispatch(self, batch: list) -> None:
        """Apply one batch and complete its futures."""
        requests = [req for req, _, _ in batch]
        self.stats.batches += 1
        size = len(batch)
        self.stats.batch_size_hist[size] = self.stats.batch_size_hist.get(size, 0) + 1
        bspan = self._obs_batch_begin(batch) if _obs.enabled else None
        try:
            results = self._apply(requests)
        except Exception as exc:  # noqa: BLE001 — propagate to every waiter
            if bspan is not None:
                self._obs_batch_end(bspan, "error")
            for _, fut, _ in batch:
                if not fut.done():
                    fut.set_exception(exc)
            return
        if bspan is not None:
            self._obs_batch_end(bspan, "ok")
        if len(results) != size:
            err = RuntimeError(
                f"apply_batch returned {len(results)} results for {size} requests"
            )
            for _, fut, _ in batch:
                if not fut.done():
                    fut.set_exception(err)
            return
        for (_, fut, _), res in zip(batch, results):
            if not fut.done():  # waiter may have been cancelled
                fut.set_result(res)
        self.stats.completed += size

    # -- instrumentation (obs-on only; see repro.obs.spans) ------------------

    def _obs_batch_begin(self, batch: list):
        """Open a batch span, link waiting request spans to it, and publish
        it in the recorder's ``current_batch`` slot so the layers under
        ``apply_batch`` (service verify, plan executor) can attach to it."""
        from ..obs.metrics import DEFAULT_TIME_BUCKETS, default_registry
        from ..obs.spans import default_span_recorder

        rec = default_span_recorder()
        bspan = rec.start("batch", size=len(batch))
        qwait = default_registry().histogram("serve.queue_wait_seconds", DEFAULT_TIME_BUCKETS)
        for _, _, rspan in batch:
            if rspan is None:
                continue
            wait = rspan.mark("batched") - rspan.marks.get("enqueued", 0.0)
            qwait.observe(max(wait, 0.0))
            rspan.fields["batch_id"] = bspan.span_id
        rec.current_batch = bspan
        return bspan

    def _obs_batch_end(self, bspan, status: str) -> None:
        from ..obs.metrics import DEFAULT_TIME_BUCKETS, default_registry
        from ..obs.spans import default_span_recorder

        rec = default_span_recorder()
        rec.current_batch = None
        dur = rec.finish(bspan, status)
        default_registry().histogram("serve.batch_seconds", DEFAULT_TIME_BUCKETS).observe(dur)


_STOP = object()
