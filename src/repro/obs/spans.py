"""Spans: the one record type every trace item takes.

A :class:`Span` is one unit of work with a start time, a duration, a
status, free-form scalar ``fields``, and a ``marks`` dict of named phase
boundaries.  The serving tier links them: one span per client request,
carried from the moment :class:`~repro.serve.server.CountingServer`
accepts the line through parse → queue-wait → batch-assembly → execute →
verify → respond, with the request span pointing at the batch span that
served it and the batch span pointing at the
:class:`~repro.core.plan.PlanExecutor` run that evaluated it.  The core and
the simulators record their steps as spans too (``build``, ``plan_lower``,
``cache_*``, ``token_hop``, ...): a point event is a zero-duration span, and
a step the caller already timed is a span that ends now.

Completed spans land in a :class:`SpanRecorder` — a bounded ring
(``deque(maxlen=capacity)``), so a long-running server keeps only the
newest ``capacity`` spans and counts the rest as ``dropped``.  That ring
*is* the flight recorder's source material (see :mod:`repro.obs.flight`)
and the ``repro profile`` trace file: both write
:meth:`SpanRecorder.to_dicts`.

Everything here follows the repo-wide no-op guarantee: nothing in this
module is imported, and no span is ever allocated, unless a call site has
already checked ``runtime.enabled``.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "Span",
    "SpanRecorder",
    "default_span_recorder",
    "set_default_span_recorder",
]

#: Default ring capacity (completed spans kept for the flight recorder).
DEFAULT_SPAN_CAPACITY = 4_096


class Span:
    """One in-flight or completed unit of work.

    ``kind`` names the work: ``"request"`` (one protocol line / one service
    call), ``"batch"`` (one coalesced :class:`~repro.serve.batching.Batcher`
    dispatch), ``"executor"`` (one :class:`PlanExecutor` run), or an
    instrumented step such as ``"build"`` or ``"token_hop"``.  ``t0`` is the
    start on the ``time.perf_counter`` clock.  ``parent_id`` links a span to
    the span it ran under; ``fields`` carries free-form scalars (verb,
    batch_id, executor_run, ...).  ``marks`` maps phase names (``parsed``,
    ``enqueued``, ``batched``, ``executed``, ``verified``, ``responded``) to
    seconds since the span started.
    """

    __slots__ = ("span_id", "parent_id", "kind", "t0", "dur_s", "status", "marks", "fields")

    def __init__(self, span_id: int, kind: str, parent_id: int | None = None, **fields):
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.t0 = time.perf_counter()
        self.dur_s: float | None = None
        self.status: str | None = None
        self.marks: dict[str, float] = {}
        self.fields = fields

    def mark(self, name: str) -> float:
        """Record a named phase boundary (seconds since span start)."""
        dt = time.perf_counter() - self.t0
        self.marks[name] = dt
        return dt

    @property
    def finished(self) -> bool:
        return self.dur_s is not None

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "t0": round(self.t0, 9),
            "status": self.status,
            "dur_s": None if self.dur_s is None else round(self.dur_s, 9),
            "marks": {k: round(v, 9) for k, v in self.marks.items()},
            **self.fields,
        }


class SpanRecorder:
    """Mints span ids and keeps a bounded ring of completed spans.

    ``start`` allocates a span with a fresh id; ``finish`` stamps duration
    and status and appends it to the ring (oldest spans are evicted and
    counted in :attr:`dropped`).  :meth:`span` wraps the pair around a
    ``with`` block, and :meth:`event` records an already finished span in
    one call.  ``current_batch`` is a cooperation slot for the batcher
    worker: it points at the batch span while the batch's apply function
    runs, so downstream layers (service verify, plan executor) can attach
    linkage fields without any plumbing through the generic batching API.
    The batch worker is a single task and the apply function is
    synchronous, so one slot suffices.
    """

    def __init__(self, capacity: int = DEFAULT_SPAN_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._completed: deque[Span] = deque(maxlen=capacity)
        self._next_id = 0
        self._dropped = 0
        self.current_batch: Span | None = None

    def start(self, kind: str, parent_id: int | None = None, **fields) -> Span:
        span = Span(self._next_id, kind, parent_id, **fields)
        self._next_id += 1
        return span

    def finish(self, span: Span, status: str = "ok") -> float:
        """Complete ``span`` into the ring; returns its duration (seconds)."""
        span.dur_s = time.perf_counter() - span.t0
        span.status = status
        self._keep(span)
        return span.dur_s

    def event(self, kind: str, dur_s: float = 0.0, **fields) -> Span:
        """Record a finished span that ends now and lasted ``dur_s``.

        The default is a point event (zero duration); a caller that already
        timed its step passes the measured ``dur_s``, and the span's start
        moves back by that much.
        """
        span = self.start(kind, **fields)
        span.t0 -= dur_s
        span.dur_s = dur_s
        span.status = "ok"
        self._keep(span)
        return span

    @contextmanager
    def span(self, kind: str, parent_id: int | None = None, **fields) -> Iterator[Span]:
        """Time the ``with`` block as one span, yielded so the block can
        mark phases or add fields.

        An ``Exception`` finishes the span with status ``"error"`` and
        propagates.  Anything else that escapes (``asyncio`` cancellation)
        leaves the span unfinished and out of the ring.
        """
        span = self.start(kind, parent_id, **fields)
        try:
            yield span
        except Exception:
            self.finish(span, "error")
            raise
        self.finish(span)

    def _keep(self, span: Span) -> None:
        if len(self._completed) == self.capacity:
            self._dropped += 1
        self._completed.append(span)

    def completed(self, kind: str | None = None) -> list[Span]:
        """Completed spans, oldest first, optionally filtered by kind."""
        if kind is None:
            return list(self._completed)
        return [s for s in self._completed if s.kind == kind]

    def __len__(self) -> int:
        return len(self._completed)

    @property
    def dropped(self) -> int:
        """Completed spans evicted by the ring since the last clear."""
        return self._dropped

    @property
    def started(self) -> int:
        """Span ids minted so far (== the next span id)."""
        return self._next_id

    def clear(self) -> None:
        self._completed.clear()
        self._dropped = 0

    def to_dicts(self) -> list[dict]:
        """Completed spans, oldest first, as JSON-ready dicts (the shape the
        flight recorder and the ``repro profile`` trace file both write)."""
        return [s.to_dict() for s in self._completed]


_default = SpanRecorder()


def default_span_recorder() -> SpanRecorder:
    """The process-global recorder every instrumented layer writes to."""
    return _default


def set_default_span_recorder(recorder: SpanRecorder) -> SpanRecorder:
    """Swap the process-global recorder; returns the previous one."""
    global _default
    prev = _default
    _default = recorder
    return prev
