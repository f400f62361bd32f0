"""Adaptive batching: tune a shard's ``max_batch``/``max_delay`` from load.

The :class:`~repro.serve.batching.Batcher` reads its ``max_batch`` and
``max_delay`` attributes fresh on every batch, so they are live-tunable.
:func:`recommend` is the pure policy — a deterministic function from one
:class:`TunerSample` (queue depth, batch-size saturation, observed queue
wait) to the next knob settings — and :class:`AdaptiveBatchTuner` is the
thin async wrapper a :class:`~repro.cluster.shard.ShardWorker` runs: it
samples the batcher (and, when observability is on, the
``serve.queue_wait_seconds`` histogram from :mod:`repro.obs`) on a fixed
interval and applies the recommendation.

Policy (AIMD-shaped, clamped to ``[floor, cap]``):

* **queue pressure** (depth above half the limit) — double ``max_batch``
  and halve a nonzero ``max_delay``: drain fast, stop lingering for company
  that is already queued;
* **batch saturation** (mean batch size near ``max_batch``) — double
  ``max_batch``: the coalescing window is clipping;
* **underload** (small batches, near-empty queue) — decay both knobs
  toward their configured baseline, and when requests wait much less than
  ``max_delay`` shrink the linger toward the observed wait: an idle shard
  should not tax every request with the full linger.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from ..obs import runtime as _obs

__all__ = ["TunerSample", "TunerConfig", "recommend", "AdaptiveBatchTuner"]


@dataclass(frozen=True)
class TunerSample:
    """One observation interval, in batcher units."""

    queue_depth: int
    queue_limit: int
    max_batch: int
    max_delay: float
    batches: int  # batches completed this interval
    requests: int  # requests completed this interval
    queue_wait_p50: float | None = None  # seconds, from obs when available

    @property
    def mean_batch(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    @property
    def pressure(self) -> float:
        return self.queue_depth / self.queue_limit if self.queue_limit else 0.0


@dataclass(frozen=True)
class TunerConfig:
    """Baselines (the configured knobs) and hard bounds for the tuner."""

    base_batch: int = 64
    base_delay: float = 0.001
    max_batch_cap: int = 4096
    min_delay: float = 0.0001

    @classmethod
    def for_batcher(cls, batcher, **overrides) -> "TunerConfig":
        return cls(
            base_batch=batcher.max_batch, base_delay=batcher.max_delay, **overrides
        )


def recommend(sample: TunerSample, config: TunerConfig) -> tuple[int, float]:
    """The next ``(max_batch, max_delay)`` for one observed interval."""
    batch, delay = sample.max_batch, sample.max_delay
    if sample.pressure > 0.5:
        batch = min(batch * 2, config.max_batch_cap)
        if delay > 0:  # a batcher without a linger is never given one
            delay = max(delay / 2, config.min_delay)
    elif sample.batches and sample.mean_batch >= 0.9 * batch:
        batch = min(batch * 2, config.max_batch_cap)
    elif sample.batches and sample.mean_batch <= 0.25 * batch and sample.pressure < 0.05:
        # Underloaded: relax toward the configured baseline (one halving /
        # one 25% step per interval keeps the decay stable).
        if batch > config.base_batch:
            batch = max(batch // 2, config.base_batch)
        if delay < config.base_delay:
            delay = min(delay * 1.25, config.base_delay)
        if sample.queue_wait_p50 is not None and sample.queue_wait_p50 < delay / 4:
            delay = max(sample.queue_wait_p50 * 2, config.min_delay)
    return int(batch), float(delay)


class AdaptiveBatchTuner:
    """Periodically apply :func:`recommend` to a live batcher."""

    def __init__(self, batcher, *, interval: float = 0.25, config: TunerConfig | None = None):
        self.batcher = batcher
        self.interval = float(interval)
        self.config = config if config is not None else TunerConfig.for_batcher(batcher)
        self.adjustments = 0
        self._task: asyncio.Task | None = None
        self._last_batches = batcher.stats.batches
        self._last_requests = batcher.stats.completed

    def sample(self) -> TunerSample:
        stats = self.batcher.stats
        batches = stats.batches - self._last_batches
        requests = stats.completed - self._last_requests
        self._last_batches = stats.batches
        self._last_requests = stats.completed
        return TunerSample(
            queue_depth=self.batcher.queue_depth,
            queue_limit=self.batcher.queue_limit,
            max_batch=self.batcher.max_batch,
            max_delay=self.batcher.max_delay,
            batches=batches,
            requests=requests,
            queue_wait_p50=self._observed_wait_p50(),
        )

    def step(self) -> bool:
        """One sample → recommend → apply cycle; True if a knob moved."""
        sample = self.sample()
        batch, delay = recommend(sample, self.config)
        changed = batch != self.batcher.max_batch or delay != self.batcher.max_delay
        if changed:
            self.batcher.max_batch = batch
            self.batcher.max_delay = delay
            self.adjustments += 1
            if _obs.enabled:
                from ..obs.metrics import default_registry

                reg = default_registry()
                reg.counter("cluster.tuner_adjustments").inc()
                reg.gauge("cluster.tuned_max_batch").set(batch)
                reg.gauge("cluster.tuned_max_delay_seconds").set(delay)
        return changed

    async def run(self) -> None:
        while True:
            await asyncio.sleep(self.interval)
            self.step()

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self.run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    def _observed_wait_p50(self) -> float | None:
        """Median queue wait from the obs histogram, if obs is recording."""
        if not _obs.enabled:
            return None
        from ..obs.metrics import default_registry

        hist = default_registry().get("serve.queue_wait_seconds")
        if hist is None or getattr(hist, "total", 0) == 0:
            return None
        try:
            return float(hist.percentile(50))
        except (ValueError, ZeroDivisionError):
            return None
