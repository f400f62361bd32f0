"""Shared observability wrapper for plan-lowered simulator entry points.

Both plan-lowered simulator facades
(:func:`~repro.sim.count_sim.propagate_counts` and
:func:`~repro.sim.sort_sim.evaluate_comparators`) run the same
:class:`~repro.core.plan.PlanExecutor` sweep; only the metric namespace
differs (``sim.counts.*``, ``sim.sort.*``).  This module holds the one
instrumented-run implementation they share.

Only reached while :mod:`repro.obs` is enabled; the arithmetic is identical
to the un-instrumented branch, so outputs are byte-identical either way —
instrumentation observes, it never participates.
"""

from __future__ import annotations

import numpy as np

from ..core.plan import PlanExecutor

__all__ = ["record_batch_metrics", "run_instrumented"]


def record_batch_metrics(namespace: str, batch: int) -> None:
    """Count one batch of ``batch`` vectors under ``sim.<namespace>.*``."""
    from ..obs.metrics import default_registry

    reg = default_registry()
    reg.counter(f"sim.{namespace}.batches").inc()
    reg.counter(f"sim.{namespace}.vectors").inc(batch)
    reg.histogram(f"sim.{namespace}.batch_size").observe(batch)


def run_instrumented(ex: PlanExecutor, x: np.ndarray, namespace: str) -> np.ndarray:
    """The same plan sweep as the fast path, with per-layer timing.

    Accumulates per-layer wall-clock into the
    ``sim.<namespace>.layer_seconds`` metric vector.  Per-layer time stays a
    vector rather than one span per layer: ``depth`` spans per sweep would
    crowd the request spans out of a server's bounded span ring.
    """
    from ..obs.metrics import default_registry

    plan = ex.plan
    record_batch_metrics(namespace, x.shape[0])
    if plan.depth == 0:
        return ex.run(x)
    times = np.zeros(plan.depth, dtype=np.float64)
    out = ex.run(x, layer_times=times)
    default_registry().vector(
        f"sim.{namespace}.layer_seconds", plan.depth, dtype=np.float64
    ).add_array(times)
    return out
