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

from ..core.network import Network
from ..core.plan import PlanExecutor

__all__ = ["record_batch_metrics", "run_instrumented"]


def record_batch_metrics(namespace: str, batch: int) -> None:
    """Count one batch of ``batch`` vectors under ``sim.<namespace>.*``."""
    from ..obs.metrics import default_registry

    reg = default_registry()
    reg.counter(f"sim.{namespace}.batches").inc()
    reg.counter(f"sim.{namespace}.vectors").inc(batch)
    reg.histogram(f"sim.{namespace}.batch_size").observe(batch)


def run_instrumented(
    net: Network,
    ex: PlanExecutor,
    x: np.ndarray,
    namespace: str,
    event: str | None = None,
) -> np.ndarray:
    """The same plan sweep as the fast path, with per-layer timing.

    Accumulates per-layer wall-clock into the
    ``sim.<namespace>.layer_seconds`` metric vector and emits one trace
    event per layer (``event``, default ``<namespace>_layer``; the counting
    path keeps its historical ``count_layer`` name).
    """
    from ..obs.metrics import default_registry
    from ..obs.tracer import default_tracer

    plan = ex.plan
    batch = x.shape[0]
    record_batch_metrics(namespace, batch)
    if plan.depth == 0:
        return ex.run(x)
    times = np.zeros(plan.depth, dtype=np.float64)
    out = ex.run(x, layer_times=times)
    reg = default_registry()
    tracer = default_tracer()
    layer_time = reg.vector(
        f"sim.{namespace}.layer_seconds", plan.depth, dtype=np.float64
    )
    groups = plan.layer_segment_counts()
    if event is None:
        event = f"{namespace}_layer"
    for d in range(plan.depth):
        dt = float(times[d])
        layer_time.inc(d, dt)
        tracer.record(
            event,
            network=net.name,
            layer=d,
            groups=int(groups[d]),
            batch=batch,
            dur_s=round(dt, 9),
        )
    return out
