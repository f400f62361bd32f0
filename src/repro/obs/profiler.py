"""The ``repro profile`` engine: build, run a workload, rank hot spots.

:func:`profile_network` builds a network under a scoped observability
capture, drives one of three workloads through it, and folds the recorded
metrics into per-layer and per-balancer tables:

* ``tokens`` — the asynchronous :class:`~repro.sim.TokenSimulator` under a
  named scheduler; hot spots are balancer visit counts, plus a token
  latency histogram in steps;
* ``contention`` — the discrete-event
  :class:`~repro.sim.ContentionSimulator`; hot spots are balancer visits
  and the time processes spent queued at each balancer;
* ``counts`` — the vectorized plan-executor batch evaluator; hot spots are
  per-layer wall-clock times of the numpy sweep.  ``semantics=`` selects
  which of the two plan kernels runs: ``count``
  (:func:`~repro.sim.propagate_counts`) or ``sort``
  (:func:`~repro.sim.evaluate_comparators`).

The result carries everything the CLI needs: table rows for
:func:`repro.analysis.format_table`, a JSON payload for
``BENCH_profile.json``, and the span recorder whose ring becomes the
JSON-lines trace file.

Heavy imports (:mod:`repro.sim`, :mod:`repro.networks`) are deferred into
the function bodies: this module is imported by ``repro.obs.__init__``,
which the instrumented core modules import in turn, so its import footprint
must stay acyclic and tiny.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .metrics import MetricsRegistry
from .spans import SpanRecorder

__all__ = ["ProfileReport", "profile_network", "WORKLOADS"]

WORKLOADS = ("tokens", "contention", "counts")

#: Metric namespace (``sim.<ns>.*``) each plan semantics reports under.
_SEM_NAMESPACE = {"count": "counts", "sort": "sort"}

#: Span ring capacity for a profile: room for a ``tokens`` run's per-hop
#: spans, where a server's flight ring keeps only the newest 4,096.
_TRACE_CAPACITY = 65_536


@dataclass
class ProfileReport:
    """Hot-spot profile of one network under one workload."""

    network: dict
    workload: str
    summary: dict
    layer_rows: list[dict]
    balancer_rows: list[dict]
    registry: MetricsRegistry
    spans: SpanRecorder
    metric_rows: list[dict] = field(default_factory=list)
    semantics: str = "count"

    def layer_table(self) -> str:
        """Per-layer hot-spot table (aligned plain text)."""
        from ..analysis.stats import format_table

        return format_table(self.layer_rows)

    def balancer_table(self, top: int | None = None) -> str:
        """Per-balancer hot-spot table, hottest first, optionally truncated."""
        from ..analysis.stats import format_table

        rows = self.balancer_rows if top is None else self.balancer_rows[:top]
        return format_table(rows)

    def bench_payload(self) -> dict:
        """The ``BENCH_profile.json`` body (sans envelope)."""
        return {
            "network": self.network,
            "workload": self.workload,
            "semantics": self.semantics,
            "summary": self.summary,
            "layers": self.layer_rows,
            "balancers": self.balancer_rows,
            "metrics": self.registry.snapshot(),
        }


def _vector_values(registry: MetricsRegistry, name: str, size: int) -> np.ndarray:
    vec = registry.get(name)
    if vec is None:
        return np.zeros(size)
    values = vec.values  # type: ignore[union-attr]
    out = np.zeros(size, dtype=values.dtype)
    out[: min(size, len(values))] = values[:size]
    return out


def _histogram_stats(registry: MetricsRegistry, name: str) -> dict:
    hist = registry.get(name)
    if hist is None or hist.total == 0:  # type: ignore[union-attr]
        return {}
    return {
        "count": hist.total,
        "mean": round(hist.mean, 6),
        "p50": round(hist.percentile(50), 6),
        "p95": round(hist.percentile(95), 6),
        "max": hist.max_value,
    }


def profile_network(
    build: "Callable[[], object] | object",
    workload: str = "tokens",
    *,
    tokens: int | None = None,
    scheduler: str = "random",
    procs: int = 8,
    ops: int = 4,
    batch: int = 64,
    workers: int | None = None,
    seed: int = 0,
    semantics: str = "count",
) -> ProfileReport:
    """Profile ``build()`` (or an existing network) under ``workload``.

    ``semantics`` selects the plan kernel the ``counts`` workload drives
    (``count`` / ``sort``); the token-stepping and contention workloads
    are count-only.

    Runs inside :func:`repro.obs.capture`, so the process-global registry
    and span recorder are swapped for fresh ones and restored afterwards;
    the returned report owns the captured instruments.  The summary times
    the build and the plan lowering (``build_s``, ``lower_s``) apart from
    the workload (``workload_s``).
    """
    from . import capture  # late: repro.obs.__init__ finishes before first call
    from ..core.network import Network
    from ..core.plan import lower_network

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if semantics not in _SEM_NAMESPACE:
        raise ValueError(
            f"unknown semantics {semantics!r}; choose from {tuple(_SEM_NAMESPACE)}"
        )
    if semantics != "count" and workload != "counts":
        raise ValueError(
            f"semantics={semantics!r} only applies to the 'counts' (vectorized "
            f"plan) workload, not {workload!r}"
        )

    with capture(SpanRecorder(_TRACE_CAPACITY)) as (reg, spans):
        with spans.span("profile.build") as build_span:
            net = build() if callable(build) else build
            if not isinstance(net, Network):
                raise TypeError(f"build must produce a Network, got {type(net).__name__}")
            build_span.fields["network"] = net.name
        with spans.span("profile.lower", network=net.name) as lower_span:
            lower_network(net)

        t0 = time.perf_counter()
        workload_summary = _run_workload(
            net, workload, tokens=tokens, scheduler=scheduler, procs=procs, ops=ops,
            batch=batch, workers=workers, seed=seed, semantics=semantics,
        )
        workload_s = time.perf_counter() - t0

    layer_rows, balancer_rows = _hotspot_rows(net, workload, reg, semantics=semantics)

    summary = {
        "build_s": round(build_span.dur_s, 9),
        "lower_s": round(lower_span.dur_s, 9),
        "workload_s": round(workload_s, 6),
        "trace_spans": len(spans),
        "trace_dropped": spans.dropped,
        **workload_summary,
    }
    if workload == "tokens":
        for key, val in _histogram_stats(reg, "sim.token.latency_steps").items():
            summary[f"latency_steps_{key}"] = val
    network = {
        "name": net.name,
        "width": net.width,
        "depth": net.depth,
        "size": net.size,
        "max_balancer_width": net.max_balancer_width,
    }
    return ProfileReport(
        network=network,
        workload=workload,
        summary=summary,
        layer_rows=layer_rows,
        balancer_rows=balancer_rows,
        registry=reg,
        spans=spans,
        metric_rows=reg.as_rows(),
        semantics=semantics,
    )


def _run_workload(
    net, workload: str, *, tokens, scheduler, procs, ops, batch, workers, seed,
    semantics="count",
) -> dict:
    """Drive one workload; returns its contribution to the summary dict."""
    if workload == "tokens":
        from ..sim.count_sim import balancer_outputs
        from ..sim.token_sim import TokenSimulator

        total = tokens if tokens is not None else 8 * net.width
        sim = TokenSimulator(net, seed=seed)
        sim.inject(balancer_outputs(total, net.width))
        result = sim.run(scheduler)
        return {
            "scheduler": scheduler,
            "tokens": int(total),
            "steps": result.steps,
        }
    if workload == "contention":
        from ..sim.concurrent import ContentionSimulator

        stats = ContentionSimulator(net).run(procs, ops, collect_latencies=True)
        return {
            "n_procs": procs,
            "ops": stats.ops,
            "makespan": round(stats.makespan, 6),
            "throughput": round(stats.throughput, 6),
            "mean_latency": round(stats.mean_latency, 6),
            "p95_latency": round(stats.latency_percentile(95), 6),
            "mean_wait": round(stats.mean_wait, 6),
        }
    # workload == "counts": the vectorized plan sweep, in any semantics
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 100, size=(batch, net.width))
    if semantics == "sort":
        from ..sim.sort_sim import evaluate_comparators

        evaluate_comparators(net, x)
    else:
        from ..sim.count_sim import propagate_counts

        propagate_counts(net, x, workers=workers)
    out = {"batch": int(batch), "semantics": semantics}
    if workers is not None and semantics == "count":
        out["workers"] = int(workers)
    return out


def _hotspot_rows(
    net, workload: str, reg: MetricsRegistry, semantics: str = "count"
) -> tuple[list[dict], list[dict]]:
    """Fold captured per-balancer/per-layer vectors into table rows."""
    layers = net.layers()
    layer_of = {b.index: d for d, layer in enumerate(layers) for b in layer}

    if workload == "tokens":
        visits = _vector_values(reg, "sim.token.balancer_visits", net.size)
        waits = None
    elif workload == "contention":
        visits = _vector_values(reg, "sim.contention.balancer_visits", net.size)
        waits = _vector_values(reg, "sim.contention.balancer_wait", net.size)
    else:  # counts: every balancer sees the whole batch, vectorized per layer
        ns = _SEM_NAMESPACE[semantics]
        batches = reg.get(f"sim.{ns}.vectors")
        per_balancer = batches.value if batches is not None else 0  # type: ignore[union-attr]
        visits = np.full(net.size, per_balancer)
        waits = None
    # The sharded sweep (``workers=``) does not time layers: no vector, no
    # ``time_ms`` column, rather than a column of zeros.
    layer_name = f"sim.{_SEM_NAMESPACE[semantics]}.layer_seconds"
    layer_seconds = (
        _vector_values(reg, layer_name, max(net.depth, 1))
        if workload == "counts" and reg.get(layer_name) is not None
        else None
    )

    total_visits = float(visits.sum()) or 1.0
    balancer_rows = []
    for b in net.balancers:
        row = {
            "balancer": b.index,
            "layer": layer_of.get(b.index, 0),
            "width": b.width,
            "visits": int(visits[b.index]),
            "share": f"{float(visits[b.index]) / total_visits:.3f}",
        }
        if waits is not None:
            row["wait"] = round(float(waits[b.index]), 3)
        balancer_rows.append(row)
    sort_key = (lambda r: (r["wait"], r["visits"])) if waits is not None else (
        lambda r: r["visits"]
    )
    balancer_rows.sort(key=sort_key, reverse=True)

    layer_rows = []
    for d, layer in enumerate(layers):
        idx = [b.index for b in layer]
        lv = float(visits[idx].sum()) if idx else 0.0
        row = {
            "layer": d,
            "balancers": len(layer),
            "widths": ",".join(
                f"{w}x{c}" for w, c in sorted(_width_hist(layer).items())
            ),
            "visits": int(lv),
            "share": f"{lv / total_visits:.3f}",
        }
        if waits is not None:
            row["wait"] = round(float(waits[idx].sum()), 3) if idx else 0.0
        if layer_seconds is not None:
            row["time_ms"] = round(float(layer_seconds[d]) * 1e3, 3)
        layer_rows.append(row)
    return layer_rows, balancer_rows


def _width_hist(layer) -> dict[int, int]:
    hist: dict[int, int] = {}
    for b in layer:
        hist[b.width] = hist.get(b.width, 0) + 1
    return hist
