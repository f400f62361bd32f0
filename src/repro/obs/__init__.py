"""Observability: metrics, tracing, and profiling for networks & simulators.

The paper's claims are quantitative (depth formulas, contention/latency
behaviour under asynchronous schedules); this package is how the repo
*measures* them.  Three pieces:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters, gauges,
  fixed-bucket histograms, and dense per-index vector counters, plus a
  process-global default registry;
* :mod:`repro.obs.spans` — the one trace model: every trace item is a
  :class:`Span` in the bounded ring of a :class:`SpanRecorder`, whether a
  request, a plan run, or a simulator step (``SpanRecorder.span("build")``,
  :meth:`SpanRecorder.event`);
* :mod:`repro.obs.profiler` — the ``repro profile`` engine: build a
  network, run a workload, return per-layer / per-balancer hot-spot tables
  and a ``BENCH_profile.json`` payload.

The whole layer is **off by default** and costs one boolean attribute read
per instrumented block when off (see :mod:`repro.obs.runtime`): the
vectorized simulators execute byte-identical code paths either way, and the
tier-1 test suite runs un-instrumented.  Turn it on with ``REPRO_OBS=1`` in
the environment, :func:`enable`, or scoped::

    import repro.obs as obs

    with obs.capture() as (registry, spans):
        propagate_counts(net, batch)
    print(registry.snapshot()["sim.counts.batches"])
    obs.write_jsonl("trace.jsonl", spans.to_dicts())
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from . import runtime
from .export import bench_json_payload, read_bench_json, repo_root, write_bench_json, write_jsonl
from .metrics import (
    DEFAULT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    VectorCounter,
    default_registry,
    set_default_registry,
)
from .exposition import (
    metric_name,
    parse_prometheus,
    percentile_from_buckets,
    render_registries,
    render_registry,
)
from .flight import dump_flight, flight_payload
from .spans import (
    Span,
    SpanRecorder,
    default_span_recorder,
    set_default_span_recorder,
)

__all__ = [
    "enabled",
    "enable",
    "disable",
    "capture",
    "runtime",
    "Counter",
    "Gauge",
    "Histogram",
    "VectorCounter",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "default_registry",
    "set_default_registry",
    "Span",
    "SpanRecorder",
    "default_span_recorder",
    "set_default_span_recorder",
    "metric_name",
    "render_registry",
    "render_registries",
    "parse_prometheus",
    "percentile_from_buckets",
    "flight_payload",
    "dump_flight",
    "bench_json_payload",
    "read_bench_json",
    "write_bench_json",
    "write_jsonl",
    "repo_root",
    "profile_network",
    "ProfileReport",
]


def enabled() -> bool:
    """Is the observability layer currently recording?"""
    return runtime.enabled


def enable() -> None:
    """Turn instrumentation on process-wide."""
    runtime.enabled = True


def disable() -> None:
    """Turn instrumentation off process-wide (the default)."""
    runtime.enabled = False


@contextmanager
def capture(spans: SpanRecorder | None = None) -> Iterator[tuple[MetricsRegistry, SpanRecorder]]:
    """Enable observability into a *fresh* default registry and recorder, scoped.

    Swaps the process-global registry and span recorder for a new registry
    and ``spans`` (a new 4,096-span recorder by default), enables recording,
    and restores everything — including the previous enabled-state — on
    exit.  This is how the profiler and tests observe a workload without
    inheriting or leaking global metric state.  Yields ``(registry, spans)``.
    """
    registry = MetricsRegistry()
    spans = spans if spans is not None else SpanRecorder()
    prev_registry = set_default_registry(registry)
    prev_spans = set_default_span_recorder(spans)
    prev_enabled = runtime.enabled
    runtime.enabled = True
    try:
        yield registry, spans
    finally:
        runtime.enabled = prev_enabled
        set_default_registry(prev_registry)
        set_default_span_recorder(prev_spans)


from .profiler import ProfileReport, profile_network  # noqa: E402  (uses capture)
