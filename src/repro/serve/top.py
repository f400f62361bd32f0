"""``repro top`` — a live terminal dashboard for a running counting server.

Polls ``STATS`` (always-on service counters) and ``METRICS`` (Prometheus
exposition) over one TCP connection and renders a small refreshing panel:
throughput, request-latency p50/p99, queue depth, shed rate, batch
coalescing, and executor buffer reuse.  Rates are computed from successive
samples (deltas over the poll interval), so the display shows *current*
behaviour, not lifetime averages.

Rendering is a pure function (:func:`render_frame`) over two
:class:`TopSample` snapshots — the tests drive it with synthetic samples
and never open a socket.  Latency percentiles come from the scraped
``repro_serve_request_seconds`` histogram via
:func:`~repro.obs.exposition.percentile_from_buckets`, clamped by the
exported ``_max`` gauge so the p99 line is always finite; when the server
runs with observability off the latency rows degrade to ``n/a`` while the
always-on rows keep updating.
"""

from __future__ import annotations

import asyncio
import time

from ..obs.exposition import histogram_from_samples, parse_prometheus, percentile_from_buckets
from .loadgen import TCPCounterClient

__all__ = ["TopSample", "sample_server", "render_frame", "run_top"]

_CLEAR = "\x1b[2J\x1b[H"


class TopSample:
    """One poll: wall-clock time, STATS snapshot, parsed METRICS series."""

    def __init__(self, t: float, stats: dict, series: dict | None = None):
        self.t = t
        self.stats = stats
        self.series = series or {}

    def histogram(self, base: str):
        """(bounds, cumulative, sum, count) for a scraped histogram, or None."""
        return histogram_from_samples(self.series, base)

    def gauge(self, name: str, default: float | None = None) -> float | None:
        entry = self.series.get(name)
        if entry is None or not entry["samples"]:
            return default
        return entry["samples"][0][1]


async def sample_server(client: TCPCounterClient) -> TopSample:
    """Take one sample over an established connection."""
    stats = await client.stats()
    try:
        series = parse_prometheus(await client.metrics())
    except (ValueError, ConnectionError):
        series = {}
    return TopSample(time.perf_counter(), stats, series)


def _rate(prev: TopSample, cur: TopSample, key: str) -> float:
    dt = cur.t - prev.t
    if dt <= 0:
        return float("nan")
    return (cur.stats.get(key, 0) - prev.stats.get(key, 0)) / dt


def _fmt_num(v, unit: str = "", na: str = "n/a") -> str:
    if v is None:
        return na
    try:
        f = float(v)
    except (TypeError, ValueError):
        return na
    if f != f:  # nan
        return na
    if abs(f) >= 1000:
        return f"{f:,.0f}{unit}"
    if abs(f) >= 1:
        return f"{f:.1f}{unit}"
    return f"{f:.4g}{unit}"


def _fmt_latency(seconds) -> str:
    if seconds is None or seconds != seconds:
        return "n/a"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def render_frame(prev: TopSample, cur: TopSample) -> str:
    """Render one dashboard frame from two consecutive samples."""
    st = cur.stats
    net = st.get("network", {})
    lines = [
        f"repro top — {net.get('name', '?')} "
        f"(width {net.get('width', '?')}, depth {net.get('depth', '?')})",
        "",
    ]

    throughput = _rate(prev, cur, "issued")
    req_rate = _rate(prev, cur, "submitted")
    shed_rate = _rate(prev, cur, "rejected")
    offered = (req_rate or 0) + (shed_rate or 0)
    shed_pct = (
        100.0 * shed_rate / offered if shed_rate == shed_rate and offered > 0 else None
    )

    p50 = p99 = None
    hist = cur.histogram("repro_serve_request_seconds")
    if hist is not None:
        bounds, cum, _, total = hist
        if total > 0:
            mx = cur.gauge("repro_serve_request_seconds_max")
            p50 = percentile_from_buckets(bounds, cum, 50, max_value=mx)
            p99 = percentile_from_buckets(bounds, cum, 99, max_value=mx)

    ex = st.get("executor") or {}
    touches = ex.get("buffer_allocs", 0) + ex.get("buffer_reuses", 0)
    reuse_pct = 100.0 * ex.get("buffer_reuses", 0) / touches if touches else None

    rows = [
        ("throughput", f"{_fmt_num(throughput, ' tok/s')}"),
        ("requests", f"{_fmt_num(req_rate, ' req/s')}"),
        ("latency p50", _fmt_latency(p50)),
        ("latency p99", _fmt_latency(p99)),
        ("queue depth", f"{st.get('queue_depth', 0)} / {st.get('queue_limit', '?')}"),
        ("shed rate", _fmt_num(shed_pct, "%") if shed_pct is not None else "0%"),
        ("batch size", _fmt_num(st.get("mean_batch_size"), " (mean)")),
        ("issued total", f"{st.get('issued', 0):,}"),
        ("buffer reuse", _fmt_num(reuse_pct, "%") if reuse_pct is not None else "n/a"),
    ]
    width = max(len(label) for label, _ in rows)
    lines.extend(f"  {label:<{width}}  {value}" for label, value in rows)
    if "cluster" in st:
        lines.extend(_cluster_rows(prev, cur))
    if not cur.series:
        lines.append("")
        lines.append("  (METRICS histograms empty — start the server with REPRO_OBS=1)")
    return "\n".join(lines) + "\n"


def _cluster_rows(prev: TopSample, cur: TopSample) -> list[str]:
    """Per-shard rows for a cluster router target.

    The aggregate panel above already sums the shards; these rows break the
    same quantities out per shard (rates from successive samples, p99 from
    the router's per-shard scrape) plus supervisor facts (up, restarts).
    Falls back cleanly: a single-process server has no ``cluster`` key and
    never reaches here.
    """
    cluster = cur.stats.get("cluster", {})
    shards = cluster.get("shards", [])
    prev_shards = {
        s.get("shard_id"): s for s in prev.stats.get("cluster", {}).get("shards", [])
    }
    dt = cur.t - prev.t
    router = cluster.get("router", {})
    lines = [
        "",
        f"  cluster: {cluster.get('num_shards', '?')} shards, "
        f"router mode={router.get('mode', '?')}, "
        f"throttled={router.get('throttled', 0)}, "
        f"shard errors={router.get('shard_errors', 0)}",
        f"  {'shard':>5}  {'state':<7} {'req/s':>9}  {'queue':>9}  {'shed':>7}  "
        f"{'p99':>8}  {'restarts':>8}",
    ]
    for s in shards:
        sid = s.get("shard_id")
        p = prev_shards.get(sid, {})
        if dt > 0 and "submitted" in s and "submitted" in p:
            rate = (s.get("submitted", 0) - p.get("submitted", 0)) / dt
            shed = (s.get("rejected", 0) - p.get("rejected", 0)) / dt
        else:
            rate = shed = float("nan")
        state = "up" if s.get("up", s.get("reachable")) else "DOWN"
        queue = f"{s.get('queue_depth', '?')}/{s.get('queue_limit', '?')}"
        lines.append(
            f"  {sid:>5}  {state:<7} {_fmt_num(rate):>9}  {queue:>9}  "
            f"{_fmt_num(shed):>7}  {_fmt_latency(s.get('request_p99_s')):>8}  "
            f"{s.get('restarts', 0):>8}"
        )
    return lines


async def run_top(
    host: str,
    port: int,
    *,
    interval: float = 1.0,
    iterations: int = 0,
    clear: bool = True,
    out=None,
) -> int:
    """Poll and render until interrupted (``iterations=0`` means forever).

    Returns the number of frames rendered; prints a connection error and
    returns what was rendered so far if the server goes away.
    """
    import sys

    out = out if out is not None else sys.stdout
    frames = 0
    try:
        client = await TCPCounterClient.connect(host, port)
    except OSError as exc:
        print(f"repro top: cannot connect to {host}:{port}: {exc}", file=out)
        return 0
    try:
        prev = await sample_server(client)
        while iterations == 0 or frames < iterations:
            await asyncio.sleep(interval)
            cur = await sample_server(client)
            frame = render_frame(prev, cur)
            if clear:
                out.write(_CLEAR)
            out.write(frame)
            out.flush()
            prev = cur
            frames += 1
    except (ConnectionError, asyncio.IncompleteReadError):
        print("repro top: server closed the connection", file=out)
    finally:
        await client.close()
    return frames
