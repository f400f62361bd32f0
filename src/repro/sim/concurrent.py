"""Shared-memory counting-network counters: threads and discrete events.

Counting networks exist to build *low-contention* Fetch&Increment counters
(paper §1).  This module provides the two shared-memory substrates used by
the reproduction:

* :class:`ThreadedCounter` — a real concurrent implementation: one lock and
  one mod-``p`` state word per balancer, one value-dispensing counter per
  output wire.  ``n`` Python threads hammer it concurrently; despite the
  GIL, lock convoying on hot balancers is real and measurable, and the
  returned values demonstrate the counting property under true preemption.

* :class:`ContentionSimulator` — a deterministic discrete-event model
  reproducing the experiment the paper cites from Felten, LaMarca and
  Ladner [9]: each balancer is a serially-reusable resource (an access
  occupies it for one time unit), ``n`` processes repeatedly traverse the
  network, and the simulator reports throughput and mean latency.  Depth
  falls as balancer width grows but per-balancer traffic rises, so
  intermediate widths win — the trade-off motivating the paper's
  factorization family.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass

import numpy as np

from ..core.network import Network
from ..obs import runtime as _obs

__all__ = [
    "ThreadedCounter",
    "ThreadedRunStats",
    "ContentionSimulator",
    "ContentionStats",
    "SingleLockCounter",
]


@dataclass
class ThreadedRunStats:
    """Result of a threaded run: per-thread value lists and counters."""

    values: list[list[int]]
    total_ops: int

    def all_values(self) -> list[int]:
        out: list[int] = []
        for vs in self.values:
            out.extend(vs)
        return out


class ThreadedCounter:
    """A Fetch&Increment counter implemented by a counting network.

    Every balancer holds a lock-protected arrival count; a traversing thread
    enters on a network input wire, and at each balancer atomically takes the
    next output port ``arrivals mod p``.  Output wire ``i`` dispenses values
    ``i, i + w, i + 2w, ...`` from its own lock-protected local counter.
    """

    def __init__(self, net: Network):
        self.net = net
        self._state = [0] * net.size
        self._locks = [threading.Lock() for _ in range(net.size)]
        self._out_counts = [0] * net.width
        self._out_locks = [threading.Lock() for _ in range(net.width)]
        self._consumer: dict[int, int] = {}
        self._terminal: dict[int, int] = {}
        for b in net.balancers:
            for w in b.inputs:
                self._consumer[w] = b.index
        for pos, w in enumerate(net.outputs):
            self._terminal[w] = pos
        self._entry = threading.Lock()
        self._entry_count = 0
        # Per-balancer traversal counts, maintained under the balancer locks
        # only while repro.obs is enabled and published once per run_threads
        # (instruments themselves are not thread-safe).
        self._obs_visits = [0] * net.size

    def fetch_and_increment(self) -> int:
        """Traverse the network once and return the dispensed value."""
        obs_on = _obs.enabled
        with self._entry:
            pos = self._entry_count % self.net.width
            self._entry_count += 1
        wire = self.net.inputs[pos]
        while wire not in self._terminal:
            b = self.net.balancers[self._consumer[wire]]
            with self._locks[b.index]:
                port = self._state[b.index] % b.width
                self._state[b.index] += 1
                if obs_on:
                    self._obs_visits[b.index] += 1
            wire = b.outputs[port]
        out_pos = self._terminal[wire]
        with self._out_locks[out_pos]:
            k = self._out_counts[out_pos]
            self._out_counts[out_pos] += 1
        return out_pos + k * self.net.width

    def run_threads(self, n_threads: int, ops_per_thread: int) -> ThreadedRunStats:
        """Spawn ``n_threads`` threads each performing ``ops_per_thread``
        fetch-and-increments; returns every value handed out."""
        results: list[list[int]] = [[] for _ in range(n_threads)]
        self._obs_visits = [0] * self.net.size

        def worker(tid: int) -> None:
            vals = results[tid]
            for _ in range(ops_per_thread):
                vals.append(self.fetch_and_increment())

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if _obs.enabled:
            from ..obs.metrics import default_registry
            from ..obs.spans import default_span_recorder

            reg = default_registry()
            reg.counter("sim.threaded.ops").inc(n_threads * ops_per_thread)
            if self.net.size:
                reg.vector("sim.threaded.balancer_visits", self.net.size).add_array(
                    self._obs_visits
                )
            default_span_recorder().event(
                "threaded_run",
                network=self.net.name,
                threads=n_threads,
                ops=n_threads * ops_per_thread,
            )
        return ThreadedRunStats(results, n_threads * ops_per_thread)


class SingleLockCounter:
    """The baseline counting networks compete against: one lock, one word.

    Correct and simple, but every operation serializes on the same cache
    line.  On real MIMD hardware this is the bottleneck Felten et al. [9]
    measured; under CPython's GIL the serialization is already global, so
    the threaded comparison here is honest only about overhead, not
    parallel speedup — the :class:`ContentionSimulator` models the
    parallel-hardware story.
    """

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def fetch_and_increment(self) -> int:
        """Atomically take the next value."""
        with self._lock:
            v = self._value
            self._value += 1
        return v

    def run_threads(self, n_threads: int, ops_per_thread: int) -> ThreadedRunStats:
        """Same driver shape as :meth:`ThreadedCounter.run_threads`."""
        results: list[list[int]] = [[] for _ in range(n_threads)]

        def worker(tid: int) -> None:
            vals = results[tid]
            for _ in range(ops_per_thread):
                vals.append(self.fetch_and_increment())

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return ThreadedRunStats(results, n_threads * ops_per_thread)


@dataclass
class ContentionStats:
    """Aggregate results of a discrete-event contention run.

    ``latencies`` holds every completed operation's latency when the run
    was started with ``collect_latencies=True`` (else ``None``).
    """

    ops: int
    makespan: float
    total_latency: float
    total_wait: float
    latencies: "np.ndarray | None" = None

    @property
    def throughput(self) -> float:
        """Completed operations per unit time (nan for an empty run)."""
        if self.ops == 0:
            return float("nan")
        return self.ops / self.makespan if self.makespan > 0 else float("inf")

    @property
    def mean_latency(self) -> float:
        """Mean completed-operation latency (nan for an empty run)."""
        return self.total_latency / self.ops if self.ops else float("nan")

    @property
    def mean_wait(self) -> float:
        """Mean time spent queued behind other processes at balancers
        (nan for an empty run)."""
        return self.total_wait / self.ops if self.ops else float("nan")

    def latency_percentile(self, pct: float) -> float:
        """Latency percentile (requires ``collect_latencies=True``; nan for
        an empty run)."""
        if self.latencies is None:
            raise ValueError("run with collect_latencies=True to get percentiles")
        if len(self.latencies) == 0:
            return float("nan")
        return float(np.percentile(self.latencies, pct))


class ContentionSimulator:
    """Deterministic discrete-event model of concurrent network traversal.

    ``n_procs`` processes each perform ``ops_per_proc`` traversals
    back-to-back.  Visiting a balancer costs ``access_cost`` time and the
    balancer serves one visitor at a time (FCFS); moving between layers
    costs ``hop_cost``.  Wider balancers concentrate traffic: with width
    ``w`` and balancers of width ``p``, each layer has ``w/p`` of them, so a
    ``p``-balancer sees ``p/w`` of the traffic — the contention/depth
    trade-off of [9].
    """

    def __init__(self, net: Network, access_cost: float = 1.0, hop_cost: float = 0.1):
        if access_cost <= 0:
            raise ValueError("access_cost must be positive")
        self.net = net
        self.access_cost = float(access_cost)
        self.hop_cost = float(hop_cost)
        self._consumer: dict[int, int] = {}
        self._terminal: set[int] = set(net.outputs)
        for b in net.balancers:
            for w in b.inputs:
                self._consumer[w] = b.index

    def run(
        self, n_procs: int, ops_per_proc: int = 1, collect_latencies: bool = False
    ) -> ContentionStats:
        if n_procs <= 0 or ops_per_proc <= 0:
            raise ValueError("n_procs and ops_per_proc must be positive")
        lat_list: list[float] | None = [] if collect_latencies else None
        net = self.net
        # Observability: checked once per run; the per-event accounting below
        # reads simulation state but never alters it, so results are
        # byte-identical with the layer on or off.
        obs_on = _obs.enabled
        obs_visits = np.zeros(net.size, dtype=np.int64) if obs_on else None
        obs_waits = np.zeros(net.size, dtype=np.float64) if obs_on else None
        busy_until = np.zeros(net.size, dtype=np.float64)
        state = np.zeros(net.size, dtype=np.int64)
        # Event heap: (time, seq, proc, wire, ops_left, op_start_time)
        heap: list[tuple[float, int, int, int, int, float]] = []
        seq = 0
        for proc in range(n_procs):
            pos = proc % net.width
            heapq.heappush(heap, (0.0, seq, proc, net.inputs[pos], ops_per_proc, 0.0))
            seq += 1

        ops = 0
        makespan = 0.0
        total_latency = 0.0
        total_wait = 0.0
        while heap:
            t, _, proc, wire, ops_left, op_start = heapq.heappop(heap)
            if wire in self._terminal:
                ops += 1
                total_latency += t - op_start
                if lat_list is not None:
                    lat_list.append(t - op_start)
                makespan = max(makespan, t)
                if ops_left > 1:
                    pos = (proc + ops) % net.width
                    heapq.heappush(
                        heap, (t + self.hop_cost, seq, proc, net.inputs[pos], ops_left - 1, t + self.hop_cost)
                    )
                    seq += 1
                continue
            b_idx = self._consumer[wire]
            b = net.balancers[b_idx]
            start = max(t, float(busy_until[b_idx]))
            total_wait += start - t
            finish = start + self.access_cost
            busy_until[b_idx] = finish
            port = int(state[b_idx]) % b.width
            state[b_idx] += 1
            if obs_on:
                obs_visits[b_idx] += 1  # type: ignore[index]
                obs_waits[b_idx] += start - t  # type: ignore[index]
            heapq.heappush(heap, (finish + self.hop_cost, seq, proc, b.outputs[port], ops_left, op_start))
            seq += 1
        if obs_on:
            self._obs_publish(n_procs, ops, makespan, obs_visits, obs_waits, lat_list)
        return ContentionStats(
            ops,
            makespan,
            total_latency,
            total_wait,
            np.array(lat_list) if lat_list is not None else None,
        )

    def _obs_publish(
        self,
        n_procs: int,
        ops: int,
        makespan: float,
        visits: np.ndarray,
        waits: np.ndarray,
        lat_list: list[float] | None,
    ) -> None:
        """Publish one run's per-balancer accounting into the default
        registry/recorder (only reached while :mod:`repro.obs` is enabled)."""
        from ..obs.metrics import default_registry
        from ..obs.spans import default_span_recorder

        reg = default_registry()
        reg.counter("sim.contention.runs").inc()
        reg.counter("sim.contention.ops").inc(ops)
        if self.net.size:
            reg.vector("sim.contention.balancer_visits", self.net.size).add_array(visits)
            reg.vector(
                "sim.contention.balancer_wait", self.net.size, dtype=np.float64
            ).add_array(waits)
        if lat_list:
            hist = reg.histogram("sim.contention.latency")
            for v in lat_list:
                hist.observe(v)
        default_span_recorder().event(
            "contention_run",
            network=self.net.name,
            n_procs=n_procs,
            ops=ops,
            makespan=round(makespan, 9),
            total_wait=round(float(waits.sum()), 9),
        )
