"""Flat execution plans: the network evaluation engine.

:mod:`repro.core.compiled` groups balancers into *width groups per layer*
but leaves each group as a small Python object holding ``(k, p)`` index
matrices, and each evaluation allocates a fresh ``(num_wires, batch)``
state array.  At the widths the paper targets (thousands of wires, ~10^5
balancers) that Python-object sweep and the per-call allocation dominate
wall-clock — the interpreter, not the network, sets the speed.

This module lowers a :class:`~repro.core.compiled.CompiledNetwork` one step
further, to an :class:`ExecutionPlan`:

* all per-group index matrices are concatenated into **one contiguous
  int64 array** (``in_flat``) with per-segment offset tables
  (``seg_in_off`` / ``seg_out_base`` / ``seg_width`` / ``seg_count``), one
  segment per ``(layer, width)`` pair;
* SSA wire ids are **renumbered** so that every segment's output wires form
  one contiguous block, position-major.  Writing a layer's outputs is then a
  plain slice store (a memcpy), not a fancy scatter — only the gather side
  pays for indexed addressing;
* the per-balancer arithmetic is a pluggable :mod:`~repro.core.semantics`
  kernel — quiescent count transfer or descending compare-exchange — so
  one executor serves the paper's isomorphic network views (the dominant
  width-2 case gets a dedicated branchless kernel in each semantics);
* a :class:`PlanExecutor` owns a reusable scratch-buffer pool (shared
  across the semantics of one network/backend pair) so steady-state
  evaluation allocates **nothing** per call, and optionally shards large
  batches over a process pool (``run_parallel``).

Lowering results are memoized per :class:`~repro.core.network.Network`
instance (``WeakKeyDictionary``), mirroring :func:`compile_network`; plans
also serialize to/from flat arrays (:meth:`ExecutionPlan.to_arrays`) so
:mod:`repro.core.cache` can persist them with ``np.savez``.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from ..obs import runtime as _obs
from .bitplan import LANES, BitPlan, pack_zero_one, unpack_zero_one
from .compiled import compile_network
from .network import Network
from .semantics import SEMANTICS, get_semantics

__all__ = [
    "BACKENDS",
    "SEMANTICS",
    "ExecutionPlan",
    "PlanExecutor",
    "lower_network",
    "plan_executor",
]

#: Execution backends a :class:`PlanExecutor` can run.
BACKENDS = ("int64", "bitsliced")

#: Arrays that round-trip a plan through ``np.savez`` (see ``to_arrays``).
_ARRAY_FIELDS = (
    "input_idx",
    "output_idx",
    "in_flat",
    "seg_layer",
    "seg_width",
    "seg_count",
    "seg_in_off",
    "seg_out_base",
)


@dataclass(frozen=True)
class ExecutionPlan:
    """A network lowered to flat index arrays plus offset tables.

    One *segment* holds every balancer of one width within one layer.
    Segment ``s`` reads the ``seg_width[s] * seg_count[s]`` wire ids at
    ``in_flat[seg_in_off[s] : seg_in_off[s+1]]`` (position-major: all the
    position-0 inputs first, then all position-1, ...) and writes the
    contiguous wire block starting at ``seg_out_base[s]`` in the same
    position-major order.  Wire ids are plan-local: inputs are renumbered to
    ``0..width-1`` and every segment's outputs are consecutive, so the only
    indexed access during evaluation is the input gather.
    """

    width: int
    num_wires: int
    size: int
    depth: int
    name: str
    input_idx: np.ndarray
    output_idx: np.ndarray
    in_flat: np.ndarray
    seg_layer: np.ndarray
    seg_width: np.ndarray
    seg_count: np.ndarray
    seg_in_off: np.ndarray
    seg_out_base: np.ndarray

    @property
    def num_segments(self) -> int:
        return int(self.seg_width.shape[0])

    def layer_segment_counts(self) -> np.ndarray:
        """Segments per layer (length ``depth``); used by instrumentation."""
        counts = np.zeros(max(self.depth, 1), dtype=np.int64)
        for li in self.seg_layer:
            counts[int(li)] += 1
        return counts

    @property
    def nbytes(self) -> int:
        """Total bytes of the plan's index arrays."""
        return int(sum(getattr(self, f).nbytes for f in _ARRAY_FIELDS))

    # -- serialization ------------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flat array dict for ``np.savez`` (scalars as 0-d arrays)."""
        out = {f: getattr(self, f) for f in _ARRAY_FIELDS}
        out["scalars"] = np.array(
            [self.width, self.num_wires, self.size, self.depth], dtype=np.int64
        )
        return out

    @classmethod
    def from_arrays(cls, arrays, name: str = "plan") -> "ExecutionPlan":
        """Rebuild a plan written by :meth:`to_arrays` (e.g. an ``NpzFile``)."""
        scalars = np.asarray(arrays["scalars"], dtype=np.int64)
        if scalars.shape != (4,):
            raise ValueError(f"bad plan scalars shape {scalars.shape}")
        kwargs = {
            f: np.ascontiguousarray(np.asarray(arrays[f], dtype=np.int64))
            for f in _ARRAY_FIELDS
        }
        plan = cls(
            width=int(scalars[0]),
            num_wires=int(scalars[1]),
            size=int(scalars[2]),
            depth=int(scalars[3]),
            name=name,
            **kwargs,
        )
        plan._validate()
        return plan

    def _validate(self) -> None:
        """Structural sanity for deserialized plans (corrupted-cache guard)."""
        w = self.width
        if w < 1 or self.num_wires < w:
            raise ValueError(f"bad plan dimensions width={w} num_wires={self.num_wires}")
        if self.input_idx.shape != (w,) or self.output_idx.shape != (w,):
            raise ValueError("plan input/output index length != width")
        n = self.num_segments
        for f in ("seg_layer", "seg_width", "seg_count", "seg_out_base"):
            if getattr(self, f).shape != (n,):
                raise ValueError(f"plan segment table {f} has wrong length")
        if self.seg_in_off.shape != (n + 1,):
            raise ValueError("seg_in_off must have num_segments + 1 entries")
        sizes = self.seg_width * self.seg_count
        if n and int(self.seg_in_off[-1]) != int(sizes.sum()):
            raise ValueError("seg_in_off does not cover in_flat")
        if self.in_flat.shape != (int(sizes.sum()),):
            raise ValueError("in_flat length != sum of segment sizes")
        for arr in (self.input_idx, self.output_idx, self.in_flat):
            if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= self.num_wires):
                raise ValueError("plan wire id out of range")


def lower_plan(net: Network) -> ExecutionPlan:
    """Lower ``net`` to a fresh :class:`ExecutionPlan` (no memoization)."""
    comp = compile_network(net)
    remap = np.full(comp.num_wires, -1, dtype=np.int64)
    remap[comp.input_idx] = np.arange(comp.width, dtype=np.int64)
    next_wire = comp.width

    in_parts: list[np.ndarray] = []
    seg_layer: list[int] = []
    seg_width: list[int] = []
    seg_count: list[int] = []
    seg_out_base: list[int] = []
    for li, layer in enumerate(comp.layers):
        for g in layer:
            k, p = g.count, g.width
            # Position-major: column j of the (k, p) matrices is contiguous.
            in_parts.append(remap[np.ascontiguousarray(g.in_idx.T).ravel()])
            remap[np.ascontiguousarray(g.out_idx.T).ravel()] = np.arange(
                next_wire, next_wire + p * k, dtype=np.int64
            )
            seg_layer.append(li)
            seg_width.append(p)
            seg_count.append(k)
            seg_out_base.append(next_wire)
            next_wire += p * k

    sizes = [a.shape[0] for a in in_parts]
    plan = ExecutionPlan(
        width=comp.width,
        num_wires=next_wire,
        size=sum(g.count for layer in comp.layers for g in layer),
        depth=comp.depth,
        name=net.name,
        input_idx=np.arange(comp.width, dtype=np.int64),
        output_idx=np.ascontiguousarray(remap[comp.output_idx]),
        in_flat=(
            np.concatenate(in_parts) if in_parts else np.empty(0, dtype=np.int64)
        ),
        seg_layer=np.array(seg_layer, dtype=np.int64),
        seg_width=np.array(seg_width, dtype=np.int64),
        seg_count=np.array(seg_count, dtype=np.int64),
        seg_in_off=np.concatenate(([0], np.cumsum(sizes))).astype(np.int64),
        seg_out_base=np.array(seg_out_base, dtype=np.int64),
    )
    return plan


_plan_cache: "weakref.WeakKeyDictionary[Network, ExecutionPlan]" = weakref.WeakKeyDictionary()
_executor_cache: "weakref.WeakKeyDictionary[Network, dict[tuple[str, str], PlanExecutor]]" = (
    weakref.WeakKeyDictionary()
)


def lower_network(net: Network) -> ExecutionPlan:
    """Lower (and memoize per network instance) ``net`` to a flat plan."""
    cached = _plan_cache.get(net)
    if cached is not None:
        if _obs.enabled:
            from ..obs.metrics import default_registry

            default_registry().counter("core.plan_cache_hits").inc()
        return cached
    t0 = time.perf_counter()
    plan = lower_plan(net)
    _plan_cache[net] = plan
    if _obs.enabled:
        from ..obs.metrics import DEFAULT_TIME_BUCKETS, default_registry
        from ..obs.tracer import default_tracer

        dur = time.perf_counter() - t0
        reg = default_registry()
        reg.counter("core.plan_lowerings").inc()
        reg.histogram("core.plan_lower_seconds", DEFAULT_TIME_BUCKETS).observe(dur)
        default_tracer().record(
            "plan_lower",
            network=net.name,
            segments=plan.num_segments,
            balancers=plan.size,
            dur_s=round(dur, 9),
        )
    return plan


def plan_executor(
    net: Network, backend: str = "int64", semantics: str = "count"
) -> "PlanExecutor":
    """The long-lived, scratch-pooled executor for ``net`` (memoized).

    One executor per ``(network, backend, semantics)`` triple; all share
    the same memoized :class:`ExecutionPlan`, and the executors of one
    ``(network, backend)`` pair share one LRU scratch-buffer pool — the
    count and sort views of a network reuse each other's warm buffers
    instead of doubling the steady-state footprint."""
    per_net = _executor_cache.get(net)
    if per_net is None:
        per_net = {}
        _executor_cache[net] = per_net
    key = (backend, semantics)
    ex = per_net.get(key)
    if ex is None:
        # Adopt the scratch pool of a sibling semantics on the same backend.
        pool = next(
            (e.pool for (b, _), e in per_net.items() if b == backend), None
        )
        ex = PlanExecutor(lower_network(net), backend=backend, semantics=semantics, pool=pool)
        per_net[key] = ex
    return ex


class _Scratch:
    """One ``(batch, dtype)``'s worth of reusable evaluation buffers."""

    __slots__ = ("state", "gather", "totals", "numeric", "last_used")

    def __init__(self, plan: ExecutionPlan, batch: int, dtype: np.dtype) -> None:
        sizes = plan.seg_width * plan.seg_count
        max_flat = int(sizes.max()) if sizes.size else 0
        max_count = int(plan.seg_count.max()) if plan.seg_count.size else 0
        # No zero-init needed: every wire read is either a network input
        # (written from x) or a segment output (written before any reader,
        # by topological layer order).
        self.state = np.empty((plan.num_wires, batch), dtype=dtype)
        self.gather = np.empty((max_flat, batch), dtype=dtype)
        self.totals = np.empty((max_count, batch), dtype=dtype)
        # Whether the branchless min/max width-2 kernel applies (sort
        # semantics falls back to the generic sort kernel for e.g. str_).
        self.numeric = dtype.kind in "biufc"
        self.last_used = 0


class _BitScratch:
    """One word-count's worth of reusable bit-sliced buffers (uint64)."""

    __slots__ = ("state", "gather", "tmp", "last_used")

    def __init__(self, bitplan: BitPlan, nwords: int) -> None:
        self.state = np.empty((bitplan.num_wires, nwords), dtype=np.uint64)
        self.gather = np.empty((bitplan.max_gather, nwords), dtype=np.uint64)
        self.tmp = np.empty((bitplan.max_count, nwords), dtype=np.uint64)
        self.last_used = 0


class _ScratchPool:
    """The LRU scratch-buffer pool, shareable between executors.

    Keys are ``(batch, dtype)`` for int64/typed scratch and word counts
    for bit-sliced scratch.  ``plan_executor`` hands one pool to every
    semantics of a ``(network, backend)`` pair, so e.g. the count and
    sort executors of one served network reuse the same warm buffers.
    ``buffer_allocs`` / ``buffer_reuses`` count pool misses/hits; they
    are plain attributes (always maintained) and mirrored into the obs
    registry when observability is enabled.
    """

    __slots__ = ("max_pooled", "buffer_allocs", "buffer_reuses", "_pool", "_bit_pool", "_clock")

    def __init__(self, max_pooled: int = 4) -> None:
        self.max_pooled = int(max_pooled)
        self.buffer_allocs = 0
        self.buffer_reuses = 0
        self._pool: dict[tuple[int, str], _Scratch] = {}
        self._bit_pool: dict[int, _BitScratch] = {}
        self._clock = 0

    def _count_hit_miss(self, hit: bool) -> None:
        if hit:
            self.buffer_reuses += 1
        else:
            self.buffer_allocs += 1
        if _obs.enabled:
            from ..obs.metrics import default_registry

            name = "plan.buffer_reuses" if hit else "plan.buffer_allocs"
            default_registry().counter(name).inc()

    def scratch(self, plan: ExecutionPlan, batch: int, dtype: np.dtype) -> _Scratch:
        self._clock += 1
        key = (batch, dtype.str)
        s = self._pool.get(key)
        if s is None:
            if len(self._pool) >= self.max_pooled:
                evict = min(self._pool, key=lambda k: self._pool[k].last_used)
                del self._pool[evict]
            s = _Scratch(plan, batch, dtype)
            self._pool[key] = s
        self._count_hit_miss(hit=s.last_used > 0)
        s.last_used = self._clock
        return s

    def bit_scratch(self, bitplan: BitPlan, nwords: int) -> _BitScratch:
        self._clock += 1
        s = self._bit_pool.get(nwords)
        if s is None:
            if len(self._bit_pool) >= self.max_pooled:
                evict = min(self._bit_pool, key=lambda n: self._bit_pool[n].last_used)
                del self._bit_pool[evict]
            s = _BitScratch(bitplan, nwords)
            self._bit_pool[nwords] = s
        self._count_hit_miss(hit=s.last_used > 0)
        s.last_used = self._clock
        return s


class PlanExecutor:
    """Evaluates an :class:`ExecutionPlan` with zero steady-state allocation.

    Scratch buffers are pooled per batch size (a handful of distinct batch
    sizes in practice — the serving path always evaluates one step vector);
    repeated calls with a seen batch size allocate nothing.  The pool keeps
    at most ``max_pooled`` batch sizes, evicting least-recently-used.

    ``buffer_allocs`` / ``buffer_reuses`` count pool misses/hits; they are
    plain attributes (always maintained) and are mirrored into the obs
    registry when observability is enabled.

    ``backend="bitsliced"`` evaluates through a :class:`BitPlan` instead:
    :meth:`run` packs each ``(B, w)`` 0-1 batch into uint64 words (64 rows
    per word), sweeps the same segment tables with bitwise kernels, and
    unpacks — byte-identical to the int64 path on 0-1 inputs, and a
    :class:`~repro.core.bitplan.NotZeroOneError` on anything else.  The
    packed form is also exposed directly via :meth:`run_packed`.  On 0-1
    inputs the counting transfer and the descending compare-exchange
    coincide (OR on top, AND below), so the bit-sliced backend serves both
    ``count`` and ``sort`` semantics with the same kernels.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        max_pooled: int = 4,
        backend: str = "int64",
        semantics: str = "count",
        pool: _ScratchPool | None = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        self.plan = plan
        self.backend = backend
        self.semantics = get_semantics(semantics)
        self.pool = pool if pool is not None else _ScratchPool(max_pooled)
        self.batches = 0
        self._bitplan = BitPlan(plan) if backend == "bitsliced" else None
        self._workers_pool = None
        self._workers_n = 0

    # -- scratch pool -------------------------------------------------------

    @property
    def max_pooled(self) -> int:
        return self.pool.max_pooled

    @property
    def buffer_allocs(self) -> int:
        return self.pool.buffer_allocs

    @property
    def buffer_reuses(self) -> int:
        return self.pool.buffer_reuses

    def scratch_stats(self) -> dict:
        """Pool accounting: sizes held, allocs, reuses, batches run."""
        return {
            "pooled_batch_sizes": sorted({b for b, _ in self.pool._pool})
            + sorted(self.pool._bit_pool),
            "buffer_allocs": self.pool.buffer_allocs,
            "buffer_reuses": self.pool.buffer_reuses,
            "batches": self.batches,
            "backend": self.backend,
            "semantics": self.semantics.name,
        }

    # -- evaluation ---------------------------------------------------------

    def run(self, x: np.ndarray, layer_times: np.ndarray | None = None) -> np.ndarray:
        """Evaluate a ``(B, width)`` int64 batch of non-negative counts.

        Returns a fresh ``(B, width)`` output array (the only allocation in
        steady state).  When ``layer_times`` (a float64 array of length
        ``depth``) is given, per-layer wall-clock seconds are accumulated
        into it; the arithmetic is identical either way.
        """
        if not _obs.enabled:
            return self._run_impl(x, layer_times)
        from ..obs.spans import default_span_recorder

        rec = default_span_recorder()
        parent = rec.current_batch
        span = rec.start(
            "executor",
            parent_id=None if parent is None else parent.span_id,
            plan=self.plan.name,
            backend=self.backend,
            semantics=self.semantics.name,
            run=self.batches,
            rows=int(x.shape[0]) if x.ndim == 2 else None,
        )
        if parent is not None:
            # Bidirectional linkage: the batch span names the executor run
            # that evaluated it, and the executor span points back up.
            parent.fields["executor_run"] = span.span_id
        try:
            out = self._run_impl(x, layer_times)
        except Exception:
            rec.finish(span, "error")
            raise
        rec.finish(span, "ok")
        return out

    def _run_impl(self, x: np.ndarray, layer_times: np.ndarray | None = None) -> np.ndarray:
        plan = self.plan
        if x.ndim != 2 or x.shape[1] != plan.width:
            raise ValueError(f"expected input shape (B, {plan.width}), got {x.shape}")
        if self.backend == "bitsliced":
            # Raises NotZeroOneError on anything a bit cannot hold.
            packed, batch = pack_zero_one(x)
            out = self._run_packed_impl(packed, layer_times)
            return unpack_zero_one(out, batch)
        sem = self.semantics
        x = sem.prepare(x)
        batch = x.shape[0]
        self.batches += 1
        s = self.pool.scratch(plan, batch, x.dtype)
        state = s.state
        state[plan.input_idx] = x.T

        segment = sem.segment
        seg_width = plan.seg_width
        seg_count = plan.seg_count
        seg_in_off = plan.seg_in_off
        seg_out_base = plan.seg_out_base
        in_flat = plan.in_flat
        if layer_times is None:
            for i in range(plan.num_segments):
                segment(
                    state, s, in_flat,
                    int(seg_width[i]), int(seg_count[i]),
                    int(seg_in_off[i]), int(seg_out_base[i]),
                )
        else:
            seg_layer = plan.seg_layer
            for i in range(plan.num_segments):
                t0 = time.perf_counter()
                segment(
                    state, s, in_flat,
                    int(seg_width[i]), int(seg_count[i]),
                    int(seg_in_off[i]), int(seg_out_base[i]),
                )
                layer_times[int(seg_layer[i])] += time.perf_counter() - t0
        return state[plan.output_idx].T.copy()

    # -- bit-sliced evaluation ----------------------------------------------

    def run_packed(
        self, packed: np.ndarray, layer_times: np.ndarray | None = None
    ) -> np.ndarray:
        """Evaluate pre-packed ``(w, nwords)`` uint64 words (64 0-1 input
        vectors per word; see :func:`~repro.core.bitplan.pack_zero_one`).

        Only valid on the ``bitsliced`` backend.  Returns the packed
        ``(w, nwords)`` output words; exhaustive sweeps stay packed end to
        end and never pay the unpack."""
        if self.backend != "bitsliced":
            raise ValueError("run_packed needs PlanExecutor(backend='bitsliced')")
        packed = np.ascontiguousarray(packed, dtype=np.uint64)
        if packed.ndim != 2 or packed.shape[0] != self.plan.width:
            raise ValueError(
                f"expected packed shape ({self.plan.width}, nwords), got {packed.shape}"
            )
        return self._run_packed_impl(packed, layer_times)

    def _run_packed_impl(
        self, packed: np.ndarray, layer_times: np.ndarray | None = None
    ) -> np.ndarray:
        self.batches += 1
        s = self.pool.bit_scratch(self._bitplan, packed.shape[1])
        return self._bitplan.run_packed(
            packed, s.state, s.gather, s.tmp, layer_times=layer_times
        )

    # -- parallel batch evaluation ------------------------------------------

    def run_parallel(self, x: np.ndarray, workers: int) -> np.ndarray:
        """Shard a large batch row-wise over a process pool sharing the plan.

        Falls back to the serial path when ``workers <= 1``, the batch is
        too small to shard, or process pools are unavailable.  Results are
        byte-identical to :meth:`run` — rows are independent.
        """
        workers = int(workers)
        batch = x.shape[0]
        # Worker processes rebuild int64 executors from the plan arrays;
        # bit-sliced batches are cheap enough that sharding never pays.
        if workers <= 1 or batch < 2 * workers or self.backend != "int64":
            return self.run(x)
        pool = self._ensure_pool(workers)
        if pool is None:
            return self.run(x)
        x = np.ascontiguousarray(x, dtype=np.int64)
        shards = np.array_split(x, workers)
        if _obs.enabled:
            from ..obs.metrics import default_registry

            reg = default_registry()
            reg.counter("plan.parallel_batches").inc()
            reg.counter("plan.parallel_shards").inc(len(shards))
        outs = list(pool.map(_eval_shard, shards))
        return np.concatenate(outs, axis=0)

    def _ensure_pool(self, workers: int):
        """Lazily build (or rebuild on a different worker count) the pool."""
        if self._workers_pool is not None and self._workers_n == workers:
            return self._workers_pool
        self.close_pool()
        try:
            import multiprocessing as mp
            from concurrent.futures import ProcessPoolExecutor

            try:
                ctx = mp.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                ctx = mp.get_context()
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=ctx,
                initializer=_worker_init,
                initargs=(self.plan.to_arrays(), self.plan.name, self.semantics.name),
            )
        except (ImportError, OSError):  # pragma: no cover - no process support
            return None
        self._workers_pool = pool
        self._workers_n = workers
        return pool

    def close_pool(self) -> None:
        """Shut down the parallel worker pool (no-op when none exists)."""
        if self._workers_pool is not None:
            # wait=True: a non-waited shutdown leaves the pool's management
            # thread racing interpreter exit (atexit "Bad file descriptor"
            # noise); pool teardown is rare, so blocking is cheap.
            self._workers_pool.shutdown(wait=True, cancel_futures=True)
            self._workers_pool = None
            self._workers_n = 0

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown timing
        try:
            self.close_pool()
        except Exception:
            pass


#: Per-worker-process executor, installed by ``_worker_init`` after fork/spawn.
_WORKER_EXECUTOR: PlanExecutor | None = None


def _worker_init(plan_arrays: dict, name: str, semantics: str = "count") -> None:
    global _WORKER_EXECUTOR
    _WORKER_EXECUTOR = PlanExecutor(
        ExecutionPlan.from_arrays(plan_arrays, name=name), semantics=semantics
    )


def _eval_shard(x: np.ndarray) -> np.ndarray:
    assert _WORKER_EXECUTOR is not None, "worker pool not initialized"
    return _WORKER_EXECUTOR.run(x)
