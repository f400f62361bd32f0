"""Flat execution plans: the network evaluation engine.

:mod:`repro.core.compiled` groups balancers into *width groups per layer*
but leaves each group as a small Python object holding ``(k, p)`` index
matrices.  At the widths the paper targets (thousands of wires, ~10^5
balancers) a Python-object sweep over those groups, and a state array with
one row per SSA wire, set the speed — the interpreter and DRAM traffic,
not the network.

This module lowers a :class:`~repro.core.compiled.CompiledNetwork` one step
further, to an :class:`ExecutionPlan`:

* all per-group index matrices are concatenated into **one contiguous
  int64 array** (``in_flat``) with per-segment offset tables
  (``seg_in_off`` / ``seg_out_base`` / ``seg_width`` / ``seg_count``), one
  segment per ``(layer, width)`` pair;
* SSA wires are assigned **state rows that are reused once dead**.  A
  p-balancer consumes ``p`` wires and produces ``p``, so a network of
  width ``w`` has ``w`` live wires at every layer; each wire has exactly
  one reader, and every kernel gathers a segment's inputs before it
  stores, so a segment's input rows are free for its own outputs.  Each
  segment's outputs take the lowest contiguous run of free rows,
  position-major: writing a layer is a plain slice store (a memcpy), only
  the gather side pays for indexed addressing, and the state stays about
  ``w`` rows instead of one per SSA wire;
* the per-balancer arithmetic is a pluggable :mod:`~repro.core.semantics`
  kernel — quiescent count transfer or descending compare-exchange — so
  one executor serves the paper's isomorphic network views (the dominant
  width-2 case gets a dedicated branchless kernel in each semantics);
* a :class:`PlanExecutor` owns a reusable scratch-buffer pool (shared
  across the semantics of one network/backend pair) so steady-state
  evaluation allocates **nothing** per call, sweeps wide batches in tiles
  whose scratch fits in L2 (``_TILE_BYTES``), and optionally shards large
  batches over a process pool (``run_parallel``).

Lowering results and executors are memoized on the
:class:`~repro.core.network.Network` instance, mirroring
:func:`compile_network`; plans also serialize to/from flat arrays
(:meth:`ExecutionPlan.to_arrays`) so :mod:`repro.core.cache` can persist
them with ``np.savez``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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

#: Scratch bytes one sweep tile may use.  A batch whose state, gather and
#: totals rows would exceed it is swept in tiles of input vectors, so each
#: layer's traffic stays in a per-core L2.  On a 2-vCPU Xeon VM with 2 MiB
#: of L2 per core, a 256-row int64 sort batch of K(2^11) took ~258 ms
#: untiled, ~228 ms at 256 KiB, ~143 ms at 1 MiB and ~140 ms at 2 MiB.
_TILE_BYTES = 1 << 20

#: The narrow lane dtype a count sweep of several rows runs in when its
#: bound proves every value fits (see ``PlanExecutor._run_impl``).
_INT32 = np.dtype(np.int32)

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
    Segment ``s`` reads the ``seg_width[s] * seg_count[s]`` state rows at
    ``in_flat[seg_in_off[s] : seg_in_off[s+1]]`` (position-major: all the
    position-0 inputs first, then all position-1, ...) and writes the
    contiguous row block starting at ``seg_out_base[s]`` in the same
    position-major order, after it has read its inputs.  Inputs live in
    rows ``0..width-1``; ``num_wires`` counts state rows, which dead wires
    hand on to later segments, so the only indexed access during
    evaluation is the input gather.
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
        if n and (int(self.seg_width.min()) < 1 or int(self.seg_count.min()) < 1):
            raise ValueError("plan segment width and count must be positive")
        sizes = self.seg_width * self.seg_count
        if int(self.seg_in_off[0]) != 0 or not np.array_equal(np.diff(self.seg_in_off), sizes):
            raise ValueError("seg_in_off does not cover in_flat segment by segment")
        if self.in_flat.shape != (int(sizes.sum()),):
            raise ValueError("in_flat length != sum of segment sizes")
        for arr in (self.input_idx, self.output_idx, self.in_flat):
            if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= self.num_wires):
                raise ValueError("plan wire id out of range")
        if n and (int(self.seg_out_base.min()) < 0
                  or int((self.seg_out_base + sizes).max()) > self.num_wires):
            raise ValueError("plan segment output block out of range")
        self._validate_dataflow(sizes)

    def _validate_dataflow(self, sizes: np.ndarray) -> None:
        """Every value a plan writes is read exactly once, after it is written.

        Reused rows make this the invariant a stored plan depends on: a
        segment that reads a row nothing wrote, or a row whose value was
        already consumed or overwritten, would silently evaluate garbage.
        One sweep keeps the rows that hold an unread value.  Each segment
        must read only such rows, then write only rows that hold none (the
        kernels gather before they store); the outputs must read exactly
        the rows still holding one at the end.  A row read twice in one
        segment leaves one live row too many, which a later write or the
        last check catches.
        """
        live = np.zeros(self.num_wires, dtype=bool)
        live[self.input_idx] = True
        if int(np.count_nonzero(live)) != self.width:
            raise ValueError("plan writes two inputs to one state row")
        off, out_base = self.seg_in_off.tolist(), self.seg_out_base.tolist()
        for s, size in enumerate(sizes.tolist()):
            ins = self.in_flat[off[s] : off[s + 1]]
            if not live[ins].all():
                raise ValueError("plan reads a state row that holds no unread value")
            live[ins] = False
            block = live[out_base[s] : out_base[s] + size]
            if block.any():
                raise ValueError("plan overwrites a value before it is read")
            block[:] = True
        if not live[self.output_idx].all():
            raise ValueError("plan reads a state row that holds no unread value")
        live[self.output_idx] = False
        if live.any():
            raise ValueError("plan reads a value twice or leaves one unread")


def _first_fit(free: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """Claim the lowest run of ``n`` free rows; grow the mask if none fits.

    ``free`` marks reusable state rows.  Returns the run's first row and the
    (possibly grown) mask with the run marked used.  Growth extends a free
    run that reaches the last row, so the state widens by as little as it
    can.
    """
    edges = np.flatnonzero(np.diff(free, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    fits = np.flatnonzero(ends - starts >= n)
    if fits.size:
        start = int(starts[fits[0]])
    else:
        start = int(starts[-1]) if ends.size and ends[-1] == free.size else free.size
        free = np.concatenate((free, np.ones(start + n - free.size, dtype=bool)))
    free[start : start + n] = False
    return start, free


def lower_plan(net: Network) -> ExecutionPlan:
    """Lower ``net`` to a fresh :class:`ExecutionPlan` (no memoization).

    Wires get state rows in plan order: a segment first frees its input
    rows (their wires have no other reader), then its outputs take the
    lowest contiguous run of free rows (:func:`_first_fit`).
    """
    comp = compile_network(net)
    row = np.full(comp.num_wires, -1, dtype=np.int64)  # SSA wire -> state row
    row[comp.input_idx] = np.arange(comp.width, dtype=np.int64)
    free = np.zeros(comp.width, dtype=bool)

    in_parts: list[np.ndarray] = []
    seg_layer: list[int] = []
    seg_width: list[int] = []
    seg_count: list[int] = []
    seg_out_base: list[int] = []
    for li, layer in enumerate(comp.layers):
        for g in layer:
            k, p = g.count, g.width
            # Position-major: column j of the (k, p) matrices is contiguous.
            ins = row[np.ascontiguousarray(g.in_idx.T).ravel()]
            in_parts.append(ins)
            free[ins] = True
            base, free = _first_fit(free, p * k)
            row[np.ascontiguousarray(g.out_idx.T).ravel()] = np.arange(
                base, base + p * k, dtype=np.int64
            )
            seg_layer.append(li)
            seg_width.append(p)
            seg_count.append(k)
            seg_out_base.append(base)

    sizes = [a.shape[0] for a in in_parts]
    return ExecutionPlan(
        width=comp.width,
        num_wires=int(free.size),
        size=sum(g.count for layer in comp.layers for g in layer),
        depth=comp.depth,
        name=net.name,
        input_idx=np.arange(comp.width, dtype=np.int64),
        output_idx=np.ascontiguousarray(row[comp.output_idx]),
        in_flat=(
            np.concatenate(in_parts) if in_parts else np.empty(0, dtype=np.int64)
        ),
        seg_layer=np.array(seg_layer, dtype=np.int64),
        seg_width=np.array(seg_width, dtype=np.int64),
        seg_count=np.array(seg_count, dtype=np.int64),
        seg_in_off=np.concatenate(([0], np.cumsum(sizes))).astype(np.int64),
        seg_out_base=np.array(seg_out_base, dtype=np.int64),
    )


def lower_network(net: Network) -> ExecutionPlan:
    """Lower (and memoize per network instance) ``net`` to a flat plan."""
    if net._plan is not None:
        if _obs.enabled:
            from ..obs.metrics import default_registry

            default_registry().counter("core.plan_cache_hits").inc()
        return net._plan
    t0 = time.perf_counter()
    plan = net._plan = lower_plan(net)
    if _obs.enabled:
        from ..obs.metrics import DEFAULT_TIME_BUCKETS, default_registry
        from ..obs.spans import default_span_recorder

        dur = time.perf_counter() - t0
        reg = default_registry()
        reg.counter("core.plan_lowerings").inc()
        reg.histogram("core.plan_lower_seconds", DEFAULT_TIME_BUCKETS).observe(dur)
        default_span_recorder().event(
            "plan_lower", dur, network=net.name, segments=plan.num_segments,
            balancers=plan.size,
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
    per_net = net._executors
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

    __slots__ = ("state", "gather", "totals", "out", "numeric", "last_used")

    def __init__(self, plan: ExecutionPlan, batch: int, dtype: np.dtype) -> None:
        max_flat, max_count = _scratch_rows(plan)
        # No zero-init needed: every row read holds a network input (written
        # from x) or an earlier segment's output (ExecutionPlan._validate
        # checks this dataflow for every plan loaded from arrays).
        self.state = np.empty((plan.num_wires, batch), dtype=dtype)
        self.gather = np.empty((max_flat, batch), dtype=dtype)
        self.totals = np.empty((max_count, batch), dtype=dtype)
        # Int32-lane sweeps gather their outputs here, then widen them into
        # the int64 result; other sweeps never touch it.
        self.out = np.empty((plan.width, batch), dtype=dtype) if dtype == _INT32 else None
        # Whether the branchless min/max width-2 kernel applies (sort
        # semantics falls back to the generic sort kernel for e.g. str_).
        self.numeric = dtype.kind in "biufc"
        self.last_used = 0

    def narrowed(self, batch: int) -> "_Scratch":
        """Views of the first ``batch`` columns' worth of storage, each
        C-contiguous, for a last tile narrower than the pooled one."""
        view = object.__new__(_Scratch)
        for name in ("state", "gather", "totals", "out"):
            buf = getattr(self, name)
            if buf is not None:
                rows = buf.shape[0]
                buf = buf.reshape(-1)[: rows * batch].reshape(rows, batch)
            setattr(view, name, buf)
        view.numeric = self.numeric
        return view


def _scratch_rows(plan: ExecutionPlan) -> tuple[int, int]:
    """Rows of the gather and totals scratch: the largest segment size
    ``p * k`` and the largest balancer count ``k``."""
    sizes = plan.seg_width * plan.seg_count
    return int(sizes.max(initial=0)), int(plan.seg_count.max(initial=0))


class _BitScratch:
    """One word-count's worth of reusable bit-sliced buffers (uint64)."""

    __slots__ = ("state", "gather", "tmp", "last_used")

    def __init__(self, bitplan: BitPlan, nwords: int) -> None:
        max_flat, max_count = _scratch_rows(bitplan.plan)
        self.state = np.empty((bitplan.num_wires, nwords), dtype=np.uint64)
        self.gather = np.empty((max_flat, nwords), dtype=np.uint64)
        self.tmp = np.empty((max_count, nwords), dtype=np.uint64)
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
    at most ``max_pooled`` batch sizes, evicting least-recently-used.  A
    batch whose scratch would exceed ``_TILE_BYTES`` is swept one tile of
    input vectors at a time through one pooled tile-sized scratch, so its
    state stays cache-resident across the layers.

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
        # Scratch elements one input vector needs: state, gather and totals.
        self._vector_elems = plan.num_wires + sum(_scratch_rows(plan))
        self._int32_limit = self.semantics.int32_limit(plan)
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
        """Evaluate a ``(B, width)`` batch under this executor's semantics.

        ``count`` returns int64 counts; ``sort`` evaluates in the input's
        own dtype (numbers, strings, ...).  A count batch of two or more
        rows is swept in int32 lanes when ``width * max|x| + p_max - 1``
        fits int32 (no value of the sweep can then exceed it), and in int64
        lanes otherwise; the outputs are the same either way.  Returns a
        fresh ``(B, width)`` output array (the only allocation in steady
        state).  When ``layer_times`` (a float64 array of length ``depth``)
        is given, per-layer wall-clock seconds are accumulated into it, over
        every tile of a tiled batch; the arithmetic is identical either way.
        """
        if not _obs.enabled:
            return self._run_impl(x, layer_times)
        from ..obs.spans import default_span_recorder

        rec = default_span_recorder()
        parent = rec.current_batch
        with rec.span(
            "executor",
            parent_id=None if parent is None else parent.span_id,
            plan=self.plan.name,
            backend=self.backend,
            semantics=self.semantics.name,
            run=self.batches,
            rows=int(x.shape[0]) if x.ndim == 2 else None,
        ) as span:
            if parent is not None:
                # Bidirectional linkage: the batch span names the executor run
                # that evaluated it, and the executor span points back up.
                parent.fields["executor_run"] = span.span_id
            return self._run_impl(x, layer_times, span)

    def _tile_rows(self, dtype: np.dtype) -> int:
        """Input vectors per tile: as many as fit ``_TILE_BYTES`` of scratch."""
        return _TILE_BYTES // (self._vector_elems * dtype.itemsize)

    def _fits_int32(self, x: np.ndarray) -> bool:
        """Whether this semantics can sweep ``x`` exactly in int32 lanes.

        The bound is taken in Python ints: negating ``INT64_MIN`` in int64
        would wrap to itself.
        """
        limit = self._int32_limit
        return limit is not None and max(
            int(np.maximum.reduce(x, axis=None)), -int(np.minimum.reduce(x, axis=None))
        ) <= limit

    def _run_impl(
        self, x: np.ndarray, layer_times: np.ndarray | None = None, span=None
    ) -> np.ndarray:
        plan = self.plan
        if x.ndim != 2 or x.shape[1] != plan.width:
            raise ValueError(f"expected input shape (B, {plan.width}), got {x.shape}")
        if self.backend == "bitsliced":
            if span is not None:
                span.fields["lanes"] = "uint64"
            # Raises NotZeroOneError on anything a bit cannot hold.
            packed, batch = pack_zero_one(x)
            out = self._run_packed_impl(packed, layer_times)
            return unpack_zero_one(out, batch)
        x = self.semantics.prepare(x)
        batch = x.shape[0]
        self.batches += 1
        # The one place the lanes are chosen.  A single vector keeps the
        # input dtype: its sweep is dispatch-bound, so narrowing saves a few
        # percent at best, and the cast costs more than that on small nets.
        lanes = _INT32 if batch > 1 and self._fits_int32(x) else x.dtype
        if span is not None:
            # The scalar type's name: ``dtype.name`` runs Python code (~5 us).
            span.fields["lanes"] = lanes.type.__name__
        tile = max(1, min(batch, self._tile_rows(lanes)))
        s = self.pool.scratch(plan, tile, lanes)
        out = np.empty(x.shape, dtype=x.dtype)
        for lo in range(0, batch, tile):
            hi = min(lo + tile, batch)
            part = s if hi - lo == tile else s.narrowed(hi - lo)
            self._sweep(x[lo:hi], part, out[lo:hi], layer_times)
        return out

    def _sweep(
        self, x: np.ndarray, s: _Scratch, out: np.ndarray, layer_times: np.ndarray | None
    ) -> None:
        """Run every segment over ``x`` (one tile) in ``s`` and write the
        network outputs into ``out``, the tile's rows of the result.  In
        int32 lanes the tile is narrowed as it is written into the state
        rows and widened as it leaves through ``s.out``."""
        plan = self.plan
        state = s.state
        state[plan.input_idx] = x.T
        segment = self.semantics.segment
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
        if state.dtype == out.dtype:
            state.take(plan.output_idx, axis=0, out=out.T, mode="clip")
        else:
            state.take(plan.output_idx, axis=0, out=s.out, mode="clip")
            out.T[...] = s.out

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
        x = self.semantics.prepare(x)
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
