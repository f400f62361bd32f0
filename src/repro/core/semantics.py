"""Pluggable per-balancer semantics for the flat plan executor.

The paper's two value views of one network — quiescent token counts and
descending comparator sorting — are isomorphic walks over the same wiring
(paper §1, Figure 2).  A single :class:`~repro.core.plan.ExecutionPlan`
sweep is parameterized by a small kernel object:

``CountSemantics``
    The quiescent-count transfer ``out[j] = ceil((T - j) / p)``: the
    branchless width-2 shift kernel plus the general in-place kernel
    ``(T + p - 1 - j) // p`` (a right shift for ``p`` a power of two).
    The same kernels run in int64 lanes or, when a batch's bound proves it
    exact (:meth:`CountSemantics.int32_limit`), in int32 lanes.
``SortSemantics``
    Descending compare-exchange: width-2 balancers become a branchless
    ``np.maximum`` / ``np.minimum`` pair, general ``p``-comparators an
    in-place ascending sort read out in reverse.  The evaluation dtype is
    the *input's* dtype — sorting floats or int8 0-1 vectors through the
    int64 count kernels would corrupt them, so the executor's scratch
    pool keys buffers by ``(batch, dtype)``.

The asynchronous token view needs no kernel of its own.  A ``p``-balancer
sends its ``i``-th token to port ``i mod p``, so once ``T`` tokens have
passed, port ``j`` holds ``ceil((T - j) / p)`` whatever the schedule: the
count kernel *is* the batched token view at quiescence.  Only
step-granular questions (traces, exit orders, Fetch&Increment values)
need :class:`~repro.sim.token_sim.TokenSimulator`.

Every semantics also carries the per-balancer **override sweep** used for
:class:`repro.faults.FaultyNetwork` mutants, whose behavior (e.g. a stuck
routing bit) is not expressible in the structural IR the plan compiler
consumes.  Overridden networks never take the flat-plan fast path; the
sweeps here are the single implementation all simulators share.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SEMANTICS",
    "Semantics",
    "CountSemantics",
    "SortSemantics",
    "get_semantics",
]

#: Execution semantics a :class:`~repro.core.plan.PlanExecutor` can run.
SEMANTICS = ("count", "sort")


class Semantics:
    """One balancer transfer function, vectorized over plan segments.

    Subclasses implement :meth:`segment` — evaluate one ``(layer, width)``
    segment of ``k`` balancers of width ``p`` in place — plus
    :meth:`prepare` (input casting policy) and :meth:`apply_overridden`
    (the per-balancer fault sweep).  Instances are stateless singletons
    shared by every executor; the only mutable member is the count
    kernel's tiny per-width bias-column cache.

    Kernel gathers use ``np.take(..., mode="clip")``: the default
    ``mode="raise"`` spends a full extra pass bounds-checking the index
    array (~3x the gather cost at plan scale), and every plan index is
    already validated once at lowering/deserialization time
    (:meth:`~repro.core.plan.ExecutionPlan._validate`).
    """

    #: Registry name; also stamped into spans and executor stats.
    name = "semantics"

    def prepare(self, x: np.ndarray) -> np.ndarray:
        """Cast a validated ``(B, w)`` batch to the evaluation dtype."""
        return np.ascontiguousarray(x, dtype=np.int64)

    def int32_limit(self, plan) -> int | None:
        """The largest input magnitude for which every value a sweep of
        ``plan`` computes fits int32, or ``None`` if this semantics always
        sweeps in the input's dtype."""
        return None

    def segment(self, state, scratch, in_flat, p: int, k: int, off: int, ob: int) -> None:
        raise NotImplementedError

    def apply_overridden(self, net, x: np.ndarray, overrides: dict) -> np.ndarray:
        raise NotImplementedError


class CountSemantics(Semantics):
    """Quiescent-count transfer (the original plan kernels).

    The kernels run in the dtype of the state rows they are handed: int64,
    or int32 when :meth:`int32_limit` proves that exact for the batch.
    """

    name = "count"

    def __init__(self) -> None:
        # Bias column (p - 1 - j) of shape (p, 1, 1) per (width, dtype),
        # shared across executors.
        self._bias: dict[tuple[int, np.dtype], np.ndarray] = {}

    def _bias_col(self, p: int, dtype: np.dtype) -> np.ndarray:
        col = self._bias.get((p, dtype))
        if col is None:
            col = np.arange(p - 1, -1, -1, dtype=dtype)[:, None, None]
            self._bias[p, dtype] = col
        return col

    def int32_limit(self, plan) -> int:
        """``(2^31 - 1 - (p_max - 1)) // width``.

        A ``p``-balancer's outputs add up to its input total and share its
        sign, so the L1 norm of a row never grows from one layer to the
        next: no wire, and no balancer total, holds more than ``width *
        max|x|`` in magnitude.  Before shifting or dividing, the kernels add
        at most ``p - 1`` to a total.
        """
        p_max = int(plan.seg_width.max(initial=1))
        return (np.iinfo(np.int32).max - (p_max - 1)) // plan.width

    def segment(self, state, scratch, in_flat, p: int, k: int, off: int, ob: int) -> None:
        if p == 2:
            g = scratch.gather[: 2 * k]
            np.take(state, in_flat[off : off + 2 * k], axis=0, out=g, mode="clip")
            top = state[ob : ob + k]
            bot = state[ob + k : ob + 2 * k]
            np.add(g[:k], g[k:], out=bot)  # totals
            np.add(bot, 1, out=top)
            np.right_shift(top, 1, out=top)  # ceil(t/2)
            np.right_shift(bot, 1, out=bot)  # floor(t/2)
            return
        size = p * k
        g = scratch.gather[:size]
        np.take(state, in_flat[off : off + size], axis=0, out=g, mode="clip")
        vals = g.reshape(p, k, -1)
        tot = scratch.totals[:k]
        vals.sum(axis=0, out=tot)
        out = state[ob : ob + size].reshape(p, k, -1)
        # out[j] = (tot + (p - 1 - j)) // p: one add of the cached bias
        # column, then one division, without temporaries.  For p a power of
        # two the division is an arithmetic right shift, which floors every
        # integer, negative ones included.
        np.add(tot[None, :, :], self._bias_col(p, tot.dtype), out=out)
        if p & (p - 1):
            np.floor_divide(out, p, out=out)
        else:
            np.right_shift(out, p.bit_length() - 1, out=out)

    def apply_overridden(self, net, x: np.ndarray, overrides: dict) -> np.ndarray:
        """Per-balancer batched count sweep honoring semantic overrides."""
        batch = x.shape[0]
        in_idx, out_idx = net.io_arrays()
        _, in_concat, out_concat, bounds = net.wire_arrays()
        blist = bounds.tolist()
        state = np.zeros((net.num_wires, batch), dtype=np.int64)
        state[in_idx] = x.T
        for index in range(net.size):
            lo, hi = blist[index], blist[index + 1]
            p = hi - lo
            totals = state[in_concat[lo:hi]].sum(axis=0)
            ov = overrides.get(index)
            if ov is not None:
                state[out_concat[lo:hi]] = ov.apply_counts(totals, p)
            else:
                j = np.arange(p, dtype=np.int64)[:, None]
                state[out_concat[lo:hi]] = (totals[None, :] - j + p - 1) // p
        return state[out_idx].T


#: Widest comparator evaluated with the branchless compare-exchange
#: network; wider (rare) comparators fall back to ``np.sort``.
_MAX_CE_WIDTH = 8

_ce_pair_cache: dict[int, tuple[tuple[int, int], ...]] = {}


def _ce_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Batcher odd-even mergesort compare-exchange pairs for ``n`` rows.

    Generated for the next power of two with out-of-range pairs dropped —
    valid because virtual high-index elements are max-sentinels that no
    compare-exchange can move (the standard padding argument), and pinned
    by the exhaustive 0-1 check in the semantics test suite.  Optimal for
    ``n <= 8`` (1, 3, 5, 9, 12, 16, 19 comparators).
    """
    cached = _ce_pair_cache.get(n)
    if cached is not None:
        return cached
    m = 1
    while m < n:
        m *= 2
    pairs: list[tuple[int, int]] = []
    p = 1
    while p < m:
        k = p
        while k >= 1:
            for j in range(k % p, m - k, 2 * k):
                for i in range(0, k):
                    if (i + j) // (p * 2) == (i + j + k) // (p * 2) and i + j + k < n:
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    _ce_pair_cache[n] = out = tuple(pairs)
    return out


class SortSemantics(Semantics):
    """Descending compare-exchange over the same segment tables."""

    name = "sort"

    def prepare(self, x: np.ndarray) -> np.ndarray:
        # Comparators are dtype-generic: evaluate in the caller's dtype.
        return np.ascontiguousarray(x)

    def segment(self, state, scratch, in_flat, p: int, k: int, off: int, ob: int) -> None:
        size = p * k
        g = scratch.gather[:size]
        np.take(state, in_flat[off : off + size], axis=0, out=g, mode="clip")
        if p == 2 and scratch.numeric:
            # Branchless width-2 min/max: largest value on the top wire.
            np.maximum(g[:k], g[k:], out=state[ob : ob + k])
            np.minimum(g[:k], g[k:], out=state[ob + k : ob + 2 * k])
            return
        vals = g.reshape(p, k, -1)
        out = state[ob : ob + size].reshape(p, k, -1)
        if scratch.numeric and p <= _MAX_CE_WIDTH:
            # Branchless Batcher network over the p gathered row planes:
            # each compare-exchange is one np.maximum + one np.minimum, with
            # buffer rotation instead of a copy-back (max lands in the spare
            # buffer, min overwrites one operand in place, the dead operand
            # becomes the next spare).  Orders of magnitude cheaper than
            # np.sort along the strided balancer axis.  Max-first CE pairs
            # on an ascending network yield the descending convention.
            rows = [vals[j] for j in range(p)]
            tmp = scratch.totals[:k]
            for i, j in _ce_pairs(p):
                a, b = rows[i], rows[j]
                np.maximum(a, b, out=tmp)
                np.minimum(a, b, out=a)
                rows[i], rows[j], tmp = tmp, a, b
            for j in range(p):
                out[j][...] = rows[j]
            return
        # Non-numeric dtypes / very wide comparators: sort ascending in
        # place, read out reversed (dtype-safe, unlike negation).
        vals.sort(axis=0)
        out[...] = vals[::-1]

    def apply_overridden(self, net, values: np.ndarray, overrides: dict) -> np.ndarray:
        """Per-balancer batched comparator sweep honoring overrides.

        A stuck comparator does not compare at all: values pass through in
        arrival order (the value-semantics projection of a dead routing
        bit — token-level stuckness has no conservation-respecting
        analogue over distinct values).
        """
        in_idx, out_idx = net.io_arrays()
        _, in_concat, out_concat, bounds = net.wire_arrays()
        blist = bounds.tolist()
        state = np.zeros((net.num_wires, values.shape[0]), dtype=values.dtype)
        state[in_idx] = values.T
        for index in range(net.size):
            lo, hi = blist[index], blist[index + 1]
            vals = state[in_concat[lo:hi]]  # (p, B)
            if index in overrides:
                state[out_concat[lo:hi]] = vals  # broken comparator: no exchange
            else:
                state[out_concat[lo:hi]] = np.sort(vals, axis=0)[::-1]
        return state[out_idx].T


_COUNT = CountSemantics()
_SORT = SortSemantics()

_REGISTRY: dict[str, Semantics] = {s.name: s for s in (_COUNT, _SORT)}


def get_semantics(name: str) -> Semantics:
    """The shared singleton for ``name`` (one of :data:`SEMANTICS`)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown semantics {name!r}; choose from {SEMANTICS}"
        ) from None
