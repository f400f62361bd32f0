"""Bit-sliced 0-1 evaluation: 64 boolean input vectors per uint64 word.

Every exhaustive correctness claim in this repo rests on the 0-1 principle
(paper §1): a comparator network sorts every input iff it sorts every 0-1
input, and on 0-1 inputs a ``p``-balancer's quiescent counting semantics
coincides with descending sorting — output ``j`` carries a token iff more
than ``j`` tokens entered.  Boolean vectors evaluated one int64 lane at a
time waste 63/64 of every word, so this module packs **64 input vectors per
``uint64`` word** (the SingeliSort trick) and evaluates whole batches with
branchless bitwise kernels:

* a width-2 compare-exchange is two ops — ``top = a | b``, ``bottom =
  a & b`` (descending: the OR carries the excess token);
* a width-``p`` balancer is an odd-even transposition sort over its ``p``
  word-rows (``p`` rounds of adjacent OR/AND exchanges), which on 0-1
  inputs reproduces the counting formula ``out[j] = ceil((t - j) / p)``
  exactly;
* :class:`BitPlan` reuses an :class:`~repro.core.plan.ExecutionPlan`'s
  segment tables, reused state rows and slice-stores verbatim — only the
  word type and the per-segment kernel change, so the bit-sliced sweep
  inherits the flat plan's memory layout and its correctness tests.  Like
  every plan kernel, it gathers a segment's inputs before it stores.

Packing layout (``pack_zero_one``): a ``(B, w)`` 0-1 batch becomes a
``(w, ceil(B/64))`` uint64 array — wire-major, batch row ``n`` living in
bit ``n % 64`` of word ``n // 64``.  Inputs that are not exactly 0 or 1
raise :class:`NotZeroOneError` — silently masking high bits would turn a
caller's type error into a bogus verification verdict.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (plan imports us)
    from .network import Network
    from .plan import ExecutionPlan

__all__ = [
    "LANES",
    "NotZeroOneError",
    "pack_zero_one",
    "unpack_zero_one",
    "BitPlan",
    "evaluate_zero_one_packed",
]

#: Input vectors carried per uint64 word.
LANES = 64

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class NotZeroOneError(ValueError):
    """An input handed to the bit-sliced backend was not exactly 0 or 1.

    One packed bit cannot represent any other value; masking high bits
    away (``x & 1``) would silently evaluate a *different* input and could
    certify a broken network.  The executor refuses instead.
    """


def _check_zero_one(x: np.ndarray) -> None:
    bad = (x != 0) & (x != 1)
    if bad.any():
        idx = tuple(int(i[0]) for i in np.nonzero(bad))
        raise NotZeroOneError(
            f"bit-sliced backend needs 0-1 inputs; got {x[idx]!r} at "
            f"position {idx} — evaluate non-boolean batches with "
            f"backend='int64'"
        )


def pack_zero_one(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Pack a ``(B, w)`` 0-1 batch into ``(w, ceil(B/64))`` uint64 words.

    Returns ``(packed, B)``.  Row ``n`` of the batch occupies bit
    ``n % 64`` of word ``n // 64`` on every wire; lanes past ``B`` in the
    final word are zero.  Raises :class:`NotZeroOneError` on any entry
    that is not exactly 0 or 1 (including negative values, 64, floats —
    nothing is masked).
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"expected a (B, w) batch, got shape {x.shape}")
    _check_zero_one(x)
    batch, width = x.shape
    nwords = max(1, -(-batch // LANES))
    # packbits(little) puts row n in bit n%8 of byte n//8; viewing 8 bytes
    # as one little-endian word extends that to bit n%64 of word n//64.
    col = np.packbits(x.T.astype(np.uint8), axis=1, bitorder="little")
    buf = np.zeros((width, nwords * 8), dtype=np.uint8)
    buf[:, : col.shape[1]] = col
    return buf.view("<u8").astype(np.uint64, copy=False), batch


def unpack_zero_one(packed: np.ndarray, batch: int) -> np.ndarray:
    """Inverse of :func:`pack_zero_one`: ``(w, nwords)`` words back to a
    ``(batch, w)`` int64 batch (byte-identical to the int64 executor's
    output dtype)."""
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    if packed.ndim != 2:
        raise ValueError(f"expected (w, nwords) packed words, got shape {packed.shape}")
    width, nwords = packed.shape
    if not 0 <= batch <= nwords * LANES:
        raise ValueError(f"batch {batch} does not fit in {nwords} words")
    by = packed.astype("<u8", copy=False).view(np.uint8).reshape(width, nwords * 8)
    bits = np.unpackbits(by, axis=1, count=batch, bitorder="little")
    return bits.T.astype(np.int64)


def _transpose_sort(rows: np.ndarray, tmp: np.ndarray) -> None:
    """Odd-even transposition sort of ``p`` word-rows, descending, in place.

    ``rows`` is ``(p, k, nwords)``; each adjacent exchange is the bitwise
    compare-exchange (upper gets OR, lower gets AND).  ``p`` rounds suffice
    for ``p`` elements.  ``tmp`` must be a ``(k, nwords)`` scratch row —
    the AND is computed first so the in-place OR cannot clobber an operand.
    """
    p = rows.shape[0]
    for rnd in range(p):
        for i in range(rnd & 1, p - 1, 2):
            a, b = rows[i], rows[i + 1]
            np.bitwise_and(a, b, out=tmp)
            np.bitwise_or(a, b, out=a)
            b[...] = tmp


class BitPlan:
    """A bit-sliced view over an :class:`~repro.core.plan.ExecutionPlan`.

    Shares the plan's segment tables and state-row numbering; state is a
    ``(num_wires, nwords)`` uint64 array (``num_wires`` state rows) instead
    of ``(num_wires, batch)`` int64.  Segment tables are precomputed as
    plain Python ints so the per-segment dispatch does no array indexing.
    """

    __slots__ = ("plan", "width", "num_wires", "segments", "output_idx")

    def __init__(self, plan: "ExecutionPlan") -> None:
        self.plan = plan
        self.width = plan.width
        self.num_wires = plan.num_wires
        self.output_idx = plan.output_idx
        self.segments = [
            (
                int(plan.seg_width[i]),
                int(plan.seg_count[i]),
                int(plan.seg_in_off[i]),
                int(plan.seg_out_base[i]),
                int(plan.seg_layer[i]),
            )
            for i in range(plan.num_segments)
        ]

    def run_packed(
        self,
        packed: np.ndarray,
        state: np.ndarray,
        gather: np.ndarray,
        tmp: np.ndarray,
        layer_times: np.ndarray | None = None,
    ) -> np.ndarray:
        """Evaluate ``(w, nwords)`` packed words into caller-owned scratch.

        Returns the packed output rows (a gather from ``state`` — a fresh
        ``(w, nwords)`` array, the only allocation).  ``layer_times``
        mirrors the int64 executor's per-layer timing hook.
        """
        plan = self.plan
        if packed.shape[0] != self.width:
            raise ValueError(f"expected ({self.width}, nwords) packed input, got {packed.shape}")
        state[plan.input_idx] = packed
        in_flat = plan.in_flat
        if layer_times is None:
            for p, k, off, ob, _ in self.segments:
                self._segment(state, gather, tmp, in_flat, p, k, off, ob)
        else:
            import time

            for p, k, off, ob, layer in self.segments:
                t0 = time.perf_counter()
                self._segment(state, gather, tmp, in_flat, p, k, off, ob)
                layer_times[layer] += time.perf_counter() - t0
        return state[self.output_idx].copy()

    @staticmethod
    def _segment(state, gather, tmp, in_flat, p: int, k: int, off: int, ob: int) -> None:
        size = p * k
        g = gather[:size]
        np.take(state, in_flat[off : off + size], axis=0, out=g)
        if p == 2:
            np.bitwise_or(g[:k], g[k:], out=state[ob : ob + k])
            np.bitwise_and(g[:k], g[k:], out=state[ob + k : ob + 2 * k])
            return
        _transpose_sort(g.reshape(p, k, -1), tmp[:k])
        state[ob : ob + size] = g


def evaluate_zero_one_packed(net: "Network", packed: np.ndarray) -> np.ndarray:
    """Evaluate packed 0-1 words through ``net``; returns packed outputs.

    Pristine networks run the pooled bit-sliced plan executor.  Networks
    carrying semantic fault overrides (:class:`repro.faults.FaultyNetwork`)
    take a per-balancer sweep in which an overridden balancer passes its
    inputs through unexchanged — exactly the value-semantics projection
    :func:`repro.sim.sort_sim.evaluate_comparators` applies, so the two
    paths agree bit for bit on every 0-1 input.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    if packed.ndim != 2 or packed.shape[0] != net.width:
        raise ValueError(f"expected ({net.width}, nwords) packed input, got {packed.shape}")
    overrides = getattr(net, "fault_overrides", None)
    if not overrides:
        from .plan import plan_executor

        return plan_executor(net, backend="bitsliced").run_packed(packed)
    nwords = packed.shape[1]
    in_idx, out_idx = net.io_arrays()
    _, in_concat, out_concat, bounds = net.wire_arrays()
    blist = bounds.tolist()
    state = np.zeros((net.num_wires, nwords), dtype=np.uint64)
    state[in_idx] = packed
    tmp = np.empty((1, nwords), dtype=np.uint64)
    for index in range(net.size):
        lo, hi = blist[index], blist[index + 1]
        vals = state[in_concat[lo:hi]]
        if index not in overrides:
            _transpose_sort(vals[:, None, :], tmp)  # mutates vals in place
        state[out_concat[lo:hi]] = vals  # an overridden comparator does not exchange
    return state[out_idx]
