"""Synchronous comparator-network evaluation (sorting semantics).

Replacing every balancer of a network with a comparator of the same width
yields the isomorphic comparator network (paper §1).  A ``p``-comparator
receives ``p`` values and emits them with the *largest on output position 0*
(matching the balancer convention that the top wire carries the excess
tokens), i.e. comparators sort descending within themselves.

Evaluation lowers onto the flat :class:`~repro.core.plan.ExecutionPlan`
substrate with ``semantics="sort"`` — the same memoized plan, scratch-buffer
pool, and segment sweep the counting path uses, so repeated calls on one
network allocate nothing beyond the output array (width-2 comparators run a
branchless ``np.maximum``/``np.minimum`` kernel).  Fault-mutant networks
(semantic overrides) take the per-balancer override sweep in
:class:`~repro.core.semantics.SortSemantics` instead.
"""

from __future__ import annotations

import numpy as np

from ..core.network import Network
from ..core.plan import plan_executor
from ..core.semantics import get_semantics
from ..obs import runtime as _obs
from ._instrument import run_instrumented

__all__ = [
    "evaluate_comparators",
    "evaluate_comparators_reference",
    "sorts_descending",
    "sorted_outputs",
]


def evaluate_comparators(net: Network, values: np.ndarray) -> np.ndarray:
    """Propagate ``values`` through ``net`` in comparator semantics.

    ``values`` may be ``(w,)`` or ``(B, w)`` of any sortable numpy dtype;
    position ``k`` of each vector enters input-sequence position ``k``.
    Returns the output sequence(s), same shape: position 0 holds what the
    network routed to its top output wire.
    """
    values = np.asarray(values)
    single = values.ndim == 1
    if single:
        values = values[None, :]
    if values.ndim != 2 or values.shape[1] != net.width:
        raise ValueError(f"expected input shape (B, {net.width}), got {values.shape}")

    overrides = getattr(net, "fault_overrides", None)
    if overrides:
        out = get_semantics("sort").apply_overridden(net, values, overrides)
        return out[0] if single else out

    ex = plan_executor(net, semantics="sort")
    if _obs.enabled:
        out = run_instrumented(ex, values, "sort")
    else:
        out = ex.run(values)
    return out[0] if single else out


def evaluate_comparators_reference(net: Network, values: np.ndarray) -> np.ndarray:
    """Per-balancer Python-loop evaluator with identical semantics."""
    values = np.asarray(values)
    if values.ndim != 1 or values.shape[0] != net.width:
        raise ValueError(f"expected input shape ({net.width},), got {values.shape}")
    state: dict[int, object] = {}
    for pos, wire in enumerate(net.inputs):
        state[wire] = values[pos]
    for b in net.balancers:
        vals = sorted((state[w] for w in b.inputs), reverse=True)
        for wire, v in zip(b.outputs, vals):
            state[wire] = v
    return np.array([state[w] for w in net.outputs], dtype=values.dtype)


def sorts_descending(net: Network, values: np.ndarray) -> np.ndarray:
    """Boolean per batch row: did the network emit that row in non-increasing
    order?"""
    out = evaluate_comparators(net, values)
    if out.ndim == 1:
        out = out[None, :]
    return np.all(out[:, :-1] >= out[:, 1:], axis=1)


def sorted_outputs(net: Network, values: np.ndarray, ascending: bool = True) -> np.ndarray:
    """Evaluate and present the output in user-facing order.

    The network internally produces descending sequences; most callers of a
    *sorting* API expect ascending output, so this flips by default.
    """
    out = evaluate_comparators(net, values)
    return out[..., ::-1].copy() if ascending else out
