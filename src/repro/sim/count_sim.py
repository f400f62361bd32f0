"""Quiescent-state token-count propagation for balancing networks.

A ``p``-balancer routes its ``i``-th arriving token to output ``i mod p``, so
in any quiescent state its output counts depend only on the *total* number of
tokens ``T`` that entered it: output position ``j`` has seen exactly
``ceil((T - j) / p) = (T - j + p - 1) // p`` tokens.  Totals therefore
propagate deterministically through the DAG regardless of the asynchronous
schedule — the classic observation underlying counting-network proofs.  This
module exploits that to evaluate a network on thousands of input count
vectors at once with pure numpy.

Two evaluators are provided:

* :func:`propagate_counts` — runs the network's flat
  :class:`~repro.core.plan.ExecutionPlan` through a pooled
  :class:`~repro.core.plan.PlanExecutor` (zero steady-state allocation);
  pass ``workers=N`` to shard large batches over a process pool;
* :func:`propagate_counts_reference` — a transparent per-balancer Python
  loop used in tests to cross-check the vectorized path.
"""

from __future__ import annotations

import numpy as np

from ..core.network import Network
from ..core.plan import plan_executor
from ..core.semantics import get_semantics
from ..obs import runtime as _obs
from ._instrument import record_batch_metrics, run_instrumented

__all__ = [
    "balancer_outputs",
    "propagate_counts",
    "propagate_counts_reference",
    "output_counts",
]


def balancer_outputs(total: int, p: int) -> np.ndarray:
    """Quiescent output counts of a single ``p``-balancer fed ``total``
    tokens: position ``j`` gets ``ceil((total - j)/p)``."""
    if total < 0:
        raise ValueError("token count must be non-negative")
    j = np.arange(p, dtype=np.int64)
    return (total - j + p - 1) // p


def propagate_counts(net: Network, x: np.ndarray, workers: int | None = None) -> np.ndarray:
    """Quiescent output counts of ``net`` for input counts ``x``.

    ``x`` may be a single vector of shape ``(w,)`` or a batch ``(B, w)``;
    the result has the same shape.  Entry ``k`` of a vector is the number of
    tokens entering on input-sequence position ``k`` (wire ``inputs[k]``).

    ``workers=N`` (N > 1) shards a large batch row-wise over a process pool
    sharing the network's execution plan — rows are independent, so results
    are byte-identical to the serial path.  Small batches fall back to
    serial evaluation automatically.
    """
    x = np.asarray(x, dtype=np.int64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != net.width:
        raise ValueError(f"expected input shape (B, {net.width}), got {x.shape}")
    if np.any(x < 0):
        raise ValueError("token counts must be non-negative")

    overrides = getattr(net, "fault_overrides", None)
    if overrides:
        # Mutant networks (e.g. stuck balancers) take the per-balancer
        # override sweep in CountSemantics; pristine nets never reach it.
        out = get_semantics("count").apply_overridden(net, x, overrides)
        return out[0] if single else out

    ex = plan_executor(net)
    if workers is not None and int(workers) > 1:
        out = ex.run_parallel(x, int(workers))
        if _obs.enabled:
            record_batch_metrics("counts", x.shape[0])
        return out[0] if single else out
    if _obs.enabled:
        out = run_instrumented(ex, x, "counts")
    else:
        out = ex.run(x)
    return out[0] if single else out


def propagate_counts_reference(net: Network, x: np.ndarray) -> np.ndarray:
    """Slow per-balancer evaluator with identical semantics (for tests)."""
    x = np.asarray(x, dtype=np.int64)
    if x.ndim != 1 or x.shape[0] != net.width:
        raise ValueError(f"expected input shape ({net.width},), got {x.shape}")
    overrides = getattr(net, "fault_overrides", None) or {}
    in_idx, out_idx = net.io_arrays()
    state = np.zeros(net.num_wires, dtype=np.int64)
    state[in_idx] = x
    for b in net.balancers:
        total = int(sum(state[w] for w in b.inputs))
        ov = overrides.get(b.index)
        if ov is not None:
            for j, wire in enumerate(b.outputs):
                state[wire] = total if j == ov.stuck_port else 0
            continue
        for j, wire in enumerate(b.outputs):
            state[wire] = (total - j + b.width - 1) // b.width
    return state[out_idx]


def output_counts(net: Network, total_tokens: int) -> np.ndarray:
    """Output counts when ``total_tokens`` tokens enter round-robin on the
    input wires (the canonical balanced feed): input position ``k`` receives
    ``ceil((total_tokens - k)/w)`` tokens."""
    x = balancer_outputs(total_tokens, net.width)
    return propagate_counts(net, x)
