"""Offline evaluation of wide networks: the count sweep, the sort sweep, the 0-1 proof.

This is the verification and analysis user: large batches, throughput-bound,
with construction and lowering as set-up.  Every output is checked:

* count batches row by row against the step sequence with the row's total
  (a counting network's quiescent output is exactly that sequence), and one
  row of every ``REFERENCE_EVERY``-th batch against the per-balancer
  reference evaluator, which costs ~5x a whole batch;
* sort batches row by row against ``np.sort`` in descending order;
* the exhaustive proof must return ``None``;
* each built network's depth against ``depth_formulas.k_depth``.
"""

from __future__ import annotations

import time

import numpy as np

from common import latency_metrics, median, metric, tail_summary

#: K(2^11): width 2048, depth 145, 97,280 balancers.
EVAL_FACTORS = [2] * 11
COUNT_BATCH = 64
SORT_BATCH = 256
#: K(2,2,2,3): width 24, proved over all 2^24 0-1 inputs.
PROOF_FACTORS = [2, 2, 2, 3]
PROOF_INPUTS = 1 << 24
REFERENCE_EVERY = 32
SETUP_REPEATS = 3
PROOF_SETUP_REPEATS = 21


def cold_build(factors):
    """Build ``K(factors)`` with the in-memory sub-network cache emptied first."""
    from repro.networks import k_network
    from repro.networks.counting import clear_construction_cache

    clear_construction_cache()
    return k_network(factors)


def count_batch(rng, width: int) -> np.ndarray:
    return rng.integers(0, 1 << 16, size=(COUNT_BATCH, width), dtype=np.int64)


def sort_batch(rng, width: int) -> np.ndarray:
    return rng.integers(-(1 << 62), 1 << 62, size=(SORT_BATCH, width), dtype=np.int64)


def step_rows(totals: np.ndarray, width: int) -> np.ndarray:
    """Row ``r`` is the step sequence of ``width`` wires summing to ``totals[r]``."""
    j = np.arange(width, dtype=np.int64)
    return (totals[:, None] - j + width - 1) // width


def time_ops(result, seconds: float, make_input, op, check, vectors_per_op: int) -> list[float]:
    """Call ``op`` on fresh inputs for ``seconds``; check every output; set the metrics.

    ``ops_per_s`` counts input vectors per second spent inside ``op``, so
    input generation and checking are not part of it.
    """
    lat = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        x = make_input()
        t0 = time.perf_counter()
        out = op(x)
        lat.append(time.perf_counter() - t0)
        result.attempted += 1
        if not check(i, x, out):
            result.failed += 1
        i += 1
    result.metrics.update(latency_metrics(lat, vectors_per_op, sum(lat)))
    result.record.update(tail_summary(lat))
    return lat


def wide_setup(first_run) -> tuple[list[float], object]:
    """Cold build of K(2^11) plus its first evaluation, ``SETUP_REPEATS`` times."""
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        net = cold_build(EVAL_FACTORS)
        first_run(net)
        setup_s.append(time.perf_counter() - t0)
    return setup_s, net


def run_count(result, seed: int, seconds: float) -> None:
    """``count-wide``: ``propagate_counts`` on batches of 64 random count vectors."""
    from repro.sim.count_sim import propagate_counts, propagate_counts_reference

    rng = np.random.default_rng(seed)
    width = 1 << len(EVAL_FACTORS)
    first = count_batch(rng, width)
    setup_s, net = wide_setup(lambda n: propagate_counts(n, first))
    result.check_depth(net, len(EVAL_FACTORS))
    reference_rows = []

    def check(i, x, out) -> bool:
        ok = np.array_equal(out, step_rows(x.sum(axis=1), width))
        if i % REFERENCE_EVERY == 0:
            r = int(rng.integers(COUNT_BATCH))
            reference_rows.append(r)
            ok = ok and np.array_equal(out[r], propagate_counts_reference(net, x[r]))
        return ok

    result.metrics["setup_s"] = metric(median(setup_s), "s")
    lat = time_ops(result, seconds, lambda: count_batch(rng, width),
                   lambda x: propagate_counts(net, x), check, COUNT_BATCH)
    result.record.update(
        config={"network": net.name, "width": net.width, "depth": net.depth,
                "balancers": net.size, "batch": COUNT_BATCH, "inputs": "uniform [0, 2^16)"},
        setup_runs_s=setup_s, reference_checked_rows=len(reference_rows),
    )


def run_sort(result, seed: int, seconds: float) -> None:
    """``sort-wide``: ``evaluate_comparators`` on batches of 256 random int64 vectors."""
    from repro.sim.sort_sim import evaluate_comparators

    rng = np.random.default_rng(seed)
    width = 1 << len(EVAL_FACTORS)
    first = sort_batch(rng, width)
    setup_s, net = wide_setup(lambda n: evaluate_comparators(n, first))
    result.check_depth(net, len(EVAL_FACTORS))
    npsort_s = []

    def check(i, x, out) -> bool:
        t0 = time.perf_counter()
        expect = np.sort(x, axis=1)
        npsort_s.append(time.perf_counter() - t0)
        return np.array_equal(out, expect[:, ::-1])

    result.metrics["setup_s"] = metric(median(setup_s), "s")
    lat = time_ops(result, seconds, lambda: sort_batch(rng, width),
                   lambda x: evaluate_comparators(net, x), check, SORT_BATCH)
    result.record.update(
        config={"network": net.name, "width": net.width, "depth": net.depth,
                "balancers": net.size, "batch": SORT_BATCH, "inputs": "uniform int64"},
        setup_runs_s=setup_s,
        sort_vs_npsort_x=median(lat) / median(npsort_s),
    )


def run_proof(result, seed: int, seconds: float) -> None:
    """``prove-24``: bit-sliced exhaustive 0-1 sorting proof of K(2,2,2,3)."""
    from repro.core.bitplan import evaluate_zero_one_packed
    from repro.verify.exhaustive import exhaustive_sorting_witness, iter_packed_zero_one

    width = int(np.prod(PROOF_FACTORS))
    first_chunk, _ = next(iter_packed_zero_one(width))
    setup_s = []
    for _ in range(PROOF_SETUP_REPEATS):
        t0 = time.perf_counter()
        net = cold_build(PROOF_FACTORS)
        evaluate_zero_one_packed(net, first_chunk)
        setup_s.append(time.perf_counter() - t0)
    result.check_depth(net, len(PROOF_FACTORS))
    result.metrics["setup_s"] = metric(median(setup_s), "s")
    lat = time_ops(result, seconds, lambda: None, lambda _: exhaustive_sorting_witness(net),
                   lambda i, x, out: out is None, PROOF_INPUTS)
    result.record.update(
        config={"network": net.name, "width": net.width, "depth": net.depth,
                "inputs": "all 2^24 0-1 vectors", "lanes_per_chunk": 1 << 18},
        setup_runs_s=setup_s,
    )
