"""Sorting and counting networks of small depth and arbitrary width.

A full reproduction of Busch & Herlihy (SPAA 1999): for any factorization
``w = p0 * ... * p(n-1)`` it builds sorting/counting networks of width ``w``
and depth ``O(n^2)`` from comparators/balancers of width at most
``max(p_i)`` (family ``L``) or ``max(p_i * p_j)`` (family ``K``), plus the
component networks (two-merger, bitonic-converter, staircase-merger,
merger, ``R(p, q)``), classic baselines, simulators, and verification
tooling.

Quickstart::

    import numpy as np
    from repro import k_network, propagate_counts

    net = k_network([4, 4, 4])          # width-64 counting network
    x = np.random.default_rng(0).integers(0, 20, size=64)
    y = propagate_counts(net, x)        # quiescent output counts
    # y is a step sequence: non-increasing, max - min <= 1
"""

from .core import (
    Balancer,
    Network,
    NetworkBuilder,
    identity_network,
    sequences,
    single_balancer_network,
)
from .networks import (
    STAIRCASE_VARIANTS,
    bitonic_converter,
    counting_network,
    depth_formulas,
    k_network,
    l_network,
    merger_network,
    r_network,
    staircase_merger,
    two_merger,
)
from .sim import (
    ContentionSimulator,
    ThreadedCounter,
    TokenSimulator,
    evaluate_comparators,
    fetch_and_increment_values,
    propagate_counts,
    run_tokens,
    sorted_outputs,
)
from .verify import (
    find_counting_violation,
    find_sorting_violation,
    is_sorting_network,
    verify_counting,
)
from .analysis import build_family, comparison_table, factorizations, pareto_frontier
from .highlevel import make_counter, oblivious_sort
from . import baselines, faults, obs, serve, viz

__version__ = "1.0.0"

__all__ = [
    "Balancer",
    "Network",
    "NetworkBuilder",
    "identity_network",
    "single_balancer_network",
    "sequences",
    "STAIRCASE_VARIANTS",
    "bitonic_converter",
    "counting_network",
    "depth_formulas",
    "k_network",
    "l_network",
    "merger_network",
    "r_network",
    "staircase_merger",
    "two_merger",
    "ContentionSimulator",
    "ThreadedCounter",
    "TokenSimulator",
    "evaluate_comparators",
    "fetch_and_increment_values",
    "propagate_counts",
    "run_tokens",
    "sorted_outputs",
    "find_counting_violation",
    "find_sorting_violation",
    "is_sorting_network",
    "verify_counting",
    "build_family",
    "comparison_table",
    "factorizations",
    "pareto_frontier",
    "make_counter",
    "oblivious_sort",
    "baselines",
    "faults",
    "obs",
    "viz",
    "__version__",
]
