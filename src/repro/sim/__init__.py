"""Simulators: quiescent counts, synchronous sorting, async tokens, threads.

See DESIGN.md section 2 for how each simulator substitutes for the paper's
abstract asynchronous shared-memory machine.
"""

from .count_sim import balancer_outputs, output_counts, propagate_counts, propagate_counts_reference
from .sort_sim import (
    evaluate_comparators,
    evaluate_comparators_reference,
    sorted_outputs,
    sorts_descending,
)
from .token_sim import (
    RunResult,
    Token,
    TokenSimulator,
    fetch_and_increment_values,
    run_tokens,
)
from .schedulers import SCHEDULERS, get_scheduler
from .concurrent import (
    ContentionSimulator,
    ContentionStats,
    SingleLockCounter,
    ThreadedCounter,
    ThreadedRunStats,
)
from .linearized import LinearizedThreadedCounter, linearize_history

__all__ = [
    "balancer_outputs",
    "output_counts",
    "propagate_counts",
    "propagate_counts_reference",
    "evaluate_comparators",
    "evaluate_comparators_reference",
    "sorted_outputs",
    "sorts_descending",
    "RunResult",
    "Token",
    "TokenSimulator",
    "fetch_and_increment_values",
    "run_tokens",
    "SCHEDULERS",
    "get_scheduler",
    "ContentionSimulator",
    "ContentionStats",
    "ThreadedCounter",
    "ThreadedRunStats",
    "SingleLockCounter",
    "LinearizedThreadedCounter",
    "linearize_history",
]
