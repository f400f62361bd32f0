"""Differential conformance of the two plan-executor semantics.

Both network views — quiescent counts and descending comparator sort —
run on the one :class:`~repro.core.plan.ExecutionPlan` substrate; the
asynchronous token view is the count kernel at quiescence, checked against
:class:`~repro.sim.token_sim.TokenSimulator`.  The legacy per-layer
walkers that ``sim/sort_sim`` and ``sim/count_sim`` once shipped live on
here as *inline oracles* over the compiled per-layer groups, and
hypothesis drives arbitrary irregular networks (mixed widths, partial
layers, zero-layer degenerates) plus the
paper's K/L/R families and the ``searched`` variant through both, asserting
byte-identical outputs.  Fault-override sweeps, the compare-exchange
kernel, backend composition, the sort-verifier kill matrix, and the
steady-state allocation guarantee are covered alongside, so a regression in
any semantics kernel fails here before it can reach a bench or a verifier.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Network, NetworkBuilder, single_balancer_network
from repro.core.compiled import compile_network
from repro.core.plan import ExecutionPlan, PlanExecutor, lower_plan, plan_executor
from repro.core.semantics import _MAX_CE_WIDTH, _ce_pairs, get_semantics
from repro.faults.harness import run_conformance, verifiers_for_backend
from repro.faults.mutator import stuck_balancer
from repro.networks import k_network, l_network, r_network
from repro.sim import (
    evaluate_comparators,
    propagate_counts,
    propagate_counts_reference,
)
from repro.sim.token_sim import TokenSimulator


# ---------------------------------------------------------------------------
# Inline legacy oracles: the deleted per-layer walkers, verbatim semantics.
# ---------------------------------------------------------------------------


def legacy_count_walker(net: Network, x: np.ndarray) -> np.ndarray:
    """Pre-substrate quiescent-count walker: one gather / floor-divide /
    scatter per width group per layer over the compiled net."""
    comp = compile_network(net)
    x = np.atleast_2d(np.asarray(x, dtype=np.int64))
    state = np.zeros((comp.num_wires, x.shape[0]), dtype=np.int64)
    state[comp.input_idx] = x.T
    for layer in comp.layers:
        for group in layer:
            totals = state[group.in_idx].sum(axis=1)  # (k, B)
            q, r = np.divmod(totals, group.width)
            j = np.arange(group.width)[None, :, None]
            state[group.out_idx] = q[:, None, :] + (j < r[:, None, :])
    return state[comp.output_idx].T


def legacy_sort_walker(net: Network, values: np.ndarray) -> np.ndarray:
    """Pre-substrate comparator walker: ``np.sort`` per width group,
    descending along the balancer axis."""
    comp = compile_network(net)
    values = np.atleast_2d(np.asarray(values))
    state = np.zeros((comp.num_wires, values.shape[0]), dtype=values.dtype)
    state[comp.input_idx] = values.T
    for layer in comp.layers:
        for group in layer:
            state[group.out_idx] = np.sort(state[group.in_idx], axis=1)[:, ::-1]
    return state[comp.output_idx].T


def python_int_count_walker(net: Network, row) -> list[int]:
    """Per-balancer quiescent-count walk in Python ints, which cannot
    overflow: the oracle for sweeps at the edge of a lane's range."""
    state = dict(zip(net.inputs, (int(v) for v in row)))
    for b in net.balancers:
        total = sum(state[w] for w in b.inputs)
        for j, w in enumerate(b.outputs):
            state[w] = (total - j + b.width - 1) // b.width
    return [state[w] for w in net.outputs]


def reference_with_overrides(net: Network, values: np.ndarray) -> np.ndarray:
    """Per-balancer comparator oracle honoring ``fault_overrides``: a stuck
    balancer does not compare — values pass through unsorted."""
    overrides = getattr(net, "fault_overrides", None) or {}
    state: dict[int, object] = dict(zip(net.inputs, values))
    for b in net.balancers:
        ins = [state[w] for w in b.inputs]
        outs = ins if b.index in overrides else sorted(ins, reverse=True)
        state.update(zip(b.outputs, outs))
    return np.array([state[w] for w in net.outputs], dtype=np.asarray(values).dtype)


# ---------------------------------------------------------------------------
# Hypothesis strategy: arbitrary irregular layered networks (mixed balancer
# widths, partially-balanced layers, zero-layer degenerates).
# ---------------------------------------------------------------------------


@st.composite
def random_networks(draw, max_width: int = 10, max_layers: int = 5) -> Network:
    width = draw(st.integers(min_value=2, max_value=max_width))
    n_layers = draw(st.integers(min_value=0, max_value=max_layers))
    b = NetworkBuilder(width)
    wires = list(b.inputs)
    for _ in range(n_layers):
        perm = draw(st.permutations(list(range(width))))
        pos = 0
        new_wires = list(wires)
        while pos + 1 < width:
            size = draw(st.integers(min_value=2, max_value=min(4, width - pos)))
            group = [wires[perm[pos + k]] for k in range(size)]
            outs = b.balancer(group)
            for k in range(size):
                new_wires[perm[pos + k]] = outs[k]
            pos += size
            if draw(st.booleans()):
                break  # leave the rest of this layer unbalanced
        wires = new_wires
    return b.finish(wires, name="fuzz")


FAMILY_NETS = [
    pytest.param(lambda: k_network([2, 2, 2]), id="K(2,2,2)"),
    pytest.param(lambda: k_network([3, 2]), id="K(3,2)"),
    pytest.param(lambda: k_network([2, 3], variant="searched"), id="K(2,3)[searched]"),
    pytest.param(lambda: l_network([2, 2, 2]), id="L(2,2,2)"),
    pytest.param(lambda: r_network(3, 4), id="R(3,4)"),
]


# ---------------------------------------------------------------------------
# The compare-exchange kernel itself
# ---------------------------------------------------------------------------


class TestCEKernel:
    def test_ce_pairs_sort_by_zero_one_principle(self):
        """Exhaustive 0-1 proof of the Batcher pair generator, past the
        kernel's width ceiling so the fallback boundary is covered too."""
        for n in range(2, _MAX_CE_WIDTH + 3):
            pairs = _ce_pairs(n)
            for m in range(2**n):
                v = [(m >> i) & 1 for i in range(n)]
                for i, j in pairs:
                    if v[i] < v[j]:
                        v[i], v[j] = v[j], v[i]
                assert v == sorted(v, reverse=True), (n, m)

    def test_ce_pair_counts_are_optimal_for_small_widths(self):
        # Known-optimal comparator counts for n <= 8 (Knuth §5.3.4).
        assert [len(_ce_pairs(n)) for n in range(2, 9)] == [1, 3, 5, 9, 12, 16, 19]

    @pytest.mark.parametrize("p", range(3, _MAX_CE_WIDTH + 3))
    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint16, np.float64])
    def test_single_balancer_matches_descending_sort(self, p, dtype):
        """One p-balancer, every dtype class: the CE path (p <= ceiling) and
        the np.sort fallback (wider) must agree with a descending sort."""
        b = NetworkBuilder(p)
        net = b.finish(list(b.balancer(list(b.inputs))), name=f"b{p}")
        rng = np.random.default_rng(p)
        x = rng.integers(0, 100, size=(64, p)).astype(dtype)
        out = evaluate_comparators(net, x)
        want = np.sort(x, axis=1)[:, ::-1]
        assert out.dtype == x.dtype
        assert out.tobytes() == np.ascontiguousarray(want).tobytes()


class TestCountKernel:
    @pytest.mark.parametrize("p", range(2, 17))
    def test_count_kernel_every_width(self, p):
        """The width-p count kernel (a shift for p = 2, 4, 8, 16) against
        the divmod walker, on large totals."""
        b = NetworkBuilder(p)
        net = b.finish(list(b.balancer(list(b.inputs))), name=f"b{p}")
        x = np.random.default_rng(p).integers(0, 1 << 40, size=(64, p))
        assert propagate_counts(net, x).tobytes() == legacy_count_walker(net, x).tobytes()

    @pytest.mark.parametrize(
        "build",
        [*(lambda p=p: single_balancer_network(p) for p in (2, 3, 4, 5, 8, 16)),
         lambda: k_network([4, 4]), lambda: k_network([2, 4, 2])],
        ids=["b2", "b3", "b4", "b5", "b8", "b16", "K(4,4)", "K(2,4,2)"],
    )
    def test_negative_totals_floor_like_the_walker(self, build):
        """``PlanExecutor.run`` takes any int64 (only ``propagate_counts``
        rejects negative counts): the shift kernels must floor negative
        totals exactly as floor division does."""
        net = build()
        x = np.random.default_rng(net.width).integers(-(1 << 40), 1 << 40, size=(64, net.width))
        x[0] = -1
        x[1] = -np.arange(net.width)
        out = PlanExecutor(lower_plan(net)).run(x)
        assert out.tobytes() == legacy_count_walker(net, x).tobytes()


# ---------------------------------------------------------------------------
# Plan path == legacy walkers, byte-identical
# ---------------------------------------------------------------------------


def _assert_rows_within_bounds(net: Network) -> None:
    """The row-reusing layout never needs more rows than SSA wires, never
    fewer than the width, and passes the dataflow check on reload."""
    plan = lower_plan(net)
    assert net.width <= plan.num_wires <= net.num_wires
    ExecutionPlan.from_arrays(plan.to_arrays())


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(random_networks(), st.data())
    def test_irregular_networks_all_semantics(self, net, data):
        # Partially balanced, mixed-width layers are where a reused state
        # row could be clobbered before it is read.
        _assert_rows_within_bounds(net)
        x = np.array(
            data.draw(
                st.lists(st.integers(0, 30), min_size=net.width, max_size=net.width)
            ),
            dtype=np.int64,
        )
        assert propagate_counts(net, x).tobytes() == legacy_count_walker(net, x)[0].tobytes()
        vals = np.array(
            data.draw(
                st.lists(st.integers(-50, 50), min_size=net.width, max_size=net.width)
            )
        )
        assert evaluate_comparators(net, vals).tobytes() == legacy_sort_walker(net, vals)[0].tobytes()

    @pytest.mark.parametrize("build", FAMILY_NETS)
    def test_families_batch_byte_identity(self, build):
        net = build()
        _assert_rows_within_bounds(net)
        rng = np.random.default_rng(0)
        x = rng.integers(0, 64, size=(32, net.width))
        assert propagate_counts(net, x).tobytes() == legacy_count_walker(net, x).tobytes()
        vals = rng.integers(-1000, 1000, size=(32, net.width))
        assert evaluate_comparators(net, vals).tobytes() == legacy_sort_walker(net, vals).tobytes()

    @pytest.mark.parametrize("build", FAMILY_NETS)
    def test_token_semantics_matches_token_simulator(self, build):
        """The batched count kernel must land exactly where the
        step-granular scheduler simulation lands (paper §1, Figure 2)."""
        net = build()
        counts = np.zeros(net.width, dtype=np.int64)
        counts[: max(net.width // 2, 1)] = 3
        sim = TokenSimulator(net, seed=0)
        sim.inject(counts)
        want = sim.run("random").output_counts
        assert list(propagate_counts(net, counts)) == list(want)

    @settings(max_examples=25, deadline=None)
    @given(random_networks(max_width=6, max_layers=3), st.data())
    def test_fault_overrides_take_the_override_sweep(self, net, data):
        """Stuck mutants route through ``Semantics.apply_overridden``; pin
        the sort sweep against a per-balancer oracle and the count sweep
        against conservation + the stuck-port invariant."""
        if net.size == 0:
            return
        idx = data.draw(st.integers(0, net.size - 1))
        port = data.draw(st.integers(0, net.balancers[idx].width - 1))
        faulty = stuck_balancer(net, idx, port)
        vals = np.array(
            data.draw(
                st.lists(st.integers(-20, 20), min_size=net.width, max_size=net.width)
            )
        )
        assert list(evaluate_comparators(faulty, vals)) == list(
            reference_with_overrides(faulty, vals)
        )
        x = np.array(
            data.draw(
                st.lists(st.integers(0, 9), min_size=net.width, max_size=net.width)
            ),
            dtype=np.int64,
        )
        out = propagate_counts(faulty, x)
        assert int(out.sum()) == int(x.sum())  # overrides still conserve

    def test_reference_oracles_still_agree(self):
        """Belt and braces: the per-balancer references shipped in sim/*
        agree with the inline walkers on a family net."""
        net = k_network([2, 3])
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.integers(0, 40, size=net.width)
            assert list(propagate_counts_reference(net, x)) == list(
                legacy_count_walker(net, x)[0]
            )


# ---------------------------------------------------------------------------
# Tiled sweeps, against the same oracles
# ---------------------------------------------------------------------------


def _tiled_values(
    net: Network, rows: int, dtype: np.dtype, seed: int, low: int = 0
) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if dtype.kind == "f":
        return rng.random((rows, net.width)).astype(dtype)
    return rng.integers(low, 100, size=(rows, net.width)).astype(dtype)


class TestTiling:
    @pytest.mark.parametrize("build", FAMILY_NETS)
    @pytest.mark.parametrize(
        "semantics, dtype",
        [("count", "int64"), ("sort", "int64"), ("sort", "float64"),
         ("sort", "int8"), ("sort", "<U2")],
    )
    def test_tiled_batches_match_row_by_row_and_walkers(
        self, build, semantics, dtype, monkeypatch
    ):
        import repro.core.plan as plan_mod

        # A small tile budget keeps the row-by-row oracle cheap; the tiles
        # are sized from the executor exactly as at the real budget.
        monkeypatch.setattr(plan_mod, "_TILE_BYTES", 4096)
        net = build()
        ex = PlanExecutor(lower_plan(net), semantics=semantics)
        # Count batches of mixed-sign values are swept in int32 lanes; the
        # single rows below keep int64, so this is an int32-vs-int64
        # differential too.
        lanes = np.dtype("int32" if semantics == "count" else dtype)
        tile = ex._tile_rows(lanes)
        low = -100 if semantics == "count" else 0
        x = _tiled_values(net, 2 * tile + max(tile // 2, 1), np.dtype(dtype), tile, low)
        out = ex.run(x)
        assert (tile, lanes.str) in ex.pool._pool
        rows = np.concatenate([ex.run(x[i : i + 1]) for i in range(x.shape[0])])
        walker = legacy_count_walker if semantics == "count" else legacy_sort_walker
        assert out.dtype == rows.dtype
        assert out.tobytes() == rows.tobytes() == walker(net, x).tobytes()


# ---------------------------------------------------------------------------
# Count lanes: int32 only where the batch's bound proves it exact
# ---------------------------------------------------------------------------


def _swept_lanes(net: Network, x: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Sweep ``x`` on a fresh executor; return the output and the dtypes
    of the scratch it pooled."""
    ex = PlanExecutor(lower_plan(net))
    out = ex.run(x)
    return out, sorted(dtype for _, dtype in ex.pool._pool)


class TestCountLanes:
    @pytest.mark.parametrize("factors", [[2, 2], [2, 3]], ids=["K(2,2)", "K(2,3)"])
    def test_largest_admitted_value_and_one_token_above(self, factors):
        """K(2,2) is one 4-balancer and K(2,3) one 6-balancer, so a row of
        equal entries drives the balancer's total plus its bias to the
        bound.  Rows at the largest value the bound admits sweep in int32;
        one token more sweeps in int64, where int32 would overflow."""
        net = k_network(factors)
        p = net.width
        assert net.size == 1 and net.max_balancer_width == p
        limit = get_semantics("count").int32_limit(lower_plan(net))
        int32_max = int(np.iinfo(np.int32).max)
        assert p * limit + p - 1 <= int32_max < p * (limit + 1) + p - 1
        at = np.full((3, p), limit, dtype=np.int64)
        above = at.copy()
        above[1, 0] += 1
        for x, lanes in ((at, ["<i4"]), (above, ["<i8"]), (-at, ["<i4"]), (-above, ["<i8"])):
            out, pooled = _swept_lanes(net, x)
            assert pooled == lanes, (x[:, 0], pooled)
            assert out.dtype == np.int64
            assert out.tolist() == [python_int_count_walker(net, row) for row in x]

    def test_mixed_signs_and_int64_min_never_narrow_on_a_wrapped_check(self):
        """``np.abs(INT64_MIN)`` is ``INT64_MIN``: a bound taken in int64
        would call that row small and cast it to int32."""
        net = k_network([2, 2, 2])
        x = np.random.default_rng(4).integers(-1000, 1000, size=(4, net.width))
        out, pooled = _swept_lanes(net, x)
        assert pooled == ["<i4"]
        assert out.tolist() == [python_int_count_walker(net, row) for row in x]
        x[2] = np.abs(x[2])
        x[2, 3] = np.iinfo(np.int64).min
        out, pooled = _swept_lanes(net, x)
        assert pooled == ["<i8"]
        assert out.tolist() == [python_int_count_walker(net, row) for row in x]


# ---------------------------------------------------------------------------
# Backend composition
# ---------------------------------------------------------------------------


class TestBackends:
    def test_bitsliced_sort_matches_int64_on_zero_one(self):
        net = k_network([2, 2, 2])
        rng = np.random.default_rng(2)
        zo = (rng.random((128, net.width)) < rng.random((128, 1))).astype(np.int64)
        lanes = plan_executor(net, backend="int64", semantics="sort").run(zo)
        packed = plan_executor(net, backend="bitsliced", semantics="sort").run(zo)
        assert lanes.tobytes() == packed.tobytes()
        assert lanes.tobytes() == legacy_sort_walker(net, zo).tobytes()

    def test_token_semantics_is_rejected(self):
        """The token view has no kernel: it is the count kernel."""
        net = k_network([2, 2])
        for backend in ("int64", "bitsliced"):
            with pytest.raises(ValueError, match="unknown semantics"):
                plan_executor(net, backend=backend, semantics="token")

    def test_semantics_share_one_scratch_pool_per_backend(self):
        net = k_network([2, 2])
        exc = plan_executor(net, semantics="count")
        exs = plan_executor(net, semantics="sort")
        assert exc.pool is exs.pool
        assert exc is not exs


# ---------------------------------------------------------------------------
# The sort-semantics verifier still kills mutants
# ---------------------------------------------------------------------------


class TestKillMatrix:
    def test_sort_verifier_alone_leaves_no_escapes(self):
        """The 0-1 sorting verifier, pinned to the int64 plan path, must
        kill every live mutant of the comparator-visible fault classes."""
        sorting = {"sorting": verifiers_for_backend("int64")["sorting"]}
        matrix = run_conformance(
            networks=[k_network([2, 2])],
            faults=("stuck", "drop", "flip", "swap_outputs"),
            verifiers=sorting,
            seed=0,
            sites_per_fault=3,
            backend="int64",
        )
        assert matrix.trials, "no mutants injected"
        assert matrix.complete(), [t.as_dict() for t in matrix.escapes()]
        killed = sum(matrix.cell(f, "sorting")[0] for f in matrix.faults)
        assert killed > 0


# ---------------------------------------------------------------------------
# Steady-state allocation guarantee (mirrors the serve buffer-reuse test)
# ---------------------------------------------------------------------------


class TestSteadyStateAllocation:
    def test_single_vector_sort_path_reuses_buffers(self):
        """Repeated single-vector ``evaluate_comparators`` calls must hit
        the memoized plan executor: after one warmup, zero new scratch
        allocations and one pool reuse per call."""
        net = k_network([2, 2, 2])
        vec = np.arange(net.width)[::-1].copy()
        evaluate_comparators(net, vec)  # warm: lowering + scratch alloc
        ex = plan_executor(net, semantics="sort")
        allocs_after_warmup = ex.buffer_allocs
        reuses_before = ex.buffer_reuses
        for shift in range(5):
            evaluate_comparators(net, np.roll(vec, shift))
        assert ex.buffer_allocs == allocs_after_warmup, "steady state allocated"
        assert ex.buffer_reuses == reuses_before + 5
