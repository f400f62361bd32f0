"""The flat execution plan must be an exact drop-in for the reference
evaluator: byte-identical outputs across families, degenerate shapes,
single vs batch calls, fault overrides, obs on and off, and process-pool
sharding — plus the structural guarantees (scratch-pool reuse, plan
serialization round-trip, corrupted-plan rejection) the cache and the
serving layer lean on."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.network import NetworkBuilder, identity_network, single_balancer_network
from repro.core.plan import ExecutionPlan, PlanExecutor, lower_network, plan_executor
from repro.faults.mutator import FaultyNetwork, StuckOverride
from repro.networks import k_network, l_network, r_network
from repro.sim import propagate_counts, propagate_counts_reference


def _reference_batch(net, x: np.ndarray) -> np.ndarray:
    return np.stack([propagate_counts_reference(net, row) for row in x])


def _random_batch(net, batch: int, seed: int, high: int = 1000) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, high, size=(batch, net.width)).astype(np.int64)


# ---------------------------------------------------------------------------
# Equivalence with the per-balancer reference, across families.
# ---------------------------------------------------------------------------


_FACTOR_LISTS = st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=4)


class TestEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(factors=_FACTOR_LISTS, seed=st.integers(0, 2**32 - 1))
    def test_k_family(self, factors, seed):
        net = k_network(factors)
        x = _random_batch(net, 3, seed)
        assert np.array_equal(plan_executor(net).run(x), _reference_batch(net, x))

    @settings(max_examples=15, deadline=None)
    @given(factors=_FACTOR_LISTS, seed=st.integers(0, 2**32 - 1))
    def test_l_family(self, factors, seed):
        net = l_network(factors)
        x = _random_batch(net, 3, seed)
        assert np.array_equal(plan_executor(net).run(x), _reference_batch(net, x))

    @settings(max_examples=10, deadline=None)
    @given(
        p=st.integers(min_value=2, max_value=4),
        q=st.integers(min_value=2, max_value=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_r_family(self, p, q, seed):
        net = r_network(p, q)
        x = _random_batch(net, 3, seed)
        assert np.array_equal(plan_executor(net).run(x), _reference_batch(net, x))

    def test_single_vector_matches_batch(self):
        net = k_network([2, 3, 2])
        x = _random_batch(net, 1, 7)
        via_batch = propagate_counts(net, x)[0]
        via_single = propagate_counts(net, x[0])
        assert via_single.shape == (net.width,)
        assert np.array_equal(via_single, via_batch)

    def test_degenerate_identity_network(self):
        net = identity_network(5)
        x = _random_batch(net, 4, 0)
        assert np.array_equal(plan_executor(net).run(x), x)

    def test_degenerate_single_balancer(self):
        net = single_balancer_network(7)
        x = _random_batch(net, 4, 1)
        assert np.array_equal(plan_executor(net).run(x), _reference_batch(net, x))

    def test_width_one_network(self):
        net = identity_network(1)
        x = np.array([[3], [0], [9]], dtype=np.int64)
        assert np.array_equal(plan_executor(net).run(x), x)

    def test_irregular_mixed_width_layers(self):
        # Balancers of widths 2, 3 and 4 sharing layers: exercises several
        # segments per layer and the general (non width-2) kernel.
        b = NetworkBuilder(9)
        w = list(b.inputs)
        y = b.balancer(w[0:2]) + b.balancer(w[2:5]) + b.balancer(w[5:9])
        z = b.balancer(y[0:4]) + b.balancer(y[4:6]) + b.balancer(y[6:9])
        net = b.finish(z, name="mixed")
        x = _random_batch(net, 5, 3)
        assert np.array_equal(plan_executor(net).run(x), _reference_batch(net, x))

    def test_obs_on_and_off_byte_identical(self):
        net = k_network([2, 2, 3])
        x = _random_batch(net, 6, 4)
        obs.disable()
        off = propagate_counts(net, x)
        with obs.capture() as (reg, _):
            on = propagate_counts(net, x)
            assert reg.get("sim.counts.batches").value == 1
            assert reg.get("sim.counts.layer_seconds") is not None
        assert off.tobytes() == on.tobytes()

    def test_faulty_network_stays_on_override_path(self):
        base = k_network([2, 2, 3])
        # Stick a final-layer balancer: its outputs are network outputs, so
        # the fault must be visible (an internal balancer whose outputs all
        # feed one downstream balancer would be masked — totals-only flow).
        net = FaultyNetwork(
            base.inputs,
            base.outputs,
            base.balancers,
            base.num_wires,
            name=base.name,
            fault_overrides={base.size - 1: StuckOverride(0)},
        )
        x = _random_batch(net, 5, 5, high=50)
        got = propagate_counts(net, x)
        assert np.array_equal(got, _reference_batch(net, x))
        # The override must actually change the output vs the pristine net.
        assert not np.array_equal(got, propagate_counts(base, x))

    def test_workers_match_serial(self):
        net = k_network([2, 2, 2, 2])
        x = _random_batch(net, 32, 6)
        serial = propagate_counts(net, x)
        sharded = propagate_counts(net, x, workers=2)
        assert np.array_equal(serial, sharded)
        plan_executor(net).close_pool()

    def test_small_batch_falls_back_to_serial(self):
        net = k_network([2, 2])
        ex = plan_executor(net)
        x = _random_batch(net, 2, 8)
        assert np.array_equal(ex.run_parallel(x, workers=4), ex.run(x))
        assert ex._workers_pool is None  # fallback never built a pool


# ---------------------------------------------------------------------------
# Executor mechanics: scratch pooling, layer timing, validation.
# ---------------------------------------------------------------------------


class TestExecutor:
    def test_scratch_pool_reuses_buffers(self):
        ex = PlanExecutor(lower_network(k_network([2, 3])))
        x = _random_batch(k_network([2, 3]), 8, 0)
        ex.run(x)
        assert ex.buffer_allocs == 1 and ex.buffer_reuses == 0
        for _ in range(5):
            ex.run(x)
        assert ex.buffer_allocs == 1 and ex.buffer_reuses == 5

    def test_scratch_pool_evicts_lru(self):
        net = k_network([2, 3])
        ex = PlanExecutor(lower_network(net), max_pooled=2)
        for batch in (1, 2, 3):  # 3 evicts 1 (LRU)
            ex.run(_random_batch(net, batch, batch))
        assert sorted(b for b, _ in ex.pool._pool) == [2, 3]
        ex.run(_random_batch(net, 1, 9))  # re-allocates batch 1
        assert ex.buffer_allocs == 4

    def test_layer_times_accumulate(self):
        net = k_network([2, 2, 2])
        ex = plan_executor(net)
        plan = ex.plan
        times = np.zeros(plan.depth, dtype=np.float64)
        out_timed = ex.run(_random_batch(net, 4, 1), layer_times=times)
        assert np.all(times >= 0.0) and times.sum() > 0.0
        assert np.array_equal(out_timed, ex.run(_random_batch(net, 4, 1)))

    def test_rejects_wrong_width(self):
        ex = plan_executor(k_network([2, 2]))
        with pytest.raises(ValueError, match="expected input shape"):
            ex.run(np.zeros((3, 5), dtype=np.int64))

    def test_executor_memoized_per_network(self):
        net = k_network([2, 2])
        assert plan_executor(net) is plan_executor(net)
        assert lower_network(net) is lower_network(net)


# ---------------------------------------------------------------------------
# Plan serialization: round-trip and corruption rejection.
# ---------------------------------------------------------------------------


class TestPlanArrays:
    def test_round_trip(self):
        net = l_network([2, 3, 2])
        plan = lower_network(net)
        clone = ExecutionPlan.from_arrays(plan.to_arrays(), name=plan.name)
        x = _random_batch(net, 4, 2)
        assert np.array_equal(PlanExecutor(clone).run(x), PlanExecutor(plan).run(x))
        assert clone.depth == plan.depth and clone.size == plan.size

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda a: a.pop("in_flat"),
            lambda a: a.update(scalars=a["scalars"][:2]),
            lambda a: a.update(in_flat=a["in_flat"] + 10**6),  # out-of-range ids
            lambda a: a.update(seg_width=a["seg_width"][:-1]),
        ],
    )
    def test_rejects_corrupted_arrays(self, mangle):
        plan = lower_network(k_network([2, 3]))
        arrays = {k: v.copy() for k, v in plan.to_arrays().items()}
        mangle(arrays)
        with pytest.raises((ValueError, KeyError)):
            ExecutionPlan.from_arrays(arrays)


# ---------------------------------------------------------------------------
# Row reuse: the state holds about `width` rows, not one per SSA wire.
# ---------------------------------------------------------------------------


def _k222_with_stale_reads() -> dict[str, np.ndarray]:
    """K(2,2,2)'s plan arrays with the last segment moved to fresh rows 8..15.

    The outputs are still read from rows 0..7, which now hold the values
    the last segment already consumed: every row read was written, but not
    by the write the plan depends on.
    """
    plan = lower_network(k_network([2, 2, 2]))
    assert plan.num_wires == plan.width == 8
    arrays = {k: v.copy() for k, v in plan.to_arrays().items()}
    arrays["scalars"][1] = 16
    arrays["seg_out_base"][-1] = 8
    return arrays


class TestRowReuse:
    @pytest.mark.parametrize("k", range(2, 10))
    def test_binary_k_state_is_exactly_width(self, k):
        assert lower_network(k_network([2] * k)).num_wires == 2**k

    def test_stale_read_plan_would_evaluate_garbage(self):
        # Why the dataflow check exists: built without validation, the
        # corrupted plan runs and silently returns a wrong answer.
        fields = dict(_k222_with_stale_reads())
        width, num_wires, size, depth = (int(v) for v in fields.pop("scalars"))
        bad = ExecutionPlan(width=width, num_wires=num_wires, size=size,
                            depth=depth, name="bad", **fields)
        x = _random_batch(k_network([2, 2, 2]), 4, 11)
        good = PlanExecutor(lower_network(k_network([2, 2, 2]))).run(x)
        assert not np.array_equal(PlanExecutor(bad).run(x), good)

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda a: a.update(seg_out_base=a["seg_out_base"] + 1), "output block"),
            # Rows 8..15 exist but nothing ever writes them.
            (lambda a: (a["scalars"].__setitem__(1, 16), a["in_flat"].__setitem__(0, 9)),
             "holds no unread value"),
            (lambda a: a.update(_k222_with_stale_reads()), "holds no unread value"),
            # Segment 0 reads row 4 twice and never reads row 0, which its
            # output block then overwrites.
            (lambda a: a["in_flat"].__setitem__(0, a["in_flat"][1]), "overwrites a value"),
            (lambda a: a["output_idx"].__setitem__(0, a["output_idx"][1]), "twice or leaves one"),
            (lambda a: a["input_idx"].__setitem__(0, 1), "two inputs"),
            (lambda a: a["seg_in_off"].__setitem__(1, a["seg_in_off"][1] - 2), "seg_in_off"),
        ],
    )
    def test_rejects_plans_with_broken_dataflow(self, mangle, message):
        plan = lower_network(k_network([2, 2, 2]))
        arrays = {k: v.copy() for k, v in plan.to_arrays().items()}
        mangle(arrays)
        with pytest.raises(ValueError, match=message):
            ExecutionPlan.from_arrays(arrays)

    def test_rejects_write_over_an_unread_value(self):
        # Wire 2 passes the only balancer by; moving the balancer's output
        # block up one row overwrites it before the outputs read it.
        b = NetworkBuilder(3)
        w = list(b.inputs)
        plan = lower_network(b.finish(b.balancer(w[:2]) + [w[2]], name="partial"))
        arrays = {k: v.copy() for k, v in plan.to_arrays().items()}
        assert arrays["seg_out_base"][0] == 0 and plan.num_wires == 3
        arrays["seg_out_base"][0] = 1
        with pytest.raises(ValueError, match="overwrites a value"):
            ExecutionPlan.from_arrays(arrays)

    def test_cache_counts_stale_read_plan_corrupt_and_relowers(self, tmp_path):
        from repro.core.cache import PlanCache, cached_plan

        cache = PlanCache(tmp_path)
        factors = [2, 2, 2]
        cached_plan("K", factors, lambda: k_network(factors), cache=cache)
        key = PlanCache.entry_key("plan", "K", factors)
        np.savez(tmp_path / f"{key}.npz", **_k222_with_stale_reads())
        plan = cached_plan("K", factors, lambda: k_network(factors), cache=cache)
        assert cache.stats()["corrupt"] == 1
        x = _random_batch(k_network(factors), 4, 12)
        assert np.array_equal(PlanExecutor(plan).run(x), _reference_batch(k_network(factors), x))


# ---------------------------------------------------------------------------
# Tiled sweeps of wide batches.
# ---------------------------------------------------------------------------


class _TickClock:
    """``time`` stand-in whose ``perf_counter`` advances 1.0 per call, so
    every timed segment adds exactly 1.0 to its layer."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        self.now += 1.0
        return self.now


class TestTiling:
    def _tiled_batch(self, ex, seed: int) -> np.ndarray:
        """Two full tiles plus a remainder, sized from the executor."""
        tile = ex._tile_rows(np.dtype(np.int64))
        return _random_batch(k_network([2] * 7), 2 * tile + 7, seed)

    def test_wide_batch_is_tiled_and_matches_row_by_row(self):
        net = k_network([2] * 7)
        ex = PlanExecutor(lower_network(net))
        x = self._tiled_batch(ex, 13)
        assert x.shape[0] > ex._tile_rows(x.dtype) > 1
        out = ex.run(x)
        rows = np.concatenate([ex.run(x[i : i + 1]) for i in range(x.shape[0])])
        assert out.dtype == x.dtype and out.tobytes() == rows.tobytes()
        steps = (x.sum(axis=1)[:, None] - np.arange(net.width) + net.width - 1) // net.width
        assert np.array_equal(out, steps)

    def _assert_layer_times_cover_every_tile(self, monkeypatch, lanes, high: int) -> None:
        """Tiles are sized from the evaluation dtype ``lanes``, which the
        executor picks from the batch's values (below ``high``)."""
        import repro.core.plan as plan_mod

        net = k_network([2] * 7)
        ex = PlanExecutor(lower_network(net))
        tile = ex._tile_rows(np.dtype(lanes))
        x = _random_batch(net, 2 * tile + 7, 14, high)
        monkeypatch.setattr(plan_mod, "time", _TickClock())
        times = np.zeros(ex.plan.depth, dtype=np.float64)
        ex.run(x, layer_times=times)
        assert list(ex.pool._pool) == [(tile, np.dtype(lanes).str)]
        tiles = -(-x.shape[0] // tile)
        assert tiles == 3
        segments = np.bincount(ex.plan.seg_layer, minlength=ex.plan.depth)
        assert np.array_equal(times, segments * float(tiles))

    def test_layer_times_accumulate_over_every_tile(self, monkeypatch):
        # Counts far inside the int32 bound: swept in int32 lanes.
        self._assert_layer_times_cover_every_tile(monkeypatch, np.int32, 1000)

    def test_layer_times_accumulate_over_every_int64_tile(self, monkeypatch):
        # Counts past the int32 bound (width 128 admits up to 2^24 - 1).
        self._assert_layer_times_cover_every_tile(monkeypatch, np.int64, 1 << 40)

    def test_repeated_tiled_calls_allocate_nothing(self):
        net = k_network([2] * 7)
        ex = PlanExecutor(lower_network(net), semantics="sort")
        x = self._tiled_batch(ex, 15)
        ex.run(x)  # warm-up: one tile-sized scratch, remainder tile included
        allocs, reuses = ex.buffer_allocs, ex.buffer_reuses
        assert allocs == 1
        for seed in range(4):
            ex.run(self._tiled_batch(ex, seed))
        assert ex.buffer_allocs == allocs
        assert ex.buffer_reuses == reuses + 4


# ---------------------------------------------------------------------------
# Count lanes: int32 where the batch's bound proves it exact.
# ---------------------------------------------------------------------------


def _pooled_lanes(ex: PlanExecutor) -> list[str]:
    """The dtypes of the executor's pooled scratch, sorted."""
    return sorted(dtype for _, dtype in ex.pool._pool)


class TestCountLanes:
    def test_multi_row_count_batch_sweeps_in_int32_lanes(self):
        net = k_network([2, 3, 5])
        ex = PlanExecutor(lower_network(net))
        x = _random_batch(net, 16, 21)
        out = ex.run(x)
        assert _pooled_lanes(ex) == ["<i4"]
        # One vector at a time keeps int64 lanes: an int32-vs-int64 differential.
        rows = np.concatenate([ex.run(x[i : i + 1]) for i in range(x.shape[0])])
        assert _pooled_lanes(ex) == ["<i4", "<i8"]
        assert out.dtype == rows.dtype == np.int64
        assert out.tobytes() == rows.tobytes() == _reference_batch(net, x).tobytes()

    def test_single_vectors_and_sort_batches_keep_the_input_dtype(self):
        net = k_network([2, 2, 2])
        count = PlanExecutor(lower_network(net))
        count.run(_random_batch(net, 1, 0))
        assert _pooled_lanes(count) == ["<i8"]
        sort = PlanExecutor(lower_network(net), semantics="sort")
        sort.run(_random_batch(net, 8, 0))
        assert _pooled_lanes(sort) == ["<i8"]

    def test_warm_int32_sweep_allocates_only_its_output(self):
        import tracemalloc

        net = k_network([2] * 7)
        ex = PlanExecutor(lower_network(net))
        x = _random_batch(net, 2 * ex._tile_rows(np.dtype(np.int32)) + 7, 5)
        ex.run(x)  # warm-up: one int32 tile scratch
        allocs = ex.buffer_allocs
        tracemalloc.start()
        try:
            out = ex.run(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _pooled_lanes(ex) == ["<i4"] and ex.buffer_allocs == allocs
        # No whole-batch cast and no per-tile temporary on the way out.
        assert peak < out.nbytes + (64 << 10), (peak, out.nbytes)

    def test_executor_span_names_the_lanes(self):
        net = k_network([2, 3, 5])
        x = _random_batch(net, 8, 3)
        with obs.capture() as (_, spans):
            propagate_counts(net, x)
            propagate_counts(net, x[0])
            plan_executor(net, semantics="sort").run(x)
            plan_executor(net, backend="bitsliced").run(x % 2)
        assert [
            (s.fields["semantics"], s.fields["lanes"]) for s in spans.completed("executor")
        ] == [("count", "int32"), ("count", "int64"), ("sort", "int64"), ("count", "uint64")]


class TestRunParallelDtype:
    @pytest.mark.parametrize("dtype", [np.float64, np.int8])
    def test_sort_batches_keep_dtype_and_bytes(self, dtype):
        net = k_network([2, 2, 2])
        ex = plan_executor(net, semantics="sort")
        rng = np.random.default_rng(3)
        if dtype == np.float64:
            x = rng.random((16, net.width))
        else:
            x = rng.integers(-100, 100, size=(16, net.width)).astype(np.int8)
        try:
            sharded = ex.run_parallel(x, 2)
        finally:
            ex.close_pool()
        serial = ex.run(x)
        assert sharded.dtype == serial.dtype == x.dtype
        assert sharded.tobytes() == serial.tobytes()
