"""The bit-sliced 0-1 backend must be an exact drop-in for the int64
executor on every 0-1 batch: byte-identical outputs across families,
degenerate widths and lane counts, structural and semantic mutants — and a
typed refusal (never silent masking) on anything a single bit cannot hold."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitplan import (
    LANES,
    BitPlan,
    NotZeroOneError,
    evaluate_zero_one_packed,
    pack_zero_one,
    unpack_zero_one,
)
from repro.core.network import NetworkBuilder, single_balancer_network
from repro.core.plan import BACKENDS, PlanExecutor, lower_network, plan_executor
from repro.faults.mutator import flip_balancer, stuck_balancer, swap_outputs
from repro.networks import k_network, l_network, r_network
from repro.sim import evaluate_comparators


def _bits(net_width: int, batch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(batch, net_width)).astype(np.int64)


def _wide_network(width: int) -> NetworkBuilder:
    """A width-``width`` layered network mixing 2- and 3-balancers, so
    multi-word packing (width > 64 wires, several segment widths) is
    exercised without a construction family that large."""
    b = NetworkBuilder(width)
    wires = list(b.inputs)
    for shift in (0, 1):
        new = list(wires)
        pos = shift
        while pos + 1 < width:
            size = 3 if pos + 2 < width and pos % 2 == 0 else 2
            outs = b.balancer([wires[pos + i] for i in range(size)])
            for i in range(size):
                new[pos + i] = outs[i]
            pos += size
        wires = new
    return b.finish(wires, name=f"wide({width})")


# ---------------------------------------------------------------------------
# The refusal contract comes first: a packed bit cannot hold 2, 64 or -1,
# and masking would certify the wrong network.
# ---------------------------------------------------------------------------


class TestNotZeroOne:
    @pytest.mark.parametrize("bad", [2, -1, 64, 3])
    def test_pack_rejects_out_of_range(self, bad):
        x = np.zeros((4, 3), dtype=np.int64)
        x[2, 1] = bad
        with pytest.raises(NotZeroOneError) as exc:
            pack_zero_one(x)
        # The message names the value, its position, and the escape hatch.
        assert str(bad) in str(exc.value)
        assert "(2, 1)" in str(exc.value)
        assert "int64" in str(exc.value)

    def test_pack_rejects_fractional_floats(self):
        with pytest.raises(NotZeroOneError):
            pack_zero_one(np.array([[0.0, 0.5]]))

    def test_pack_accepts_float_zeros_and_ones(self):
        packed, batch = pack_zero_one(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert batch == 2
        assert np.array_equal(
            unpack_zero_one(packed, batch), [[0, 1], [1, 0]]
        )

    def test_value_64_would_silently_alias_without_the_check(self):
        """64 = 0b1000000 has a zero low bit: `x & 1` would turn it into
        a 0 and verify a different input.  The typed error is the fix."""
        x = np.ones((2, 2), dtype=np.int64)
        x[0, 0] = 64
        with pytest.raises(NotZeroOneError, match="64"):
            pack_zero_one(x)

    def test_bitsliced_executor_refuses_counting_batches(self):
        net = k_network([2, 2])
        ex = PlanExecutor(lower_network(net), backend="bitsliced")
        counts = np.full((3, net.width), 7, dtype=np.int64)
        with pytest.raises(NotZeroOneError):
            ex.run(counts)
        # The int64 backend takes the same batch without complaint.
        PlanExecutor(lower_network(net)).run(counts)

    def test_error_is_a_value_error(self):
        # Callers catching ValueError on bad input keep working.
        assert issubclass(NotZeroOneError, ValueError)


# ---------------------------------------------------------------------------
# Packing round-trip, including the ragged final word.
# ---------------------------------------------------------------------------


class TestPackRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(min_value=1, max_value=70),
        batch=st.integers(min_value=1, max_value=200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip(self, width, batch, seed):
        x = _bits(width, batch, seed)
        packed, b = pack_zero_one(x)
        assert b == batch
        assert packed.shape == (width, -(-batch // LANES))
        assert packed.dtype == np.uint64
        assert np.array_equal(unpack_zero_one(packed, batch), x)

    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 128, 129])
    def test_lane_boundaries(self, batch):
        x = _bits(5, batch, seed=batch)
        packed, b = pack_zero_one(x)
        assert packed.shape[1] == -(-batch // LANES)
        assert np.array_equal(unpack_zero_one(packed, b), x)

    def test_layout_is_wire_major_lane_minor(self):
        # Row n lives in bit n%64 of word n//64 on every wire.
        x = np.zeros((66, 2), dtype=np.int64)
        x[0, 0] = 1   # word 0, bit 0, wire 0
        x[63, 1] = 1  # word 0, bit 63, wire 1
        x[65, 0] = 1  # word 1, bit 1, wire 0
        packed, _ = pack_zero_one(x)
        assert packed[0, 0] == np.uint64(1)
        assert packed[1, 0] == np.uint64(1) << np.uint64(63)
        assert packed[0, 1] == np.uint64(2)

    def test_padding_lanes_are_zero(self):
        packed, _ = pack_zero_one(np.ones((3, 2), dtype=np.int64))
        assert packed[0, 0] == np.uint64(0b111)

    def test_unpack_rejects_overflowing_batch(self):
        packed, _ = pack_zero_one(np.ones((3, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="does not fit"):
            unpack_zero_one(packed, LANES + 1)


# ---------------------------------------------------------------------------
# Differential equivalence with the int64 executor.
# ---------------------------------------------------------------------------


_FACTOR_LISTS = st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=4)


class TestDifferential:
    @settings(max_examples=25, deadline=None)
    @given(factors=_FACTOR_LISTS, batch=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
    def test_k_family(self, factors, batch, seed):
        net = k_network(factors)
        x = _bits(net.width, batch, seed)
        a = plan_executor(net, backend="int64").run(x)
        b = plan_executor(net, backend="bitsliced").run(x)
        assert a.dtype == b.dtype == np.int64
        assert a.tobytes() == b.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(factors=_FACTOR_LISTS, batch=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
    def test_l_family(self, factors, batch, seed):
        net = l_network(factors)
        x = _bits(net.width, batch, seed)
        assert (
            plan_executor(net, backend="bitsliced").run(x).tobytes()
            == plan_executor(net, backend="int64").run(x).tobytes()
        )

    @settings(max_examples=10, deadline=None)
    @given(
        p=st.integers(min_value=2, max_value=4),
        q=st.integers(min_value=2, max_value=4),
        batch=st.integers(1, 130),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_r_family(self, p, q, batch, seed):
        net = r_network(p, q)
        x = _bits(net.width, batch, seed)
        assert (
            plan_executor(net, backend="bitsliced").run(x).tobytes()
            == plan_executor(net, backend="int64").run(x).tobytes()
        )

    def test_searched_variant(self):
        net = k_network([2, 2, 2, 2], variant="searched")
        x = _bits(net.width, 200, seed=7)
        assert (
            plan_executor(net, backend="bitsliced").run(x).tobytes()
            == plan_executor(net, backend="int64").run(x).tobytes()
        )

    def test_width_one_identity(self):
        net = NetworkBuilder(1)
        net = net.finish(list(net.inputs), name="id1")
        x = _bits(1, 5, seed=0)
        assert (
            plan_executor(net, backend="bitsliced").run(x).tobytes()
            == plan_executor(net, backend="int64").run(x).tobytes()
        )

    def test_width_65_multiword_state(self):
        net = _wide_network(65)
        x = _bits(65, 130, seed=3)
        assert (
            plan_executor(net, backend="bitsliced").run(x).tobytes()
            == plan_executor(net, backend="int64").run(x).tobytes()
        )

    def test_single_wide_balancer(self):
        # One p=7 balancer: the transposition kernel vs the counting formula.
        net = single_balancer_network(7)
        x = _bits(7, 128, seed=11)
        assert (
            plan_executor(net, backend="bitsliced").run(x).tobytes()
            == plan_executor(net, backend="int64").run(x).tobytes()
        )

    def test_structural_mutants_agree_between_backends(self):
        # A broken network must be *identically* broken on both backends —
        # otherwise the fuzz tiers would disagree about what they killed.
        base = k_network([2, 2, 2])
        for mutant in (
            flip_balancer(base, base.layers()[-1][0].index),
            swap_outputs(base, 0, base.width - 1),
        ):
            x = _bits(mutant.width, 256, seed=5)
            assert (
                plan_executor(mutant, backend="bitsliced").run(x).tobytes()
                == plan_executor(mutant, backend="int64").run(x).tobytes()
            )


class TestFaultOverrides:
    def test_stuck_balancer_matches_comparator_semantics(self):
        net = k_network([2, 2, 2])
        for b in (net.balancers[0], net.balancers[len(net.balancers) // 2]):
            faulty = stuck_balancer(net, b.index)
            x = _bits(net.width, 200, seed=b.index)
            packed, batch = pack_zero_one(x)
            out = unpack_zero_one(evaluate_zero_one_packed(faulty, packed), batch)
            expect = evaluate_comparators(faulty, x).astype(np.int64)
            assert out.tobytes() == expect.tobytes()

    def test_pristine_packed_path_matches_executor(self):
        net = l_network([3, 2])
        x = _bits(net.width, 70, seed=2)
        packed, batch = pack_zero_one(x)
        out = unpack_zero_one(evaluate_zero_one_packed(net, packed), batch)
        assert out.tobytes() == plan_executor(net).run(x).tobytes()

    def test_shape_mismatch_rejected(self):
        net = k_network([2, 2])
        with pytest.raises(ValueError, match="packed input"):
            evaluate_zero_one_packed(net, np.zeros((net.width + 1, 1), dtype=np.uint64))


# ---------------------------------------------------------------------------
# The public packed API and the executor plumbing around it.
# ---------------------------------------------------------------------------


class TestExecutorSurface:
    def test_backends_tuple(self):
        assert BACKENDS == ("int64", "bitsliced")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            PlanExecutor(lower_network(k_network([2])), backend="uint8")

    def test_plan_executor_memoizes_per_backend(self):
        net = k_network([2, 3])
        assert plan_executor(net) is plan_executor(net, backend="int64")
        bit = plan_executor(net, backend="bitsliced")
        assert bit is plan_executor(net, backend="bitsliced")
        assert bit is not plan_executor(net, backend="int64")

    def test_run_packed_requires_bitsliced(self):
        net = k_network([2, 2])
        ex = PlanExecutor(lower_network(net))  # int64
        with pytest.raises(ValueError, match="bitsliced"):
            ex.run_packed(np.zeros((net.width, 1), dtype=np.uint64))

    def test_run_packed_round_trip(self):
        net = k_network([2, 2, 2])
        ex = plan_executor(net, backend="bitsliced")
        x = _bits(net.width, 100, seed=9)
        packed, batch = pack_zero_one(x)
        out = unpack_zero_one(ex.run_packed(packed), batch)
        assert out.tobytes() == plan_executor(net).run(x).tobytes()

    def test_run_packed_rejects_wrong_width(self):
        ex = plan_executor(k_network([2, 2]), backend="bitsliced")
        with pytest.raises(ValueError, match="packed shape"):
            ex.run_packed(np.zeros((3, 1), dtype=np.uint64))

    def test_bit_scratch_pool_reuses_buffers(self):
        ex = PlanExecutor(lower_network(k_network([2, 2])), backend="bitsliced")
        x = _bits(4, 80, seed=1)  # 2 words
        ex.run(x)
        assert ex.buffer_allocs == 1 and ex.buffer_reuses == 0
        ex.run(x)
        ex.run(x)
        assert ex.buffer_allocs == 1 and ex.buffer_reuses == 2
        stats = ex.scratch_stats()
        assert stats["pooled_batch_sizes"] == [2]  # keyed by word count
        assert stats["batches"] == 3

    def test_bitplan_segments_mirror_plan(self):
        plan = lower_network(k_network([2, 3]))
        bp = BitPlan(plan)
        assert bp.width == plan.width and bp.num_wires == plan.num_wires
        assert len(bp.segments) == plan.num_segments
        assert [seg[:2] for seg in bp.segments] == list(
            zip(plan.seg_width.tolist(), plan.seg_count.tolist())
        )


class TestCachedBitPlan:
    def test_cached_plan_backend_round_trip(self, tmp_path):
        from repro.core.cache import PlanCache, cached_plan

        cache = PlanCache(tmp_path)
        factors = [2, 3]
        cold = cached_plan("K", factors, lambda: k_network(factors), cache=cache)
        # A second call hits the cache; the bit-sliced executor lowers the
        # stored ExecutionPlan to its BitPlan itself.
        warm = cached_plan("K", factors, lambda: pytest.fail("must hit"), cache=cache)
        for f, arr in cold.to_arrays().items():
            assert np.array_equal(warm.to_arrays()[f], arr), f
        x = _bits(warm.width, 90, seed=4)
        packed, batch = pack_zero_one(x)
        ex = PlanExecutor(warm, backend="bitsliced")
        assert (
            unpack_zero_one(ex.run_packed(packed), batch).tobytes()
            == plan_executor(k_network(factors)).run(x).tobytes()
        )

    def test_one_stored_plan_serves_both_backends(self, tmp_path):
        from repro.core.cache import PlanCache, cached_plan

        cache = PlanCache(tmp_path)
        factors = [2, 2, 2]
        cached_plan("K", factors, lambda: k_network(factors), cache=cache)
        hit = cached_plan("K", factors, lambda: pytest.fail("must hit"), cache=cache)
        x = _bits(hit.width, 130, seed=7)
        for semantics in ("count", "sort"):
            bit = PlanExecutor(hit, backend="bitsliced", semantics=semantics).run(x)
            lanes = PlanExecutor(hit, backend="int64", semantics=semantics).run(x)
            assert bit.tobytes() == lanes.tobytes(), semantics
        stats = cache.stats()
        assert stats["entries"] == 2 and stats["stores"] == 2  # network + plan
        assert "backends" not in stats and "semantics" not in stats
