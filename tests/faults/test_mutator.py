"""The mutation operators: every mutant is a valid network with the
advertised single fault, and the semantic overrides agree across all three
simulators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.mutator import (
    FAULT_CLASSES,
    FaultyNetwork,
    StuckOverride,
    drop_balancer,
    duplicate_layer,
    enumerate_sites,
    flip_balancer,
    mutate,
    sample_mutants,
    stuck_balancer,
    swap_layer_inputs,
    swap_outputs,
    toggle_balancer,
)
from repro.baselines import bitonic_network
from repro.core.compiled import compile_network
from repro.core.network import Balancer, Network
from repro.networks import k_network, l_network
from repro.networks.counting import clear_construction_cache
from repro.sim.count_sim import propagate_counts, propagate_counts_reference
from repro.sim.sort_sim import evaluate_comparators
from repro.sim.token_sim import run_tokens
from repro.verify.inputs import structured_counts


@pytest.fixture
def net():
    return k_network([2, 2, 2])


class TestSites:
    @pytest.mark.parametrize("fault", FAULT_CLASSES)
    def test_every_class_has_sites(self, net, fault):
        sites = enumerate_sites(net, fault)
        assert sites, fault
        # sites are unique
        assert len(sites) == len(set(sites))

    def test_site_counts_match_structure(self, net):
        assert len(enumerate_sites(net, "drop")) == net.size
        assert len(enumerate_sites(net, "stuck")) == sum(b.width for b in net.balancers)
        assert len(enumerate_sites(net, "dup_layer")) == net.depth
        w = net.width
        assert len(enumerate_sites(net, "swap_outputs")) == w * (w - 1) // 2

    def test_unknown_fault_rejected(self, net):
        with pytest.raises(ValueError, match="unknown fault"):
            enumerate_sites(net, "gamma_ray")
        with pytest.raises(ValueError, match="unknown fault"):
            mutate(net, "gamma_ray", (0,))


class TestStructuralMutants:
    """Structural mutations stay valid SSA and conserve tokens — only the
    ordering/step guarantees may break."""

    @pytest.mark.parametrize("fault", FAULT_CLASSES)
    def test_conservation(self, net, fault, rng):
        for m in sample_mutants(net, fault, rng, max_sites=3):
            x = rng.integers(0, 12, size=net.width)
            assert int(propagate_counts(m.network, x).sum()) == int(x.sum()), m.describe()

    def test_flip_is_reversal(self, net):
        m = flip_balancer(net, 0)
        assert m.balancers[0].outputs == tuple(reversed(net.balancers[0].outputs))
        assert m.balancers[1] == net.balancers[1]

    def test_toggle_width2_equals_flip(self, net):
        i = next(b.index for b in net.balancers if b.width == 2)
        t = toggle_balancer(net, i)
        f = flip_balancer(net, i)
        assert t.balancers[i].outputs == f.balancers[i].outputs

    def test_drop_reduces_size(self, net):
        m = drop_balancer(net, net.size - 1)
        assert m.size == net.size - 1

    def test_swap_outputs_permutes(self, net):
        m = swap_outputs(net, 0, net.width - 1)
        assert m.outputs[0] == net.outputs[net.width - 1]
        assert m.outputs[net.width - 1] == net.outputs[0]
        assert sorted(m.outputs) == sorted(net.outputs)

    def test_swap_wires_valid_everywhere(self):
        """The topological re-sort keeps every same-layer swap a valid
        network (list order is not layer order in general)."""
        for factors in ([2, 2, 2], [2, 3]):
            net = k_network(factors)
            for site in enumerate_sites(net, "swap_wires"):
                m = swap_layer_inputs(net, *site)  # _validate runs in __init__
                assert m.size == net.size

    def test_dup_layer_is_quiescently_equivalent_but_deeper(self, net):
        m = duplicate_layer(net, 0)
        x = structured_counts(net.width)
        assert np.array_equal(propagate_counts(net, x), propagate_counts(m, x))
        assert m.depth == net.depth + 1
        assert m.size == net.size + len(net.layers()[0])

    def test_dup_layer_bad_index(self, net):
        with pytest.raises(ValueError, match="out of range"):
            duplicate_layer(net, net.depth)


class TestStuckOverride:
    """The semantic stuck fault must mean the same thing to the batched
    count propagation, the reference propagation, and the token simulator."""

    def test_fast_matches_reference(self, net):
        m = stuck_balancer(net, net.balancers[-1].index, 1)
        for vec in structured_counts(net.width)[:8]:
            assert np.array_equal(
                propagate_counts(m, vec), propagate_counts_reference(m, vec)
            )

    def test_token_sim_matches_quiescent(self, net):
        m = stuck_balancer(net, net.balancers[-1].index, 0)
        vec = [5, 0, 3, 1, 0, 0, 2, 4]
        for sched in ("fifo", "random", "chaos"):
            res = run_tokens(m, vec, sched, seed=7)
            assert np.array_equal(res.output_counts, propagate_counts(m, vec)), sched

    def test_stuck_changes_behavior(self, net):
        m = stuck_balancer(net, net.balancers[-1].index, 0)
        x = structured_counts(net.width)
        assert not np.array_equal(propagate_counts(net, x), propagate_counts(m, x))

    def test_comparator_semantics_pass_through(self, net):
        """A stuck comparator does not exchange: outputs keep input order."""
        m = stuck_balancer(net, 0, 0)
        batch = np.array([[0, 1, 0, 1, 0, 1, 0, 1]], dtype=np.int8)
        plain = evaluate_comparators(net, batch)
        broken = evaluate_comparators(m, batch)
        assert plain.shape == broken.shape
        assert np.array_equal(np.sort(broken), np.sort(plain))  # multiset preserved

    def test_structure_untouched(self, net):
        m = stuck_balancer(net, 2, 1)
        assert isinstance(m, FaultyNetwork)
        assert m.depth == net.depth and m.size == net.size
        assert m.fault_overrides[2].stuck_port == 1

    def test_bad_port_rejected(self, net):
        with pytest.raises(ValueError, match="out of range"):
            stuck_balancer(net, 0, net.balancers[0].width)

    def test_mutant_shares_the_pristine_wiring(self, balancers_created):
        clear_construction_cache()
        wide = k_network([2] * 6)
        depth = wide.depth
        mutants = [stuck_balancer(wide, i, i % 2) for i in (0, 37, wide.size - 1)]
        assert balancers_created == []
        for m in mutants:
            assert all(a is b for a, b in zip(m.wire_arrays(), wide.wire_arrays()))
            assert m.depth == depth and m.num_wires == wide.num_wires
            assert m.inputs == wide.inputs and m.outputs == wide.outputs
        assert balancers_created == []

    def test_counts_match_the_balancer_list_construction(self, net):
        x = structured_counts(net.width)
        for index in range(net.size):
            for port in range(net.balancers[index].width):
                legacy = FaultyNetwork(
                    net.inputs, net.outputs, net.balancers, net.num_wires,
                    fault_overrides={index: StuckOverride(port)},
                )
                assert np.array_equal(
                    propagate_counts(stuck_balancer(net, index, port), x),
                    propagate_counts(legacy, x),
                )


def _balancer_list_mutant(net, fault: str, site: tuple[int, ...]) -> Network:
    """The same mutant built the old way: a rebuilt :class:`Balancer` list
    through the validating constructor."""
    if fault == "swap_outputs":
        outputs = list(net.outputs)
        a, b = site
        outputs[a], outputs[b] = outputs[b], outputs[a]
        return Network(net.inputs, outputs, net.balancers, net.num_wires)
    (index,) = site
    balancers = []
    for b in net.balancers:
        outs = b.outputs
        if b.index == index:
            outs = tuple(reversed(outs)) if fault == "flip" else outs[-1:] + outs[:-1]
        balancers.append(Balancer(b.index, b.inputs, outs))
    return Network(net.inputs, net.outputs, balancers, net.num_wires)


_REORDERING = ("flip", "toggle", "swap_outputs")
_REORDERED_NETS = [
    pytest.param(lambda: k_network([2, 2, 2]), id="K(2,2,2)"),
    pytest.param(lambda: bitonic_network(8), id="bitonic(8)"),
]


class TestReorderingMutants:
    """Flip, toggle and swap_outputs only reorder wires, so their mutants
    share the pristine arrays and layering instead of rebuilding them."""

    @pytest.mark.parametrize("build", _REORDERED_NETS)
    def test_build_no_balancer(self, build, balancers_created):
        clear_construction_cache()
        net = build()
        x = structured_counts(net.width)
        for fault in _REORDERING:
            for site in enumerate_sites(net, fault):
                m = mutate(net, fault, site).network
                m.depth
                compile_network(m)
                propagate_counts(m, x)
        assert balancers_created == []

    @pytest.mark.parametrize("build", _REORDERED_NETS)
    def test_match_the_balancer_list_construction(self, build):
        net = build()
        x = structured_counts(net.width)
        widths, in_concat, _, bounds = net.wire_arrays()
        for fault in _REORDERING:
            for site in enumerate_sites(net, fault):
                m = mutate(net, fault, site).network
                legacy = _balancer_list_mutant(net, fault, site)
                assert m.inputs == legacy.inputs and m.outputs == legacy.outputs
                assert m.num_wires == legacy.num_wires
                for a, b in zip(m.wire_arrays(), legacy.wire_arrays()):
                    assert np.array_equal(a, b), (fault, site)
                assert np.array_equal(m.balancer_layers(), legacy.balancer_layers())
                assert m.depth == legacy.depth
                assert np.array_equal(propagate_counts(m, x), propagate_counts(legacy, x))
                # Shared, not copied: only out_concat (or the outputs) is new.
                assert m.wire_arrays()[0] is widths and m.wire_arrays()[1] is in_concat
                assert m.wire_arrays()[3] is bounds
                assert m.balancer_layers() is net.balancer_layers()

    def test_out_of_range_balancer_rejected(self, net):
        for mutator in (flip_balancer, toggle_balancer):
            with pytest.raises(ValueError, match="out of range"):
                mutator(net, net.size)


class TestSampling:
    def test_seeded_and_reproducible(self, net):
        a = sample_mutants(net, "drop", np.random.default_rng(5), max_sites=3)
        b = sample_mutants(net, "drop", np.random.default_rng(5), max_sites=3)
        assert [m.site for m in a] == [m.site for m in b]

    def test_final_layer_bias(self, net):
        final = {b.index for b in net.layers()[-1]}
        for seed in range(5):
            ms = sample_mutants(net, "flip", np.random.default_rng(seed), max_sites=2)
            assert any(m.site[0] in final for m in ms), seed

    def test_l_network_also_mutable(self, rng):
        net = l_network([2, 2, 2])
        for fault in FAULT_CLASSES:
            assert sample_mutants(net, fault, rng, max_sites=1), fault
