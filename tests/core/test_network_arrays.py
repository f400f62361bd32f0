"""The array-native network IR against the per-balancer oracle it replaced.

A :class:`~repro.core.network.Network` is its flat wire arrays: the builder
appends widths and input ids, the layering runs in Kahn rounds, the layer
compiler groups with one lexsort, and the validator is vectorized.  This
module keeps the per-balancer builder and walks those replaced as
*oracles*: ``LegacyBuilder`` (one :class:`Balancer` per balancer, Python
``_defined``/``_consumed`` lists), the ``wire_depths`` walk, the
per-balancer layer grouping, the dict-grouping compiler and the walk
validator.  Every family, the standalone builders, hypothesis networks and
mutants must come out identical, down to the lowered plan arrays.
"""

from __future__ import annotations

import contextlib
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.network as network_mod
import repro.core.plan as plan_mod
from repro.core.compiled import CompiledNetwork, WidthGroup, compile_network
from repro.core.network import Balancer, Network, NetworkBuilder
from repro.core.plan import lower_plan
from repro.faults.mutator import enumerate_sites, mutate
from repro.networks import k_network, l_network, r_network
from repro.networks.bitonic_converter import bitonic_converter
from repro.networks.counting import clear_construction_cache
from repro.networks.expand import expand_comparators
from repro.networks.staircase import staircase_merger
from repro.networks.two_merger import two_merger
from repro.sim import evaluate_comparators, propagate_counts

# ---------------------------------------------------------------------------
# Oracles: the per-balancer builder and walks the array IR replaced.
# ---------------------------------------------------------------------------


class LegacyBuilder:
    """The per-balancer ``NetworkBuilder``: one :class:`Balancer` per
    balancer, Python lists for the defined and consumed wires."""

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        self.inputs = tuple(range(width))
        self._next_wire = width
        self._balancers: list[Balancer] = []
        self._defined = [True] * width
        self._consumed = [False] * width

    @property
    def width(self) -> int:
        return len(self.inputs)

    @property
    def num_balancers(self) -> int:
        return len(self._balancers)

    def balancer(self, in_wires):
        ins = tuple(int(w) for w in in_wires)
        if len(ins) < 2:
            raise ValueError(f"balancer width must be >= 2, got {len(ins)}")
        for w in ins:
            if not (0 <= w < self._next_wire) or not self._defined[w]:
                raise ValueError(f"wire {w} is not defined")
            if self._consumed[w]:
                raise ValueError(f"wire {w} already consumed")
        outs = tuple(range(self._next_wire, self._next_wire + len(ins)))
        self._next_wire += len(ins)
        self._defined.extend([True] * len(ins))
        self._consumed.extend([False] * len(ins))
        for w in ins:
            self._consumed[w] = True
        self._balancers.append(Balancer(len(self._balancers), ins, outs))
        return list(outs)

    def maybe_balancer(self, in_wires):
        if len(in_wires) <= 1:
            return list(in_wires)
        return self.balancer(in_wires)

    def subnetwork(self, net, in_wires):
        if len(in_wires) != net.width:
            raise ValueError(f"subnetwork width {net.width} != {len(in_wires)} wires given")
        ins = [int(w) for w in in_wires]
        if len(set(ins)) != len(ins):
            raise ValueError("duplicate wires given to subnetwork")
        for w in ins:
            if not (0 <= w < self._next_wire) or not self._defined[w]:
                raise ValueError(f"wire {w} is not defined")
            if self._consumed[w]:
                raise ValueError(f"wire {w} already consumed")
        if net.size == 0:
            pos = {w: i for i, w in enumerate(net.inputs)}
            return [ins[pos[w]] for w in net.outputs]
        widths, in_concat, out_concat, bounds = net.wire_arrays()
        total = int(bounds[-1])
        base = self._next_wire
        mapping = np.empty(net.num_wires, dtype=np.int64)
        mapping[net.io_arrays()[0]] = ins
        mapping[out_concat] = np.arange(base, base + total, dtype=np.int64)
        new_in = mapping[in_concat].tolist()
        self._next_wire += total
        self._defined.extend([True] * total)
        self._consumed.extend([False] * total)
        for w in new_in:
            self._consumed[w] = True
        index = len(self._balancers)
        blist = bounds.tolist()
        for j in range(net.size):
            lo, hi = blist[j], blist[j + 1]
            outs = tuple(range(base + lo, base + hi))
            self._balancers.append(Balancer._trusted(index + j, tuple(new_in[lo:hi]), outs))
        return [int(mapping[w]) for w in net.outputs]

    def finish(self, outputs, name: str = "network") -> Network:
        outs = [int(w) for w in outputs]
        terminal = [w for w in range(self._next_wire) if not self._consumed[w]]
        if sorted(outs) != terminal:
            raise ValueError(
                f"outputs must be exactly the {len(terminal)} unconsumed wires, "
                f"got {len(outs)} wires"
            )
        return Network(self.inputs, outs, self._balancers, self._next_wire, name, validate=False)


def legacy_wire_arrays(net: Network):
    bals = net.balancers
    widths = np.array([b.width for b in bals], dtype=np.int64)
    in_concat = np.array([w for b in bals for w in b.inputs], dtype=np.int64)
    out_concat = np.array([w for b in bals for w in b.outputs], dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum(widths))).astype(np.int64)
    return widths, in_concat, out_concat, bounds


def legacy_wire_depths(net: Network) -> np.ndarray:
    depth = np.zeros(net.num_wires, dtype=np.int64)
    for b in net.balancers:
        d = 1 + max((int(depth[i]) for i in b.inputs), default=0)
        for o in b.outputs:
            depth[o] = d
    return depth


def legacy_depth(net: Network) -> int:
    if not net.balancers:
        return 0
    return int(max(legacy_wire_depths(net)[list(net.outputs)], default=0))


def legacy_layers(net: Network) -> list[list[Balancer]]:
    depths = legacy_wire_depths(net)
    out: list[list[Balancer]] = [[] for _ in range(legacy_depth(net))]
    for b in net.balancers:
        out[max((int(depths[i]) for i in b.inputs), default=0)].append(b)
    return out


def legacy_compile(net: Network) -> CompiledNetwork:
    layers = []
    for layer in legacy_layers(net):
        by_width: dict[int, list] = {}
        for b in layer:
            by_width.setdefault(b.width, []).append(b)
        groups = []
        for width in sorted(by_width):
            bs = by_width[width]
            groups.append(
                WidthGroup(
                    width,
                    np.array([b.inputs for b in bs], dtype=np.int64),
                    np.array([b.outputs for b in bs], dtype=np.int64),
                )
            )
        layers.append(tuple(groups))
    return CompiledNetwork(
        num_wires=net.num_wires,
        input_idx=np.array(net.inputs, dtype=np.int64),
        output_idx=np.array(net.outputs, dtype=np.int64),
        layers=tuple(layers),
    )


def legacy_validate(inputs, outputs, balancers, num_wires) -> None:
    """The per-balancer walk validator."""
    if len(inputs) != len(outputs):
        raise ValueError("network must have equal numbers of input and output wires")
    if len(set(inputs)) != len(inputs):
        raise ValueError("duplicate input wires")
    if len(set(outputs)) != len(outputs):
        raise ValueError("duplicate output wires")
    defined = set(inputs)
    consumed: set[int] = set()
    for b in balancers:
        for wire in b.inputs:
            if wire not in defined:
                raise ValueError(f"balancer {b.index} reads undefined wire {wire}")
            if wire in consumed:
                raise ValueError(f"wire {wire} consumed twice (balancer {b.index})")
            consumed.add(wire)
        for wire in b.outputs:
            if wire in defined:
                raise ValueError(f"balancer {b.index} redefines wire {wire}")
            defined.add(wire)
    terminal = defined - consumed
    if set(outputs) != terminal:
        missing = terminal - set(outputs)
        extra = set(outputs) - terminal
        raise ValueError(
            f"outputs must be exactly the unconsumed wires; "
            f"missing={sorted(missing)[:5]} extra={sorted(extra)[:5]}"
        )
    if num_wires != len(defined):
        raise ValueError(f"num_wires={num_wires} but {len(defined)} wires defined")


def _groups(comp: CompiledNetwork):
    return [
        [(g.width, g.in_idx.shape, g.in_idx.tobytes(), g.out_idx.tobytes()) for g in layer]
        for layer in comp.layers
    ]


@contextlib.contextmanager
def legacy_builder():
    """Swap ``LegacyBuilder`` in for ``NetworkBuilder`` in every loaded
    ``repro`` module, with the construction cache emptied on both sides."""
    with contextlib.ExitStack() as stack:
        for name, mod in list(sys.modules.items()):
            if name.startswith("repro") and getattr(mod, "NetworkBuilder", None) is NetworkBuilder:
                stack.enter_context(mock.patch.object(mod, "NetworkBuilder", LegacyBuilder))
        clear_construction_cache()
        stack.callback(clear_construction_cache)
        yield


def assert_identical(net: Network, oracle: Network) -> None:
    """Everything the array IR derives equals what the oracle derives."""
    assert net.inputs == oracle.inputs
    assert net.outputs == oracle.outputs
    assert net.num_wires == oracle.num_wires
    assert net.size == oracle.size
    for got, want in zip(net.wire_arrays(), legacy_wire_arrays(oracle)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert net.wire_depths().tobytes() == legacy_wire_depths(oracle).tobytes()
    assert net.depth == legacy_depth(oracle)
    assert net.layers() == legacy_layers(oracle)
    assert _groups(compile_network(net)) == _groups(legacy_compile(oracle))
    got = lower_plan(net).to_arrays()
    with mock.patch.object(plan_mod, "compile_network", legacy_compile):
        want = lower_plan(oracle).to_arrays()
    assert got.keys() == want.keys()
    for k in got:
        assert got[k].tobytes() == want[k].tobytes(), k
    assert net.balancers == oracle.balancers


# ---------------------------------------------------------------------------
# Families and standalone builders
# ---------------------------------------------------------------------------

BUILDS = [
    pytest.param(lambda: k_network([2, 3, 5]), id="K(2,3,5)"),
    pytest.param(lambda: k_network([3, 3, 2, 2]), id="K(3,3,2,2)"),
    pytest.param(lambda: k_network([2] * 7), id="K(2^7)"),
    pytest.param(lambda: k_network([4, 4, 2]), id="K(4,4,2)"),
    pytest.param(lambda: k_network([2, 2, 2, 2], variant="searched"), id="K(2^4)[searched]"),
    pytest.param(lambda: k_network([2, 3, 2], variant="searched"), id="K(2,3,2)[searched]"),
    pytest.param(lambda: l_network([2, 3, 2]), id="L(2,3,2)"),
    pytest.param(lambda: l_network([3, 3, 3]), id="L(3,3,3)"),
    pytest.param(lambda: l_network([2, 2, 2], variant="searched"), id="L(2,2,2)[searched]"),
    pytest.param(lambda: r_network(3, 7), id="R(3,7)"),
    pytest.param(lambda: r_network(5, 4), id="R(5,4)"),
    pytest.param(lambda: staircase_merger(3, 2, 3, "opt_rescan"), id="S(3,2,3,opt_rescan)"),
    pytest.param(lambda: staircase_merger(4, 2, 2, "basic"), id="S(4,2,2,basic)"),
    pytest.param(lambda: staircase_merger(3, 2, 2, "small"), id="S(3,2,2,small)"),
    pytest.param(lambda: staircase_merger(2, 3, 2, "opt_bitonic"), id="S(2,3,2,opt_bitonic)"),
    pytest.param(lambda: two_merger(3, 2, 2), id="T(3,2,2)"),
    pytest.param(lambda: two_merger(2, 3, 3, small=True), id="T(2,3,3,small)"),
    pytest.param(lambda: bitonic_converter(3, 4), id="D(3,4)"),
    pytest.param(lambda: expand_comparators(k_network([4, 3])), id="expand(K(4,3))"),
]


class TestDifferentialBuilders:
    @pytest.mark.parametrize("build", BUILDS)
    def test_array_builder_matches_per_balancer_oracle(self, build):
        clear_construction_cache()
        net = build()
        with legacy_builder():
            oracle = build()
        assert oracle is not net
        assert_identical(net, oracle)


# ---------------------------------------------------------------------------
# Hypothesis: random recipes replayed through both builders
# ---------------------------------------------------------------------------


def _passthrough_sub(builder_cls):
    """Width 3, one balancer, input 1 passes straight to output 1."""
    b = builder_cls(3)
    o = b.balancer([0, 2])
    return b.finish([o[0], 1, o[1]], name="pass")


def _crossed_sub(builder_cls):
    """Width 4, two layers, outputs in a permuted order."""
    b = builder_cls(4)
    a0, a1 = b.balancer([0, 1])
    c0, c1 = b.balancer([2, 3])
    t = b.balancer([a0, c1])
    u = b.balancer([c0, a1])
    return b.finish([t[0], u[0], u[1], t[1]], name="crossed")


@st.composite
def recipes(draw, max_width: int = 10, max_layers: int = 5):
    """Random layered networks as replayable operations: balancers of width
    2-4 and inlined 3- and 4-wide sub-networks on random wire positions,
    partial layers, and a random output order."""
    width = draw(st.integers(min_value=2, max_value=max_width))
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_layers))):
        perm = draw(st.permutations(list(range(width))))
        pos = 0
        while pos + 1 < width:
            size = draw(st.integers(min_value=2, max_value=min(4, width - pos)))
            kind = "sub" if size > 2 and draw(st.booleans()) else "balancer"
            ops.append((kind, tuple(perm[pos : pos + size])))
            pos += size
            if draw(st.booleans()):
                break
    return width, ops, draw(st.permutations(list(range(width))))


def replay(builder_cls, recipe) -> Network:
    width, ops, out_order = recipe
    subs = {3: _passthrough_sub(builder_cls), 4: _crossed_sub(builder_cls)}
    b = builder_cls(width)
    wires = list(b.inputs)
    for kind, group in ops:
        ins = [wires[i] for i in group]
        outs = b.balancer(ins) if kind == "balancer" else b.subnetwork(subs[len(ins)], ins)
        for i, w in zip(group, outs):
            wires[i] = w
    return b.finish([wires[i] for i in out_order], name="fuzz")


@settings(max_examples=80, deadline=None)
@given(recipes())
def test_random_recipes_match_per_balancer_oracle(recipe):
    assert_identical(replay(NetworkBuilder, recipe), replay(LegacyBuilder, recipe))


# ---------------------------------------------------------------------------
# Layering: mutants, cycles, degenerate shapes
# ---------------------------------------------------------------------------


class TestLayering:
    @pytest.mark.parametrize("fault", ["drop", "flip", "toggle", "swap_wires", "dup_layer"])
    @pytest.mark.parametrize(
        "build", [lambda: k_network([2, 2, 3]), lambda: l_network([2, 2, 2])], ids=["K", "L"]
    )
    def test_mutant_layers_match_the_walk(self, fault, build):
        net = build()
        sites = enumerate_sites(net, fault)
        for site in sites[:: max(1, len(sites) // 12)]:
            m = mutate(net, fault, site).network
            assert m.wire_depths().tobytes() == legacy_wire_depths(m).tobytes()
            assert m.depth == legacy_depth(m)
            assert m.layers() == legacy_layers(m)
            assert _groups(compile_network(m)) == _groups(legacy_compile(m))

    def _cyclic(self) -> Network:
        # Balancer 0 reads wire 5, which balancer 1 produces from wire 2,
        # which balancer 0 produces.
        return Network(
            [0, 1], [3, 4], [Balancer(0, (0, 5), (2, 3)), Balancer(1, (1, 2), (4, 5))],
            6, validate=False,
        )

    def test_cyclic_wire_arrays_raise(self):
        net = self._cyclic()
        with pytest.raises(ValueError, match="cycle"):
            net.balancer_layers()
        with pytest.raises(ValueError, match="cycle"):
            _ = net.depth
        with pytest.raises(ValueError, match="cycle"):
            net.layers()
        with pytest.raises(ValueError, match="cycle"):
            compile_network(net)

    def test_cyclic_wire_arrays_fail_validation(self):
        with pytest.raises(ValueError, match="balancer 0 reads undefined wire 5"):
            self._cyclic()._validate()

    def test_layer_array_is_read_only_and_cached(self):
        net = k_network([2, 3, 2])
        layer = net.balancer_layers()
        assert layer is net.balancer_layers()
        assert not layer.flags.writeable
        assert np.bincount(layer).tolist() == [len(lay) for lay in net.layers()]

    def test_identity_has_no_layers(self):
        net = network_mod.identity_network(4)
        assert net.balancer_layers().shape == (0,)
        assert net.layers() == [] and net.depth == 0
        assert compile_network(net).layers == ()


# ---------------------------------------------------------------------------
# The hot path never creates a Balancer
# ---------------------------------------------------------------------------


def test_cold_wide_build_and_sweeps_create_no_balancer(balancers_created):
    clear_construction_cache()
    net = k_network([2] * 11)
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 1 << 16, size=(4, net.width))
    out = propagate_counts(net, counts)
    j = np.arange(net.width)
    assert np.array_equal(out, (counts.sum(axis=1)[:, None] - j + net.width - 1) // net.width)
    values = rng.integers(-1000, 1000, size=(4, net.width))
    assert np.array_equal(evaluate_comparators(net, values), np.sort(values, axis=1)[:, ::-1])
    assert net.depth == 145 and net.size == 97_280
    assert balancers_created == []

    with legacy_builder():
        oracle = k_network([2] * 11)
    assert net.balancers == oracle.balancers


def test_balancer_view_is_built_once():
    net = k_network([2, 2, 3])
    assert net.balancers is net.balancers
    assert [b.index for b in net.balancers] == list(range(net.size))


# ---------------------------------------------------------------------------
# The vectorized validator, one hand-corrupted array set per error
# ---------------------------------------------------------------------------


def _tiny_arrays() -> dict:
    """Inputs 0-3; b0 (0,1)->(4,5), b1 (2,3)->(6,7), b2 (4,7)->(8,9),
    b3 (6,5)->(10,11); outputs (8,10,11,9)."""
    return {
        "inputs": [0, 1, 2, 3],
        "outputs": [8, 10, 11, 9],
        "widths": [2, 2, 2, 2],
        "in_concat": [0, 1, 2, 3, 4, 7, 6, 5],
        "out_concat": [4, 5, 6, 7, 8, 9, 10, 11],
        "num_wires": 12,
    }


def _set(key, index, value):
    def corrupt(a):
        a[key][index] = value

    return corrupt


def _replace(key, value):
    def corrupt(a):
        a[key] = value

    return corrupt


def _both(*fns):
    def corrupt(a):
        for fn in fns:
            fn(a)

    return corrupt


#: (case id, corruption, expected message) — each expressible as Balancer
#: objects too, so the walk validator must agree word for word.
WALK_CASES = [
    ("undefined", _set("in_concat", 4, 10), "balancer 2 reads undefined wire 10"),
    ("self-read", _set("in_concat", 4, 8), "balancer 2 reads undefined wire 8"),
    ("consumed-twice", _set("in_concat", 6, 4), "wire 4 consumed twice (balancer 3)"),
    ("redefined", _set("out_concat", 7, 4), "balancer 3 redefines wire 4"),
    ("redefined-input", _set("out_concat", 3, 0), "balancer 1 redefines wire 0"),
    ("redefined-same-balancer", _set("out_concat", 5, 8), "balancer 2 redefines wire 8"),
    ("duplicate-inputs", _set("inputs", 3, 2), "duplicate input wires"),
    ("duplicate-outputs", _set("outputs", 2, 10), "duplicate output wires"),
    ("io-count", _replace("outputs", [8, 10, 11]), "network must have equal numbers"),
    (
        "not-terminal",
        _set("outputs", 3, 4),
        "outputs must be exactly the unconsumed wires; missing=[9] extra=[4]",
    ),
    ("num-wires", _replace("num_wires", 13), "num_wires=13 but 12 wires defined"),
    ("num-wires-short", _replace("num_wires", 11), "num_wires=11 but 12 wires defined"),
    # No work array may be sized by an unchecked num_wires.
    ("num-wires-huge", _replace("num_wires", 1 << 40), f"num_wires={1 << 40} but 12 wires defined"),
    (
        "first-offender",
        _both(_set("in_concat", 6, 4), _set("out_concat", 3, 0)),
        "balancer 1 redefines wire 0",
    ),
    (
        "input-before-output",
        _both(_set("in_concat", 5, 1), _set("out_concat", 5, 0)),
        "wire 1 consumed twice (balancer 2)",
    ),
]


def _balancer_list(a: dict) -> list[Balancer]:
    bounds = np.concatenate(([0], np.cumsum(a["widths"]))).tolist()
    return [
        Balancer(
            j,
            tuple(a["in_concat"][bounds[j] : bounds[j + 1]]),
            tuple(a["out_concat"][bounds[j] : bounds[j + 1]]),
        )
        for j in range(len(a["widths"]))
    ]


def _from_balancers(a: dict) -> Network:
    return Network(a["inputs"], a["outputs"], _balancer_list(a), a["num_wires"])


class TestValidator:
    def test_clean_arrays_validate(self):
        net = Network.from_wire_arrays(**_tiny_arrays())
        assert net.depth == 2 and net.size == 4
        assert net == _from_balancers(_tiny_arrays())

    @pytest.mark.parametrize("case,corrupt,message", WALK_CASES, ids=[c[0] for c in WALK_CASES])
    def test_corruption_matches_the_walk(self, case, corrupt, message):
        a = _tiny_arrays()
        corrupt(a)
        with pytest.raises(ValueError) as walk:
            legacy_validate(a["inputs"], a["outputs"], _balancer_list(a), a["num_wires"])
        assert message in str(walk.value)
        with pytest.raises(ValueError) as arrays:
            Network.from_wire_arrays(**a)
        assert str(arrays.value) == str(walk.value)
        with pytest.raises(ValueError) as objects:
            _from_balancers(a)
        assert str(objects.value) == str(walk.value)

    def test_duplicate_wire_within_balancer(self):
        a = _tiny_arrays()
        a["in_concat"][5] = 4
        with pytest.raises(ValueError, match="balancer 2 has duplicate input wires") as objects:
            _balancer_list(a)
        with pytest.raises(ValueError) as arrays:
            Network.from_wire_arrays(**a)
        assert str(arrays.value) == str(objects.value)

    def test_fan_in_must_equal_fan_out(self):
        a = _tiny_arrays()
        a["out_concat"] = a["out_concat"][:-1]
        with pytest.raises(ValueError, match="fan-in must equal fan-out"):
            Network.from_wire_arrays(**a)

    def test_wrapped_width_sum(self):
        # Four widths below 2**63 whose int64 sum wraps around to 8.
        a = _tiny_arrays()
        a["widths"] = [1 << 62, 1 << 62, 1 << 62, (1 << 62) + 8]
        with pytest.raises(ValueError, match="fan-in must equal fan-out"):
            Network.from_wire_arrays(**a)

    def test_negative_width(self):
        a = _tiny_arrays()
        a["widths"] = [2, -2, 4, 4]
        with pytest.raises(ValueError, match="balancer 1 has negative width"):
            Network.from_wire_arrays(**a)

    def test_ids_must_be_dense(self):
        # Consistent but sparse ids pass every walk check; the array store
        # indexes by wire id, so they are rejected.
        a = _tiny_arrays()
        a["out_concat"][7] = 20
        a["outputs"][2] = 20
        legacy_validate(a["inputs"], a["outputs"], _balancer_list(a), a["num_wires"])
        with pytest.raises(ValueError, match=r"wire ids must be 0..11, got 0..20"):
            Network.from_wire_arrays(**a)

    def test_out_of_range_read_is_undefined(self):
        a = _tiny_arrays()
        a["in_concat"][0] = 99
        with pytest.raises(ValueError, match="balancer 0 reads undefined wire 99"):
            Network.from_wire_arrays(**a)

    def test_two_dimensional_arrays_rejected(self):
        a = _tiny_arrays()
        a["in_concat"] = np.array(a["in_concat"]).reshape(2, 4)
        with pytest.raises(ValueError, match="one-dimensional"):
            Network.from_wire_arrays(**a)

    def test_from_dict_uses_the_validator(self):
        data = k_network([2, 2, 2]).to_dict()
        data["balancers"][2][0][0] = data["balancers"][1][0][0]
        with pytest.raises(ValueError, match="consumed twice"):
            Network.from_dict(data)

    def test_store_is_read_only_and_copied(self):
        a = _tiny_arrays()
        widths = np.array(a["widths"])
        net = Network.from_wire_arrays(**{**a, "widths": widths})
        assert widths.flags.writeable  # the caller's array is untouched
        for arr in net.wire_arrays():
            assert not arr.flags.writeable


# ---------------------------------------------------------------------------
# Builder checks keep their messages
# ---------------------------------------------------------------------------


class TestBuilderChecks:
    @pytest.mark.parametrize("builder_cls", [NetworkBuilder, LegacyBuilder])
    def test_subnetwork_errors_match(self, builder_cls):
        sub = _crossed_sub(NetworkBuilder)
        b = builder_cls(6)
        b.balancer([0, 1])
        with pytest.raises(ValueError, match="wire 1 already consumed"):
            b.subnetwork(sub, [2, 3, 1, 4])
        with pytest.raises(ValueError, match="wire 9 is not defined"):
            b.subnetwork(sub, [2, 3, 9, 0])
        with pytest.raises(ValueError, match="duplicate wires given to subnetwork"):
            b.subnetwork(sub, [2, 3, 3, 4])
        with pytest.raises(ValueError, match="subnetwork width 4 != 3 wires given"):
            b.subnetwork(sub, [2, 3, 4])
        assert b.num_balancers == 1

    def test_duplicate_balancer_input_leaves_builder_untouched(self):
        b = NetworkBuilder(3)
        with pytest.raises(ValueError, match="balancer 0 has duplicate input wires"):
            b.balancer([0, 0])
        assert b.num_balancers == 0
        net = b.finish(b.balancer([0, 1, 2]))
        assert net.num_wires == 6

    def test_consumed_mask_grows_past_its_first_size(self):
        b = NetworkBuilder(2)
        wires = list(b.inputs)
        for _ in range(50):
            wires = b.balancer(wires[::-1])
        net = b.finish(wires)
        assert net.num_wires == 102 and net.depth == 50
        with pytest.raises(ValueError, match="already consumed"):
            b.balancer([0, 1])
