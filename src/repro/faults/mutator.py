"""Seeded structural and semantic faults for balancing networks.

Every mutation takes a known-good :class:`~repro.core.network.Network` and
returns a *mutant* that differs in exactly one localized way.  The fault
classes mirror how real implementations break:

``stuck``
    A balancer always routes to one output wire (a stuck toggle / dead
    routing bit).  Not expressible in the structural SSA IR — balancers
    split evenly by construction — so stuck mutants are
    :class:`FaultyNetwork` instances carrying a semantic override that the
    simulators honor (see ``fault_overrides`` hooks in
    :mod:`repro.sim.count_sim`, :mod:`repro.sim.sort_sim` and
    :mod:`repro.sim.token_sim`).
``drop``
    A balancer becomes a pass-through (dropped comparator).
``flip``
    A balancer's outputs are reversed (excess tokens to the bottom wire).
``toggle``
    Off-by-one toggle state: the balancer behaves as if one phantom token
    had already passed, i.e. its ``i``-th arrival routes to ``(i+1) mod p``
    — structurally, a rotation of its output wires.
``swap_wires``
    Misrouted internal wiring: two balancers in the same layer exchange one
    input wire each.
``swap_outputs``
    Misrouted network outputs: two positions of the output sequence are
    exchanged.
``dup_layer``
    A whole layer is applied twice.  Quiescently *equivalent* (balancing is
    idempotent) but it violates the construction's depth budget — the
    canonical fault only a structural audit can catch.

All mutants remain valid SSA networks (token conservation holds by
construction); only the ordering/step guarantees break.  Site selection is
seeded and enumerable so every CI failure is reproducible from its printed
``(fault, site)`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.network import Balancer, Network

__all__ = [
    "FAULT_CLASSES",
    "StuckOverride",
    "FaultyNetwork",
    "Mutant",
    "drop_balancer",
    "flip_balancer",
    "toggle_balancer",
    "stuck_balancer",
    "swap_layer_inputs",
    "swap_outputs",
    "duplicate_layer",
    "enumerate_sites",
    "mutate",
    "sample_mutants",
]

#: The fault taxonomy, in the order reports print it.
FAULT_CLASSES = (
    "stuck",
    "drop",
    "flip",
    "toggle",
    "swap_wires",
    "swap_outputs",
    "dup_layer",
)


@dataclass(frozen=True)
class StuckOverride:
    """Semantic override: this balancer routes every token to ``port``.

    ``apply_counts`` maps a batch of input totals to per-output counts
    (quiescent-count semantics); ``stuck_port`` is also honored by the
    token simulator.  In comparator semantics a stuck balancer does not
    compare at all — values pass through unsorted.
    """

    stuck_port: int

    def apply_counts(self, totals: np.ndarray, width: int) -> np.ndarray:
        """``(B,)`` totals -> ``(width, B)`` output counts: all on one wire."""
        out = np.zeros((width, totals.shape[0]), dtype=np.int64)
        out[self.stuck_port] = totals
        return out


class FaultyNetwork(Network):
    """A network carrying per-balancer semantic fault overrides.

    Structure (and therefore :func:`~repro.core.compiled.compile_network`)
    is identical to the pristine network; simulators check
    ``fault_overrides`` before taking the compiled fast path.
    """

    def __init__(self, *args, fault_overrides: dict[int, StuckOverride], **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fault_overrides = dict(fault_overrides)


@dataclass(frozen=True)
class Mutant:
    """One injected fault: the mutated network plus its provenance."""

    network: Network
    fault: str
    site: tuple[int, ...]
    origin: str

    def describe(self) -> str:
        return f"{self.origin}+{self.fault}@{','.join(map(str, self.site))}"


# ---------------------------------------------------------------------------
# Individual mutations
# ---------------------------------------------------------------------------


def drop_balancer(net: Network, index: int) -> Network:
    """Mutant: balancer ``index`` becomes a pass-through (inputs wired
    straight to its outputs)."""
    alias: dict[int, int] = {}
    balancers = []
    for b in net.balancers:
        ins = tuple(alias.get(w, w) for w in b.inputs)
        if b.index == index:
            for w_in, w_out in zip(ins, b.outputs):
                alias[w_out] = w_in
            continue
        balancers.append(Balancer(len(balancers), ins, b.outputs))
    outputs = [alias.get(w, w) for w in net.outputs]
    return Network(
        net.inputs, outputs, balancers, net.num_wires, f"{net.name}-drop{index}", validate=False
    )


def _permute_outputs(net: Network, index: int, permute, name: str) -> Network:
    """``net`` with balancer ``index``'s output wires reordered by
    ``permute`` (an array -> array function), over the shared wire arrays."""
    if not 0 <= index < net.size:
        raise ValueError(f"balancer index {index} out of range")
    _, _, out_concat, bounds = net.wire_arrays()
    lo, hi = int(bounds[index]), int(bounds[index + 1])
    outs = out_concat.copy()
    outs[lo:hi] = permute(out_concat[lo:hi])
    return net._reordered(name, out_concat=outs)


def flip_balancer(net: Network, index: int) -> Network:
    """Mutant: balancer ``index``'s outputs reversed (most tokens to the
    bottom wire).

    Reversing one balancer's outputs keeps every invariant the network
    validator checks, so the mutant copies only ``out_concat``, shares the
    other wire arrays and the layering, and is not re-validated.
    """
    return _permute_outputs(net, index, lambda outs: outs[::-1], f"{net.name}-flip{index}")


def toggle_balancer(net: Network, index: int, offset: int = 1) -> Network:
    """Mutant: balancer ``index`` starts with its toggle advanced by
    ``offset`` — its ``i``-th arrival routes to ``(i + offset) mod p``.

    Quiescently this is a rotation of the output wires, so it is a pure
    structural mutation.  For width-2 balancers it coincides with ``flip``.
    Rotating one balancer's outputs keeps every invariant the network
    validator checks, so the mutant copies only ``out_concat``, shares the
    other wire arrays and the layering, and is not re-validated.
    """
    return _permute_outputs(
        net, index, lambda outs: np.roll(outs, offset), f"{net.name}-toggle{index}"
    )


def stuck_balancer(net: Network, index: int, port: int = 0) -> FaultyNetwork:
    """Mutant: balancer ``index`` routes *every* token to output ``port``.

    Returns a :class:`FaultyNetwork`; the structure is unchanged, so the
    mutant shares ``net``'s wire arrays and cached layering, and the
    simulators honor the override.
    """
    if not 0 <= index < net.size:
        raise ValueError(f"balancer index {index} out of range")
    width = int(net.wire_arrays()[0][index])
    if not 0 <= port < width:
        raise ValueError(f"stuck port {port} out of range for width {width}")
    mutant = net._shared_as(FaultyNetwork, f"{net.name}-stuck{index}.{port}")
    mutant.fault_overrides = {index: StuckOverride(port)}
    return mutant


def _toposort(balancers: Sequence[Balancer], inputs: Sequence[int]) -> list[Balancer]:
    """Re-emit ``balancers`` in a definition-before-use order, re-indexed.

    Mutations that rewire inputs can leave the list out of SSA order even
    when the dataflow graph is still acyclic (the consumer may precede the
    producer in the list); validation requires list order.
    """
    defined = set(inputs)
    remaining = list(balancers)
    out: list[Balancer] = []
    while remaining:
        rest = []
        for b in remaining:
            if all(w in defined for w in b.inputs):
                out.append(Balancer(len(out), b.inputs, b.outputs))
                defined.update(b.outputs)
            else:
                rest.append(b)
        if len(rest) == len(remaining):
            raise ValueError("mutation created a dataflow cycle")
        remaining = rest
    return out


def swap_layer_inputs(net: Network, index_a: int, index_b: int) -> Network:
    """Mutant: balancers ``index_a`` and ``index_b`` (same layer) exchange
    their first input wires — a misrouted internal wire pair.

    Both balancers consume wires produced strictly before their shared
    layer, so the exchange is acyclic; the balancer list is re-sorted
    topologically because the swapped-in wire's producer may appear later
    in list order.
    """
    a, b = net.balancers[index_a], net.balancers[index_b]
    wa, wb = a.inputs[0], b.inputs[0]
    balancers = []
    for bal in net.balancers:
        if bal.index == index_a:
            balancers.append(Balancer(bal.index, (wb,) + bal.inputs[1:], bal.outputs))
        elif bal.index == index_b:
            balancers.append(Balancer(bal.index, (wa,) + bal.inputs[1:], bal.outputs))
        else:
            balancers.append(bal)
    return Network(
        net.inputs,
        net.outputs,
        _toposort(balancers, net.inputs),
        net.num_wires,
        f"{net.name}-swapw{index_a}.{index_b}",
    )


def swap_outputs(net: Network, pos_a: int, pos_b: int) -> Network:
    """Mutant: output-sequence positions ``pos_a`` and ``pos_b`` exchanged
    (misrouted network outputs).

    Reordering the output sequence keeps every invariant the network
    validator checks, so the mutant shares all of ``net``'s wire arrays and
    its layering and is not re-validated.
    """
    outputs = list(net.outputs)
    outputs[pos_a], outputs[pos_b] = outputs[pos_b], outputs[pos_a]
    return net._reordered(f"{net.name}-swapo{pos_a}.{pos_b}", outputs=outputs)


def duplicate_layer(net: Network, layer_index: int) -> Network:
    """Mutant: every balancer of layer ``layer_index`` is applied twice.

    Balancing is idempotent on quiescent counts, so this mutant is
    *behaviorally equivalent* — but it silently exceeds the construction's
    depth budget, which is exactly what the structural audit verifier
    exists to catch.
    """
    layers = net.layers()
    if not 0 <= layer_index < len(layers):
        raise ValueError(f"layer {layer_index} out of range (depth {len(layers)})")
    dup_ids = {b.index for b in layers[layer_index]}
    alias: dict[int, int] = {}
    balancers: list[Balancer] = []
    next_wire = net.num_wires
    for b in net.balancers:
        ins = tuple(alias.get(w, w) for w in b.inputs)
        balancers.append(Balancer(len(balancers), ins, b.outputs))
        if b.index in dup_ids:
            new_outs = tuple(range(next_wire, next_wire + b.width))
            next_wire += b.width
            balancers.append(Balancer(len(balancers), b.outputs, new_outs))
            for old, new in zip(b.outputs, new_outs):
                alias[old] = new
    outputs = [alias.get(w, w) for w in net.outputs]
    return Network(
        net.inputs,
        outputs,
        balancers,
        next_wire,
        f"{net.name}-dup{layer_index}",
    )


# ---------------------------------------------------------------------------
# Site enumeration & the seeded entry points
# ---------------------------------------------------------------------------


def _same_layer_pairs(net: Network) -> list[tuple[int, int]]:
    pairs: list[tuple[int, int]] = []
    for layer in net.layers():
        ids = [b.index for b in layer]
        pairs.extend((ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids)))
    return pairs


def enumerate_sites(net: Network, fault: str) -> list[tuple[int, ...]]:
    """All injection sites for ``fault`` in ``net`` (possibly empty —
    e.g. ``swap_wires`` needs a layer with two balancers)."""
    if fault in ("drop", "flip"):
        return [(i,) for i in range(net.size)]
    widths = net.wire_arrays()[0].tolist()
    if fault == "toggle":
        return [(i,) for i, width in enumerate(widths) if width >= 2]
    if fault == "stuck":
        return [(i, p) for i, width in enumerate(widths) for p in range(width)]
    if fault == "swap_wires":
        return [tuple(pair) for pair in _same_layer_pairs(net)]
    if fault == "swap_outputs":
        w = net.width
        return [(i, j) for i in range(w) for j in range(i + 1, w)]
    if fault == "dup_layer":
        return [(d,) for d in range(net.depth)]
    raise ValueError(f"unknown fault class {fault!r}; choose from {FAULT_CLASSES}")


_APPLIERS = {
    "drop": drop_balancer,
    "flip": flip_balancer,
    "toggle": toggle_balancer,
    "stuck": stuck_balancer,
    "swap_wires": swap_layer_inputs,
    "swap_outputs": swap_outputs,
    "dup_layer": duplicate_layer,
}


def mutate(net: Network, fault: str, site: Sequence[int]) -> Mutant:
    """Apply ``fault`` at ``site`` (one entry of :func:`enumerate_sites`)."""
    if fault not in _APPLIERS:
        raise ValueError(f"unknown fault class {fault!r}; choose from {FAULT_CLASSES}")
    mutant_net = _APPLIERS[fault](net, *site)
    return Mutant(mutant_net, fault, tuple(int(s) for s in site), net.name)


def sample_mutants(
    net: Network,
    fault: str,
    rng: np.random.Generator,
    max_sites: int = 3,
) -> list[Mutant]:
    """Up to ``max_sites`` seeded mutants of one fault class.

    Sites are sampled without replacement from :func:`enumerate_sites`,
    biased to include the final layer for single-balancer faults (the
    repair layer is where the paper's constructions are load-bearing, so
    final-layer faults are reliably detectable rather than redundant).
    """
    sites = enumerate_sites(net, fault)
    if not sites:
        return []
    chosen: list[tuple[int, ...]] = []
    if fault in ("drop", "flip", "toggle", "stuck") and net.size > 0:
        final = {b.index for b in net.layers()[-1]}
        final_sites = [s for s in sites if s[0] in final]
        if final_sites:
            chosen.append(final_sites[int(rng.integers(0, len(final_sites)))])
    remaining = [s for s in sites if s not in chosen]
    k = min(max_sites - len(chosen), len(remaining))
    if k > 0:
        picks = rng.choice(len(remaining), size=k, replace=False)
        chosen.extend(remaining[int(i)] for i in np.atleast_1d(picks))
    return [mutate(net, fault, site) for site in chosen]
