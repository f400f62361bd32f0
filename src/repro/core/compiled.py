"""Layer-compiled network representation for vectorized evaluation.

Per the optimization guidance for numerical Python (profile, then vectorize
the hot loop), simulators in :mod:`repro.sim` never iterate over individual
balancers in Python on the hot path.  Instead a network is compiled once into
*width groups per layer*: within one layer, all balancers of equal width
``p`` become a pair of integer index matrices of shape ``(k, p)`` (``k``
balancers).  Evaluating a layer is then one gather, one vectorized
reduction/sort, and one scatter per width group — contiguous numpy work.

Compilation results are memoized per :class:`~repro.core.network.Network`
instance in a ``WeakKeyDictionary`` so repeated simulations are cheap.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .network import Network

__all__ = ["WidthGroup", "CompiledNetwork", "compile_network"]


@dataclass(frozen=True)
class WidthGroup:
    """All balancers of one width within one layer.

    ``in_idx`` and ``out_idx`` have shape ``(k, p)``: row ``r`` lists the
    SSA wire ids feeding / leaving balancer ``r`` of this group, with column
    0 the top position.
    """

    width: int
    in_idx: np.ndarray
    out_idx: np.ndarray

    @property
    def count(self) -> int:
        return self.in_idx.shape[0]


@dataclass(frozen=True)
class CompiledNetwork:
    """A network lowered to per-layer width groups.

    ``layers[d]`` holds the :class:`WidthGroup` objects of layer ``d``.
    ``num_wires``, ``input_idx`` and ``output_idx`` mirror the source
    network; evaluation allocates one ``(num_wires, batch)`` state array and
    sweeps the layers in order.
    """

    num_wires: int
    input_idx: np.ndarray
    output_idx: np.ndarray
    layers: tuple[tuple[WidthGroup, ...], ...]

    @property
    def width(self) -> int:
        return self.input_idx.shape[0]

    @property
    def depth(self) -> int:
        return len(self.layers)


_cache: "weakref.WeakKeyDictionary[Network, CompiledNetwork]" = weakref.WeakKeyDictionary()


def compile_network(net: Network) -> CompiledNetwork:
    """Compile (and memoize) ``net`` into a :class:`CompiledNetwork`.

    One lexsort of the balancers by ``(layer, width)`` over the network's
    wire arrays (:meth:`~repro.core.network.Network.balancer_layers`)
    forms the groups: widths ascending within a layer, balancer index
    order within a group.
    """
    cached = _cache.get(net)
    if cached is not None:
        return cached

    widths, in_concat, out_concat, bounds = net.wire_arrays()
    layer = net.balancer_layers()
    order = np.lexsort((widths, layer))  # stable: index order within a group
    lay, wid = layer[order], widths[order]
    cuts = (np.flatnonzero((lay[1:] != lay[:-1]) | (wid[1:] != wid[:-1])) + 1).tolist()
    layers: list[list[WidthGroup]] = [[] for _ in range(net.depth)]
    for lo, hi in zip([0] + cuts, cuts + [order.size]):
        if lo == hi:
            break  # no balancers at all
        p = int(wid[lo])
        slots = bounds[order[lo:hi], None] + np.arange(p, dtype=np.int64)
        layers[int(lay[lo])].append(WidthGroup(p, in_concat[slots], out_concat[slots]))

    compiled = CompiledNetwork(
        num_wires=net.num_wires,
        input_idx=np.array(net.inputs, dtype=np.int64),
        output_idx=np.array(net.outputs, dtype=np.int64),
        layers=tuple(tuple(groups) for groups in layers),
    )
    _cache[net] = compiled
    return compiled
