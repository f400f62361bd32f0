"""Balancing/comparator network intermediate representation.

A network is an acyclic DAG of ``p``-balancers (equivalently
``p``-comparators — the two interpretations share one structure, per the
isomorphism of Aspnes, Herlihy and Shavit cited in the paper).  We use an
**SSA wire model**: every balancer consumes ``p`` existing wire ids and
produces ``p`` fresh wire ids.  Wire ids are dense integers.  This makes the
paper's pervasive re-arrangements (column-major layouts, strided
subsequences, block splits) free relabelings: a construction is simply a
function from an ordered list of input wire ids to an ordered list of output
wire ids.

Conventions
-----------
* Balancer output position 0 receives the *most* tokens
  (``ceil(T/p)`` of ``T``); the isomorphic comparator places the *largest*
  value on position 0.  Step sequences are therefore non-increasing.
* ``depth`` is the maximum number of balancers traversed by any value,
  computed per-wire over the DAG (input wires have depth 0).

The :class:`NetworkBuilder` is the only way to create networks; it enforces
well-formedness (wires defined before use, consumed at most once, no width-1
or width-0 balancers unless explicitly allowed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from ..obs import runtime as _obs

__all__ = ["Balancer", "Network", "NetworkBuilder", "identity_network", "single_balancer_network"]


@dataclass(frozen=True)
class Balancer:
    """One ``p``-balancer (or ``p``-comparator) in SSA form.

    ``inputs[k]`` / ``outputs[k]`` are wire ids; output position 0 is the
    "top" wire (most tokens / largest value).
    """

    index: int
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.inputs)

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.outputs):
            raise ValueError("balancer fan-in must equal fan-out")
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError(f"balancer {self.index} has duplicate input wires")

    @staticmethod
    def _trusted(index: int, inputs: tuple[int, ...], outputs: tuple[int, ...]) -> "Balancer":
        """Construct without invariant checks.  Only for callers relabeling
        balancers out of an already-validated :class:`Network` through an
        injective wire mapping."""
        b = object.__new__(Balancer)
        object.__setattr__(b, "index", index)
        object.__setattr__(b, "inputs", inputs)
        object.__setattr__(b, "outputs", outputs)
        return b


class Network:
    """An immutable balancing/comparator network.

    Attributes
    ----------
    width:
        Number of network input wires (== number of output wires).
    inputs / outputs:
        Wire-id lists defining the network's input and output *sequence
        order*: sequence element ``k`` enters on ``inputs[k]`` and leaves on
        ``outputs[k]``.
    balancers:
        Topologically ordered balancers.
    num_wires:
        Total SSA wires (inputs plus every balancer output).
    name:
        Human-readable label (e.g. ``"K(2,3,5)"``).
    """

    def __init__(
        self,
        inputs: Sequence[int],
        outputs: Sequence[int],
        balancers: Sequence[Balancer],
        num_wires: int,
        name: str = "network",
        validate: bool = True,
    ) -> None:
        self.inputs: tuple[int, ...] = tuple(inputs)
        self.outputs: tuple[int, ...] = tuple(outputs)
        self.balancers: tuple[Balancer, ...] = tuple(balancers)
        self.num_wires = int(num_wires)
        self.name = name
        self._wire_depth: np.ndarray | None = None
        self._layers: list[list[Balancer]] | None = None
        self._wire_arrays: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        self._io_arrays: tuple[np.ndarray, np.ndarray] | None = None
        if validate:
            self._validate()

    # -- structure ---------------------------------------------------------

    @property
    def width(self) -> int:
        return len(self.inputs)

    @property
    def size(self) -> int:
        """Number of balancers."""
        return len(self.balancers)

    @property
    def max_balancer_width(self) -> int:
        """Largest balancer fan-in (0 for the identity network)."""
        return max((b.width for b in self.balancers), default=0)

    def balancer_width_histogram(self) -> dict[int, int]:
        """Map balancer width -> count of balancers with that width."""
        hist: dict[int, int] = {}
        for b in self.balancers:
            hist[b.width] = hist.get(b.width, 0) + 1
        return dict(sorted(hist.items()))

    def wire_depths(self) -> np.ndarray:
        """Depth of every SSA wire: 0 for inputs, ``1 + max(in)`` below a
        balancer."""
        if self._wire_depth is None:
            depth = np.zeros(self.num_wires, dtype=np.int64)
            for b in self.balancers:
                d = 1 + max((int(depth[i]) for i in b.inputs), default=0)
                for o in b.outputs:
                    depth[o] = d
            self._wire_depth = depth
        return self._wire_depth

    @property
    def depth(self) -> int:
        """Maximum number of balancers traversed by any value."""
        if self.size == 0:
            return 0
        depths = self.wire_depths()
        return int(max(depths[list(self.outputs)], default=0))

    def io_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(inputs, outputs)`` wire-id arrays (int64).

        Evaluators index the state array with these on every call; caching
        them here stops :func:`repro.sim.propagate_counts_reference` and the
        fault-override path from rebuilding ``list(...)`` conversions per
        batch.  Treat the returned arrays as read-only.
        """
        if self._io_arrays is None:
            self._io_arrays = (
                np.array(self.inputs, dtype=np.int64),
                np.array(self.outputs, dtype=np.int64),
            )
        return self._io_arrays

    def wire_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cached flat per-balancer wiring: ``(widths, in_concat, out_concat,
        bounds)``.

        ``in_concat``/``out_concat`` concatenate every balancer's input /
        output wire ids in balancer order; balancer ``j`` owns the slice
        ``[bounds[j], bounds[j+1])``.  Shared by the vectorized
        :meth:`NetworkBuilder.subnetwork` inliner, the fault-override
        evaluator, and the on-disk network serializer.
        """
        if self._wire_arrays is None:
            widths = np.array([b.width for b in self.balancers], dtype=np.int64)
            in_concat = np.fromiter(
                (w for b in self.balancers for w in b.inputs),
                dtype=np.int64,
                count=int(widths.sum()),
            )
            out_concat = np.fromiter(
                (w for b in self.balancers for w in b.outputs),
                dtype=np.int64,
                count=int(widths.sum()),
            )
            bounds = np.concatenate(([0], np.cumsum(widths))).astype(np.int64)
            self._wire_arrays = (widths, in_concat, out_concat, bounds)
        return self._wire_arrays

    def layers(self) -> list[list[Balancer]]:
        """Balancers grouped by layer (ASAP schedule): balancer layer =
        ``max(depth of its input wires)``; values cross at most one balancer
        per layer."""
        if self._layers is None:
            depths = self.wire_depths()
            out: list[list[Balancer]] = [[] for _ in range(self.depth)]
            for b in self.balancers:
                layer = max((int(depths[i]) for i in b.inputs), default=0)
                out[layer].append(b)
            self._layers = out
        return self._layers

    # -- validation & serialization -----------------------------------------

    def _validate(self) -> None:
        if len(self.inputs) != len(self.outputs):
            raise ValueError("network must have equal numbers of input and output wires")
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError("duplicate input wires")
        if len(set(self.outputs)) != len(self.outputs):
            raise ValueError("duplicate output wires")
        defined = set(self.inputs)
        consumed: set[int] = set()
        for b in self.balancers:
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
        if set(self.outputs) != terminal:
            missing = terminal - set(self.outputs)
            extra = set(self.outputs) - terminal
            raise ValueError(
                f"outputs must be exactly the unconsumed wires; "
                f"missing={sorted(missing)[:5]} extra={sorted(extra)[:5]}"
            )
        if self.num_wires != len(defined):
            raise ValueError(f"num_wires={self.num_wires} but {len(defined)} wires defined")

    def to_dict(self) -> dict:
        """JSON-serializable structural description."""
        return {
            "name": self.name,
            "num_wires": self.num_wires,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "balancers": [[list(b.inputs), list(b.outputs)] for b in self.balancers],
        }

    def save(self, path) -> None:
        """Write the structural description as JSON to ``path``."""
        import json
        import pathlib

        pathlib.Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path) -> "Network":
        """Read a network previously written with :meth:`save`."""
        import json
        import pathlib

        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))

    @classmethod
    def from_dict(cls, data: dict) -> "Network":
        balancers = [
            Balancer(i, tuple(ins), tuple(outs)) for i, (ins, outs) in enumerate(data["balancers"])
        ]
        return cls(
            inputs=data["inputs"],
            outputs=data["outputs"],
            balancers=balancers,
            num_wires=data["num_wires"],
            name=data.get("name", "network"),
        )

    def renamed(self, name: str) -> "Network":
        """A copy of this network carrying a different label."""
        net = Network(self.inputs, self.outputs, self.balancers, self.num_wires, name, validate=False)
        net._wire_depth = self._wire_depth
        net._layers = self._layers
        net._wire_arrays = self._wire_arrays
        net._io_arrays = self._io_arrays
        return net

    def __repr__(self) -> str:
        return (
            f"Network({self.name!r}, width={self.width}, depth={self.depth}, "
            f"size={self.size}, max_balancer={self.max_balancer_width})"
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.inputs == other.inputs
            and self.outputs == other.outputs
            and self.balancers == other.balancers
        )

    def __hash__(self) -> int:
        return hash((self.inputs, self.outputs, len(self.balancers)))


class NetworkBuilder:
    """Mutable builder for :class:`Network`.

    Typical use from a construction function::

        def my_stage(b: NetworkBuilder, wires: list[int]) -> list[int]:
            top, bottom = wires[: len(wires)//2], wires[len(wires)//2 :]
            merged = []
            for t, u in zip(top, bottom):
                merged.extend(b.balancer([t, u]))
            return merged

        builder = NetworkBuilder(width=8)
        outs = my_stage(builder, list(builder.inputs))
        net = builder.finish(outs, name="demo")
    """

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        self.inputs: tuple[int, ...] = tuple(range(width))
        self._next_wire = width
        self._balancers: list[Balancer] = []
        self._defined: list[bool] = [True] * width
        self._consumed: list[bool] = [False] * width
        self._t_build_start = time.perf_counter()

    @property
    def width(self) -> int:
        return len(self.inputs)

    @property
    def num_balancers(self) -> int:
        return len(self._balancers)

    def balancer(self, in_wires: Sequence[int]) -> list[int]:
        """Append a balancer consuming ``in_wires``; returns its fresh output
        wire ids (position 0 = top)."""
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
        b = Balancer(len(self._balancers), ins, outs)
        self._balancers.append(b)
        return list(outs)

    def maybe_balancer(self, in_wires: Sequence[int]) -> list[int]:
        """Like :meth:`balancer` but a no-op passthrough for width <= 1.

        Construction code hits width-0/1 "balancers" in degenerate parameter
        regimes (Section 5.3 extreme values); the paper then uses no network.
        """
        if len(in_wires) <= 1:
            return list(in_wires)
        return self.balancer(in_wires)

    def subnetwork(self, net: Network, in_wires: Sequence[int]) -> list[int]:
        """Inline an existing network onto ``in_wires``; returns the wire ids
        carrying the subnetwork's output sequence.

        The inline is a pure array relabeling: one fresh contiguous id block
        covers every balancer output of ``net`` (in ``net``'s own allocation
        order, so the result is wire-for-wire identical to replaying the
        construction), and the already-validated balancers are copied with
        their wires mapped through one int64 lookup table — no per-balancer
        well-formedness re-checks, no Python dict per wire.
        """
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
        append = self._balancers.append
        index = len(self._balancers)
        blist = bounds.tolist()
        trusted = Balancer._trusted
        for j in range(net.size):
            lo, hi = blist[j], blist[j + 1]
            append(trusted(index + j, tuple(new_in[lo:hi]), tuple(range(base + lo, base + hi))))
        return [int(mapping[w]) for w in net.outputs]

    def finish(self, outputs: Sequence[int], name: str = "network") -> Network:
        """Freeze into a :class:`Network` whose output sequence order is
        ``outputs``.

        The builder enforces the per-balancer invariants (wires defined
        before use, consumed at most once) incrementally, so the only thing
        left to check is that ``outputs`` is exactly the set of unconsumed
        wires — done here vectorized instead of re-walking every balancer
        through :meth:`Network._validate`.
        """
        outs = [int(w) for w in outputs]
        terminal = np.flatnonzero(~np.asarray(self._consumed, dtype=bool))
        if len(outs) != len(terminal) or len(set(outs)) != len(outs) or not np.array_equal(
            np.sort(np.asarray(outs, dtype=np.int64)), terminal
        ):
            raise ValueError(
                f"outputs must be exactly the {len(terminal)} unconsumed wires, "
                f"got {len(outs)} wires"
            )
        net = Network(
            inputs=self.inputs,
            outputs=outs,
            balancers=self._balancers,
            num_wires=self._next_wire,
            name=name,
            validate=False,
        )
        if _obs.enabled:
            from ..obs.metrics import DEFAULT_TIME_BUCKETS, default_registry
            from ..obs.spans import default_span_recorder

            dur = time.perf_counter() - self._t_build_start
            reg = default_registry()
            reg.counter("core.builds").inc()
            reg.histogram("core.build_seconds", DEFAULT_TIME_BUCKETS).observe(dur)
            default_span_recorder().event(
                "build", dur, network=name, width=net.width, balancers=net.size
            )
        return net


def identity_network(width: int, name: str = "identity") -> Network:
    """The width-``width`` network with no balancers."""
    b = NetworkBuilder(width)
    return b.finish(list(b.inputs), name=name)


def single_balancer_network(width: int, name: str | None = None) -> Network:
    """A network consisting of one ``width``-balancer (a counting network)."""
    b = NetworkBuilder(width)
    outs = b.balancer(list(b.inputs))
    return b.finish(outs, name=name or f"balancer({width})")
