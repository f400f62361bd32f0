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

Storage
-------
A :class:`Network` *is* its flat wire arrays ``(widths, in_concat,
out_concat, bounds)`` (:meth:`Network.wire_arrays`).  The builder, the
layering, the layer compiler and the on-disk cache all work on those
arrays; :class:`Balancer` objects are a view built on first access of
:attr:`Network.balancers` (per-balancer walkers, mutators, tests), never on
the build → lower → sweep path.

The :class:`NetworkBuilder` is the only way to create networks; it enforces
well-formedness (wires defined before use, consumed at most once, no width-1
or width-0 balancers unless explicitly allowed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

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
        """Construct without invariant checks.  Only for views of an
        already-validated :class:`Network`'s wire arrays."""
        b = object.__new__(Balancer)
        object.__setattr__(b, "index", index)
        object.__setattr__(b, "inputs", inputs)
        object.__setattr__(b, "outputs", outputs)
        return b


Wiring = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _wiring(widths: np.ndarray, in_concat: np.ndarray, out_concat: np.ndarray) -> Wiring:
    """``(widths, in_concat, out_concat, bounds)`` with ``bounds`` derived,
    all frozen read-only: they are a network's one store."""
    bounds = np.zeros(widths.size + 1, dtype=np.int64)
    np.cumsum(widths, out=bounds[1:])
    for a in (widths, in_concat, out_concat, bounds):
        a.setflags(write=False)
    return widths, in_concat, out_concat, bounds


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The concatenated index ranges ``starts[i] .. starts[i] + lens[i] - 1``."""
    ends = np.cumsum(lens)
    return np.repeat(starts - (ends - lens), lens) + np.arange(
        int(ends[-1]) if ends.size else 0, dtype=np.int64
    )


def _repeats(a: np.ndarray, space: int) -> np.ndarray:
    """Mask of the entries of ``a`` (ids below ``space``) whose value already
    occurred earlier in ``a``."""
    seen = np.zeros(a.size, dtype=bool)
    if a.size and int(np.bincount(a, minlength=space).max()) > 1:
        order = np.argsort(a, kind="stable")
        seen[order[1:]] = a[order[1:]] == a[order[:-1]]
    return seen


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
        Topologically ordered balancers, built from the wire arrays on
        first access.
    num_wires:
        Total SSA wires (inputs plus every balancer output).
    name:
        Human-readable label (e.g. ``"K(2,3,5)"``).

    A list of :class:`Balancer` objects given to the constructor is
    converted to wire arrays once and kept as the already-built
    :attr:`balancers` view; :meth:`from_wire_arrays` builds a network
    straight from the arrays.
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
        bals = tuple(balancers)
        wiring = _wiring(
            np.fromiter((len(b.inputs) for b in bals), dtype=np.int64, count=len(bals)),
            np.fromiter(chain.from_iterable(b.inputs for b in bals), dtype=np.int64),
            np.fromiter(chain.from_iterable(b.outputs for b in bals), dtype=np.int64),
        )
        self._init(inputs, outputs, wiring, num_wires, name)
        self._balancers = bals
        if validate:
            self._validate()

    def _init(
        self, inputs: Sequence[int], outputs: Sequence[int], wiring: Wiring,
        num_wires: int, name: str,
    ) -> None:
        self.inputs: tuple[int, ...] = tuple(inputs)
        self.outputs: tuple[int, ...] = tuple(outputs)
        self.num_wires = int(num_wires)
        self.name = name
        self._wiring = wiring
        self._balancers: tuple[Balancer, ...] | None = None
        self._layer: np.ndarray | None = None
        self._wire_depth: np.ndarray | None = None
        self._layers: list[list[Balancer]] | None = None
        self._io_arrays: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def _from_wiring(
        cls, inputs: Sequence[int], outputs: Sequence[int], wiring: Wiring,
        num_wires: int, name: str,
    ) -> "Network":
        net = object.__new__(cls)
        net._init(inputs, outputs, wiring, num_wires, name)
        return net

    @classmethod
    def from_wire_arrays(
        cls,
        inputs,
        outputs,
        widths,
        in_concat,
        out_concat,
        num_wires: int,
        name: str = "network",
    ) -> "Network":
        """A network straight from its flat wiring (see :meth:`wire_arrays`):
        balancer ``j`` has width ``widths[j]`` and owns the next
        ``widths[j]`` entries of ``in_concat`` / ``out_concat``.  No
        :class:`Balancer` object is created.  The arrays are copied and
        validated."""
        arrays = [
            np.array(a, dtype=np.int64)
            for a in (inputs, outputs, widths, in_concat, out_concat)
        ]
        if any(a.ndim != 1 for a in arrays):
            raise ValueError("wire arrays must be one-dimensional")
        ins, outs, widths, in_concat, out_concat = arrays
        net = cls._from_wiring(
            ins.tolist(), outs.tolist(), _wiring(widths, in_concat, out_concat), num_wires, name
        )
        net._validate()
        return net

    # -- structure ---------------------------------------------------------

    @property
    def width(self) -> int:
        return len(self.inputs)

    @property
    def size(self) -> int:
        """Number of balancers."""
        return int(self._wiring[0].size)

    @property
    def balancers(self) -> tuple[Balancer, ...]:
        """Topologically ordered :class:`Balancer` view of the wire arrays,
        built on first access."""
        if self._balancers is None:
            _, in_concat, out_concat, bounds = self._wiring
            ins, outs, b = in_concat.tolist(), out_concat.tolist(), bounds.tolist()
            make = Balancer._trusted
            self._balancers = tuple(
                make(j, tuple(ins[b[j] : b[j + 1]]), tuple(outs[b[j] : b[j + 1]]))
                for j in range(self.size)
            )
        return self._balancers

    @property
    def max_balancer_width(self) -> int:
        """Largest balancer fan-in (0 for the identity network)."""
        return int(self._wiring[0].max(initial=0))

    def balancer_width_histogram(self) -> dict[int, int]:
        """Map balancer width -> count of balancers with that width."""
        widths, counts = np.unique(self._wiring[0], return_counts=True)
        return dict(zip(widths.tolist(), counts.tolist()))

    def balancer_layers(self) -> np.ndarray:
        """Layer of every balancer (the ASAP schedule), read-only int64.

        A balancer's layer is the largest depth among its input wires.
        Computed in Kahn rounds: round ``r`` takes every balancer whose
        producers all sit in earlier rounds, one vectorized pass over the
        producer/consumer index arrays per layer.  Raises ``ValueError`` if
        some balancers never become ready (a dataflow cycle, which only
        unvalidated arrays can hold).
        """
        if self._layer is None:
            widths, in_concat, out_concat, bounds = self._wiring
            owner = np.repeat(np.arange(self.size, dtype=np.int64), widths)
            consumer = np.full(self.num_wires, -1, dtype=np.int64)
            consumer[in_concat] = owner
            producer = np.full(self.num_wires, -1, dtype=np.int64)
            producer[out_concat] = owner
            waiting = np.bincount(owner[producer[in_concat] >= 0], minlength=self.size)
            successor = consumer[out_concat]
            layer = np.full(self.size, -1, dtype=np.int64)
            ready = np.flatnonzero(waiting == 0)
            r = 0
            while ready.size:
                layer[ready] = r
                nxt = successor[_ranges(bounds[ready], widths[ready])]
                nxt = nxt[nxt >= 0]
                nxt.sort()
                np.subtract.at(waiting, nxt, 1)
                first = np.empty(nxt.size, dtype=bool)
                first[:1] = True
                np.not_equal(nxt[1:], nxt[:-1], out=first[1:])
                nxt = nxt[first]
                ready = nxt[waiting[nxt] == 0]
                r += 1
            stuck = np.flatnonzero(layer < 0)
            if stuck.size:
                raise ValueError(
                    f"dataflow cycle: {stuck.size} balancers never become ready "
                    f"(first: balancer {int(stuck[0])})"
                )
            layer.setflags(write=False)
            self._layer = layer
        return self._layer

    def wire_depths(self) -> np.ndarray:
        """Depth of every SSA wire: 0 for inputs, ``1 + max(in)`` below a
        balancer."""
        if self._wire_depth is None:
            widths, _, out_concat, _ = self._wiring
            depth = np.zeros(self.num_wires, dtype=np.int64)
            depth[out_concat] = np.repeat(self.balancer_layers() + 1, widths)
            self._wire_depth = depth
        return self._wire_depth

    @property
    def depth(self) -> int:
        """Maximum number of balancers traversed by any value."""
        if self.size == 0:
            return 0
        return int(self.wire_depths()[self.io_arrays()[1]].max(initial=0))

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
        """The network's store, flat per-balancer wiring: ``(widths,
        in_concat, out_concat, bounds)``, all read-only int64.

        ``in_concat``/``out_concat`` concatenate every balancer's input /
        output wire ids in balancer order; balancer ``j`` owns the slice
        ``[bounds[j], bounds[j+1])``.
        """
        return self._wiring

    def layers(self) -> list[list[Balancer]]:
        """Balancers grouped by layer (ASAP schedule, see
        :meth:`balancer_layers`); values cross at most one balancer per
        layer."""
        if self._layers is None:
            layer = self.balancer_layers()
            bals = self.balancers
            order = np.argsort(layer, kind="stable").tolist()
            out: list[list[Balancer]] = []
            lo = 0
            for count in np.bincount(layer, minlength=self.depth).tolist():
                out.append([bals[j] for j in order[lo : lo + count]])
                lo += count
            self._layers = out
        return self._layers

    # -- validation & serialization -----------------------------------------

    def _validate(self) -> None:
        """Check the wiring; raise ``ValueError`` naming the first offender.

        Vectorized over the wire arrays, with the checks and messages of a
        walk over the balancers: each balancer's fan-in equals its fan-out
        and repeats no input; the network inputs, and outputs, are
        distinct; every wire a balancer reads is defined (a network input or
        an earlier balancer's output) and not yet consumed; no balancer
        redefines a wire; the outputs are exactly the unconsumed wires;
        ``num_wires`` counts the defined wires, whose ids are ``0 ..
        num_wires - 1``.  Errors are reported in balancer order.
        """
        widths, in_concat, out_concat, bounds = self._wiring
        size, total = self.size, int(bounds[-1])
        if size and int(widths.min()) < 0:
            raise ValueError(f"balancer {int(np.argmax(widths < 0))} has negative width")
        # A width above the total means the int64 sum wrapped around.
        if in_concat.size != total or out_concat.size != total or int(widths.max(initial=0)) > total:
            raise ValueError("balancer fan-in must equal fan-out")
        n, defined = self.num_wires, len(self.inputs) + total
        ids = [np.array(self.inputs, dtype=np.int64), np.array(self.outputs, dtype=np.int64),
               in_concat, out_concat]
        flat = np.concatenate(ids)
        label = None
        if n != defined or (flat.size and (int(flat.min()) < 0 or int(flat.max()) >= n)):
            # A wrong num_wires or ids outside 0..n-1: check on a compacted
            # id space, so no array is sized by the unchecked num_wires, and
            # report the original ids.
            label, inv = np.unique(flat, return_inverse=True)
            ids = np.split(inv, np.cumsum([a.size for a in ids])[:-1])
        net_in, net_out, ins, outs = ids
        space = n if label is None else label.size

        def wire(x) -> int:
            return int(x) if label is None else int(label[x])

        owner = np.repeat(np.arange(size, dtype=np.int64), widths)
        read_twice = _repeats(ins, space)
        if read_twice.any():
            order = np.lexsort((ins, owner))
            o, w = owner[order], ins[order]
            dup = (o[1:] == o[:-1]) & (w[1:] == w[:-1])
            if dup.any():
                raise ValueError(f"balancer {int(o[1:][dup][0])} has duplicate input wires")

        if len(self.inputs) != len(self.outputs):
            raise ValueError("network must have equal numbers of input and output wires")
        if _repeats(net_in, space).any():
            raise ValueError("duplicate input wires")
        if _repeats(net_out, space).any():
            raise ValueError("duplicate output wires")

        is_input = np.zeros(space, dtype=bool)
        is_input[net_in] = True
        redefined = _repeats(outs, space)
        first_producer = np.full(space, size, dtype=np.int64)
        first_producer[outs[~redefined]] = owner[~redefined]
        undefined = ~is_input[ins] & (first_producer[ins] >= owner)
        redefined |= is_input[outs]
        # The walk checks balancer j's inputs, then its outputs: input slot
        # s comes at step bounds[j] + s, output slot s at bounds[j+1] + s.
        bad_in = np.flatnonzero(undefined | read_twice)
        bad_out = np.flatnonzero(redefined)
        if bad_in.size or bad_out.size:
            step_in = int(bounds[owner[bad_in[0]]] + bad_in[0]) if bad_in.size else None
            step_out = int(bounds[owner[bad_out[0]] + 1] + bad_out[0]) if bad_out.size else None
            if step_out is None or (step_in is not None and step_in < step_out):
                s = bad_in[0]
                j, w = int(owner[s]), wire(ins[s])
                if undefined[s]:
                    raise ValueError(f"balancer {j} reads undefined wire {w}")
                raise ValueError(f"wire {w} consumed twice (balancer {j})")
            s = bad_out[0]
            raise ValueError(f"balancer {int(owner[s])} redefines wire {wire(outs[s])}")

        terminal = is_input.copy()
        terminal[outs] = True
        terminal[ins] = False
        is_output = np.zeros(space, dtype=bool)
        is_output[net_out] = True
        if not np.array_equal(is_output, terminal):
            missing = [wire(x) for x in np.flatnonzero(terminal & ~is_output)[:5]]
            extra = [wire(x) for x in np.flatnonzero(is_output & ~terminal)[:5]]
            raise ValueError(
                f"outputs must be exactly the unconsumed wires; "
                f"missing={missing} extra={extra}"
            )
        if n != defined:
            raise ValueError(f"num_wires={n} but {defined} wires defined")
        if label is not None:
            raise ValueError(f"wire ids must be 0..{n - 1}, got {wire(0)}..{wire(space - 1)}")

    def to_dict(self) -> dict:
        """JSON-serializable structural description."""
        _, in_concat, out_concat, bounds = self._wiring
        ins, outs, b = in_concat.tolist(), out_concat.tolist(), bounds.tolist()
        return {
            "name": self.name,
            "num_wires": self.num_wires,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "balancers": [
                [ins[b[j] : b[j + 1]], outs[b[j] : b[j + 1]]] for j in range(self.size)
            ],
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
        return self._shared_as(Network, name)

    def _shared_as(self, cls: type, name: str) -> "Network":
        """A ``cls`` instance over this network's wire arrays and cached
        layering: no copy, no re-validation, no :class:`Balancer` built."""
        net = cls._from_wiring(self.inputs, self.outputs, self._wiring, self.num_wires, name)
        net._balancers = self._balancers
        net._layer = self._layer
        net._wire_depth = self._wire_depth
        net._layers = self._layers
        net._io_arrays = self._io_arrays
        return net

    def _reordered(
        self, name: str, *, out_concat: np.ndarray | None = None,
        outputs: Sequence[int] | None = None,
    ) -> "Network":
        """This network with one balancer's outputs, or the network's
        output sequence, in another order.

        ``out_concat`` may differ from this network's only by a permutation
        within one balancer's slice, and ``outputs`` only by a permutation
        of its entries; the caller guarantees it.  Every wire then keeps
        its producer and its reader, so each check of :meth:`_validate`
        still holds and the layering and wire depths are unchanged: the
        result shares them, and every other array, with this network, and
        skips re-validation.  The layering is computed here once so that
        every reordering of this network shares it.  No :class:`Balancer`
        is built.
        """
        self.wire_depths()
        net = self._shared_as(Network, name)
        if out_concat is not None:
            widths, in_concat, _, bounds = self._wiring
            out_concat.setflags(write=False)
            net._wiring = (widths, in_concat, out_concat, bounds)
            net._balancers = net._layers = None
        if outputs is not None:
            net.outputs = tuple(outputs)
            net._io_arrays = None
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
            and all(np.array_equal(a, b) for a, b in zip(self._wiring[:3], other._wiring[:3]))
        )

    def __hash__(self) -> int:
        return hash((self.inputs, self.outputs, self.size))


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

    The builder stores arrays, not balancers: widths and input wire ids in
    chunks, and a consumed-wire mask that grows by doubling.  Every id below
    the next free one is defined, and balancer outputs are always the
    allocation range ``width .. num_wires - 1``.
    """

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        self.inputs: tuple[int, ...] = tuple(range(width))
        self._next_wire = width
        self._consumed = np.zeros(2 * width, dtype=bool)
        # Finished chunks, plus the balancer() calls since the last chunk.
        self._width_parts: list[np.ndarray] = []
        self._in_parts: list[np.ndarray] = []
        self._widths: list[int] = []
        self._ins: list[int] = []
        self._num_balancers = 0
        self._t_build_start = time.perf_counter()

    @property
    def width(self) -> int:
        return len(self.inputs)

    @property
    def num_balancers(self) -> int:
        return self._num_balancers

    def _allocate(self, n: int) -> int:
        """Claim ``n`` fresh wire ids; returns the first."""
        base = self._next_wire
        self._next_wire += n
        if self._next_wire > self._consumed.size:
            grown = np.zeros(max(self._next_wire, 2 * self._consumed.size), dtype=bool)
            grown[: self._consumed.size] = self._consumed
            self._consumed = grown
        return base

    def _flush(self) -> None:
        """Move the pending balancer() calls into one chunk."""
        if self._widths:
            self._width_parts.append(np.array(self._widths, dtype=np.int64))
            self._in_parts.append(np.array(self._ins, dtype=np.int64))
            self._widths, self._ins = [], []

    def balancer(self, in_wires: Sequence[int]) -> list[int]:
        """Append a balancer consuming ``in_wires``; returns its fresh output
        wire ids (position 0 = top)."""
        ins = [int(w) for w in in_wires]
        if len(ins) < 2:
            raise ValueError(f"balancer width must be >= 2, got {len(ins)}")
        consumed = self._consumed
        for w in ins:
            if not (0 <= w < self._next_wire):
                raise ValueError(f"wire {w} is not defined")
            if consumed[w]:
                raise ValueError(f"wire {w} already consumed")
        if len(set(ins)) != len(ins):
            raise ValueError(f"balancer {self._num_balancers} has duplicate input wires")
        for w in ins:
            consumed[w] = True
        base = self._allocate(len(ins))
        self._widths.append(len(ins))
        self._ins.extend(ins)
        self._num_balancers += 1
        return list(range(base, base + len(ins)))

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
        construction), and ``net``'s input wires are mapped through one
        int64 lookup table — no loop over balancers.
        """
        if len(in_wires) != net.width:
            raise ValueError(f"subnetwork width {net.width} != {len(in_wires)} wires given")
        ins = np.array(in_wires, dtype=np.int64)
        ordered = np.sort(ins)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("duplicate wires given to subnetwork")
        undefined = (ins < 0) | (ins >= self._next_wire)
        bad = undefined | self._consumed[np.where(undefined, 0, ins)]
        if bad.any():
            i = int(np.argmax(bad))
            w = int(ins[i])
            if undefined[i]:
                raise ValueError(f"wire {w} is not defined")
            raise ValueError(f"wire {w} already consumed")

        widths, in_concat, out_concat, bounds = net.wire_arrays()
        net_in, net_out = net.io_arrays()
        total = int(bounds[-1])
        base = self._allocate(total)
        mapping = np.empty(net.num_wires, dtype=np.int64)
        mapping[net_in] = ins
        mapping[out_concat] = np.arange(base, base + total, dtype=np.int64)
        new_in = mapping[in_concat]
        self._consumed[new_in] = True
        self._flush()
        self._width_parts.append(widths)
        self._in_parts.append(new_in)
        self._num_balancers += net.size
        return mapping[net_out].tolist()

    def finish(self, outputs: Sequence[int], name: str = "network") -> Network:
        """Freeze into a :class:`Network` whose output sequence order is
        ``outputs``.

        The builder enforces the per-balancer invariants (wires defined
        before use, consumed at most once) incrementally, so the only thing
        left to check is that ``outputs`` is exactly the set of unconsumed
        wires — done here vectorized instead of re-running
        :meth:`Network._validate`.
        """
        outs = [int(w) for w in outputs]
        terminal = np.flatnonzero(~self._consumed[: self._next_wire])
        if len(outs) != len(terminal) or len(set(outs)) != len(outs) or not np.array_equal(
            np.sort(np.asarray(outs, dtype=np.int64)), terminal
        ):
            raise ValueError(
                f"outputs must be exactly the {len(terminal)} unconsumed wires, "
                f"got {len(outs)} wires"
            )
        self._flush()
        empty = [np.empty(0, dtype=np.int64)]
        widths = np.concatenate(self._width_parts or empty)
        in_concat = np.concatenate(self._in_parts or empty)
        out_concat = np.arange(self.width, self._next_wire, dtype=np.int64)
        net = Network._from_wiring(
            self.inputs, outs, _wiring(widths, in_concat, out_concat), self._next_wire, name
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
