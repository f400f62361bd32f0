"""Asynchronous token-level simulation of balancing networks.

Unlike :mod:`repro.sim.count_sim` (which jumps straight to the
schedule-independent quiescent counts), this simulator moves *individual
tokens* one balancer hop at a time under a pluggable scheduler, exactly
matching the paper's asynchronous semantics: a ``p``-balancer forwards its
``i``-th arriving token to output ``i mod p``.

The step-granular :class:`TokenSimulator` is kept for what genuinely needs
per-token state — traces, exit orders, Fetch&Increment values, and
linearizability schedules.  When only the *quiescent counts* are wanted,
:func:`~repro.sim.count_sim.propagate_counts` computes them in one plan
sweep — schedule independence makes the two agree exactly, and the
differential suite pins it.

It is used to

* demonstrate/validate that quiescent counts are schedule-independent,
* drive the Fetch&Increment counter abstraction (each output wire ``i`` of a
  width-``w`` counting network hands out values ``i, i+w, i+2w, ...``),
* produce per-token traces for the visualizer and the Figure-3 discussion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.network import Network
from ..obs import runtime as _obs
from .schedulers import Scheduler, get_scheduler

__all__ = [
    "Token",
    "RunResult",
    "TokenSimulator",
    "run_tokens",
    "fetch_and_increment_values",
]


@dataclass
class Token:
    """One token in flight: where it is, where it has been, and its
    operation interval (global step indices at injection and exit — used by
    the linearizability analysis, cf. paper §6)."""

    token_id: int
    entry_position: int
    wire: int
    trace: list[int] = field(default_factory=list)
    exit_position: int | None = None
    entry_step: int = 0
    exit_step: int | None = None

    @property
    def done(self) -> bool:
        return self.exit_position is not None


@dataclass
class RunResult:
    """Outcome of a completed token run.

    ``output_counts[k]`` is the number of tokens that left on output-sequence
    position ``k``; ``exit_order[k]`` lists token ids in the order they left
    that position.  ``steps`` is the total number of balancer hops executed.
    """

    output_counts: np.ndarray
    exit_order: list[list[int]]
    tokens: list[Token]
    steps: int


class TokenSimulator:
    """Mutable asynchronous simulator for one network.

    Typical use::

        sim = TokenSimulator(net, seed=0)
        sim.inject(input_counts)            # tokens waiting on input wires
        result = sim.run("random")          # drain under a schedule
    """

    def __init__(self, net: Network, seed: int | None = 0, fifo_wires: bool = True):
        """``fifo_wires`` selects the wire model:

        * ``True`` (default): wires are FIFO queues — tokens on one wire
          cannot overtake each other.  This is the clean theoretical model.
        * ``False``: any in-flight token may move next, modelling the
          shared-memory implementation where a traversing *process* can be
          preempted anywhere, even between its last balancer and the output
          counter.  Quiescent counts are identical either way; only
          token-level orderings (and hence linearizability) differ.
        """
        self.net = net
        self.fifo_wires = fifo_wires
        self.rng = np.random.default_rng(seed)
        # Semantic fault overrides (repro.faults mutants): balancer index ->
        # override; a stuck balancer routes every token to one port.
        self._overrides = dict(getattr(net, "fault_overrides", None) or {})
        # Next-output state per balancer: number of tokens that have entered.
        self._arrivals = [0] * net.size
        # wire -> (balancer_index, ) consumer, or output position if terminal.
        self._consumer: dict[int, int] = {}
        self._terminal: dict[int, int] = {}
        for b in net.balancers:
            for w in b.inputs:
                self._consumer[w] = b.index
        for pos, w in enumerate(net.outputs):
            self._terminal[w] = pos
        self.tokens: list[Token] = []
        self._pending: list[int] = []
        self._exit_order: list[list[int]] = [[] for _ in range(net.width)]
        self._steps = 0

    def inject(self, counts: Sequence[int]) -> None:
        """Queue ``counts[k]`` tokens on input-sequence position ``k``.

        Tokens on the same wire are ordered by injection; the scheduler
        controls interleaving *across* wires only (tokens on one wire cannot
        overtake each other before their first balancer, matching FIFO
        wires).
        """
        if len(counts) != self.net.width:
            raise ValueError(f"expected {self.net.width} counts, got {len(counts)}")
        for pos, c in enumerate(counts):
            if c < 0:
                raise ValueError("token counts must be non-negative")
            for _ in range(int(c)):
                self.inject_one(pos)

    def inject_one(self, pos: int) -> int:
        """Queue a single token on input-sequence position ``pos``; returns
        its token id.  The token's operation interval starts now."""
        if not 0 <= pos < self.net.width:
            raise ValueError(f"input position {pos} out of range")
        tok = Token(len(self.tokens), pos, self.net.inputs[pos], entry_step=self._steps)
        self.tokens.append(tok)
        self._pending.append(tok.token_id)
        return tok.token_id

    def _movable(self) -> list[int]:
        """Token ids allowed to advance: per wire, only the head of the FIFO
        queue may move."""
        if not self.fifo_wires:
            return list(self._pending)
        seen_wires: set[int] = set()
        movable = []
        for tid in self._pending:
            w = self.tokens[tid].wire
            if w not in seen_wires:
                movable.append(tid)
                seen_wires.add(w)
        return movable

    def step(self, scheduler: Scheduler) -> bool:
        """Advance one token one hop.  Returns False when quiescent."""
        movable = self._movable()
        if not movable:
            return False
        tid = scheduler(movable, self.rng)
        if tid not in movable:
            raise ValueError("scheduler returned a token that cannot move")
        self._advance_token(tid)
        return True

    def advance(self, tid: int) -> bool:
        """Advance a *specific* token one hop, if it is currently movable
        (head of its wire's FIFO).  Returns False when it cannot move
        (already exited, or queued behind another token).  Used by
        schedule-construction code such as the linearizability search."""
        if self.tokens[tid].done or tid not in self._movable():
            return False
        self._advance_token(tid)
        return True

    def drain_token(self, tid: int, max_steps: int | None = None) -> int:
        """Advance one token repeatedly until it exits; returns its exit
        position.  Raises if the token gets stuck behind another pending
        token (the caller controls the schedule and must avoid that)."""
        limit = max_steps if max_steps is not None else self.net.depth + 2
        for _ in range(limit):
            if self.tokens[tid].done:
                return self.tokens[tid].exit_position  # type: ignore[return-value]
            if not self.advance(tid):
                raise RuntimeError(f"token {tid} is blocked and cannot drain")
        raise RuntimeError(f"token {tid} did not exit within {limit} hops")

    def values_so_far(self) -> dict[int, int]:
        """Fetch&Increment values of the tokens that have exited so far
        (output position ``i`` hands out ``i, i+w, i+2w, ...``)."""
        w = self.net.width
        out: dict[int, int] = {}
        for pos, order in enumerate(self._exit_order):
            for k, tid in enumerate(order):
                out[tid] = pos + k * w
        return out

    def _advance_token(self, tid: int) -> None:
        tok = self.tokens[tid]
        wire = tok.wire
        if wire in self._terminal:
            pos = self._terminal[wire]
            tok.exit_position = pos
            tok.exit_step = self._steps
            self._exit_order[pos].append(tid)
            self._pending.remove(tid)
            if _obs.enabled:
                self._obs_record_exit(tok, pos)
        else:
            b = self.net.balancers[self._consumer[wire]]
            ov = self._overrides.get(b.index)
            port = ov.stuck_port if ov is not None else self._arrivals[b.index] % b.width
            self._arrivals[b.index] += 1
            tok.trace.append(b.index)
            tok.wire = b.outputs[port]
            if _obs.enabled:
                self._obs_record_hop(tok, b, port)
        self._steps += 1

    def _obs_record_exit(self, tok: Token, pos: int) -> None:
        """Observability bookkeeping for a token leaving the network (only
        reached while :mod:`repro.obs` is enabled; reads state, never
        changes simulation behaviour)."""
        from ..obs.metrics import default_registry
        from ..obs.spans import default_span_recorder

        reg = default_registry()
        reg.counter("sim.token.exits").inc()
        reg.histogram("sim.token.latency_steps").observe(self._steps - tok.entry_step)
        reg.gauge("sim.token.pending").set(len(self._pending))
        default_span_recorder().event(
            "token_exit",
            network=self.net.name,
            token=tok.token_id,
            pos=pos,
            latency_steps=self._steps - tok.entry_step,
        )

    def _obs_record_hop(self, tok: Token, b, port: int) -> None:
        """Observability bookkeeping for one balancer traversal."""
        from ..obs.metrics import default_registry
        from ..obs.spans import default_span_recorder

        reg = default_registry()
        reg.counter("sim.token.hops").inc()
        reg.vector("sim.token.balancer_visits", self.net.size).inc(b.index)
        reg.gauge("sim.token.pending").set(len(self._pending))
        default_span_recorder().event(
            "token_hop",
            network=self.net.name,
            token=tok.token_id,
            balancer=b.index,
            port=port,
        )

    def run(self, scheduler: Scheduler | str = "random", max_steps: int | None = None) -> RunResult:
        """Drain all injected tokens to quiescence."""
        sched_name = (
            scheduler
            if isinstance(scheduler, str)
            else getattr(scheduler, "__name__", type(scheduler).__name__)
        )
        if isinstance(scheduler, str):
            scheduler = get_scheduler(scheduler)
        limit = max_steps if max_steps is not None else len(self.tokens) * (self.net.depth + 1) + 1
        while self.step(scheduler):
            if self._steps > limit:
                raise RuntimeError("simulation exceeded step budget — network not draining?")
        counts = np.array([len(order) for order in self._exit_order], dtype=np.int64)
        if _obs.enabled:
            from ..obs.spans import default_span_recorder

            default_span_recorder().event(
                "token_run",
                network=self.net.name,
                scheduler=sched_name,
                tokens=len(self.tokens),
                steps=self._steps,
            )
        return RunResult(counts, [list(o) for o in self._exit_order], list(self.tokens), self._steps)


def run_tokens(
    net: Network,
    counts: Sequence[int],
    scheduler: Scheduler | str = "random",
    seed: int | None = 0,
) -> RunResult:
    """One-shot helper: inject ``counts`` and drain under ``scheduler``."""
    sim = TokenSimulator(net, seed=seed)
    sim.inject(counts)
    return sim.run(scheduler)


def fetch_and_increment_values(result: RunResult) -> dict[int, int]:
    """Values a Fetch&Increment counter built on the network hands out.

    Output position ``i`` of a width-``w`` counting network issues values
    ``i, i + w, i + 2w, ...`` to successive tokens.  For a correct counting
    network draining ``T`` tokens, the returned values are exactly
    ``{0, 1, ..., T-1}`` — each token of the map gets a distinct value and no
    value is skipped.
    """
    w = len(result.exit_order)
    values: dict[int, int] = {}
    for pos, order in enumerate(result.exit_order):
        for k, tid in enumerate(order):
            values[tid] = pos + k * w
    return values
