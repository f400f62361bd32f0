"""Chaos layer: adverse conditions for the serving stack and the token sim.

PR 2's :class:`~repro.serve.service.CountingService` claims exactly-once
issuance as a *consequence of the counting property*; this module exercises
that claim under the failure modes a real deployment sees:

* **dropped batches** — the vectorized pass fails before or after values
  were issued (``drop-before`` is a clean rejection; ``drop-after`` loses
  issued values, which must be accounted, never silently reissued);
* **delayed completions** — slow consumers perturb batching windows;
* **duplicate deliveries** — an at-least-once client resubmits a request
  that already succeeded (the service must hand out *fresh* values);
* **mid-batch cancellation** — a waiter's task is cancelled while its
  request is queued or in flight (the batcher burns those values; they must
  show up as accounted losses, not duplicates).

After the run, :func:`audit_exactly_once` closes the books: every issued
value is *delivered exactly once* or *attributably lost* (a known dropped
batch or a cancelled request).  Anything else is a typed
:class:`FaultEscape` in the report — there are no silent escapes by
construction, because the audit is total over ``[0, issued)``.

:func:`chaos_token_check` applies the same philosophy to the asynchronous
token simulator: drain a network under the adversarial ``chaos`` scheduler
and verify the quiescent counts still match the schedule-independent
prediction and the step property.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.network import Network
from ..serve.service import CountingService, ExactlyOnceError
from ..sim.count_sim import propagate_counts
from ..sim.token_sim import TokenSimulator
from ..verify.counting import step_mask

__all__ = [
    "InjectedFault",
    "FaultEscape",
    "ChaosService",
    "ChaosReport",
    "audit_exactly_once",
    "run_chaos",
    "run_shard_kill_chaos",
    "chaos_token_check",
]


class InjectedFault(RuntimeError):
    """A deliberately injected batch failure (what chaos looks like to a
    client: the request errors and may be retried)."""


@dataclass(frozen=True)
class FaultEscape:
    """One way the exactly-once accounting failed to close.

    ``kind`` is machine-matchable: ``duplicate-delivery`` (a value reached
    clients twice), ``lost-value-delivered`` (a value recorded as lost in a
    dropped batch was nevertheless delivered), ``out-of-range`` (a value
    outside ``[0, issued)``), ``unaccounted-gap`` (more values missing than
    dropped batches and cancellations can explain), ``step-violation``
    (token-sim quiescent counts broke the step property), or
    ``exactly-once-violation`` (the service's own batch validator tripped —
    see :class:`~repro.serve.service.ExactlyOnceError`).
    """

    kind: str
    detail: str
    values: tuple[int, ...] = ()

    def as_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail, "values": list(self.values[:16])}


@dataclass
class ChaosReport:
    """Books for one chaos run; ``exactly_once`` is the headline verdict."""

    requests: int = 0
    retries: int = 0
    issued: int = 0
    delivered: int = 0
    lost_to_drops: int = 0
    cancelled_requests: int = 0
    cancelled_tokens: int = 0
    injected: dict[str, int] = field(default_factory=dict)
    escapes: list[FaultEscape] = field(default_factory=list)
    seed: int = 0
    flight_dump: str | None = None

    @property
    def exactly_once(self) -> bool:
        return not self.escapes

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "requests": self.requests,
            "retries": self.retries,
            "issued": self.issued,
            "delivered": self.delivered,
            "lost_to_drops": self.lost_to_drops,
            "cancelled_requests": self.cancelled_requests,
            "cancelled_tokens": self.cancelled_tokens,
            "injected": dict(self.injected),
            "escapes": [e.as_dict() for e in self.escapes],
            "exactly_once": self.exactly_once,
            "flight_dump": self.flight_dump,
        }


class ChaosService:
    """A :class:`CountingService` with seeded batch-level fault injection.

    Wraps the service's batcher via the public
    :meth:`~repro.serve.batching.Batcher.wrap_apply` seam:

    * with probability ``drop_before_rate`` a batch fails *before* the
      issuance pass runs — a clean whole-batch rejection, nothing issued;
    * with probability ``drop_after_rate`` a batch fails *after* values
      were issued — the values are recorded in :attr:`lost_values` and the
      clients see :class:`InjectedFault` (the nasty case: an at-least-once
      client will retry and must receive *fresh* values);
    * when ``corrupt_state_after`` is set, the service's issuance state
      (``_out_counts``) is silently perturbed just before that batch number
      runs — a true exactly-once violation that the service's own validator
      must catch as :class:`~repro.serve.service.ExactlyOnceError` (and,
      with obs on, flight-dump).  Unlike a stuck-balancer network this
      exercises the planned :class:`~repro.core.plan.PlanExecutor` path.

    The service lifecycle is delegated; use it as an async context manager
    exactly like the wrapped service.
    """

    def __init__(
        self,
        service: CountingService,
        *,
        drop_before_rate: float = 0.0,
        drop_after_rate: float = 0.0,
        corrupt_state_after: int | None = None,
        seed: int = 0,
    ) -> None:
        for name, rate in (("drop_before_rate", drop_before_rate), ("drop_after_rate", drop_after_rate)):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if corrupt_state_after is not None and corrupt_state_after < 1:
            raise ValueError("corrupt_state_after must be >= 1")
        self.service = service
        self.drop_before_rate = drop_before_rate
        self.drop_after_rate = drop_after_rate
        self.corrupt_state_after = corrupt_state_after
        self.corrupted = False
        self.rng = np.random.default_rng(seed)
        self.batches = 0
        self.dropped_before = 0
        self.dropped_after = 0
        self.lost_values: list[int] = []
        service._batcher.wrap_apply(self._inject)

    def _inject(self, original, requests):
        self.batches += 1
        if self.corrupt_state_after is not None and self.batches == self.corrupt_state_after:
            self.corrupted = True
            self.service._out_counts[0] += 1
        roll = float(self.rng.random())
        if roll < self.drop_before_rate:
            self.dropped_before += 1
            raise InjectedFault(f"injected drop-before (batch of {len(requests)})")
        results = original(requests)
        if roll < self.drop_before_rate + self.drop_after_rate:
            self.dropped_after += 1
            for chunk in results:
                self.lost_values.extend(int(v) for v in np.asarray(chunk).ravel())
            raise InjectedFault(f"injected drop-after (batch of {len(requests)})")
        return results

    # -- delegation ---------------------------------------------------------

    async def start(self) -> None:
        await self.service.start()

    async def stop(self) -> None:
        await self.service.stop()

    async def __aenter__(self) -> "ChaosService":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    async def fetch_and_increment_many(self, n: int) -> list[int]:
        return await self.service.fetch_and_increment_many(n)

    @property
    def issued(self) -> int:
        return self.service.issued


def audit_exactly_once(
    issued: int,
    delivered: Sequence[int],
    lost_values: Sequence[int],
    cancelled_tokens: int,
) -> list[FaultEscape]:
    """Close the books: every value in ``[0, issued)`` must be delivered
    exactly once or attributably lost.  Returns the (ideally empty) list of
    typed escapes."""
    escapes: list[FaultEscape] = []
    delivered_arr = np.asarray(sorted(delivered), dtype=np.int64)
    dupes = delivered_arr[:-1][delivered_arr[1:] == delivered_arr[:-1]] if delivered_arr.size else delivered_arr
    if dupes.size:
        escapes.append(
            FaultEscape(
                "duplicate-delivery",
                f"{dupes.size} value(s) delivered more than once",
                tuple(int(v) for v in np.unique(dupes)[:16]),
            )
        )
    out_of_range = delivered_arr[(delivered_arr < 0) | (delivered_arr >= issued)]
    if out_of_range.size:
        escapes.append(
            FaultEscape(
                "out-of-range",
                f"{out_of_range.size} delivered value(s) outside [0, {issued})",
                tuple(int(v) for v in out_of_range[:16]),
            )
        )
    lost = set(int(v) for v in lost_values)
    both = lost.intersection(int(v) for v in delivered_arr)
    if both:
        escapes.append(
            FaultEscape(
                "lost-value-delivered",
                f"{len(both)} value(s) recorded lost in a dropped batch but also delivered",
                tuple(sorted(both)[:16]),
            )
        )
    accounted = set(int(v) for v in np.unique(delivered_arr)) | lost
    gaps = [v for v in range(issued) if v not in accounted]
    if len(gaps) > cancelled_tokens:
        escapes.append(
            FaultEscape(
                "unaccounted-gap",
                f"{len(gaps)} issued value(s) unaccounted for, but only "
                f"{cancelled_tokens} token(s) were cancelled",
                tuple(gaps[:16]),
            )
        )
    return escapes


async def _chaos_client(
    chaos: ChaosService,
    ops: int,
    rng: np.random.Generator,
    report: ChaosReport,
    delivered: list[int],
    *,
    delay_rate: float,
    dup_rate: float,
    cancel_rate: float,
    amount_max: int,
    max_retries: int = 4,
) -> None:
    for _ in range(ops):
        amount = int(rng.integers(1, amount_max + 1))
        if float(rng.random()) < delay_rate:
            report.injected["delay"] = report.injected.get("delay", 0) + 1
            await asyncio.sleep(float(rng.random()) * 0.002)
        report.requests += 1
        if float(rng.random()) < cancel_rate:
            report.injected["cancel"] = report.injected.get("cancel", 0) + 1
            task = asyncio.ensure_future(chaos.fetch_and_increment_many(amount))
            await asyncio.sleep(0)
            task.cancel()
            try:
                delivered.extend(await task)
            except asyncio.CancelledError:
                report.cancelled_requests += 1
                report.cancelled_tokens += amount
            except InjectedFault:
                pass  # the batch failed before the cancel landed; nothing issued to us
            continue
        for attempt in range(max_retries + 1):
            try:
                values = await chaos.fetch_and_increment_many(amount)
            except InjectedFault:
                report.retries += 1
                continue
            except ExactlyOnceError:
                # The service's own validator tripped: every waiter of the
                # bad batch sees this.  Don't retry — record once and stop
                # this client; the run-level audit turns it into an escape.
                report.injected["exactly_once_error"] = (
                    report.injected.get("exactly_once_error", 0) + 1
                )
                return
            delivered.extend(values)
            if float(rng.random()) < dup_rate:
                # At-least-once client: spurious resubmit after success.
                # The service must answer with fresh values.
                report.injected["dup_submit"] = report.injected.get("dup_submit", 0) + 1
                report.requests += 1
                try:
                    delivered.extend(await chaos.fetch_and_increment_many(amount))
                except InjectedFault:
                    report.retries += 1
            break


def run_chaos(
    service: CountingService,
    requests: int = 1000,
    clients: int = 16,
    seed: int = 0,
    *,
    drop_before_rate: float = 0.03,
    drop_after_rate: float = 0.02,
    delay_rate: float = 0.05,
    dup_rate: float = 0.02,
    cancel_rate: float = 0.03,
    amount_max: int = 3,
    corrupt_state_after: int | None = None,
    flight_dir=None,
) -> ChaosReport:
    """Drive ``service`` with ``requests`` chaotic operations and audit.

    ``clients`` concurrent workers issue ``requests`` total operations
    under seeded injections (see module docstring).  Returns the
    :class:`ChaosReport`; ``report.exactly_once`` is False iff the audit
    found a typed escape.

    ``corrupt_state_after`` injects a silent issuance-state corruption just
    before that batch number — the service's validator must convert it into
    an ``exactly-once-violation`` escape.  ``flight_dir`` arms the flight
    recorder: the run executes with observability captured, the service
    dumps its span ring there on the first violation (any escape without a
    dump takes one at audit time), and the dump path is attached to the
    report as ``flight_dump``.
    """
    report = ChaosReport(seed=seed)
    delivered: list[int] = []

    async def main() -> None:
        chaos = ChaosService(
            service,
            drop_before_rate=drop_before_rate,
            drop_after_rate=drop_after_rate,
            corrupt_state_after=corrupt_state_after,
            seed=seed,
        )
        root = np.random.default_rng(seed)
        per_client = [requests // clients] * clients
        for i in range(requests % clients):
            per_client[i] += 1
        async with chaos:
            results = await asyncio.gather(
                *(
                    _chaos_client(
                        chaos,
                        ops,
                        np.random.default_rng(root.integers(0, 2**31 - 1)),
                        report,
                        delivered,
                        delay_rate=delay_rate,
                        dup_rate=dup_rate,
                        cancel_rate=cancel_rate,
                        amount_max=amount_max,
                    )
                    for ops in per_client
                ),
                return_exceptions=True,
            )
        for res in results:
            if isinstance(res, ExactlyOnceError):
                report.injected["exactly_once_error"] = (
                    report.injected.get("exactly_once_error", 0) + 1
                )
            elif isinstance(res, BaseException):
                raise res
        report.issued = chaos.issued
        report.delivered = len(delivered)
        report.lost_to_drops = len(chaos.lost_values)
        report.injected["drop_before"] = chaos.dropped_before
        report.injected["drop_after"] = chaos.dropped_after
        if report.injected.get("exactly_once_error"):
            report.escapes.append(
                FaultEscape(
                    "exactly-once-violation",
                    f"{service.net.name}: batch validation failed "
                    f"({report.injected['exactly_once_error']} client(s) affected, "
                    f"corrupt_state_after={corrupt_state_after})",
                )
            )
        report.escapes.extend(
            audit_exactly_once(chaos.issued, delivered, chaos.lost_values, report.cancelled_tokens)
        )

    if flight_dir is not None:
        from .. import obs

        prev_flight_dir = service.flight_dir
        service.flight_dir = flight_dir
        try:
            with obs.capture():
                asyncio.run(main())
                if report.escapes and service.last_flight_dump is None:
                    from ..obs.flight import dump_flight

                    service.last_flight_dump = dump_flight(
                        "fault-escape", detail=report.escapes[0].kind, directory=flight_dir
                    )
        finally:
            service.flight_dir = prev_flight_dir
        if service.last_flight_dump is not None:
            report.flight_dump = str(service.last_flight_dump)
    else:
        asyncio.run(main())
    return report


def run_shard_kill_chaos(
    *,
    shards: int = 2,
    clients: int = 6,
    ops: int = 120,
    kills: int = 1,
    kill_after_s: float = 0.3,
    kill_spacing_s: float = 0.6,
    amount_max: int = 3,
    seed: int = 0,
    factors: Sequence[int] = (2, 2),
    wal_dir: str | None = None,
    flight_dir=None,
) -> ChaosReport:
    """SIGKILL shards under live cluster load and audit exactly-once.

    The process-level analogue of :func:`run_chaos`: a real
    :class:`~repro.cluster.Cluster` (``shards`` workers behind the router,
    supervised) is driven by ``clients`` reconnecting TCP clients
    while a chaos task ``kill -9``\\ s a seeded choice of shard ``kills``
    times.  The supervisor restarts each victim, which replays its
    write-ahead log before reopening its socket.

    The audit is the cluster form of "delivered exactly once or
    attributably lost": all delivered values distinct (a duplicate means
    WAL replay under-counted — the fatal escape), and per-residue-class
    gaps bounded by the risked-token budget.  A *gap* is a value a shard
    committed to its WAL but whose ack died with the process; every such
    value belongs to a request whose client saw the connection drop and
    retried, so ``gaps <= risked_requests * amount_max`` — anything beyond
    that is an ``unaccounted-gap`` escape (WAL replay over-counted).

    Returns a :class:`ChaosReport`; cluster facts land in ``injected``
    (``shard_kill``, ``restarts``, ``risked``, ``reconnects``).  With
    ``flight_dir`` set, any escape triggers a flight-recorder dump whose
    path is attached as ``flight_dump``.
    """
    import tempfile

    from ..cluster import Cluster, ClusterConfig
    from ..serve.batching import OverloadedError
    from ..serve.loadgen import TCPCounterClient, audit_values

    report = ChaosReport(seed=seed)
    delivered: list[int] = []
    rng = np.random.default_rng(seed)

    async def main(wal_dir: str) -> None:
        cfg = ClusterConfig(
            shards=shards,
            wal_dir=wal_dir,
            factors=tuple(factors),
            poll_interval=0.1,
        )
        async with Cluster(cfg) as cluster:
            host, port = cluster.address
            stop = asyncio.Event()

            async def client_worker(i: int) -> None:
                client = await TCPCounterClient.connect(
                    host, port, reconnect=True, backoff_seed=seed + i, backoff_base=0.02
                )
                crng = np.random.default_rng(seed + 7919 * i)
                try:
                    for _ in range(ops):
                        amount = int(crng.integers(1, amount_max + 1))
                        report.requests += 1
                        try:
                            delivered.extend(await client.inc(amount))
                        except OverloadedError:
                            # A shard is down/restarting: clean, value-free
                            # rejection.  Back off and keep offering load.
                            report.retries += 1
                            await asyncio.sleep(0.02)
                finally:
                    report.injected["risked"] = report.injected.get("risked", 0) + client.risked
                    report.injected["reconnects"] = (
                        report.injected.get("reconnects", 0) + client.reconnects
                    )
                    await client.close()

            async def busiest_shard() -> int:
                """The shard with the most traffic — killing an idle shard
                would make the chaos vacuous (few clients can all hash to
                one shard).  Falls back to a seeded pick."""
                try:
                    probe = await TCPCounterClient.connect(host, port)
                    try:
                        st = await probe.stats()
                    finally:
                        await probe.close()
                    entries = [
                        e
                        for e in st.get("cluster", {}).get("shards", [])
                        if e.get("reachable")
                    ]
                    if entries:
                        return int(
                            max(entries, key=lambda e: e.get("submitted", 0))["shard_id"]
                        )
                except (OSError, ConnectionError):
                    pass
                return int(rng.integers(0, shards))

            async def chaos_task() -> None:
                await asyncio.sleep(kill_after_s)
                for k in range(kills):
                    if stop.is_set():
                        return
                    cluster.kill_shard(await busiest_shard())
                    report.injected["shard_kill"] = report.injected.get("shard_kill", 0) + 1
                    if k + 1 < kills:
                        await asyncio.sleep(kill_spacing_s)

            await asyncio.gather(*(client_worker(i) for i in range(clients)), chaos_task())
            stop.set()
            # Let the supervisor finish any in-flight restart, then wait for
            # every shard to answer STATS (alive != socket bound).
            for _ in range(200):
                if cluster.settled:
                    break
                await asyncio.sleep(0.05)
            stats: dict = {}
            for _ in range(100):
                probe = await TCPCounterClient.connect(host, port)
                try:
                    stats = await probe.stats()
                finally:
                    await probe.close()
                entries = stats.get("cluster", {}).get("shards", [])
                if entries and all(e.get("reachable") for e in entries):
                    break
                await asyncio.sleep(0.1)
            report.issued = int(stats.get("issued", 0))
            report.injected["restarts"] = cluster.restarts

        report.delivered = len(delivered)
        audit = audit_values(delivered, stride=shards)
        if audit["duplicates"]:
            dupes = sorted(
                {v for v in delivered if delivered.count(v) > 1} if len(delivered) < 10000 else []
            )
            report.escapes.append(
                FaultEscape(
                    "duplicate-delivery",
                    f"{audit['duplicates']} value(s) delivered more than once after "
                    f"{report.injected.get('shard_kill', 0)} shard kill(s) — WAL replay "
                    "under-counted",
                    tuple(dupes[:16]),
                )
            )
        budget = report.injected.get("risked", 0) * amount_max
        if audit["gap_total"] > budget:
            report.escapes.append(
                FaultEscape(
                    "unaccounted-gap",
                    f"{audit['gap_total']} missing value(s) but the risked-request "
                    f"budget only covers {budget} — WAL replay over-counted",
                )
            )
        report.lost_to_drops = audit["gap_total"]

    if wal_dir is not None:
        asyncio.run(main(wal_dir))
    else:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            asyncio.run(main(tmp))

    if report.escapes and flight_dir is not None:
        from ..obs.flight import dump_flight

        report.flight_dump = str(
            dump_flight("fault-escape", detail=report.escapes[0].kind, directory=flight_dir)
        )
    return report


def chaos_token_check(
    net: Network, tokens: int | None = None, seed: int = 0
) -> FaultEscape | None:
    """Drain ``tokens`` round-robin tokens under the adversarial ``chaos``
    scheduler and check the quiescent counts.

    Verifies both halves of the counting-network story: the counts match
    the schedule-independent quiescent prediction
    (:func:`repro.sim.count_sim.propagate_counts`), and they satisfy the
    step property.  Returns a typed escape or ``None``.
    """
    from ..core.sequences import make_step

    total = tokens if tokens is not None else 4 * net.width + 3
    x = make_step(net.width, total)
    sim = TokenSimulator(net, seed=seed)
    sim.inject(x)
    result = sim.run("chaos")
    predicted = propagate_counts(net, x)
    if not np.array_equal(result.output_counts, predicted):
        return FaultEscape(
            "schedule-dependence",
            f"{net.name}: token-sim counts {result.output_counts.tolist()} != "
            f"quiescent prediction {predicted.tolist()} (seed {seed})",
        )
    if not bool(step_mask(result.output_counts[None, :])[0]):
        return FaultEscape(
            "step-violation",
            f"{net.name}: counts {result.output_counts.tolist()} break the step "
            f"property under the chaos scheduler (seed {seed})",
        )
    return None
