"""The traced run: per-layer metrics, timed from outside each layer.

One traced run covers every layer, whichever workload it is started for,
so each traced run reports every per-layer metric.  It has three parts:

* the ``inc-durable-tcp`` cluster, once with obs off (the untraced client
  p50 the stages must add up to) and once started with ``--obs``, its
  ``FLIGHT`` ring read straight from the shard port.  The ring's phase
  marks (``parsed → enqueued → batched → executed → verified →
  responded``) split a request into stages; the router hop is the client
  p50 through the router minus the client p50 sent straight to the shard,
  measured in alternating windows so drift cancels;
* the ``inc-wide-inproc`` service, once untraced and once under
  ``obs.capture()``;
* timings of public calls into each layer: protocol, WAL, service, sim,
  plan, bit-sliced plan, exhaustive generator, construction, lowering.

``LABELS`` names, for every metric, the end-to-end metric it should move
and on which workload.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path

import numpy as np

import evalwide
import incload
from common import BenchError, Result, fs_type, median, per_call_us, time_calls

#: metric -> (unit, end-to-end metric it should move, workload it moves it on).
LABELS = {
    "cluster.router.hop_ms": ("ms", "p50_ms", "inc-durable-tcp"),
    "serve.batching.wait_ms": ("ms", "p50_ms", "inc-durable-tcp"),
    "serve.service.sweep_ms": ("ms", "p50_ms", "inc-durable-tcp"),
    "serve.service.recheck_ms": ("ms", "p50_ms", "inc-durable-tcp"),
    "cluster.wal.commit_ms": ("ms", "p50_ms", "inc-durable-tcp"),
    "serve.server.respond_ms": ("ms", "p50_ms", "inc-durable-tcp"),
    "unexplained_ms": ("ms", "p50_ms", "inc-durable-tcp"),
    "cluster.wal.append_us": ("us", "p50_ms", "inc-durable-tcp"),
    "serve.protocol.parse_us": ("us", "ops_per_s", "inc-durable-tcp"),
    "serve.protocol.encode_us": ("us", "ops_per_s", "inc-durable-tcp"),
    "serve.batching.mean_batch.inc-durable-tcp": ("count", "ops_per_s", "inc-durable-tcp"),
    "serve.batching.mean_batch.inc-wide-inproc": ("count", "ops_per_s", "inc-wide-inproc"),
    "serve.batching.partial_batches": ("count", "p50_ms", "inc-wide-inproc"),
    "serve.service.issue_batch_ms": ("ms", "ops_per_s", "inc-wide-inproc"),
    "sim.propagate_counts_ms": ("ms", "ops_per_s", "inc-wide-inproc"),
    "core.plan.run_ms": ("ms", "ops_per_s", "inc-wide-inproc"),
    "core.plan.segments": ("count", "ops_per_s", "inc-wide-inproc"),
    "core.plan.us_per_segment": ("us", "ops_per_s", "inc-wide-inproc"),
    "serve.batching.overhead_ms": ("ms", "ops_per_s", "inc-wide-inproc"),
    "core.plan.buffer_allocs": ("count", "ops_per_s", "inc-wide-inproc"),
    "networks.build_s": ("s", "setup_s", "count-wide"),
    "core.compiled.compile_s": ("s", "setup_s", "count-wide"),
    "core.plan.lower_s": ("s", "setup_s", "count-wide"),
    "core.plan.count_run_ms": ("ms", "ops_per_s", "count-wide"),
    "core.plan.sort_run_ms": ("ms", "ops_per_s", "sort-wide"),
    "sort_vs_npsort_x": ("x", "ops_per_s", "sort-wide"),
    "sim.wrapper_ms": ("ms", "ops_per_s", "count-wide"),
    "core.plan.layer_ms_p50": ("ms", "ops_per_s", "count-wide"),
    "core.plan.layer_ms_max": ("ms", "ops_per_s", "count-wide"),
    "core.bitplan.chunk_ms": ("ms", "p50_ms", "prove-24"),
    "verify.exhaustive.gen_ms": ("ms", "p50_ms", "prove-24"),
    "obs.overhead_ms.inc-durable-tcp": ("ms", None, "inc-durable-tcp"),
    "obs.overhead_ms.inc-wide-inproc": ("ms", None, "inc-wide-inproc"),
}

#: Stages plus hop must add up to the untraced client p50 within this much;
#: what is left is socket time between client and shard and the client's own
#: event loop, which no server-side mark can see.
RECONCILE_TOLERANCE_MS = 0.5


def put(result: Result, name: str, value: float) -> None:
    result.metrics[name] = {"value": float(value), "unit": LABELS[name][0]}


# -- inc-durable-tcp ----------------------------------------------------------


def stage_p50s(spans: list[dict]) -> dict[str, float]:
    """Per-stage p50s (ms) from a shard's span ring."""
    batches = {s["span_id"]: s for s in spans if s["kind"] == "batch" and s["status"] == "ok"}
    cols: dict[str, list[float]] = {
        k: [] for k in ("enqueue", "wait", "sweep", "recheck", "commit", "respond")
    }
    for s in spans:
        if s["kind"] != "request" or s.get("verb") != "inc" or s["status"] != "ok":
            continue
        b = batches.get(s.get("batch_id"))
        m = s["marks"]
        if b is None or not {"enqueued", "batched", "responded"} <= m.keys():
            continue
        bm = b["marks"]
        cols["enqueue"].append(m["enqueued"])
        cols["wait"].append(m["batched"] - m["enqueued"])
        cols["sweep"].append(bm["executed"])
        cols["recheck"].append(bm["verified"] - bm["executed"])
        cols["commit"].append(b["dur_s"] - bm["verified"])
        cols["respond"].append(m["responded"] - m["batched"] - b["dur_s"])
    if not cols["wait"]:
        raise BenchError("the shard's FLIGHT ring held no complete INC request spans")
    return {k: median(v) * 1e3 for k, v in cols.items()} | {"requests": len(cols["wait"])}


async def traced_cluster_load(cluster, seconds: float, rounds: int = 4):
    """Alternate router and direct-to-shard windows, then read the shard's ring."""
    router = await incload.TCPClients.open(cluster.router, incload.TCP_CONNECTIONS)
    direct = await incload.TCPClients.open(cluster.shard, incload.TCP_CONNECTIONS)
    via_router, via_shard = incload.Sample(), incload.Sample()
    try:
        await incload.drive(router.submits, incload.WARMUP_S, via_router, measure=False)
        window = seconds / (2 * rounds)
        for _ in range(rounds):
            await incload.drive(router.submits, window, via_router)
            await incload.drive(direct.submits, window, via_shard)
        flight = await direct.clients[0].flight()
    finally:
        await router.close()
        await direct.close()
    return via_router, via_shard, flight


def durable_layers(result: Result, scratch: Path, seconds: float) -> dict:
    untraced = incload.ClusterProcess(scratch, "untraced")
    try:
        untraced.start()
        plain, stats = asyncio.run(incload.cluster_load(untraced, 0.3 * seconds))
    finally:
        untraced.stop()
    traced = incload.ClusterProcess(scratch, "traced", obs=True)
    try:
        traced.start()
        via_router, via_shard, flight = asyncio.run(
            traced_cluster_load(traced, 0.4 * seconds)
        )
    finally:
        traced.stop()
    for s in (plain, via_router, via_shard):
        result.attempted += s.attempted
        result.failed += s.failed
    incload.audit(result, plain.values, "inc-durable-tcp.untraced")
    incload.audit(result, via_router.values + via_shard.values, "inc-durable-tcp.traced")

    stages = stage_p50s(flight["spans"])
    hop = via_router.p50_ms() - via_shard.p50_ms()
    client = plain.p50_ms()
    explained = sum(stages[k] for k in
                    ("enqueue", "wait", "sweep", "recheck", "commit", "respond")) + hop
    unexplained = client - explained
    result.gate("inc-durable-tcp.stages_reconcile", abs(unexplained) <= RECONCILE_TOLERANCE_MS)
    put(result, "cluster.router.hop_ms", hop)
    put(result, "serve.batching.wait_ms", stages["wait"])
    put(result, "serve.service.sweep_ms", stages["sweep"])
    put(result, "serve.service.recheck_ms", stages["recheck"])
    put(result, "cluster.wal.commit_ms", stages["commit"])
    put(result, "serve.server.respond_ms", stages["respond"])
    put(result, "unexplained_ms", unexplained)
    put(result, "serve.batching.mean_batch.inc-durable-tcp", stats["mean_batch_size"])
    put(result, "obs.overhead_ms.inc-durable-tcp", via_router.p50_ms() - client)
    return {
        "untraced_client_p50_ms": client,
        "traced_router_p50_ms": via_router.p50_ms(),
        "traced_direct_p50_ms": via_shard.p50_ms(),
        "stage_p50_ms": stages,
        "explained_ms": explained,
        "reconcile_tolerance_ms": RECONCILE_TOLERANCE_MS,
        "spans_dropped": flight.get("spans_dropped"),
        "transport": "loopback TCP to 127.0.0.1",
        "wal_fs": fs_type(scratch),
    }


# -- inc-wide-inproc ----------------------------------------------------------


def inproc_layers(result: Result, seconds: float) -> tuple[dict, object]:
    """One untraced and one traced window of the in-process service."""
    import repro.obs as obs

    async def main():
        _, svc = await incload.start_service(incload.wide_network)
        submits = incload.inproc_submits(svc)
        plain, traced = incload.Sample(), incload.Sample()
        try:
            await incload.drive(submits, incload.WARMUP_S, plain, measure=False)
            before = svc.stats()
            await incload.drive(submits, seconds / 2, plain)
            after = svc.stats()
            # Right after the window, on an idle loop, so both see the same machine.
            issue_ms = issue_batch_ms(svc.net)
            with obs.capture():
                await incload.drive(submits, seconds / 2, traced)
        finally:
            await svc.stop()
        return svc, plain, traced, before, after, issue_ms

    svc, plain, traced, before, after, issue_ms = asyncio.run(main())
    for s in (plain, traced):
        result.attempted += s.attempted
        result.failed += s.failed
    incload.audit(result, plain.values + traced.values, "inc-wide-inproc")
    result.check_depth(svc.net, len(incload.INPROC_FACTORS))
    hist = {int(k): v - before["batch_size_hist"].get(k, 0)
            for k, v in after["batch_size_hist"].items()}
    batches = sum(hist.values())
    put(result, "serve.batching.mean_batch.inc-wide-inproc",
        sum(k * v for k, v in hist.items()) / batches)
    put(result, "serve.batching.partial_batches",
        sum(v for k, v in hist.items() if k < after["max_batch"]))
    put(result, "core.plan.buffer_allocs",
        after["executor"]["buffer_allocs"] - before["executor"]["buffer_allocs"])
    put(result, "obs.overhead_ms.inc-wide-inproc", traced.p50_ms() - plain.p50_ms())
    wall_per_batch_ms = plain.elapsed / batches * 1e3
    put(result, "serve.service.issue_batch_ms", issue_ms)
    put(result, "serve.batching.overhead_ms", wall_per_batch_ms - issue_ms)
    return {
        "untraced_p50_ms": plain.p50_ms(),
        "traced_p50_ms": traced.p50_ms(),
        "batches": batches,
        "wall_per_batch_ms": wall_per_batch_ms,
    }, svc.net


# -- public calls into single layers ------------------------------------------


def protocol_layers(result: Result) -> None:
    from repro.serve.protocol import encode_values, parse_request

    put(result, "serve.protocol.parse_us", per_call_us(lambda: parse_request("INC 1\n"),
                                                       loops=20000))
    put(result, "serve.protocol.encode_us", per_call_us(lambda: encode_values([123456]),
                                                        loops=20000))


def wal_layer(result: Result, scratch: Path, appends: int = 300) -> None:
    from repro.cluster.wal import TokenWAL

    wal = TokenWAL.open(scratch / "probe.wal", fsync=True)
    try:
        seq = iter(range(1, 1 << 30))
        lat = time_calls(lambda: wal.append(next(seq), 0), repeat=appends)
    finally:
        wal.close()
    put(result, "cluster.wal.append_us", median(lat) * 1e6)


def issue_batch_ms(net) -> float:
    """``issue_batch(64)`` on a fresh service over ``net`` (values go nowhere)."""
    from repro.serve.service import CountingService

    probe = CountingService(net)
    return median(time_calls(lambda: probe.issue_batch(64), repeat=100)) * 1e3


def plan_layers(result: Result, net) -> None:
    """K(2^10) under the service: propagate_counts and one plan run on a step vector."""
    from repro.core.plan import plan_executor
    from repro.core.sequences import make_step
    from repro.sim.count_sim import propagate_counts

    step = make_step(net.width, 64 * 1000)
    prop = median(time_calls(lambda: propagate_counts(net, step), repeat=100)) * 1e3
    ex = plan_executor(net)
    x = step[None, :]
    run = median(time_calls(lambda: ex.run(x), repeat=100)) * 1e3
    segments = ex.plan.num_segments
    put(result, "sim.propagate_counts_ms", prop)
    put(result, "core.plan.run_ms", run)
    put(result, "core.plan.segments", segments)
    put(result, "core.plan.us_per_segment", run * 1e3 / segments)


def wide_layers(result: Result, seed: int) -> None:
    """K(2^11): construction, compilation, lowering, count and sort runs, layer times."""
    from repro.core.compiled import compile_network
    from repro.core.plan import lower_network, plan_executor
    from repro.sim.count_sim import propagate_counts

    t0 = time.perf_counter()
    net = evalwide.cold_build(evalwide.EVAL_FACTORS)
    t1 = time.perf_counter()
    compile_network(net)
    t2 = time.perf_counter()
    lower_network(net)
    t3 = time.perf_counter()
    result.check_depth(net, len(evalwide.EVAL_FACTORS))
    put(result, "networks.build_s", t1 - t0)
    put(result, "core.compiled.compile_s", t2 - t1)
    put(result, "core.plan.lower_s", t3 - t2)

    rng = np.random.default_rng(seed)
    counts = evalwide.count_batch(rng, net.width)
    count_ex = plan_executor(net)
    out = count_ex.run(counts)
    result.gate("count-wide.step_oracle",
                np.array_equal(out, evalwide.step_rows(counts.sum(axis=1), net.width)))
    run = median(time_calls(lambda: count_ex.run(counts), repeat=9))
    prop = median(time_calls(lambda: propagate_counts(net, counts), repeat=9))
    put(result, "core.plan.count_run_ms", run * 1e3)
    put(result, "sim.wrapper_ms", (prop - run) * 1e3)
    layer_times = np.zeros(net.depth)
    for _ in range(5):
        count_ex.run(counts, layer_times=layer_times)
    layer_times /= 5
    put(result, "core.plan.layer_ms_p50", median(layer_times) * 1e3)
    put(result, "core.plan.layer_ms_max", float(layer_times.max()) * 1e3)

    values = evalwide.sort_batch(rng, net.width)
    sort_ex = plan_executor(net, semantics="sort")
    result.gate("sort-wide.npsort",
                np.array_equal(sort_ex.run(values), np.sort(values, axis=1)[:, ::-1]))
    sort_run = median(time_calls(lambda: sort_ex.run(values), repeat=5))
    npsort = median(time_calls(lambda: np.sort(values, axis=1), repeat=5))
    put(result, "core.plan.sort_run_ms", sort_run * 1e3)
    put(result, "sort_vs_npsort_x", sort_run / npsort)


def proof_layers(result: Result) -> None:
    """K(2,2,2,3): per-chunk generation and bit-sliced evaluation of the 0-1 proof."""
    from repro.core.bitplan import evaluate_zero_one_packed
    from repro.verify.exhaustive import iter_packed_zero_one, packed_descending_violations

    net = evalwide.cold_build(evalwide.PROOF_FACTORS)
    result.check_depth(net, len(evalwide.PROOF_FACTORS))
    gen, chunk = [], []
    sorted_ok = True
    chunks = iter_packed_zero_one(net.width)
    while True:
        t0 = time.perf_counter()
        item = next(chunks, None)
        t1 = time.perf_counter()
        if item is None:
            break
        out = evaluate_zero_one_packed(net, item[0])
        t2 = time.perf_counter()
        gen.append(t1 - t0)
        chunk.append(t2 - t1)
        sorted_ok = sorted_ok and not packed_descending_violations(out).any()
    result.gate("prove-24.proof", sorted_ok)
    put(result, "verify.exhaustive.gen_ms", median(gen) * 1e3)
    put(result, "core.bitplan.chunk_ms", median(chunk) * 1e3)


def run_traced(seed: int, seconds: float, scratch: Path) -> Result:
    """Every per-layer metric, whichever workload the run was started for."""
    result = Result()
    durable = durable_layers(result, scratch, seconds)
    inproc, wide_net = inproc_layers(result, seconds * 0.3)
    protocol_layers(result)
    wal_layer(result, scratch)
    plan_layers(result, wide_net)
    wide_layers(result, seed)
    proof_layers(result)
    result.record.update(
        config={"suite": "every layer, whichever workload", "seconds_split":
                "0.3 cluster untraced, 0.4 cluster traced, 0.15 + 0.15 in-process"},
        durable=durable,
        inproc=inproc,
        labels={name: {"moves": moves, "workload": wl} for name, (_, moves, wl) in LABELS.items()},
    )
    missing = set(LABELS) - set(result.metrics)
    if missing:
        raise BenchError(f"traced run did not produce {sorted(missing)}")
    return result
