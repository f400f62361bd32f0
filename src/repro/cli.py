"""Command-line interface: ``python -m repro <command>``.

Commands
--------
build       build a network and print its stats (and optionally a diagram)
verify      search for counting/sorting violations
family      print the factorization family table for a width
compare     print the related-work comparison table
throughput  run the discrete-event contention model over a family
export      emit a network as Graphviz DOT or layered JSON
smooth      measure a network's observed smoothing constant
linearize   search for a non-linearizable execution (paper §6)
audit       per-layer profile and critical path of a network
profile     observability: run a workload, print hot-spot tables, emit
            BENCH_profile.json + a JSON-lines trace
serve       run the TCP counting service (repro.serve)
cluster     sharded, WAL-durable counting cluster (repro.cluster):
            ``start`` runs shards + router in the foreground, ``status``
            reads the state file (and probes the router), ``kill-shard``
            SIGKILLs one shard so the supervisor's WAL replay can be
            watched live
loadgen     drive a counting service with open/closed-loop load and emit
            BENCH_serve.json (``--procs`` fans the client side out over
            OS processes for cluster targets)
fuzz        fault injection (repro.faults): ``mutate`` checks that every
            verifier catches every fault class (kill matrix), ``inputs``
            fuzzes the step property with corpus + shrinking, ``chaos``
            stress-tests the counting service's exactly-once guarantee;
            all three emit BENCH_fuzz.json
cache       persistent build/plan cache (.repro_cache): ``stats`` prints
            entry counts, bytes, hit/miss counters and a per-variant
            breakdown, ``clear`` wipes it
search      discover depth-optimal base networks (repro.search): ``beam``
            runs the dependency-free seeded beam search, ``sat`` the CNF
            placement encoding with CEGAR refinement (needs the optional
            pysat 'search' extra), ``show`` prints the validated
            best-known registry; beam/sat emit BENCH_search.json
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import build_family, comparison_table, format_table, network_stats, pareto_frontier
from .baselines import bitonic_network, brick_network, bubble_network, odd_even_network, periodic_network
from .networks import counting_network, k_network, l_network, r_network
from .sim import ContentionSimulator
from .verify import find_counting_violation, find_sorting_violation
from .viz import render_network

__all__ = ["main"]

_BUILDERS = {
    "K": lambda factors: k_network(factors),
    "L": lambda factors: l_network(factors),
    "C": lambda factors: counting_network(factors),
    "R": lambda factors: r_network(*factors),
    "bitonic": lambda factors: bitonic_network(factors[0]),
    "periodic": lambda factors: periodic_network(factors[0]),
    "oddeven": lambda factors: odd_even_network(factors[0]),
    "bubble": lambda factors: bubble_network(factors[0]),
    "brick": lambda factors: brick_network(factors[0]),
}


def _check_factors(factors: list[int]) -> list[int]:
    """Reject degenerate factors: every width/factor must be >= 2.

    Factors of 0 or 1 (or negative) would "build" trivial or broken
    networks — e.g. ``k_network([1, 6])`` is a width-6 single balancer and
    ``bitonic_network(0)`` is empty — which silently invalidates the
    depth/size tables every other subcommand prints.
    """
    bad = [f for f in factors if f < 2]
    if bad:
        raise SystemExit(
            f"error: factors must be integers >= 2, got {', '.join(map(str, bad))} "
            f"(widths are products of balancer widths, and a balancer needs >= 2 wires)"
        )
    return factors


#: Families whose construction supports ``variant="searched"``.
_VARIANT_FAMILIES = ("K", "L", "C")


def _make_network(family: str, factors: list[int], variant: str = "stock"):
    factors = _check_factors(factors)
    if variant != "stock":
        if family == "K":
            return k_network(factors, variant=variant)
        if family == "L":
            return l_network(factors, variant=variant)
        if family == "C":
            return counting_network(factors, searched=(variant == "searched"))
        raise SystemExit(
            f"error: --variant {variant} is only available for "
            f"{', '.join(_VARIANT_FAMILIES)} (got {family})"
        )
    return _BUILDERS[family](factors)


def _add_variant_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--variant", choices=["stock", "searched"], default="stock",
        help="searched substitutes best-known registry networks into K/L/C "
        "wherever they are strictly shallower (repro.search)",
    )


def _add_backend_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend", choices=["auto", "int64", "bitsliced"], default="auto",
        help="0-1 evaluation engine: bitsliced packs 64 inputs per uint64 "
        "word (auto picks it); int64 keeps the legacy lane-per-value path. "
        "Verdicts are byte-identical either way.",
    )


def _build(args: argparse.Namespace):
    net = _make_network(args.family, args.factors, args.variant)
    s = network_stats(net)
    print(format_table([s.as_dict()]))
    if args.diagram:
        print()
        print(render_network(net))
    return 0


def _verify(args: argparse.Namespace) -> int:
    from .verify import minimize_violation

    net = _make_network(args.family, args.factors, args.variant)
    backend = getattr(args, "backend", "auto")
    cv = find_counting_violation(
        net, rng=np.random.default_rng(args.seed), backend=backend
    )
    sv = find_sorting_violation(net, backend=backend)
    print(f"{net.name}: width={net.width} depth={net.depth} backend={backend}")
    print(f"  sorting: {'OK (0-1 principle)' if sv is None else f'VIOLATION: {sv}'}")
    if cv is None:
        print("  counting: no violation found")
    else:
        small = minimize_violation(net, cv)
        print(f"  counting: VIOLATION: {cv}")
        print(f"  minimized witness: input {small.input_counts.tolist()} "
              f"-> output {small.output_counts.tolist()}")
    return 0 if (cv is None and sv is None) else 1


def _family(args: argparse.Namespace) -> int:
    entries = build_family(args.width, args.family, max_members=args.max_members)
    print(format_table([e.as_dict() for e in entries]))
    front = pareto_frontier(entries)
    print("\nPareto frontier (max balancer width vs depth):")
    for e in front:
        print(f"  {'x'.join(map(str, e.factors)):>16}  depth={e.stats.depth:<4} max_balancer={e.stats.max_balancer_width}")
    return 0


def _compare(args: argparse.Namespace) -> int:
    print(format_table(comparison_table(args.widths)))
    return 0


def _throughput(args: argparse.Namespace) -> int:
    rows = []
    for e in build_family(args.width, "K"):
        net = k_network(list(e.factors))
        stats = ContentionSimulator(net).run(args.procs, args.ops)
        rows.append(
            {
                "factors": "x".join(map(str, e.factors)),
                "depth": net.depth,
                "max_balancer": net.max_balancer_width,
                "throughput": f"{stats.throughput:.3f}",
                "mean_latency": f"{stats.mean_latency:.2f}",
            }
        )
    print(format_table(rows))
    return 0


def _export(args: argparse.Namespace) -> int:
    from .viz import to_dot, to_layered_json

    net = _make_network(args.family, args.factors)
    print(to_dot(net) if args.format == "dot" else to_layered_json(net, indent=2))
    return 0


def _smooth(args: argparse.Namespace) -> int:
    from .verify import observed_smoothness

    net = _make_network(args.family, args.factors)
    sm = observed_smoothness(net)
    print(f"{net.name}: width={net.width} depth={net.depth} observed smoothness={sm}")
    print("(1 means counting-grade balance; identity would be unbounded)")
    return 0


def _linearize(args: argparse.Namespace) -> int:
    from .analysis import check_history, find_nonlinearizable_execution, run_sequential_history

    net = _make_network(args.family, args.factors)
    seq_ok = check_history(run_sequential_history(net, 2 * net.width)) is None
    print(f"{net.name}: sequential executions linearizable: {seq_ok}")
    found = find_nonlinearizable_execution(net)
    if found is None:
        print("no non-linearizable execution found with the stalled-token template")
        return 0
    violation, _ = found
    print(f"asynchronous counterexample: {violation}")
    print("(fix: the waiting discipline of repro.sim.LinearizedThreadedCounter)")
    return 0


def _audit(args: argparse.Namespace) -> int:
    from .analysis import critical_path, layer_profile, occupancy

    net = _make_network(args.family, args.factors)
    print(f"{net.name}: width={net.width} depth={net.depth} size={net.size} "
          f"occupancy={occupancy(net):.3f}")
    rows = [
        {
            "layer": p.layer,
            "balancers": p.balancers,
            "widths": ",".join(f"{w}x{c}" for w, c in p.widths.items()),
            "coverage": f"{p.coverage:.2f}",
        }
        for p in layer_profile(net)
    ]
    print(format_table(rows))
    path = critical_path(net)
    print("critical path balancer widths:", [b.width for b in path])
    return 0


def _parse_widths(text: str) -> list[int]:
    """Parse ``--widths 2,3,5`` (or space-separated) into factor list."""
    try:
        factors = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise SystemExit(f"--widths needs integer factors, got {text!r}") from None
    if not factors:
        raise SystemExit("--widths needs at least one factor, e.g. --widths 2,3,5")
    return _check_factors(factors)


def _profile(args: argparse.Namespace) -> int:
    import pathlib

    from . import obs

    factors = _parse_widths(args.widths)
    report = obs.profile_network(
        lambda: _BUILDERS[args.construction](factors),
        workload=args.workload,
        tokens=args.tokens,
        scheduler=args.scheduler,
        procs=args.procs,
        ops=args.ops,
        batch=args.batch,
        workers=args.workers,
        seed=args.seed,
        semantics=args.semantics,
    )
    n = report.network
    print(
        f"{n['name']}: width={n['width']} depth={n['depth']} size={n['size']} "
        f"workload={report.workload} semantics={report.semantics}"
    )
    print("  " + "  ".join(f"{k}={v}" for k, v in report.summary.items()))
    print("\nper-layer hot spots:")
    print(report.layer_table())
    if report.balancer_rows:
        print(f"\ntop {min(args.top, len(report.balancer_rows))} balancers:")
        print(report.balancer_table(args.top))
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = obs.write_bench_json(
        "profile", report.bench_payload(), directory=out_dir, family=args.construction
    )
    trace_path = obs.write_jsonl(out_dir / "BENCH_profile_trace.jsonl", report.spans.to_dicts())
    print(f"\nwrote {json_path} and {trace_path}")
    return 0


def _make_service(args: argparse.Namespace):
    """Build the CountingService a serve/loadgen invocation asked for:
    explicit factors (``--widths``) or a planner query (``--width`` +
    ``--max-balancer``)."""
    from .serve import CountingService

    kwargs = dict(
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        validate=not args.no_validate,
    )
    variant = getattr(args, "variant", "stock")
    if args.width is not None:
        return CountingService.from_plan(
            args.width, args.max_balancer, family=args.construction,
            variant=variant, **kwargs
        )
    factors = _parse_widths(args.widths)
    return CountingService(_make_network(args.construction, factors, variant), **kwargs)


def _add_service_args(p: argparse.ArgumentParser) -> None:
    """The network/batching flags shared by ``serve`` and ``loadgen``."""
    p.add_argument(
        "--widths", default="2,3",
        help="comma-separated balancer-width factors, e.g. 2,3,5 (default 2,3)",
    )
    p.add_argument(
        "--width", type=int, default=None,
        help="plan mode: serve this width (needs --max-balancer; overrides --widths)",
    )
    p.add_argument(
        "--max-balancer", type=int, default=8,
        help="plan mode: widest balancer the plan may use (default 8)",
    )
    p.add_argument("--construction", choices=["K", "L", "C"], default="K")
    _add_variant_arg(p)
    p.add_argument("--max-batch", type=int, default=64, help="requests per vectorized batch")
    p.add_argument(
        "--queue-limit", type=int, default=1024,
        help="pending requests before submissions are rejected (backpressure)",
    )
    p.add_argument(
        "--no-validate", action="store_true",
        help="skip the per-batch contiguous-range check",
    )


def _serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import CountingServer

    service = _make_service(args)
    server = CountingServer(service, host=args.host, port=args.port)

    async def run() -> None:
        await server.start()
        host, port = server.address
        net = service.net
        print(
            f"serving {net.name} (width={net.width} depth={net.depth}) "
            f"on {host}:{port}  max_batch={service._batcher.max_batch} "
            f"queue_limit={service._batcher.queue_limit}",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    return 0


def _loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import pathlib

    from . import obs
    from .serve import LoadGenerator, run_multiprocess_tcp

    if args.procs > 1:
        if not args.connect:
            raise SystemExit("--procs > 1 needs --connect (a running server or cluster router)")
        host, _, port = args.connect.rpartition(":")
        if not host or not port.isdigit():
            raise SystemExit(f"--connect needs HOST:PORT, got {args.connect!r}")
        report = run_multiprocess_tcp(
            host,
            int(port),
            procs=args.procs,
            clients=args.clients,
            ops=args.ops,
            amount=args.amount,
            mode=args.mode,
            rate=args.rate,
            seed=args.seed,
            reconnect=args.reconnect,
        )
        return _loadgen_emit(args, report)

    gen = LoadGenerator(
        mode=args.mode,
        clients=args.clients,
        ops=args.ops,
        amount=args.amount,
        rate=args.rate,
        seed=args.seed,
        reconnect=args.reconnect,
    )

    async def run():
        if args.connect:
            host, _, port = args.connect.rpartition(":")
            if not host or not port.isdigit():
                raise SystemExit(f"--connect needs HOST:PORT, got {args.connect!r}")
            return await gen.run_tcp(host, int(port))
        service = _make_service(args)
        async with service:
            return await gen.run_service(service)

    report = asyncio.run(run())
    return _loadgen_emit(args, report)


def _loadgen_emit(args: argparse.Namespace, report) -> int:
    import pathlib

    from . import obs

    summary = report.summary()
    net = report.service_stats.get("network", {})
    family = str(net.get("name", "")).partition("(")[0] or None
    print(f"target: {net.get('name', args.connect)} width={net.get('width')} depth={net.get('depth')}")
    for k, v in summary.items():
        print(f"  {k} = {v}")
    hist = report.service_stats.get("batch_size_hist", {})
    if hist:
        print("  batch-size histogram:")
        for size, count in sorted(hist.items(), key=lambda kv: int(kv[0])):
            print(f"    {size:>5} : {count}")
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = obs.write_bench_json("serve", report.bench_payload(), directory=out_dir, family=family)
    print(f"wrote {path}")
    if not report.exactly_once:
        print("ERROR: exactly-once violated (values not one contiguous distinct range)")
        return 1
    return 0


def _cluster_start(args: argparse.Namespace) -> int:
    import asyncio
    import signal as _signal

    from .cluster import Cluster, ClusterConfig

    factors = _parse_widths(args.widths)
    cfg = ClusterConfig(
        shards=args.shards,
        wal_dir=args.wal_dir,
        factors=tuple(factors),
        construction=args.construction,
        host=args.host,
        router_port=args.port,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        fsync=not args.no_fsync,
        obs=args.obs,
        rate=args.rate,
        burst=args.burst,
    )

    async def run() -> None:
        async with Cluster(cfg) as cluster:
            host, port = cluster.address
            print(
                f"cluster: {cfg.shards} shard(s) behind router {host}:{port} "
                f"(wal_dir={cfg.wal_dir})",
                flush=True,
            )
            for w in cluster.workers:
                info = w.last_ready or {}
                print(
                    f"  shard {w.shard_id}: pid={info.get('pid')} port={w.port} "
                    f"recovered_total={info.get('recovered_total', 0)}",
                    flush=True,
                )
            print(f"state file: {cfg.state_path}", flush=True)
            # Serve until signalled.  SIGTERM matters as much as SIGINT:
            # backgrounded jobs inherit SIGINT=SIG_IGN (POSIX), so process
            # managers and CI scripts stop us with `kill -TERM`, and the
            # handler lets Cluster.__aexit__ terminate the shard children
            # and unlink the state file instead of orphaning them.
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (_signal.SIGTERM, _signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except (NotImplementedError, RuntimeError):
                    pass  # non-Unix loop: KeyboardInterrupt still works
            await stop.wait()
            print("shutting down", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    return 0


def _cluster_status(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .cluster import Cluster

    try:
        state = Cluster.read_state(args.wal_dir)
    except FileNotFoundError:
        print(f"no cluster state file under {args.wal_dir!r} (is a cluster running?)")
        return 1
    router = state.get("router", {})
    print(
        f"cluster pid={state.get('pid')}: {state.get('num_shards')} shard(s), "
        f"router {router.get('host')}:{router.get('port')}, "
        f"restarts={state.get('restarts')}"
    )
    for s in state.get("shards", []):
        print(
            f"  shard {s.get('shard_id')}: pid={s.get('pid')} port={s.get('port')} "
            f"up={s.get('up')} restarts={s.get('restarts')} "
            f"recovered_total={s.get('recovered_total')}"
        )
    if args.no_probe:
        return 0

    async def probe() -> dict | None:
        from .serve import TCPCounterClient

        try:
            client = await TCPCounterClient.connect(router.get("host"), int(router.get("port")))
        except (OSError, TypeError, ValueError):
            return None
        try:
            return await client.stats()
        finally:
            await client.close()

    stats = asyncio.run(probe())
    if stats is None:
        print("router probe: not reachable (stale state file?)")
        return 1
    print(f"router probe: issued={stats.get('issued')} queue_depth={stats.get('queue_depth')}")
    if args.json:
        print(json.dumps(stats, indent=2, default=str))
    return 0


def _cluster_kill_shard(args: argparse.Namespace) -> int:
    import os
    import signal as _signal

    from .cluster import Cluster

    try:
        state = Cluster.read_state(args.wal_dir)
    except FileNotFoundError:
        print(f"no cluster state file under {args.wal_dir!r} (is a cluster running?)")
        return 1
    shards = {s.get("shard_id"): s for s in state.get("shards", [])}
    if args.shard_id not in shards:
        print(f"no shard {args.shard_id} (cluster has {sorted(shards)})")
        return 1
    pid = shards[args.shard_id].get("pid")
    if not pid:
        print(f"shard {args.shard_id} has no recorded pid")
        return 1
    try:
        os.kill(int(pid), _signal.SIGKILL)
    except ProcessLookupError:
        print(f"shard {args.shard_id} (pid {pid}) is already gone")
        return 1
    print(
        f"sent SIGKILL to shard {args.shard_id} (pid {pid}); "
        "the cluster supervisor will restart it with a WAL replay"
    )
    return 0


def _fuzz_mutate(args: argparse.Namespace) -> int:
    import pathlib

    from . import obs
    from .faults import run_conformance

    backend = getattr(args, "backend", "auto")
    km = run_conformance(seed=args.seed, sites_per_fault=args.sites, backend=backend)
    d = km.as_dict()
    rows = [
        {k: str(v) for k, v in row.items()}
        for row in d["matrix"]
    ]
    print(f"kill matrix (seed={args.seed}, sites/fault={args.sites}, backend={backend}):")
    print(format_table(rows))
    s = d["summary"]
    print(
        f"mutants={s['mutants']} live={s['live']} equivalent={s['equivalent']} "
        f"escaped={s['escaped']} complete={s['complete']}"
    )
    for t in km.escapes():
        print(f"  ESCAPE: {t.origin} {t.fault}@{','.join(map(str, t.site))} "
              f"(applicable: {', '.join(t.applicable)})")
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = obs.write_bench_json("fuzz", {"mode": "mutate", **d}, directory=out_dir)
    print(f"wrote {path}")
    return 0 if km.complete() else 1


def _fuzz_inputs(args: argparse.Namespace) -> int:
    import pathlib

    from . import obs
    from .faults import fuzz_inputs

    net = _make_network(args.family, args.factors)
    baseline = None
    if args.differential:
        if net.width & (net.width - 1) == 0:
            baseline = bitonic_network(net.width)
        else:  # bitonic needs a power-of-two width; fall back to general Batcher
            from .baselines import batcher_any_network

            baseline = batcher_any_network(net.width)
    report = fuzz_inputs(
        net,
        rounds=args.rounds,
        seed=args.seed,
        corpus_dir=args.corpus or None,
        baseline=baseline,
        max_violations=args.max_violations,
    )
    print(
        f"{net.name}: trials={report.trials} corpus_seeds={report.corpus_seeds} "
        f"violations={len(report.violations)} "
        f"differential_mismatches={report.differential_mismatches}"
    )
    for v in report.violations:
        print(f"  VIOLATION ({v.source}): input {list(v.input_counts)} "
              f"-> output {list(v.output_counts)} (shrunk from {list(v.original_input)})")
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = obs.write_bench_json(
        "fuzz", {"mode": "inputs", **report.as_dict()}, directory=out_dir
    )
    print(f"wrote {path}")
    return 0 if report.clean else 1


def _top(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.top import run_top

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(f"--connect must be host:port, got {args.connect!r}")
        return 2
    try:
        frames = asyncio.run(
            run_top(
                host,
                int(port),
                interval=args.interval,
                iterations=args.iterations,
                clear=not args.no_clear,
            )
        )
    except KeyboardInterrupt:
        return 0
    return 0 if frames else 1


def _fuzz_chaos(args: argparse.Namespace) -> int:
    import pathlib

    from . import obs
    from .faults import chaos_token_check, run_chaos
    from .serve import CountingService

    factors = _parse_widths(args.widths)
    inject = getattr(args, "inject", "none")
    if inject == "shard-kill":
        return _fuzz_chaos_shard_kill(args, factors)
    base_net = net = _BUILDERS[args.construction](factors)
    if inject == "stuck":
        from .faults.mutator import stuck_balancer

        net = stuck_balancer(net, 0, port=0)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    service = CountingService(net, max_batch=args.max_batch)
    report = run_chaos(
        service,
        requests=args.requests,
        clients=args.clients,
        seed=args.seed,
        drop_before_rate=args.drop_before,
        drop_after_rate=args.drop_after,
        delay_rate=args.delay_rate,
        dup_rate=args.dup_rate,
        cancel_rate=args.cancel_rate,
        corrupt_state_after=args.inject_after if inject == "state" else None,
        flight_dir=out_dir if inject != "none" else None,
    )
    d = report.as_dict()
    print(f"{net.name}: chaos over {report.requests} requests (seed={args.seed})")
    print(
        f"  issued={report.issued} delivered={report.delivered} "
        f"lost_to_drops={report.lost_to_drops} cancelled={report.cancelled_requests} "
        f"retries={report.retries}"
    )
    print("  injected: " + "  ".join(f"{k}={v}" for k, v in sorted(report.injected.items())))
    for e in report.escapes:
        print(f"  FAULT ESCAPE [{e.kind}]: {e.detail}")
    if report.flight_dump:
        print(f"  flight recorder dump: {report.flight_dump}")
    token_escape = chaos_token_check(base_net, seed=args.seed)
    d["token_check"] = token_escape.as_dict() if token_escape else None
    if token_escape:
        print(f"  FAULT ESCAPE [{token_escape.kind}]: {token_escape.detail}")
    print(f"  exactly-once: {report.exactly_once and token_escape is None}")
    path = obs.write_bench_json(
        "fuzz", {"mode": "chaos", **d}, directory=out_dir, family=args.construction
    )
    print(f"wrote {path}")
    return 0 if (report.exactly_once and token_escape is None) else 1


def _fuzz_chaos_shard_kill(args: argparse.Namespace, factors: list[int]) -> int:
    import pathlib

    from . import obs
    from .faults import run_shard_kill_chaos

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = run_shard_kill_chaos(
        shards=args.shards,
        clients=args.clients,
        ops=max(1, args.requests // args.clients),
        kills=args.kills,
        seed=args.seed,
        factors=tuple(factors),
        flight_dir=out_dir,
    )
    print(
        f"shard-kill chaos: {args.shards} shard(s), {report.requests} requests "
        f"(seed={args.seed})"
    )
    print(
        f"  issued={report.issued} delivered={report.delivered} "
        f"gaps={report.lost_to_drops} rejected_during_restart={report.retries}"
    )
    print("  injected: " + "  ".join(f"{k}={v}" for k, v in sorted(report.injected.items())))
    for e in report.escapes:
        print(f"  FAULT ESCAPE [{e.kind}]: {e.detail}")
    if report.flight_dump:
        print(f"  flight recorder dump: {report.flight_dump}")
    print(f"  exactly-once: {report.exactly_once}")
    path = obs.write_bench_json(
        "fuzz",
        {"mode": "chaos-shard-kill", "shards": args.shards, "kills": args.kills,
         **report.as_dict()},
        directory=out_dir,
        family=args.construction,
    )
    print(f"wrote {path}")
    return 0 if report.exactly_once else 1


def _cache(args: argparse.Namespace) -> int:
    from .core.cache import PlanCache, default_cache

    cache = PlanCache(args.dir) if args.dir else default_cache()
    if args.cache_command == "stats":
        for k, v in cache.stats().items():
            if k == "variants":
                print("  entries by variant:")
                for name, count in v.items():
                    print(f"    {name} = {count}")
            else:
                print(f"  {k} = {v}")
        return 0
    removed = cache.clear()
    print(f"removed {removed} cached files from {cache.root}")
    return 0


def _search_payload_common(args: argparse.Namespace, mode: str) -> dict:
    return {
        "mode": mode,
        "width": args.width,
        "target_depth": args.target_depth,
    }


def _search_record(args: argparse.Namespace, result, origin: str) -> None:
    """Append a found network to a JSON registry file (``--save``)."""
    import pathlib

    from .search import Registry

    path = pathlib.Path(args.save)
    registry = Registry.load(path) if path.exists() else Registry()
    entry = registry.add(result.width, result.comparators, origin=origin)
    registry.save(path)
    print(f"saved {entry.kind} entry (depth {entry.depth}, {entry.size} comparators) to {path}")


def _search_beam(args: argparse.Namespace) -> int:
    import pathlib

    from . import obs
    from .search import beam_search

    result = beam_search(
        args.width,
        args.target_depth,
        beam_width=args.beam_width,
        fanout=args.fanout,
        max_expansions=args.max_expansions,
        seed=args.seed,
        objective=args.objective,
    )
    payload = {
        **_search_payload_common(args, "beam"),
        "found": result.found,
        "depth": result.depth if result.found else None,
        "size": result.size if result.found else None,
        "expansions": result.expansions,
        "seed": result.seed,
        "objective": args.objective,
        "beam_width": args.beam_width,
        "fanout": args.fanout,
        "layers": [[list(c) for c in layer] for layer in result.layers],
    }
    # Artifacts first: a consumer closing stdout early (`| head`) must not
    # lose the bench envelope or the --save registry append.
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = obs.write_bench_json("search", payload, directory=out_dir)
    if result.found and args.save:
        _search_record(args, result, origin=f"beam:seed{result.seed}")
    if result.found:
        print(
            f"found a width-{result.width} sorting network: depth={result.depth} "
            f"size={result.size} ({result.expansions} expansions, seed={result.seed})"
        )
        for i, layer in enumerate(result.layers):
            print(f"  layer {i}: {' '.join(f'({a},{b})' for a, b in layer)}")
    else:
        print(
            f"no depth-{args.target_depth} network found for width {args.width} "
            f"within {result.expansions} expansions"
        )
    print(f"wrote {path}")
    return 0 if result.found else 1


def _search_sat(args: argparse.Namespace) -> int:
    import pathlib

    from . import obs
    from .search import SearchDependencyError, sat_search

    try:
        result = sat_search(
            args.width,
            args.target_depth,
            max_rounds=args.max_rounds,
            solver_name=args.solver,
        )
    except SearchDependencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {
        **_search_payload_common(args, "sat"),
        "status": result.status,
        "found": result.found,
        "depth": args.target_depth if result.found else None,
        "size": len(result.comparators) if result.found else None,
        "rounds": result.rounds,
        "num_vars": result.num_vars,
        "num_clauses": result.num_clauses,
        "counterexamples": result.counterexamples,
        "layers": [[list(c) for c in layer] for layer in result.layers],
    }
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = obs.write_bench_json("search", payload, directory=out_dir)
    if result.found and args.save:
        _search_record(args, result, origin=f"sat:d{args.target_depth}")
    if result.found:
        print(
            f"SAT: width-{result.width} depth-{args.target_depth} network with "
            f"{len(result.comparators)} comparators "
            f"({result.rounds} refinement rounds, {result.counterexamples} counterexamples)"
        )
    elif result.status == "unsat":
        print(
            f"UNSAT: no standard-form width-{args.width} sorting network of "
            f"depth {args.target_depth} exists ({result.rounds} rounds)"
        )
    else:
        print(f"inconclusive after {result.rounds} refinement rounds")
    print(f"wrote {path}")
    return 0 if result.found else 1


def _search_show(args: argparse.Namespace) -> int:
    from .search import Registry, default_registry

    registry = Registry.load(args.registry) if args.registry else default_registry()
    rows = [
        {
            "width": e.width,
            "kind": e.kind,
            "depth": e.depth,
            "size": e.size,
            "origin": e.origin,
        }
        for e in sorted(registry, key=lambda e: (e.width, e.kind, e.depth))
    ]
    print(format_table(rows))
    print(f"\n{len(registry)} entries, every one validated exhaustively over all 2^w 0-1 inputs")
    return 0


def _plan(args: argparse.Namespace) -> int:
    from .analysis import plan_network

    plan = plan_network(args.width, args.max_balancer, args.plan_family)
    pad = f" (padded from {plan.requested_width})" if plan.padded else ""
    print(f"width {plan.width}{pad}: {plan.family}{plan.factors}")
    print(
        f"  depth={plan.depth} balancers={plan.size} widest balancer="
        f"{plan.max_balancer_width} (budget {args.max_balancer})"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-networks",
        description="Sorting and counting networks of small depth and arbitrary width "
        "(Busch & Herlihy, SPAA 1999).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("build", help="build a network and print stats")
    pb.add_argument("family", choices=sorted(_BUILDERS))
    pb.add_argument("factors", type=int, nargs="+")
    pb.add_argument("--diagram", action="store_true")
    _add_variant_arg(pb)
    pb.set_defaults(fn=_build)

    pv = sub.add_parser("verify", help="search for counting/sorting violations")
    pv.add_argument("family", choices=sorted(_BUILDERS))
    pv.add_argument("factors", type=int, nargs="+")
    pv.add_argument("--seed", type=int, default=0)
    _add_variant_arg(pv)
    _add_backend_arg(pv)
    pv.set_defaults(fn=_verify)

    pf = sub.add_parser("family", help="factorization family table for a width")
    pf.add_argument("width", type=int)
    pf.add_argument("--family", choices=["K", "L"], default="K")
    pf.add_argument("--max-members", type=int, default=None)
    pf.set_defaults(fn=_family)

    pc = sub.add_parser("compare", help="related-work comparison table")
    pc.add_argument("widths", type=int, nargs="+")
    pc.set_defaults(fn=_compare)

    pt = sub.add_parser("throughput", help="contention model across a family")
    pt.add_argument("width", type=int)
    pt.add_argument("--procs", type=int, default=16)
    pt.add_argument("--ops", type=int, default=20)
    pt.set_defaults(fn=_throughput)

    pe = sub.add_parser("export", help="emit DOT or layered JSON")
    pe.add_argument("family", choices=sorted(_BUILDERS))
    pe.add_argument("factors", type=int, nargs="+")
    pe.add_argument("--format", choices=["dot", "json"], default="dot")
    pe.set_defaults(fn=_export)

    ps = sub.add_parser("smooth", help="observed smoothing constant")
    ps.add_argument("family", choices=sorted(_BUILDERS))
    ps.add_argument("factors", type=int, nargs="+")
    ps.set_defaults(fn=_smooth)

    pl = sub.add_parser("linearize", help="linearizability analysis (paper §6)")
    pl.add_argument("family", choices=sorted(_BUILDERS))
    pl.add_argument("factors", type=int, nargs="+")
    pl.set_defaults(fn=_linearize)

    pa = sub.add_parser("audit", help="layer profile and critical path")
    pa.add_argument("family", choices=sorted(_BUILDERS))
    pa.add_argument("factors", type=int, nargs="+")
    pa.set_defaults(fn=_audit)

    pr = sub.add_parser(
        "profile",
        help="observability: hot-spot profile of build + a workload",
    )
    pr.add_argument(
        "--widths", required=True,
        help="comma-separated balancer-width factors, e.g. 2,3,5",
    )
    pr.add_argument("--construction", choices=sorted(_BUILDERS), default="K")
    pr.add_argument("--workload", choices=["tokens", "contention", "counts"], default="tokens")
    pr.add_argument("--tokens", type=int, default=None, help="token count (tokens workload)")
    pr.add_argument("--scheduler", default="random", help="scheduler name (tokens workload)")
    pr.add_argument("--procs", type=int, default=8, help="processes (contention workload)")
    pr.add_argument("--ops", type=int, default=4, help="ops per process (contention workload)")
    pr.add_argument("--batch", type=int, default=64, help="batch size (counts workload)")
    pr.add_argument(
        "--semantics", choices=["count", "sort"], default="count",
        help="plan kernel the counts workload drives (counts workload)",
    )
    pr.add_argument(
        "--workers", type=int, default=None,
        help="shard the counts batch over N worker processes (counts workload)",
    )
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--top", type=int, default=10, help="balancer rows to print")
    pr.add_argument("--out-dir", default=".", help="where BENCH_profile.json + trace land")
    pr.set_defaults(fn=_profile)

    pserve = sub.add_parser("serve", help="run the TCP counting service")
    _add_service_args(pserve)
    pserve.add_argument("--host", default="127.0.0.1")
    pserve.add_argument("--port", type=int, default=0, help="0 binds an ephemeral port")
    pserve.set_defaults(fn=_serve)

    pcl = sub.add_parser(
        "cluster",
        help="sharded WAL-durable counting cluster: start, status, kill-shard",
    )
    clsub = pcl.add_subparsers(dest="cluster_command", required=True)

    cls_ = clsub.add_parser("start", help="run shards + router in the foreground")
    cls_.add_argument("--shards", type=int, default=2, help="shard processes (residue classes)")
    cls_.add_argument(
        "--wal-dir", required=True,
        help="directory for per-shard WALs and the cluster state file",
    )
    cls_.add_argument("--widths", default="2,3", help="balancer-width factors per shard")
    cls_.add_argument("--construction", choices=["K", "L", "C"], default="K")
    cls_.add_argument("--host", default="127.0.0.1")
    cls_.add_argument("--port", type=int, default=0, help="router port (0 = ephemeral)")
    cls_.add_argument("--max-batch", type=int, default=64)
    cls_.add_argument("--queue-limit", type=int, default=1024)
    cls_.add_argument(
        "--no-fsync", action="store_true",
        help="skip fsync on WAL appends (faster; durable only to the OS cache)",
    )
    cls_.add_argument(
        "--obs", action="store_true",
        help="enable observability (REPRO_OBS) inside every shard",
    )
    cls_.add_argument(
        "--rate", type=float, default=None,
        help="per-client token-bucket rate (tokens/second; default: no limiting)",
    )
    cls_.add_argument(
        "--burst", type=float, default=None,
        help="token-bucket capacity (default 2x rate)",
    )
    cls_.set_defaults(fn=_cluster_start)

    clst = clsub.add_parser("status", help="read the state file and probe the router")
    clst.add_argument("--wal-dir", required=True)
    clst.add_argument("--no-probe", action="store_true", help="skip the live router STATS probe")
    clst.add_argument("--json", action="store_true", help="dump the full STATS JSON")
    clst.set_defaults(fn=_cluster_status)

    clk = clsub.add_parser(
        "kill-shard", help="SIGKILL one shard; the supervisor restarts it via WAL replay"
    )
    clk.add_argument("shard_id", type=int)
    clk.add_argument("--wal-dir", required=True)
    clk.set_defaults(fn=_cluster_kill_shard)

    plg = sub.add_parser(
        "loadgen",
        help="drive a counting service with load; writes BENCH_serve.json",
    )
    _add_service_args(plg)
    plg.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="drive a running server instead of an in-process service",
    )
    plg.add_argument("--mode", choices=["closed", "open"], default="closed")
    plg.add_argument("--clients", type=int, default=16, help="workers / connection pool size")
    plg.add_argument(
        "--ops", type=int, default=50,
        help="closed: requests per client; open: total requests",
    )
    plg.add_argument("--amount", type=int, default=1, help="values per INC request")
    plg.add_argument("--rate", type=float, default=2000.0, help="open-loop arrivals/second")
    plg.add_argument("--seed", type=int, default=0)
    plg.add_argument(
        "--procs", type=int, default=1,
        help="client-side OS processes (>1 needs --connect; seeds offset per process)",
    )
    plg.add_argument(
        "--reconnect", action="store_true",
        help="TCP clients survive dropped connections (backoff + retry)",
    )
    plg.add_argument("--out-dir", default=".", help="where BENCH_serve.json lands")
    plg.set_defaults(fn=_loadgen)

    ptop = sub.add_parser(
        "top", help="live terminal dashboard for a running counting server"
    )
    ptop.add_argument(
        "--connect", required=True, metavar="HOST:PORT", help="server to poll"
    )
    ptop.add_argument("--interval", type=float, default=1.0, help="seconds between polls")
    ptop.add_argument(
        "--iterations", type=int, default=0, help="frames to render (0 = until interrupted)"
    )
    ptop.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen (logs, CI)",
    )
    ptop.set_defaults(fn=_top)

    pz = sub.add_parser(
        "fuzz",
        help="fault injection: mutation kill-matrix, input fuzzing, chaos service",
    )
    zsub = pz.add_subparsers(dest="fuzz_command", required=True)

    zm = zsub.add_parser("mutate", help="inject faults; assert every class is caught")
    zm.add_argument("--seed", type=int, default=0)
    zm.add_argument("--sites", type=int, default=2, help="injection sites per fault class")
    zm.add_argument("--out-dir", default=".", help="where BENCH_fuzz.json lands")
    _add_backend_arg(zm)
    zm.set_defaults(fn=_fuzz_mutate)

    zi = zsub.add_parser("inputs", help="fuzz a network's step property with shrinking")
    zi.add_argument("family", choices=sorted(_BUILDERS))
    zi.add_argument("factors", type=int, nargs="+")
    zi.add_argument("--rounds", type=int, default=200)
    zi.add_argument("--seed", type=int, default=0)
    zi.add_argument("--corpus", default=None, help="corpus directory (default tests/corpus)")
    zi.add_argument("--max-violations", type=int, default=5)
    zi.add_argument(
        "--differential", action="store_true",
        help="also run the differential sorting oracle against a bitonic baseline",
    )
    zi.add_argument("--out-dir", default=".", help="where BENCH_fuzz.json lands")
    zi.set_defaults(fn=_fuzz_inputs)

    zc = zsub.add_parser("chaos", help="chaos-inject a counting service; audit exactly-once")
    zc.add_argument("--widths", default="2,3", help="balancer-width factors, e.g. 2,2,2")
    zc.add_argument("--construction", choices=["K", "L", "C"], default="K")
    zc.add_argument("--requests", type=int, default=1000)
    zc.add_argument("--clients", type=int, default=16)
    zc.add_argument("--seed", type=int, default=0)
    zc.add_argument("--max-batch", type=int, default=64)
    zc.add_argument("--drop-before", type=float, default=0.03)
    zc.add_argument("--drop-after", type=float, default=0.02)
    zc.add_argument("--delay-rate", type=float, default=0.05)
    zc.add_argument("--dup-rate", type=float, default=0.02)
    zc.add_argument("--cancel-rate", type=float, default=0.03)
    zc.add_argument(
        "--inject", choices=["none", "stuck", "state", "shard-kill"], default="none",
        help="exactly-once violation to inject: a stuck balancer (semantic "
        "fault), a silent issuance-state corruption (executor path), or "
        "shard-kill (SIGKILL cluster shards mid-load and audit the WAL "
        "replay); all arm the flight recorder into --out-dir",
    )
    zc.add_argument(
        "--inject-after", type=int, default=5,
        help="batch number at which --inject state corrupts the state",
    )
    zc.add_argument(
        "--shards", type=int, default=2,
        help="shard-kill: cluster size (shard processes)",
    )
    zc.add_argument(
        "--kills", type=int, default=1,
        help="shard-kill: how many SIGKILLs to deal out",
    )
    zc.add_argument("--out-dir", default=".", help="where BENCH_fuzz.json lands")
    zc.set_defaults(fn=_fuzz_chaos)

    pcache = sub.add_parser("cache", help="persistent build/plan cache: stats or clear")
    csub = pcache.add_subparsers(dest="cache_command", required=True)
    for cmd, chelp in (
        ("stats", "entry count, bytes on disk, hit/miss/store/corrupt counters"),
        ("clear", "delete every cached artifact"),
    ):
        cp = csub.add_parser(cmd, help=chelp)
        cp.add_argument(
            "--dir", default=None,
            help="cache directory (default: REPRO_CACHE_DIR or <repo>/.repro_cache)",
        )
        cp.set_defaults(fn=_cache)

    pp = sub.add_parser("plan", help="best family member for a width + balancer budget")
    pp.add_argument("width", type=int)
    pp.add_argument("max_balancer", type=int)
    pp.add_argument("--family", dest="plan_family", choices=["K", "L"], default="K")
    pp.set_defaults(fn=_plan)

    psearch = sub.add_parser(
        "search",
        help="discover depth-optimal base networks (repro.search): beam, sat, show",
    )
    ssub = psearch.add_subparsers(dest="search_command", required=True)

    sbm = ssub.add_parser(
        "beam", help="seeded deterministic beam search (no optional deps)"
    )
    sbm.add_argument("--width", type=int, required=True)
    sbm.add_argument("--target-depth", type=int, required=True)
    sbm.add_argument("--beam-width", type=int, default=32, help="states kept per layer")
    sbm.add_argument("--fanout", type=int, default=12, help="candidate layers per state")
    sbm.add_argument("--max-expansions", type=int, default=20_000, help="search budget")
    sbm.add_argument("--seed", type=int, default=0)
    sbm.add_argument("--objective", choices=["depth", "size"], default="depth")
    sbm.add_argument("--save", default=None, help="append the found network to this registry JSON")
    sbm.add_argument("--out-dir", default=".", help="where BENCH_search.json lands")
    sbm.set_defaults(fn=_search_beam)

    sst = ssub.add_parser(
        "sat",
        help="CNF placement encoding + CEGAR refinement (needs the pysat 'search' extra)",
    )
    sst.add_argument("--width", type=int, required=True)
    sst.add_argument("--target-depth", type=int, required=True)
    sst.add_argument("--max-rounds", type=int, default=64, help="refinement rounds")
    sst.add_argument("--solver", default="g3", help="pysat solver name (default glucose3)")
    sst.add_argument("--save", default=None, help="append the found network to this registry JSON")
    sst.add_argument("--out-dir", default=".", help="where BENCH_search.json lands")
    sst.set_defaults(fn=_search_sat)

    ssh = ssub.add_parser("show", help="print the best-known network registry (validates on load)")
    ssh.add_argument(
        "--registry", default=None,
        help="registry JSON file (default: the built-in seeded registry)",
    )
    ssh.set_defaults(fn=_search_show)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
