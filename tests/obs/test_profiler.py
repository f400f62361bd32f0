"""Integration tests: instrumentation hooks, profiler, and the no-op mode.

Covers the acceptance criterion that with observability disabled the
simulators produce byte-identical results and record nothing, and that with
it enabled the profiler yields coherent hot-spot tables and a valid
``BENCH_profile.json`` + JSON-lines trace.
"""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest

import repro.obs as obs
from repro.core.plan import plan_executor
from repro.networks import k_network
from repro.sim import ContentionSimulator, ThreadedCounter, propagate_counts, run_tokens


@pytest.fixture
def net():
    return k_network([2, 3, 5])


class TestByteIdenticalResults:
    def test_propagate_counts_identical_on_and_off(self, net):
        x = np.random.default_rng(0).integers(0, 50, size=(32, net.width))
        obs.disable()
        off = propagate_counts(net, x)
        with obs.capture():
            on = propagate_counts(net, x)
        assert off.dtype == on.dtype
        assert np.array_equal(off, on)
        assert off.tobytes() == on.tobytes()

    def test_token_sim_identical_on_and_off(self, net):
        counts = [3] * net.width
        obs.disable()
        off = run_tokens(net, counts, "random", seed=11)
        with obs.capture():
            on = run_tokens(net, counts, "random", seed=11)
        assert off.exit_order == on.exit_order
        assert off.steps == on.steps
        assert np.array_equal(off.output_counts, on.output_counts)

    def test_contention_sim_identical_on_and_off(self, net):
        obs.disable()
        off = ContentionSimulator(net).run(8, 3, collect_latencies=True)
        with obs.capture():
            on = ContentionSimulator(net).run(8, 3, collect_latencies=True)
        assert off.ops == on.ops
        assert off.makespan == on.makespan
        assert off.total_latency == on.total_latency
        assert off.total_wait == on.total_wait
        assert np.array_equal(off.latencies, on.latencies)

    def test_nothing_recorded_while_disabled(self, net):
        obs.disable()
        reg, spans = obs.MetricsRegistry(), obs.SpanRecorder()
        prev_reg = obs.set_default_registry(reg)
        prev_spans = obs.set_default_span_recorder(spans)
        try:
            x = np.random.default_rng(1).integers(0, 9, size=(4, net.width))
            propagate_counts(net, x)
            run_tokens(net, [2] * net.width, "fifo", seed=0)
            ContentionSimulator(net).run(4, 2)
            ThreadedCounter(net).run_threads(2, 10)
        finally:
            obs.set_default_registry(prev_reg)
            obs.set_default_span_recorder(prev_spans)
        assert reg.names() == []
        assert len(spans) == 0 and spans.started == 0


class TestInstrumentationHooks:
    def test_build_and_compile_events(self):
        # Executors are memoized per equal network, and every single
        # 6-balancer network (K(2,3), K(3,2), K(6)) equals this one: an equal
        # network an earlier test left in a reference cycle would hand this
        # build its executor, and nothing would be lowered or looked up.
        gc.collect()
        with obs.capture() as (reg, spans):
            net = k_network([2, 3])
            propagate_counts(net, np.zeros(net.width, dtype=np.int64))
        builds = spans.completed("build")
        assert builds, "NetworkBuilder.finish should trace builds"
        k_builds = [s for s in builds if s.fields["network"] == "K(2,3)"]
        assert k_builds and all(s.status == "ok" and s.dur_s > 0 for s in k_builds)
        assert reg.get("core.builds").value >= 1
        # the plan was lowered (fresh lowering or a hit on an equal network)
        assert (
            reg.get("core.plan_lowerings") is not None
            or reg.get("core.plan_cache_hits") is not None
        )

    def test_token_visit_counters_match_hops(self, net):
        total = 4 * net.width
        with obs.capture() as (reg, spans):
            result = run_tokens(net, [4] * net.width, "random", seed=3)
        visits = reg.get("sim.token.balancer_visits").values
        assert visits.shape[0] == net.size
        # every token exits; hops = sum of per-balancer visits
        assert int(reg.get("sim.token.exits").value) == total
        assert int(reg.get("sim.token.hops").value) == int(visits.sum())
        assert int(visits.sum()) + total == result.steps
        # latency histogram saw one observation per token
        assert reg.get("sim.token.latency_steps").total == total
        (run_ev,) = spans.completed("token_run")
        assert run_ev.fields["tokens"] == total
        assert len(spans.completed("token_exit")) == total

    def test_contention_vectors_and_latency(self, net):
        with obs.capture() as (reg, spans):
            stats = ContentionSimulator(net).run(8, 3, collect_latencies=True)
        visits = reg.get("sim.contention.balancer_visits").values
        waits = reg.get("sim.contention.balancer_wait").values
        # every op crosses at least one and at most depth balancers
        assert stats.ops <= int(visits.sum()) <= stats.ops * net.depth
        assert waits.sum() == pytest.approx(stats.total_wait)
        assert reg.get("sim.contention.latency").total == stats.ops
        assert len(spans.completed("contention_run")) == 1

    def test_threaded_counter_publishes_visits(self, net):
        with obs.capture() as (reg, _):
            counter = ThreadedCounter(net)
            stats = counter.run_threads(n_threads=4, ops_per_thread=25)
        assert sorted(stats.all_values()) == list(range(100))
        visits = reg.get("sim.threaded.balancer_visits").values
        assert 100 <= int(visits.sum()) <= 100 * net.depth
        assert int(reg.get("sim.threaded.ops").value) == 100

    def test_counts_layer_timing(self, net):
        x = np.random.default_rng(0).integers(0, 99, size=(16, net.width))
        with obs.capture() as (reg, spans):
            propagate_counts(net, x)
        times = reg.get("sim.counts.layer_seconds").values
        assert times.shape[0] == net.depth
        assert np.all(times >= 0)
        # Per-layer time lives in the vector only: the sweep adds one
        # executor span to the ring, not one span per layer.
        assert len(spans.completed("executor")) == 1
        assert {s.kind for s in spans.completed()} <= {"plan_lower", "executor"}
        assert reg.get("sim.counts.batch_size").total == 1
        assert int(reg.get("sim.counts.vectors").value) == 16


class TestProfiler:
    @pytest.mark.parametrize("workload", ["tokens", "contention", "counts"])
    def test_workloads_produce_coherent_rows(self, workload):
        report = obs.profile_network(
            lambda: k_network([2, 3, 5]), workload=workload, tokens=60, procs=4, ops=2,
            batch=8,
        )
        net = k_network([2, 3, 5])
        assert report.network["width"] == 30
        assert len(report.layer_rows) == net.depth
        assert len(report.balancer_rows) == net.size
        # balancer rows are sorted hottest-first (contention ranks by wait)
        if workload == "tokens":
            v = [r["visits"] for r in report.balancer_rows]
            assert v == sorted(v, reverse=True)
        elif workload == "contention":
            w = [(r["wait"], r["visits"]) for r in report.balancer_rows]
            assert w == sorted(w, reverse=True)
        # tables render
        assert "layer" in report.layer_table()
        assert "balancer" in report.balancer_table(5)

    @pytest.mark.parametrize("semantics", ["count", "sort"])
    def test_counts_workload_per_semantics(self, semantics):
        batch = 8
        report = obs.profile_network(
            lambda: k_network([2, 3, 5]), workload="counts", semantics=semantics,
            batch=batch,
        )
        net = k_network([2, 3, 5])
        assert report.semantics == semantics
        assert report.bench_payload()["semantics"] == semantics
        assert len(report.layer_rows) == net.depth
        assert all(row["time_ms"] >= 0 for row in report.layer_rows)
        assert [r["visits"] for r in report.balancer_rows] == [batch] * net.size

    def test_sharded_counts_profile_reports_no_layer_times(self, net):
        """The sharded sweep does not time layers, so the rows carry no
        ``time_ms`` rather than a column of zeros."""
        try:
            report = obs.profile_network(net, workload="counts", batch=64, workers=2)
        finally:
            plan_executor(net).close_pool()
        assert report.summary["workers"] == 2
        assert len(report.layer_rows) == net.depth
        assert not any("time_ms" in row for row in report.layer_rows)

    def test_profile_summary_and_payload(self):
        report = obs.profile_network(lambda: k_network([2, 3]), workload="tokens")
        assert report.summary["build_s"] > 0 and report.summary["lower_s"] > 0
        assert report.summary["trace_spans"] == len(report.spans)
        assert report.spans.capacity == 65_536
        (build,) = report.spans.completed("profile.build")
        assert build.fields["network"] == "K(2,3)"
        assert len(report.spans.completed("profile.lower")) == 1
        assert report.summary["steps"] > 0
        payload = report.bench_payload()
        text = json.dumps(payload)  # JSON-serializable
        assert '"workload": "tokens"' in text
        assert payload["metrics"]

    def test_profile_restores_global_state(self):
        before_reg = obs.default_registry()
        obs.profile_network(lambda: k_network([2, 2]), workload="counts", batch=4)
        assert obs.default_registry() is before_reg
        assert not obs.enabled()

    def test_existing_network_accepted(self, net):
        report = obs.profile_network(net, workload="counts", batch=4)
        assert report.network["name"] == net.name

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            obs.profile_network(lambda: k_network([2, 2]), workload="nope")

    def test_build_must_be_network(self):
        with pytest.raises(TypeError):
            obs.profile_network(lambda: 42, workload="counts")


class TestBenchExport:
    def test_write_bench_json(self, tmp_path):
        path = obs.write_bench_json(
            "unittest", {"rows": [{"a": 1, "b": np.int64(2)}]}, directory=tmp_path
        )
        assert path.name == "BENCH_unittest.json"
        data = json.loads(path.read_text())
        assert data["bench"] == "unittest"
        assert data["schema"] == obs.export.BENCH_SCHEMA_VERSION
        assert data["rows"] == [{"a": 1, "b": 2}]
        assert "created_unix" in data and "repro_version" in data
        assert "git_commit" in data and "family" in data  # schema-2 stamps

    def test_write_jsonl(self, tmp_path):
        path = obs.write_jsonl(tmp_path / "x.jsonl", [{"a": 1}, {"b": np.float64(2.5)}])
        lines = path.read_text().splitlines()
        assert [json.loads(l) for l in lines] == [{"a": 1}, {"b": 2.5}]

    def test_repo_root_finds_pyproject(self):
        assert (obs.repo_root() / "pyproject.toml").exists()
