"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestBuild:
    def test_build_k(self, capsys):
        assert main(["build", "K", "2", "3", "4"]) == 0
        out = capsys.readouterr().out
        assert "K(2,3,4)" in out
        assert "24" in out

    def test_build_with_diagram(self, capsys):
        assert main(["build", "K", "2", "2", "--diagram"]) == 0
        assert "y0" in capsys.readouterr().out

    def test_build_baseline(self, capsys):
        assert main(["build", "bitonic", "8"]) == 0
        assert "Bitonic[8]" in capsys.readouterr().out

    def test_build_r(self, capsys):
        assert main(["build", "R", "3", "4"]) == 0
        assert "R(3,4)" in capsys.readouterr().out


class TestVerify:
    def test_verify_counting_network(self, capsys):
        assert main(["verify", "K", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "no violation found" in out

    def test_verify_bubble_fails(self, capsys):
        assert main(["verify", "bubble", "4"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out

    def test_verify_prints_minimized_witness(self, capsys):
        """A failing verify prints a locally-minimal violating input, not
        just the raw (often huge) search witness."""
        import numpy as np

        from repro.baselines import bubble_network
        from repro.sim import propagate_counts
        from repro.verify import step_mask

        assert main(["verify", "bubble", "6"]) == 1
        out = capsys.readouterr().out
        assert "minimized witness" in out
        line = next(l for l in out.splitlines() if "minimized witness" in l)
        vec = np.array(eval(line.split("input ")[1].split(" -> ")[0]), dtype=np.int64)
        # The minimized witness still violates the step property and is small.
        net = bubble_network(6)
        assert not bool(step_mask(propagate_counts(net, vec[None, :]))[0])
        assert int(vec.sum()) <= 10


class TestFamily:
    def test_family_table(self, capsys):
        assert main(["family", "12"]) == 0
        out = capsys.readouterr().out
        assert "3x2x2" in out
        assert "Pareto" in out


class TestCompare:
    def test_compare(self, capsys):
        assert main(["compare", "8"]) == 0
        out = capsys.readouterr().out
        assert "Bitonic[8]" in out


class TestThroughput:
    def test_throughput_table(self, capsys):
        assert main(["throughput", "8", "--procs", "4", "--ops", "2"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            main(["build", "Z", "2"])


class TestExport:
    def test_dot(self, capsys):
        assert main(["export", "K", "2", "2"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_json(self, capsys):
        assert main(["export", "K", "2", "3", "--format", "json"]) == 0
        out = capsys.readouterr().out
        import json

        assert json.loads(out)["width"] == 6


class TestSmooth:
    def test_counting_network_reports_one(self, capsys):
        assert main(["smooth", "K", "2", "2", "2"]) == 0
        assert "smoothness=1" in capsys.readouterr().out


class TestLinearize:
    def test_finds_counterexample(self, capsys):
        assert main(["linearize", "K", "2", "2"]) == 0
        out = capsys.readouterr().out
        assert "sequential executions linearizable: True" in out
        assert "counterexample" in out


class TestAudit:
    def test_profile_and_path(self, capsys):
        assert main(["audit", "K", "2", "2", "2"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "occupancy" in out


class TestProfile:
    def test_tokens_workload_writes_artifacts(self, capsys, tmp_path, monkeypatch):
        import json

        assert (
            main(
                [
                    "profile", "--widths", "2,3,5", "--construction", "K",
                    "--workload", "tokens", "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "K(2,3,5)" in out
        assert "per-layer hot spots" in out
        assert "balancers" in out
        data = json.loads((tmp_path / "BENCH_profile.json").read_text())
        assert data["bench"] == "profile"
        assert data["network"]["width"] == 30
        assert len(data["layers"]) == data["network"]["depth"]
        trace_lines = (tmp_path / "BENCH_profile_trace.jsonl").read_text().splitlines()
        assert trace_lines
        for line in trace_lines:
            json.loads(line)

    def test_contention_workload(self, capsys, tmp_path):
        assert (
            main(
                [
                    "profile", "--widths", "2,3", "--workload", "contention",
                    "--procs", "4", "--ops", "2", "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        assert "throughput" in capsys.readouterr().out

    def test_counts_workload(self, capsys, tmp_path):
        assert (
            main(
                [
                    "profile", "--widths", "2,2", "--workload", "counts",
                    "--batch", "8", "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        assert "time_ms" in capsys.readouterr().out

    def test_token_semantics_is_not_a_choice(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "profile", "--widths", "2,2", "--workload", "counts",
                    "--semantics", "token", "--out-dir", str(tmp_path),
                ]
            )
        assert exc.value.code == 2

    def test_profile_leaves_obs_disabled(self, tmp_path):
        import repro.obs as obs

        main(["profile", "--widths", "2,2", "--out-dir", str(tmp_path)])
        assert not obs.enabled()

    def test_bad_widths(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["profile", "--widths", " ", "--out-dir", str(tmp_path)])


class TestPlan:
    def test_exact(self, capsys):
        assert main(["plan", "64", "16"]) == 0
        out = capsys.readouterr().out
        assert "K(4, 4, 4)" in out

    def test_padded(self, capsys):
        assert main(["plan", "34", "8"]) == 0
        assert "padded from 34" in capsys.readouterr().out


class TestFactorValidation:
    """Degenerate factors (< 2) must be rejected with a clear message."""

    @pytest.mark.parametrize("argv", [
        ["build", "K", "2", "1", "3"],
        ["build", "K", "0"],
        ["build", "L", "-2", "3"],
        ["build", "bitonic", "1"],
        ["verify", "K", "1", "2"],
        ["verify", "R", "0", "4"],
        ["export", "K", "2", "0"],
        ["smooth", "K", "1"],
        ["audit", "K", "2", "-1"],
    ])
    def test_factors_below_two_exit(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert "factors must be integers >= 2" in str(exc.value)

    def test_profile_widths_below_two_exit(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--widths", "1,2", "--out-dir", str(tmp_path)])
        assert "factors must be integers >= 2" in str(exc.value)

    def test_non_integer_widths_exit(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--widths", "2,x", "--out-dir", str(tmp_path)])
        assert "integer" in str(exc.value)

    def test_valid_factors_still_work(self, capsys):
        assert main(["build", "K", "2", "2"]) == 0


class TestLoadgen:
    def test_in_process_writes_bench_serve(self, capsys, tmp_path):
        import json

        assert (
            main(
                [
                    "loadgen", "--widths", "2,3", "--clients", "6", "--ops", "8",
                    "--seed", "1", "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "exactly_once = True" in out
        data = json.loads((tmp_path / "BENCH_serve.json").read_text())
        assert data["bench"] == "serve"
        assert data["family"] == "K"
        summary = data["summary"]
        assert summary["exactly_once"] is True
        assert summary["tokens"] == 48
        assert summary["throughput"] > 0
        assert summary["latency_p50_s"] is not None
        assert summary["latency_p99_s"] is not None
        assert summary["mean_batch_size"] > 1
        assert data["batch_size_hist"]

    def test_open_loop_mode(self, capsys, tmp_path):
        assert (
            main(
                [
                    "loadgen", "--mode", "open", "--ops", "30", "--rate", "5000",
                    "--clients", "4", "--seed", "2", "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        assert "mode = open" in capsys.readouterr().out

    def test_plan_mode_pads_width(self, capsys, tmp_path):
        assert (
            main(
                [
                    "loadgen", "--width", "34", "--max-balancer", "8",
                    "--clients", "4", "--ops", "4", "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # 34 = 2*17 has no in-budget K factorization; the plan pads up.
        assert "width=34" not in out
        assert "exactly_once = True" in out

    def test_bad_connect_spec_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["loadgen", "--connect", "nonsense", "--out-dir", str(tmp_path)])


class TestFuzz:
    def test_mutate_writes_complete_kill_matrix(self, capsys, tmp_path):
        from repro.obs import read_bench_json

        assert main(["fuzz", "mutate", "--seed", "42", "--sites", "1",
                     "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "kill matrix" in out
        assert "complete=True" in out
        data = read_bench_json(tmp_path / "BENCH_fuzz.json")
        assert data["bench"] == "fuzz" and data["mode"] == "mutate"
        assert data["summary"]["complete"] is True
        assert data["summary"]["escaped"] == 0
        # one matrix row per fault class
        faults = {row["fault"] for row in data["matrix"]}
        from repro.faults import FAULT_CLASSES

        assert faults == set(FAULT_CLASSES)

    def test_inputs_clean_on_counting_network(self, capsys, tmp_path):
        from repro.obs import read_bench_json

        assert main(["fuzz", "inputs", "K", "2", "2", "--rounds", "10",
                     "--corpus", str(tmp_path / "empty"),
                     "--out-dir", str(tmp_path)]) == 0
        data = read_bench_json(tmp_path / "BENCH_fuzz.json")
        assert data["mode"] == "inputs" and data["clean"] is True

    def test_inputs_differential_non_power_of_two_width(self, capsys, tmp_path):
        """--differential must work at any width: the bitonic oracle only
        exists for powers of two, so width 6 uses the general Batcher."""
        from repro.obs import read_bench_json

        assert main(["fuzz", "inputs", "K", "2", "3", "--rounds", "10",
                     "--differential",
                     "--corpus", str(tmp_path / "empty"),
                     "--out-dir", str(tmp_path)]) == 0
        data = read_bench_json(tmp_path / "BENCH_fuzz.json")
        assert data["clean"] is True and data["differential_mismatches"] == 0

    def test_inputs_fails_on_bubble_with_shrunk_witness(self, capsys, tmp_path):
        from repro.obs import read_bench_json

        assert main(["fuzz", "inputs", "bubble", "6", "--rounds", "5",
                     "--corpus", str(tmp_path / "empty"),
                     "--out-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out and "shrunk from" in out
        data = read_bench_json(tmp_path / "BENCH_fuzz.json")
        assert data["clean"] is False and data["violations"]

    def test_chaos_exactly_once(self, capsys, tmp_path):
        from repro.obs import read_bench_json

        assert main(["fuzz", "chaos", "--widths", "2,2", "--requests", "200",
                     "--clients", "4", "--seed", "3",
                     "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "exactly-once: True" in out
        data = read_bench_json(tmp_path / "BENCH_fuzz.json")
        assert data["mode"] == "chaos"
        assert data["exactly_once"] is True and data["escapes"] == []
        assert data["token_check"] is None
        assert data["issued"] >= 200

    def test_fuzz_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["fuzz"])


class TestServeLoadgenTCP:
    def test_serve_then_loadgen_over_tcp(self, capsys, tmp_path):
        """End-to-end: a real server process driven via --connect."""
        import json
        import os
        import socket
        import subprocess
        import sys
        import time

        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--widths", "2,3", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "serving" in line, line
            port = int(line.split(" on ")[1].split()[0].rsplit(":", 1)[1])
            deadline = time.time() + 10
            while time.time() < deadline:
                try:
                    socket.create_connection(("127.0.0.1", port), 0.2).close()
                    break
                except OSError:
                    time.sleep(0.05)
            assert (
                main(
                    [
                        "loadgen", "--connect", f"127.0.0.1:{port}",
                        "--clients", "4", "--ops", "6", "--out-dir", str(tmp_path),
                    ]
                )
                == 0
            )
            data = json.loads((tmp_path / "BENCH_serve.json").read_text())
            assert data["summary"]["exactly_once"] is True
            assert data["summary"]["tokens"] == 24
        finally:
            proc.terminate()
            proc.wait(timeout=10)
