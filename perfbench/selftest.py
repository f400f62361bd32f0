"""Self-test of the benchmark itself, in a few seconds per workload.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that

* a short run of every workload ``run.py`` knows (``inc-wide-inproc``
  included) passes its correctness gates and emits exactly the end-to-end
  metrics of ``BENCHMARK.json``, each with its unit;
* a short traced run emits every per-layer metric with its unit;
* the exactly-once gate trips on a ``repro.faults`` mutant (two output
  wires swapped) behind the in-process service: every ``ExactlyOnceError`` is
  counted as a failed request and the run is marked incorrect;
* the benchmark refuses, with a non-zero exit and no result line, to run in
  a directory that holds only ``BENCHMARK.json`` and the benchmark;
* no run leaves scratch files behind.

Exits non-zero when any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, SCRATCH_PARENT, Result, require_source, scratch_dir  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def run_bench(workload: str, seconds: float, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    return proc


def expect_metrics(result: dict, specs: list[dict], what: str) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    check(got == want, f"{what}: metrics and units match BENCHMARK.json")
    check(all(isinstance(v["value"], float) for v in result["metrics"].values()),
          f"{what}: every value is a number")


def short_runs() -> None:
    for name in WORKLOADS:
        proc = run_bench(name, 2, 0)
        if proc.returncode != 0:
            check(False, f"{name}: exit 0 ({proc.stderr.strip()[-300:]})")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"{name}: correct, attempted {result['attempted']}, failed {result['failed']}")
        expect_metrics(result, SPEC["end_to_end"], name)
    proc = run_bench(SPEC["workloads"][0]["name"], 3, 1)
    if proc.returncode != 0:
        check(False, f"traced run: exit 0 ({proc.stderr.strip()[-300:]})")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(result["correct"], "traced run: correct (gates, stage reconciliation)")
    expect_metrics(result, SPEC["per_layer"], "traced run")


def mutant_gate() -> None:
    import incload
    from repro.faults import swap_outputs

    def mutant():
        # Output wires 0 and w-1 swapped: after any token count that is not a
        # multiple of the width they hold different counts, so the very first
        # batch hands out the wrong values.
        net = incload.wide_network()
        return swap_outputs(net, 0, net.width - 1)

    result = Result()
    with scratch_dir():
        incload.run_wide_inproc(
            result, seed=7, seconds=1.0,
            net_factory=mutant,
        )
    load = result.record["load"]
    check(load["errors"].get("ExactlyOnceError", 0) == load["failed"] > 0,
          f"mutant: every failure is an ExactlyOnceError ({load['errors']})")
    check(load["fail_frac"] == 1.0, f"mutant: inc_fail_frac is 1.0 ({load['fail_frac']})")
    check(not result.correct, "mutant: run marked failed")


def refuses_without_source() -> None:
    SCRATCH_PARENT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=SCRATCH_PARENT))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(SPEC["workloads"][0]["name"], 1, 0, cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"bare directory: exit {proc.returncode}, no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            SCRATCH_PARENT.rmdir()
        except OSError:
            pass


def main() -> int:
    require_source()
    refuses_without_source()
    mutant_gate()
    short_runs()
    check(not SCRATCH_PARENT.exists(), "no scratch directory left behind")
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
