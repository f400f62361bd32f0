"""Run the benchmark once per seed and report each metric's median and spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload count-wide --seeds 1-10 [--seconds 12] [--trace 0]

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; it is
printed next to the metric's bound from ``BENCHMARK.json``.  Raw results
go to ``--out`` as JSON lines when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if args.out:
            with args.out.open("a") as fh:
                fh.write(json.dumps({"seed": seed, "wall_s": wall, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} wall={wall:.1f}s "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None else f" bound={bound} {'OK' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:44s} median={med:.5g} spread={spread:.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
