"""Run one benchmark workload and print its result as the last line of stdout.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload inc-durable-tcp --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the workload with observability off and reports the
end-to-end metrics.  ``--trace 1`` runs the traced layer suite (see
``layers.py``) and reports the per-layer metrics.  The line before the
result is a JSON record with the run's provenance and details.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BenchError, Result, provenance, require_source, scratch_dir  # noqa: E402

WORKLOADS = ("inc-durable-tcp", "inc-wide-inproc", "count-wide", "sort-wide", "prove-24")


def run_workload(workload: str, seed: int, seconds: float, scratch: Path) -> Result:
    """The untraced run of one workload: end-to-end metrics."""
    import evalwide
    import incload

    result = Result()
    if workload == "inc-durable-tcp":
        incload.run_durable_tcp(result, scratch, seed, seconds)
    elif workload == "inc-wide-inproc":
        incload.run_wide_inproc(result, seed, seconds)
    elif workload == "count-wide":
        evalwide.run_count(result, seed, seconds)
    elif workload == "sort-wide":
        evalwide.run_sort(result, seed, seconds)
    else:
        evalwide.run_proof(result, seed, seconds)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        require_source()
        with scratch_dir() as scratch:
            if args.trace:
                import layers

                result = layers.run_traced(args.seed, args.seconds, scratch)
            else:
                result = run_workload(args.workload, args.seed, args.seconds, scratch)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result.record = {
        "provenance": provenance(args.workload, args.seed, args.seconds, bool(args.trace),
                                 result.record.pop("config", {})),
        **result.record,
    }
    result.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
