"""Run one benchmark workload in this process.

Started by ``run.py`` once per workload, so each workload's peak RSS is its
own process's. Prints one line per metric and, as the last line, the result
object ``{"correct", "attempted", "failed", "metrics"}``. Exits 1 if a
correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the package path above)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def describe(workload: str, name: str, unit: str, values: list, lower_is_better: bool) -> str:
    """Median, quartiles, sample count and, with 20+ samples, the worse-side
    value that has ten samples beyond it."""
    line = f"{workload} {name} = {statistics.median(values):.6g} {unit} (n={len(values)}"
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f", p25={q1:.6g}, p75={q3:.6g}"
    n = len(values)
    if n >= 20:
        ordered = sorted(values)
        tail = ordered[n - 11] if lower_is_better else ordered[10]
        pct = 100.0 * (n - 10) / n if lower_is_better else 100.0 * 10 / n
        line += f", p{pct:.0f}={tail:.6g}"
    return line + ")"


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    if args.trace:
        workloads.OUT_DIR.mkdir(exist_ok=True)
        trace_path = workloads.OUT_DIR / f"{workload.name}-seed{args.seed}.trace.jsonl"
        metrics = workloads.measure_traced(workload, args.seed, checks, trace_path)
        for name, metric in metrics.items():
            print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
        print(f"{workload.name} spans written to {os.path.relpath(trace_path)}")
    else:
        samples = workloads.measure(workload, args.seed, args.seconds, checks)
        metrics = workloads.e2e_metrics(samples)
        for name, unit in workloads.E2E_METRICS.items():
            higher = name.endswith("_per_s")
            print(describe(workload.name, name, unit, getattr(samples, name), not higher))
    for failure in checks.failures:
        print(f"{workload.name} FAILED {failure}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
