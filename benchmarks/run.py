"""pointseq benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 benchmarks/run.py                      # every workload, tracing off
    python3 benchmarks/run.py --workload desk_cls --seed 3 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload ref128_cls --trace 1   # per-layer metrics

Each workload runs in a process of its own (``worker.py``) with the workload
seed as an argument, so a crash or an out-of-memory kill in one is recorded
as a failure while the others still run. The last line of output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (for one
workload) or ``workloads`` (for all). The exit code is 0 only if every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("desk_cls", "desk_seg", "ref128_cls")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: a second one mostly spins on the desk workloads' tiny
# matrices, and on a shared two-CPU host it makes every figure less steady.
BLAS_THREADS = "1"
# A worker still running this long after its measuring time is killed.
GRACE_SECONDS = 90.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run the pointseq benchmark.")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for var in BLAS_THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def worker_command(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]


def failed_result(reason: str) -> dict:
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "error": reason}


def run_worker(command: list[str], env: dict, timeout: float) -> tuple[list[str], dict]:
    """Run one worker; return its output lines and its result.

    A worker that crashes, is killed (for instance by the out-of-memory
    killer) or prints no result yields a failed result with the reason.
    """
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or "")
        return out.splitlines(), failed_result(f"timed out after {timeout:.0f} s")
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if not isinstance(result, dict) or "correct" not in result:
        return lines, failed_result(f"worker exited with code {done.returncode} and no result")
    if done.returncode != 0 and result["correct"]:
        result = failed_result(f"worker exited with code {done.returncode}")
    return lines[:-1], result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pointseq" / "__init__.py").is_file():
        print(f"no pointseq sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    env = worker_env()
    timeout = args.seconds + GRACE_SECONDS
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        lines, result = run_worker(
            worker_command(name, args.seed, args.seconds, args.trace), env, timeout)
        for line in lines:
            print(line)
        if "error" in result:
            print(f"{name} FAILED {result['error']}")
        sys.stdout.flush()
        results[name] = result

    correct = all(r["correct"] for r in results.values())
    if args.workload == "all":
        summary = {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }
    else:
        result = results[args.workload]
        summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
