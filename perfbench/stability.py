#!/usr/bin/env python3
"""Stability mode: run one workload k times and report each metric's spread.

Runs the command of BENCHMARK.json (from the repository root) k times on one
workload, each with its own seed, and prints for every end-to-end metric the
median, the first and third quartiles (Python's statistics.quantiles with
n=4), the spread (q3 - q1) / median and the metric's bound, so bounds can be
set from measurement. Exits non-zero if a run fails or a spread exceeds its
bound.

    python3 perfbench/stability.py --workload olap_mem --runs 10
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"seed {seed}: {result['failed']} failed operations")
    steal = [line.split(":")[1].strip() for line in lines
             if line.startswith("cpu time stolen")]
    return result, (steal[0] if steal else "n/a")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="defaults to run_seconds")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    values = {name: [] for name in metrics}
    for k in range(args.runs):
        seed = args.first_seed + k
        result, steal = run_once(spec, args.workload, seed, seconds, 0)
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        print(f"run {k + 1}/{args.runs} seed {seed} (host steal {steal}): "
              + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
              flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    steady = True
    for name, metric in metrics.items():
        series = values[name]
        med = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = metric["bound"]
        if spread <= bound / 3:
            verdict = "ok"
        elif spread <= bound:
            verdict = "within bound, above a third of it"
        else:
            verdict = "TOO WIDE"
            steady = False
        print(f"{name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.3f} {bound:>6.2f}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
