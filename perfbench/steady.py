"""Steadiness of the benchmark: repeated runs, medians and quartiles.

    python3 perfbench/steady.py --workload certify --seeds 1-10 --seconds 30
    python3 perfbench/steady.py --seeds 1,1 --seconds 5 --trace 1

Runs perfbench/run.py once per seed for each chosen workload, one run at a
time, and prints for every metric its median, first and third quartile
and spread = (Q3 - Q1) / median, with statistics.quantiles(values, n=4).
It also prints the share of failed ops of each run, which must not vary.
With --trace 1 it reports which per-layer counts (*.calls and
linalg.echelon_*) differ between the runs; with one seed repeated they
must not.  The bounds in BENCHMARK.json were chosen from this output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
COUNTS = ("calls", "echelon_admitted", "echelon_admit_ratio",
          "echelon_row_bits_max")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(workload: str, runs: list[dict], trace: int) -> None:
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"{workload}: {len(runs)} runs, failed share per run {shares}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        if trace and name.split(".")[-1] in COUNTS:
            if len(set(values)) > 1:
                print(f"  {name:40s} differs between runs: {values}")
            continue
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:40s} median {med:12.5f}  q1 {q1:12.5f}  q3 {q3:12.5f}"
              f"  spread {spread:7.4f}  values "
              + " ".join(f"{v:.4g}" for v in values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seeds", default="1-10",
                        help="list and ranges, e.g. 1-10 or 1,1")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        runs = [run_once(name, seed, args.seconds, args.trace)
                for seed in parse_seeds(args.seeds)]
        if not all(r["correct"] for r in runs):
            print(f"{name}: a run reported correct=false")
            return 1
        summarize(name, runs, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
