"""Benchmark of qheisenberg: four closed-loop workloads, one op at a time.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30          # all four workloads

Run from the root of a checkout.  Each round of a workload runs in a fresh
interpreter (perfbench/round.py), one after another, with no threads;
rounds repeat the same ops until --seconds would be exceeded.  Every time
is scaled by its round's speed factor to reference seconds (see CAL_REF_S
and round.calibrate).  With --trace 0 the result carries the end-to-end
metrics, each a median over the rounds.  With --trace 1, plain and traced
rounds alternate and the result carries the per-layer metrics of the
traced rounds.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics.  The exit code is 1 when a check
failed and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import per_layer_metric_names  # noqa: E402

WORKLOADS = ("algebra", "relations", "certify", "reducible")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))
ROUND_TIMEOUT_S = 170
# calibrate() time of the reference machine (a quiet 2-vCPU VM, Python 3.11)
CAL_REF_S = 0.030


def _spawn(workload: str, seed: int, trace: bool, check: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "round.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(int(trace)),
           "--check", str(int(check))]
    t_spawn = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    t_exit = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} round exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is the system-wide monotonic clock, shared by both processes
    result["setup_s"] = result["t_first"] - t_spawn
    result["round_s"] = t_exit - t_spawn
    # scale the round's times to a machine on which calibrate() takes CAL_REF_S
    result["speed"] = CAL_REF_S / statistics.median(result["cal_s"])
    return result


def op_latencies(rounds: list[dict]) -> list[float]:
    """Each op's median latency over the rounds, in reference seconds."""
    return [statistics.median(column) for column in
            zip(*([t * r["speed"] for t in r["latencies_s"]] for r in rounds))]


def wall(rounds: list[dict]) -> float:
    """Median over the rounds of the summed op time, in reference seconds."""
    return statistics.median(sum(r["latencies_s"]) * r["speed"] for r in rounds)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    plain, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        is_traced = trace and len(traced) < len(plain)
        result = _spawn(workload, seed, is_traced, check=not plain)
        (traced if is_traced else plain).append(result)
        longest = max(longest, result["round_s"])
        done = time.perf_counter() - start + longest > seconds
        if done and (not trace or len(traced) == len(plain)):
            break
    rounds = plain + traced
    errors = [e for r in rounds for e in r["errors"] + r["unexpected"]]
    if len({r["digest"] for r in rounds}) != 1:
        errors.append("rounds disagree on their outputs")
    # a mended float root lets planted ops succeed; their answers are checked
    if any(r["failed"] > r["planted"] for r in rounds):
        errors.append("more failed ops than planted float-root ops")
    summary = {"correct": not errors, "errors": errors,
               "attempted": sum(r["attempted"] for r in rounds),
               "failed": sum(r["failed"] for r in rounds)}
    if trace:
        metrics = {name: statistics.median(r["trace"][name] for r in traced)
                   for name in traced[0]["trace"]}
        metrics["trace.overhead_s"] = wall(traced) - wall(plain)
        units = dict(per_layer_metric_names())
    else:
        latencies = op_latencies(plain)
        metrics = {
            "setup_s": statistics.median(r["setup_s"] * r["speed"]
                                         for r in plain),
            "wall_s": wall(plain),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = dict(END_TO_END)
    summary["metrics"] = {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}
    summary["rounds"] = len(plain), len(traced)
    summary["raw_wall_s"] = statistics.median(sum(r["latencies_s"])
                                              for r in plain)
    summary["speed"] = statistics.median(r["speed"] for r in plain)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "qheisenberg", "__init__.py")):
        print("error: run from the root of a qheisenberg checkout "
              "(src/qheisenberg not found)", file=sys.stderr)
        return 2
    # compile the package once, so no round pays for bytecode
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src');"
                    " import qheisenberg.cli"], check=True, timeout=ROUND_TIMEOUT_S)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = res
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} rounds={res['rounds']} "
              f"speed={res['speed']:.3f} raw_wall_s={res['raw_wall_s']:.4f}")
        for err in res["errors"][:20]:
            print(f"  error: {err}")
        for metric, entry in res["metrics"].items():
            print(f"  {metric:40s} {entry['value']:14.6f} {entry['unit']}")
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": entry for name, res in results.items()
                   for metric, entry in res["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
