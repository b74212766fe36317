"""One round of one workload, in a fresh interpreter.

run.py starts this script once per round, so every round begins with cold
lru caches, as a command-line user's process does.  The round imports
qheisenberg from the checkout's src/, builds its inputs from the seed,
times every op, reads peak memory, and only then checks its outputs (sympy
is imported after timing ends).  Between ops, about every CAL_EVERY_S
seconds, it times a fixed pure-Python calibration loop that calls nothing
of the program; run.py turns these times into the round's speed factor.
A traced round writes its spans to .bench_out/trace-<workload>-seed<n>.json.
The last line of standard output is one JSON object describing the round.

    python3 perfbench/round.py --workload certify --seed 1 --trace 0 --check 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from fractions import Fraction

clock = time.perf_counter
CAL_EVERY_S = 0.3
OUT_DIR = ".bench_out"


def calibrate() -> float:
    """Seconds taken by a fixed loop of Fraction polynomial products.

    The loop does the same work on every call and uses only the standard
    library, so its time follows the speed the machine gives this process
    at the moment, not the program under test.
    """
    t0 = clock()
    a = [Fraction(i + 1, 2 * i + 3) for i in range(12)]
    b = [Fraction(3 * i - 5, i + 4) for i in range(12)]
    for _ in range(40):
        prod = [Fraction(0)] * 23
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        a = [p / (k + 1) + 1 for k, p in enumerate(prod[:12])]
    return clock() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    import qheisenberg  # noqa: F401  (loads every module before wrapping)
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    ops = workloads.build(args.workload, args.seed)

    outputs, latencies, unexpected, cal_s = [], [], [], []
    failed = 0
    t_first = last_cal = clock()
    for index, op in enumerate(ops, start=1):
        if clock() - last_cal >= CAL_EVERY_S:
            cal_s.append(calibrate())
            last_cal = clock()
        if tracer is not None:
            tracer.op = index
        t0 = clock()
        try:
            out = op.fn()
        except Exception as exc:  # every op failure is counted, never fatal
            out = exc
            if op.planted and workloads.FLOAT_ROOT_MESSAGE in str(exc):
                failed += 1
            else:
                unexpected.append(f"{op.kind} {op.label}: {exc!r}")
        latencies.append(clock() - t0)
        outputs.append(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cal_s.append(calibrate())

    digest = hashlib.sha256()
    for out in outputs:
        digest.update(repr(out).encode())
    result = {
        "t_first": t_first, "latencies_s": latencies, "cal_s": cal_s,
        "attempted": len(ops), "failed": failed,
        "planted": sum(op.planted for op in ops), "unexpected": unexpected,
        "peak_rss_mb": peak_rss_mb, "digest": digest.hexdigest(), "errors": [],
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["trace"]["cache.entries"] = tracing.cache_entries()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"), t_first)
    if args.check:
        import oracles
        done = [(op, out) for op, out in zip(ops, outputs)
                if not isinstance(out, Exception)]
        result["errors"] = oracles.CHECKS[args.workload](
            [op for op, _ in done], [out for _, out in done])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
