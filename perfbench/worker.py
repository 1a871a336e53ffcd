"""Runs one workload's operations through `qahd.cli.run` in this process.

Started by run.py, one process per workload run, so that its peak resident
size belongs to the program alone: it imports only the standard library,
the generator and qahd (numpy).  Each operation's stdout is captured and
only the `cli.run` call is timed.  One JSON line per operation goes to the
real stdout, then a final line with the round count, `ru_maxrss` and, when
traced, the per-layer totals.

    python3 perfbench/worker.py --workload symbolic --seed 1 --seconds 10
    python3 perfbench/worker.py --workload symbolic --seed 1 --rounds 4 --trace
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import corpus  # noqa: E402
from qahd import cli  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--rounds", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    out = sys.stdout
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    rounds = 0
    while True:
        for op in corpus.round_ops(args.workload, args.seed, rounds):
            before = tracer.snapshot() if tracer else None
            buf = io.StringIO()
            sys.stdout = buf
            try:
                t0 = time.perf_counter()
                code = cli.run(op.argv)
                elapsed = time.perf_counter() - t0
            finally:
                sys.stdout = out
            record = {"round": rounds, "slot": op.slot, "code": code,
                      "elapsed": elapsed, "stdout": buf.getvalue()}
            if tracer:
                record["trace"] = _delta(before, tracer.snapshot())
            out.write(json.dumps(record) + "\n")
        rounds += 1
        if args.rounds is not None:
            if rounds >= args.rounds:
                break
        elif time.perf_counter() - start >= args.seconds:
            break
    final = {"done": True, "rounds": rounds,
             "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        tracer.uninstall()
        final["trace"] = tracer.snapshot()
    out.write(json.dumps(final) + "\n")
    out.flush()
    return 0


def _delta(before: dict, after: dict) -> dict:
    layers = {
        layer: [a - b for a, b in zip(after["layers"][layer], before["layers"][layer])]
        for layer in after["layers"]
    }
    counts = {k: v - before["counts"].get(k, 0) for k, v in after["counts"].items()}
    return {"layers": layers, "counts": counts}


if __name__ == "__main__":
    sys.exit(main())
