"""Benchmark of the qahd CLI: three workloads, checked outputs, layer timings.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One closed loop: a worker process calls `qahd.cli.run(argv)` on one
generated input at a time (see worker.py) with BLAS pinned to one thread.
Every output is then checked in this process against values computed apart
from the program (checks.py).  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  A traced run
first runs the workload untraced for half the time, then replays the same
rounds in a fresh traced worker, so the two wall times give the tracing
overhead.  Results and per-operation trace records are written under
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402

SETUP_REPEATS = 5  # before and again after the timed run
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import qahd.cli; print(time.perf_counter() - t)"
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

# metric -> (unit, what, layer); what is one of
#   incl | self (ms per operation), calls (per operation), count (per operation)
PER_LAYER = {
    "expr.parse_ms": ("ms/op", "incl", "expr.parse"),
    "expr.eval_expr_ms": ("ms/op", "incl", "expr.eval_expr"),
    "expr.eval_expr_calls": ("calls/op", "calls", "expr.eval_expr"),
    "logform.canonicalize_ms": ("ms/op", "self", "logform.canonicalize"),
    "logform.atoms_out": ("atoms/op", "count", "logform.atoms_out"),
    "logform.reduced_ms": ("ms/op", "incl", "logform.reduced"),
    "logform.reduced_calls": ("calls/op", "calls", "logform.reduced"),
    "logform.eval_form_ms": ("ms/op", "incl", "logform.eval_form"),
    "logform.eval_form_calls": ("calls/op", "calls", "logform.eval_form"),
    "operators.verify_qahd_ms": ("ms/op", "self", "operators.verify_qahd"),
    "operators.op_power_ms": ("ms/op", "incl", "operators.op_power"),
    "operators.dilate_ms": ("ms/op", "incl", "operators.dilate"),
    "operators.delta_ms": ("ms/op", "incl", "operators.delta"),
    "operators.euler_ms": ("ms/op", "incl", "operators.euler"),
    "pairing.pair_ms": ("ms/op", "incl", "pairing.pair"),
    "pairing.pair_calls": ("calls/op", "calls", "pairing.pair"),
    "pairing.nodes": ("nodes/op", "count", "pairing.nodes"),
    "pairing.rel_err_max": ("ratio", None, None),
    "identify.sample_ray_ms": ("ms/op", "incl", "identify.sample_ray"),
    "identify.prony_recover_ms": ("ms/op", "incl", "identify.prony_recover"),
    "identify.probes": ("probes/op", "count", "identify.probes"),
    "cli.emit_ms": ("ms/op", "incl", "cli.emit"),
    "cli.output_bytes": ("bytes/op", None, None),
    "trace.overhead_ratio": ("ratio", None, None),
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREADS)
    env.pop("PYTHONPATH", None)
    return env


def import_times(count: int) -> list:
    """Seconds to import qahd.cli in each of `count` fresh interpreters."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)], env=child_env(),
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip()))
    return times


def run_worker(workload: str, seed: int, limit: list, trace: bool, deadline: float):
    """Run worker.py to completion; (operation records, final record).

    A worker still running `deadline` seconds after it started is killed,
    which fails the run rather than letting a hung program stall it.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)] + limit + (["--trace"] if trace else [])
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env()) as proc:
        timer = threading.Timer(deadline, proc.kill)
        timer.start()
        try:
            # keep raw lines while the worker runs; decode them after it ends
            lines = proc.stdout.readlines()
            code = proc.wait()
        finally:
            timer.cancel()
            proc.kill()
    if code != 0 or not lines:
        raise RuntimeError(f"worker exited with {code}")
    final = json.loads(lines[-1])
    if not final.get("done"):
        raise RuntimeError("worker ended without its final record")
    return [json.loads(line) for line in lines[:-1]], final


def judge(workload: str, seed: int, records: list):
    """Check every record; (results, failed count, faults Counter, unexpected)."""
    import checks

    rounds: dict = {}
    results = []
    faults = Counter()
    unexpected = []
    for rec in records:
        if rec["round"] not in rounds:
            rounds[rec["round"]] = corpus.round_ops(workload, seed, rec["round"])
        op = rounds[rec["round"]][rec["slot"]]  # the fault input is last: slot -1
        ok, detail = checks.check(op, rec["code"], rec["stdout"])
        results.append((op, ok, detail))
        if not ok:
            if op.fault:
                faults[op.fault] += 1
            else:
                unexpected.append((op, detail))
    failed = sum(1 for _, ok, _ in results if not ok)
    return results, failed, faults, unexpected


def end_to_end(records: list, final: dict, setup_s: float) -> dict:
    ms = [1000.0 * rec["elapsed"] for rec in records]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(ms) / (sum(ms) / 1000.0),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mb": final["maxrss_kb"] / 1024.0,
    }


def per_layer(untraced: list, traced: list, final: dict, results: list) -> dict:
    ops = len(traced)
    totals = final["trace"]
    errors = [d for op, ok, d in results if ok and op.verb == "pair"]
    out = {
        "cli.output_bytes": sum(len(r["stdout"].encode()) for r in traced) / ops,
        "trace.overhead_ratio": (sum(r["elapsed"] for r in traced)
                                 / sum(r["elapsed"] for r in untraced)),
        "pairing.rel_err_max": max(errors, default=0.0),
    }
    for name, (_, what, key) in PER_LAYER.items():
        if what in ("incl", "self"):
            incl, self_s, _ = totals["layers"][key]
            out[name] = 1000.0 * (incl if what == "incl" else self_s) / ops
        elif what == "calls":
            out[name] = totals["layers"][key][2] / ops
        elif what == "count":
            out[name] = totals["counts"].get(key, 0) / ops
    return {name: out[name] for name in PER_LAYER}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = seconds + 90.0
    if trace:
        untraced, first = run_worker(workload, seed, ["--seconds", str(seconds / 2)],
                                     False, deadline)
        traced, final = run_worker(workload, seed, ["--rounds", str(first["rounds"])],
                                   True, deadline)
        records = untraced + traced
    else:
        import_times(1)  # compiles the bytecode that every later import reuses
        setup = import_times(SETUP_REPEATS)
        records, final = run_worker(workload, seed, ["--seconds", str(seconds)],
                                    False, deadline)
        setup_s = statistics.median(setup + import_times(SETUP_REPEATS))
    results, failed, faults, unexpected = judge(workload, seed, records)
    if trace:
        values = per_layer(untraced, traced, final, results)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        values = end_to_end(records, final, setup_s)
        units = END_TO_END

    print(f"workload {workload}, seed {seed}, trace {int(trace)}: "
          f"{len(records)} operations attempted, {failed} failed")
    for name, count in sorted(faults.items()):
        print(f"  fault {name}: {count} failed ({corpus.FAULTS[name]})")
    for op, detail in unexpected[:5]:
        print(f"  UNEXPECTED failure, {op.verb} slot {op.slot}: {detail}: {op.argv}",
              file=sys.stderr)
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        with open(RESULTS / f"{stem}.trace.jsonl", "w") as fh:
            for rec in traced:
                fh.write(json.dumps({k: rec[k] for k in ("round", "slot", "code",
                                                         "elapsed", "trace")}) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qahd" / "cli.py").is_file():
        print(f"qahd sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        results = []
        for workload in corpus.WORKLOADS:
            for trace in (False, True):
                result = run_workload(workload, args.seed, args.seconds, trace)
                results.append(result)
                print(json.dumps({"workload": workload, "trace": int(trace), **result}))
        return 0 if all(r["correct"] for r in results) else 1
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
