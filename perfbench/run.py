"""Benchmark entry point: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every workload runs in fresh Python
processes with OPENBLAS/OMP/MKL threads pinned to 1.  With ``--trace 0`` the
run sets the workload up five times (four set-up-only processes and the
measured one), reports the median set-up time, and prints the end-to-end
metrics.  With ``--trace 1`` it runs the workload untraced and then traced
for half the time each, and prints the per-layer metrics and the tracing
overhead (traced over untraced time of the ops both halves ran).  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("design", "analysis", "trajectory", "cli")
SETUPS = 5
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Whole run, set-ups included, must end well inside three minutes.
RUN_LIMIT_S = 170.0


class WorkerFailed(Exception):
    pass


def worker_env():
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    return env


def run_worker(args, seconds, trace, setup_only, deadline):
    """Start one workload process; returns (set-up seconds, result or None)."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT, "--out-dir", OUT_DIR]
    if setup_only:
        cmd.append("--setup-only")
    log_path = os.path.join(OUT_DIR, f"worker-{args.workload}-{os.getpid()}.log")
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                                stderr=log, text=True)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        with open(log_path, encoding="utf-8") as f:
            tail = f.read()[-2000:]
        raise WorkerFailed(f"worker exited {code}:\n{tail}")
    os.remove(log_path)
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def metric_specs(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_robustness(result):
    table = result["robustness"]
    if not table:
        print("robustness: this workload makes no lqr/stabilize/placement/observer calls")
        return
    print("robustness (attempts, failures) per call | domain | n | m | scale:")
    for key in sorted(table):
        attempts, failures = table[key]
        print(f"  {key:<58} {attempts:>4} {failures:>4}")
    print(f"  stabilize fallback (stabilize verified where lqr failed): "
          f"{result['stabilize_fallback']}")


def print_problems(results):
    for result in results:
        for r in result["problems"]:
            print(f"  {r['status']}: {r['name']} {r['tags']} "
                  f"{r['miss'] or r['error']}", file=sys.stderr)


def untraced(args, deadline):
    setups = []
    for _ in range(SETUPS - 1):
        setups.append(run_worker(args, args.seconds, 0, True, deadline)[0])
    setup_s, result = run_worker(args, args.seconds, 0, False, deadline)
    setups.append(setup_s)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": result["ops_per_s"],
        "op_p50_s": result["op_p50_s"],
        "op_tail_s": result["op_tail_s"],
        "ok_ratio": result["ok_ratio"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"workload {args.workload}: {result['attempted']} ops in {result['timed_s']:.2f} s "
          f"timed; ok {result['ok']}, declined {result['declined']}, "
          f"wrong {result['wrong']}, crashed {result['crashed']}")
    print(f"set-up times (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"op_tail_s is the p{result['op_tail_pct']:.1f} op time, "
          f"10 of {result['attempted']} ops beyond it")
    return values, [result], {"setups_s": setups}


def traced(args, deadline):
    half = args.seconds / 2.0
    _, plain = run_worker(args, half, 0, False, deadline)
    _, result = run_worker(args, half, 1, False, deadline)
    values = dict(result["layers"])
    # both halves start at the top of the same deck: compare the ops they share
    shared = min(len(plain["durations"]), len(result["durations"]))
    values["trace.overhead_ratio"] = (sum(result["durations"][:shared])
                                      / sum(plain["durations"][:shared]))
    print(f"workload {args.workload} traced: {result['attempted']} ops, "
          f"spans in {result['spans_file']}")
    return values, [plain, result], {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bimatrix", "__init__.py")):
        print("perfbench: no library source at src/bimatrix; run from a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        values, results, extra = (traced if args.trace else untraced)(args, deadline)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, unit in metric_specs(kind):
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
        print(f"  {name:<52} {fmt(metrics[name]['value']):>14} {unit}")
    print_robustness(results[-1])
    print_problems(results)
    for w in results[-1]["warnings"]:
        print(f"captured warning: {w}")
    print("provenance: " + json.dumps(results[-1]["provenance"], sort_keys=True))

    wrong = sum(r["wrong"] for r in results)
    crashed = sum(r["crashed"] for r in results)
    line = {
        "correct": wrong == 0 and crashed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": wrong + crashed,
        "metrics": metrics,
    }
    report = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, all_values=values, runs=results, **extra)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
