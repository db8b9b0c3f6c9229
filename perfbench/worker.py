"""One workload process: set up, print READY, run the timed phase, report.

Started by ``perfbench/run.py`` in a fresh interpreter with the thread pins
already in its environment.  Prints ``READY`` on stdout once set-up is done
(the parent times set-up up to that line), then one JSON line with the
op records summary, the per-layer figures (traced runs) and provenance.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import warnings

from bimatrix.exceptions import BimatrixError

from . import provenance
from .oracle import CheckFailed
from .tracing import NullTracer, Tracer, layer_stats
from .workloads import BUILDERS, Declined, cli_layer_probes

# Every run times at least this many ops, so the tail percentile exists.
MIN_OPS = 11
ROBUSTNESS_LAYERS = ("design.lqr", "design.stabilize", "design.assign_eigenvalues",
                     "design.design_observer")


def tail(durations):
    """The highest percentile with ten samples beyond it: (value, percentile)."""
    ordered = sorted(durations)
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def run_timed(deck, tracer, seconds):
    """Cycle the deck for ``seconds`` of op time; check each output after its op."""
    records = []
    timed = 0.0
    i = 0
    while timed < seconds or len(records) < MIN_OPS:
        op = deck[i % len(deck)]
        with tracer.op(i, op.name, **op.tags):
            t0 = time.perf_counter()
            try:
                out, status = op.run(tracer), "returned"
            except (BimatrixError, Declined) as exc:
                out, status = exc, "declined"
            except Exception as exc:  # an undocumented failure is a benchmark failure
                out, status = exc, "crashed"
            dt = time.perf_counter() - t0
        timed += dt
        miss = None
        if status == "returned":
            status = "ok"
            for layer, check in op.checks:
                with tracer.span("verify." + layer):
                    try:
                        check(out)
                    except CheckFailed as exc:
                        status, miss = "wrong", (layer, str(exc))
                        break
        if tracer.enabled:
            tracer.op_tags[i]["status"] = status
        records.append({"name": op.name, "tags": op.tags, "dt": dt, "status": status,
                        "miss": miss,
                        "error": None if status in ("ok", "wrong") else repr(out)[:300]})
        i += 1
    return records, timed


def robustness(records):
    """Attempts and failures per design call and class, plus stabilize fallbacks."""
    table = {}
    lqr_failed = {}
    fallback = 0
    for r in records:
        if r["name"] not in ROBUSTNESS_LAYERS:
            continue
        t = r["tags"]
        key = f'{r["name"]}|{t["domain"]}|n{t["n"]}|m{t["m"]}|{t["scale"]}'
        row = table.setdefault(key, [0, 0])
        row[0] += 1
        row[1] += r["status"] != "ok"
        if r["name"] == "design.lqr":
            lqr_failed[t["plant_id"]] = r["status"] != "ok"
        elif r["name"] == "design.stabilize" and r["status"] == "ok":
            fallback += lqr_failed.get(t["plant_id"], False)
    return table, fallback


def summarise(records, timed):
    durations = [r["dt"] for r in records]
    ok = sum(r["status"] == "ok" for r in records)
    value, pct = tail(durations)
    return {
        "attempted": len(records),
        "ok": ok,
        "declined": sum(r["status"] == "declined" for r in records),
        "crashed": sum(r["status"] == "crashed" for r in records),
        "wrong": sum(r["status"] == "wrong" for r in records),
        "timed_s": timed,
        "ops_per_s": ok / timed,
        "op_p50_s": statistics.median(durations),
        "op_tail_s": value,
        "op_tail_pct": pct,
        "ok_ratio": ok / len(records),
        "durations": durations,
    }


def layer_metrics(tracer, records):
    """Per-layer figures from the spans (see the table in README.md)."""
    out = {}
    for name, st in layer_stats([s for s in tracer.spans
                                 if not s[3].startswith("verify.")]).items():
        for key in ("calls", "busy_s", "p50_s", "fail", "self_s"):
            out[f"{name}.{key}"] = st[key]
    # a call whose output failed its check is a failed call, too
    for r in records:
        if r["miss"]:
            key = r["miss"][0] + ".fail"
            out[key] = out.get(key, 0) + 1
    by_layer = {}
    for s in tracer.spans:
        by_layer.setdefault(s[3], []).append(s)
    op_tags = tracer.op_tags

    def duration(s):
        return s[5] - s[4]

    lqr_ok = [s for s in by_layer.get("design.lqr", []) if s[6]]
    if lqr_ok:
        out["design.lqr.iterations"] = statistics.mean(s[7]["iterations"] for s in lqr_ok)
        out["design.lqr.residual_max"] = max(s[7]["residual"] for s in lqr_ok)
    for layer in ("design.lqr", "design.stabilize"):
        for s in by_layer.get(layer, []):
            t = op_tags[s[2]]
            key = f'{layer}.fail.{t["domain"]}.n{t["n"]}'
            out[key] = out.get(key, 0) + (t["status"] != "ok")
    _, out["design.stabilize.fallback"] = robustness(records)
    for n in (2, 8, 24):
        sizes = [duration(s) for s in by_layer.get("analysis.structure_report", [])
                 if op_tags[s[2]]["n"] == n]
        if sizes:
            out[f"analysis.structure_report.n{n}.p50_s"] = statistics.median(sizes)
    for layer, key in (("analysis.state_response", "samples_per_s"),
                       ("analysis.SimTrace.write_csv", "rows_per_s")):
        spans = by_layer.get(layer, [])
        if spans:
            samples = sum(op_tags[s[2]]["samples"] for s in spans)
            out[f"{layer}.{key}"] = samples / sum(duration(s) for s in spans)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--root", required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    tmpdir = os.path.join(args.out_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    ctx = {"root": args.root, "tmpdir": tmpdir}
    try:
        with warnings.catch_warnings(record=True) as caught:
            # one record per warning site: the spinning DARE overflows on every
            # step, and printing that to stderr would be timed along with it
            warnings.simplefilter("default")
            result = _run(args, ctx)
        if result is None:
            return 0
        result["warnings"] = sorted({f"{w.category.__name__}: {w.message}"[:160]
                                     for w in caught})
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _run(args, ctx):
    deck = BUILDERS[args.workload](args.seed, ctx)
    try:
        deck[0].run(NullTracer())  # untimed warm-up op
    except (BimatrixError, Declined):
        pass  # a refusal warms up the same code; the timed phase counts it
    print("READY", flush=True)
    if args.setup_only:
        return None
    tracer = Tracer() if args.trace else NullTracer()
    records, timed = run_timed(deck, tracer, args.seconds)
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    ).ru_maxrss / 1024.0
    result = summarise(records, timed)
    result["peak_rss_mb"] = peak_rss_mb
    table, fallback = robustness(records)
    result["robustness"] = table
    result["stabilize_fallback"] = fallback
    result["problems"] = [r for r in records if r["status"] in ("wrong", "crashed")][:20]
    result["provenance"] = provenance.collect(args.root, args.seed)
    if args.trace:
        probes = cli_layer_probes(tracer, ctx) if args.workload == "cli" else {}
        result["layers"] = dict(layer_metrics(tracer, records), **probes)
        spans_path = os.path.join(args.out_dir,
                                  f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        result["spans_file"] = spans_path
    return result


if __name__ == "__main__":
    sys.exit(main())
