"""Command-line front end: analyze, design and simulate systems from JSON files.

Every verb reads a system file, runs the corresponding library routine, and
emits a JSON report whose numeric results carry their own verification
(achieved spectra, residuals, margins).  Reports are deterministic for a
fixed seed apart from the timestamp field.  Exit codes: 0 success, 2
structural infeasibility (uncontrollable, unstabilizable, unobservable),
1 input or numerical failure.
"""

import argparse
import json
import math
import os
import sys as _sys
import time

import numpy as np

from . import __version__
from .core import (
    HermiteBimatrix,
    bimatrix_from_json,
    bimatrix_to_json,
    conjugate_complete,
    cvector_from_json,
    cvector_to_json,
)
from .exceptions import BimatrixError, InfeasibleError
from .systems import system_from_json, system_to_json
from .analysis import (
    PBH_RTOL,
    is_asymptotically_stable,
    state_response,
    structure_report,
)
from .design import (
    DEFAULT_SEED,
    MAX_GRID_STEPS,
    WeightPair,
    _spectrum_mismatch,
    assign_eigenvalues,
    closed_loop,
    design_observer,
    lqr,
    observer_loop,
    stabilize,
)

ENV_SEED = "BIMATRIX_SEED"


def _load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _load_system(path):
    return system_from_json(_load_json(path))


def _inline_or_file(text, name):
    """Accept a literal JSON value or a path to a JSON file."""
    if os.path.isfile(text):
        return _load_json(text)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise ValueError(f"{name}: not a readable file nor valid inline JSON") from None


def _parse_spectrum(text, n_expected):
    raw = _inline_or_file(text, "--spectrum")
    values = cvector_from_json(raw, "spectrum")
    completed = conjugate_complete(values)
    if completed.shape[0] != n_expected:
        raise ValueError(
            f"spectrum holds {completed.shape[0]} values after conjugate completion, "
            f"expected {n_expected}"
        )
    return completed


def _jsonable(value):
    """Render report values: complex -> [re, im], non-finite floats -> None."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return [_jsonable(c.real), _jsonable(c.imag)]
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return f if math.isfinite(f) else None
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _spectrum_json(spectrum):
    return [_jsonable(v) for v in np.asarray(spectrum.values, dtype=complex)]


def _report(verb, sys_obj, results, diagnostics):
    return {
        "verb": verb,
        "system": {
            "n": sys_obj.n,
            "m": sys_obj.m,
            "p": sys_obj.p,
            "domain": sys_obj.domain.value,
        },
        "results": _jsonable(results),
        "diagnostics": _jsonable(diagnostics),
        "tool": {"name": "bimatrix", "version": __version__},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }


def _emit(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        _sys.stdout.write(text)


def _resolve_seed(args):
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get(ENV_SEED)
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def _rank_json(test):
    return {
        "passed": test.passed,
        "margin": test.margin,
        "threshold": test.threshold,
    }


# ---------------------------------------------------------------------------
# Verb handlers
# ---------------------------------------------------------------------------


def _cmd_analyze(args):
    sysm = _load_system(args.system)
    rtol = args.tol if args.tol is not None else PBH_RTOL
    rep = structure_report(sysm, rtol=rtol)
    results = {
        "controllable": rep.controllable.passed,
        "observable": rep.observable.passed,
        "stabilizable": rep.stabilizable.passed,
        "detectable": rep.detectable.passed,
        "stable": rep.stable,
        "spectrum": _spectrum_json(rep.spectrum),
    }
    diagnostics = {
        "margins": {
            "controllable": _rank_json(rep.controllable),
            "observable": _rank_json(rep.observable),
            "stabilizable": _rank_json(rep.stabilizable),
            "detectable": _rank_json(rep.detectable),
        },
        "rank_rtol": rtol,
    }
    return _report("analyze", sysm, results, diagnostics)


def _cmd_place(args):
    sysm = _load_system(args.system)
    gamma = _parse_spectrum(args.spectrum, 2 * sysm.n)
    rng = np.random.default_rng(_resolve_seed(args))
    rtol = args.tol if args.tol is not None else PBH_RTOL
    gain = assign_eigenvalues(sysm, gamma, rng=rng, rtol=rtol)
    achieved = closed_loop(sysm, gain).spectrum()
    deviation = _spectrum_mismatch(achieved.values, gamma)
    results = {
        "gain": bimatrix_to_json(gain),
        "achieved_spectrum": _spectrum_json(achieved),
        "requested_spectrum": [_jsonable(v) for v in gamma],
    }
    diagnostics = {"spectrum_deviation": deviation, "seed": _resolve_seed(args)}
    return _report("place", sysm, results, diagnostics)


def _cmd_stabilize(args):
    sysm = _load_system(args.system)
    rng = np.random.default_rng(_resolve_seed(args))
    rtol = args.tol if args.tol is not None else PBH_RTOL
    gain = stabilize(sysm, rng=rng, rtol=rtol)
    cl = closed_loop(sysm, gain)
    results = {
        "gain": bimatrix_to_json(gain),
        "closed_loop_spectrum": _spectrum_json(cl.spectrum()),
        "closed_loop_stable": is_asymptotically_stable(cl),
    }
    return _report("stabilize", sysm, results, {"seed": _resolve_seed(args)})


def _load_weight(path, n, name):
    if path is None:
        return HermiteBimatrix(np.eye(n))
    bm = bimatrix_from_json(_load_json(path), name)
    return HermiteBimatrix(bm.first, bm.second)


def _cmd_lqr(args):
    sysm = _load_system(args.system)
    q = _load_weight(args.q, sysm.n, "q")
    r = _load_weight(args.r, sysm.m, "r")
    rng = np.random.default_rng(_resolve_seed(args))
    rtol = args.tol if args.tol is not None else PBH_RTOL
    sol = lqr(sysm, WeightPair(q, r), rng=rng, rtol=rtol)
    cl = closed_loop(sysm, sol.gain)
    results = {
        "p": bimatrix_to_json(sol.p),
        "gain": bimatrix_to_json(sol.gain),
        "closed_loop_spectrum": _spectrum_json(cl.spectrum()),
        "closed_loop_stable": is_asymptotically_stable(cl),
    }
    diagnostics = {
        "are_residual": sol.residual,
        "iterations": sol.iterations,
        "seed": _resolve_seed(args),
    }
    return _report("lqr", sysm, results, diagnostics)


def _cmd_observer(args):
    sysm = _load_system(args.system)
    gamma = _parse_spectrum(args.spectrum, 2 * sysm.n)
    rng = np.random.default_rng(_resolve_seed(args))
    rtol = args.tol if args.tol is not None else PBH_RTOL
    gain = design_observer(sysm, gamma, rng=rng, rtol=rtol)
    achieved = (sysm.a + gain @ sysm.c).eigenvalues()
    results = {
        "observer_gain": bimatrix_to_json(gain),
        "error_spectrum": _spectrum_json(achieved),
        "requested_spectrum": [_jsonable(v) for v in gamma],
    }
    diagnostics = {
        "spectrum_deviation": _spectrum_mismatch(achieved.values, gamma),
        "seed": _resolve_seed(args),
    }
    return _report("observer", sysm, results, diagnostics)


def _build_times(sysm, horizon, dt):
    continuous = sysm.domain.is_continuous
    if continuous:
        if dt is None or dt <= 0:
            raise ValueError("continuous simulation requires --dt > 0")
        span = float(horizon) / dt
    else:
        if dt is not None and dt != 1:
            raise ValueError("discrete simulation uses unit steps; omit --dt or pass 1")
        span, dt = float(horizon), 1.0
    # checked before any conversion or allocation; also rejects inf and NaN
    if not span <= MAX_GRID_STEPS:
        raise ValueError(
            f"--horizon must be finite and span at most {MAX_GRID_STEPS:.0e} steps"
        )
    steps = round(span) if continuous else int(span)
    if continuous and steps < 1:
        raise ValueError("--horizon must cover at least one step")
    return np.arange(steps + 1, dtype=float) * dt


def _load_input(arg, times, m):
    if arg is None or arg == "zero":
        return None
    raw = _load_json(arg)
    if isinstance(raw, dict):
        raw = raw.get("values")
    if not isinstance(raw, list):
        raise ValueError("--u file must hold a list of per-step input vectors")
    samples = np.array([cvector_from_json(row, f"u[{k}]") for k, row in enumerate(raw)])
    if samples.ndim == 1:
        samples = samples.reshape(-1, 1)
    if samples.shape != (times.size, m):
        raise ValueError(
            f"input samples must have shape {(times.size, m)}, got {samples.shape}"
        )
    return samples


def _cmd_simulate(args):
    sysm = _load_system(args.system)
    x0 = cvector_from_json(_inline_or_file(args.x0, "--x0"), "x0")
    gain = observer = None
    if args.gain:
        gain = bimatrix_from_json(_load_json(args.gain), "gain")
    if args.observer:
        observer = bimatrix_from_json(_load_json(args.observer), "observer gain")
    times = _build_times(sysm, args.horizon, args.dt)
    u = _load_input(args.u, times, sysm.m)

    observer_states = None
    if observer is not None:
        loop = observer_loop(sysm, observer, gain)
        z0 = np.zeros(sysm.n, dtype=complex)
        trace = state_response(loop, np.concatenate([x0, z0]), times, u)
        observer_states = trace.states[:, sysm.n:]
        states = trace.states[:, : sysm.n]
    elif gain is not None:
        cl = closed_loop(sysm, gain)
        trace = state_response(cl, x0, times, u)
        states = trace.states
    else:
        trace = state_response(sysm, x0, times, u)
        states = trace.states

    # report the actuation actually applied, feedback included, and the
    # matching measured output
    if gain is not None:
        fed_from = observer_states if observer_states is not None else states
        applied = np.array(
            [gain.apply(fed_from[k]) + trace.inputs[k] for k in range(len(trace))]
        )
    else:
        applied = trace.inputs
    outputs = np.array(
        [sysm.c.apply(states[k]) + sysm.d.apply(applied[k]) for k in range(len(trace))]
    )

    trace_path = args.trace or _default_trace_path(args.out)
    with open(trace_path, "w", encoding="utf-8") as f:
        _write_sim_csv(f, trace.times, states, applied, outputs, observer_states)

    final_norm = float(np.linalg.norm(states[-1]))
    results = {
        "trace": trace_path,
        "samples": int(len(trace)),
        "final_state_norm": final_norm,
        "final_state": cvector_to_json(states[-1]),
    }
    if observer_states is not None:
        err = states - observer_states
        results["final_error_norm"] = float(np.linalg.norm(err[-1]))
    return _report("simulate", sysm, results, {"seed": _resolve_seed(args)})


def _default_trace_path(out_path):
    if out_path:
        stem, _ = os.path.splitext(out_path)
        return stem + ".csv"
    return "trace.csv"


def _write_sim_csv(f, times, states, inputs, outputs, observer_states=None):
    groups = [("x", states), ("u", inputs), ("y", outputs)]
    if observer_states is not None:
        groups.append(("z", observer_states))
    cols = ["t"]
    for kind, arr in groups:
        for i in range(arr.shape[1]):
            cols += [f"{kind}{i + 1}_re", f"{kind}{i + 1}_im"]
    f.write(",".join(cols) + "\n")
    for k, t in enumerate(times):
        row = [repr(float(t))]
        for _, arr in groups:
            for v in arr[k]:
                row += [repr(float(v.real)), repr(float(v.imag))]
        f.write(",".join(row) + "\n")


def _cmd_convert(args):
    obj = _load_json(args.system)
    if "real_system" not in obj:
        obj = {"real_system": obj, "convert": True, "domain": obj.get("domain")}
    sysm = system_from_json(obj)
    results = {
        "system": system_to_json(sysm),
        "normal": sysm.is_normal,
        "antilinear": sysm.is_antilinear,
    }
    return _report("convert", sysm, results, {})


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default: ${ENV_SEED} or {DEFAULT_SEED})")
    common.add_argument("--out", default=None, help="write the JSON report here")
    common.add_argument("--tol", type=float, default=None,
                        help="rank-test tolerance override")

    parser = argparse.ArgumentParser(
        prog="bimatrix",
        description="Analyze, design, and simulate conjugate-coupled linear systems.",
    )
    parser.add_argument("--version", action="version", version=f"bimatrix {__version__}")
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("analyze", parents=[common],
                        help="structural and stability report")
    p.add_argument("system")
    p.set_defaults(func=_cmd_analyze)

    p = subs.add_parser("place", parents=[common], help="assign the closed-loop spectrum")
    p.add_argument("system")
    p.add_argument("--spectrum", required=True,
                   help="JSON list of [re, im] pairs, inline or a file path")
    p.set_defaults(func=_cmd_place)

    p = subs.add_parser("stabilize", parents=[common], help="compute a stabilizing gain")
    p.add_argument("system")
    p.set_defaults(func=_cmd_stabilize)

    p = subs.add_parser("lqr", parents=[common], help="quadratic-optimal state feedback")
    p.add_argument("system")
    p.add_argument("--q", default=None, help="state weight pair file (default identity)")
    p.add_argument("--r", default=None, help="input weight pair file (default identity)")
    p.set_defaults(func=_cmd_lqr)

    p = subs.add_parser("observer", parents=[common], help="design a state observer gain")
    p.add_argument("system")
    p.add_argument("--spectrum", required=True,
                   help="desired error spectrum, JSON list of [re, im] pairs")
    p.set_defaults(func=_cmd_observer)

    p = subs.add_parser("simulate", parents=[common], help="simulate and write a CSV trace")
    p.add_argument("system")
    p.add_argument("--gain", default=None, help="state-feedback gain file")
    p.add_argument("--observer", default=None, help="observer gain file")
    p.add_argument("--x0", required=True, help="initial state, JSON [re, im] pairs")
    p.add_argument("--u", default=None, help='input file or "zero" (default zero)')
    p.add_argument("--horizon", type=float, required=True, help="simulation horizon")
    p.add_argument("--dt", type=float, default=None, help="step size (continuous only)")
    p.add_argument("--trace", default=None, help="CSV output path")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("convert", parents=[common],
                        help="fold a real even-dimensional system into pair form")
    p.add_argument("system")
    p.set_defaults(func=_cmd_convert)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except InfeasibleError as exc:
        print(f"bimatrix {args.verb}: infeasible: {exc}", file=_sys.stderr)
        return 2
    except (BimatrixError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"bimatrix {args.verb}: error: {exc}", file=_sys.stderr)
        return 1
    _emit(report, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
