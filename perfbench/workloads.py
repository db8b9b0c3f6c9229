"""The four workloads: decks of ops built from the seed, and their checks.

An op is one unit of timed work.  ``run(tracer)`` calls into the library
and returns its outputs; ``checks`` is a list of ``(layer, fn)`` pairs run on
those outputs after the op, outside the timed phase.  A deck is cycled until
the run's time is up.

Every workload builds its plants from ``numpy.random.default_rng([seed,
class, round])``, so adding a class never changes the plants of another.
"""

import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy.linalg as sla

from bimatrix import (
    HermiteBimatrix,
    SimTrace,
    WeightPair,
    antilinear_controllable,
    antilinear_lqr_continuous,
    antilinear_lqr_discrete,
    antilinear_lyapunov_reduced,
    antilinear_observable,
    antilinear_stabilizable_discrete,
    assign_eigenvalues,
    design_observer,
    is_asymptotically_stable,
    lqr,
    lqr_cost,
    solve_lyapunov,
    stabilize,
    state_response,
    structure_report,
    system_from_json,
    transition_pair,
)

from . import oracle as orc
from .oracle import pair_rep, require

# Exact-algebra comparisons (products, inverses, exponentials, powers).
ALGEBRA_RTOL = 1e-9
# Backward error allowed of a Lyapunov solution.
LYAP_RTOL = 1e-10
# Trajectories stepped by the library against the oracle's stepping.
TRAJ_RTOL = 1e-8
# Samples per trajectory op, chosen so that every op costs about the same at
# this commit (~0.17 s on a 2-core x86-64 box): the op median then sits inside
# one population instead of between two.
SAMPLES = 4000
COST_STEPS = 2800
CSV_ROWS = {2: 10000, 8: 5000}


class Declined(Exception):
    """The program refused the input with its documented error path."""


class Op:
    __slots__ = ("name", "tags", "run", "checks")

    def __init__(self, name, tags, run, checks):
        self.name, self.tags, self.run, self.checks = name, tags, run, checks


def _rng(seed, *keys):
    return np.random.default_rng([seed, *keys])


def _interleave(groups):
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def _tags(plant, **extra):
    return {"domain": plant.domain, "n": plant.n, "m": plant.m, "scale": plant.scale,
            "kind": plant.kind, **extra}


# -- design ------------------------------------------------------------------------

# Continuous n=16 is left out: its lqr time is bimodal (0.5-1.1 s, or ~6 s when
# the Newton loop spins to its cap), so one spinning draw would swing a run.
DESIGN_GENERAL = [("continuous", "raw", (2, 8)), ("discrete", "raw", (2, 8, 16)),
                  ("discrete", "rho1.1", (2, 8, 16))]
DESIGN_ANTILINEAR = [("continuous", "raw", (2, 8)), ("discrete", "raw", (2, 8)),
                     ("discrete", "rho1.1", (2, 8))]
DESIGN_ROUNDS = 6


def _design_ops(plant, rng):
    system = plant.sys
    tags = _tags(plant, plant_id=id(plant))
    if plant.kind == "antilinear":
        a2, b2 = system.a.second, system.b.second
        eye_n, eye_m = np.eye(plant.n), np.eye(plant.m)
        if plant.continuous:
            name, fn, args = ("design.antilinear_lqr_continuous", antilinear_lqr_continuous,
                              (a2, b2, HermiteBimatrix(eye_n), eye_m))
        else:
            name, fn, args = ("design.antilinear_lqr_discrete", antilinear_lqr_discrete,
                              (a2, b2, eye_n, eye_m))

        def check(sol):
            orc.check_riccati(plant, pair_rep(sol.p), pair_rep(sol.gain), name)

        return [Op(name, tags, lambda tr: tr.call(name, fn, *args), [(name, check)])]

    place_targets = orc.stable_targets(rng, plant.n, plant.continuous)
    observer_targets = orc.stable_targets(rng, plant.n, plant.continuous)

    def run_lqr(tr):
        sol = tr.call("design.lqr", lqr, system)
        tr.tag(iterations=sol.iterations, residual=sol.residual)
        return sol

    def check_lqr(sol):
        orc.check_riccati(plant, pair_rep(sol.p), pair_rep(sol.gain), "lqr")

    def check_place(gain):
        orc.check_spectrum(plant.a, plant.b, pair_rep(gain), place_targets, "placement")

    def check_observer(gain):
        orc.check_spectrum(plant.a, pair_rep(gain), plant.c, observer_targets, "observer")

    def check_lyapunov(p):
        a_cl = pair_rep(plant.closed_loop().a)
        res = orc.lyapunov_residual(a_cl, pair_rep(p), plant.c.T @ plant.c, plant.continuous)
        require(res <= LYAP_RTOL, f"Lyapunov backward error {res:.1e}")

    ops = [
        Op("design.lqr", tags, run_lqr, [("design.lqr", check_lqr)]),
        Op("design.stabilize", tags, lambda tr: tr.call("design.stabilize", stabilize, system),
           [("design.stabilize",
             lambda k: orc.check_stabilizing(plant, pair_rep(k), "stabilize"))]),
        Op("design.assign_eigenvalues", tags,
           lambda tr: tr.call("design.assign_eigenvalues", assign_eigenvalues, system,
                              place_targets),
           [("design.assign_eigenvalues", check_place)]),
        Op("design.design_observer", tags,
           lambda tr: tr.call("design.design_observer", design_observer, system,
                              observer_targets),
           [("design.design_observer", check_observer)]),
    ]
    if plant.riccati() is not None:
        closed = plant.closed_loop()
        ops.append(Op("analysis.solve_lyapunov", tags,
                      lambda tr: tr.call("analysis.solve_lyapunov", solve_lyapunov, closed),
                      [("analysis.solve_lyapunov", check_lyapunov)]))
    return ops


def _round_plants(seed, table, kind, rnd):
    """One plant per (domain, scale, n, m) of the table, the table's rows interleaved."""
    groups = []
    for gi, (domain, scale, sizes) in enumerate(table):
        group = []
        for n in sizes:
            for m in (1, 2):
                rng = _rng(seed, gi, n, m, rnd, kind == "antilinear")
                plant = orc.draw_plant(rng, n, m, domain, kind, scale, need_are=False)
                group.append((plant, rng))
        groups.append(group)
    return _interleave(groups)


def build_design(seed, ctx):
    deck = []
    for rnd in range(DESIGN_ROUNDS):
        general = _round_plants(seed, DESIGN_GENERAL, "general", rnd)
        anti = _round_plants(seed, DESIGN_ANTILINEAR, "antilinear", rnd)
        for plant, rng in _interleave([general, anti]):
            deck.extend(_design_ops(plant, rng))
    return deck


# -- analysis ----------------------------------------------------------------------

# Five classes per size: with an odd count of equally weighted classes the op
# median falls in the middle of one class, not on the jump between two.
ANALYSIS_CLASSES = [("general", "continuous", "raw"), ("general", "discrete", "raw"),
                    ("antilinear", "continuous", "raw"), ("antilinear", "discrete", "rho0.9"),
                    ("normal", "continuous", "raw")]
ANALYSIS_SIZES = (2, 8, 24)
ANALYSIS_ROUNDS = 3
CONTINUOUS_TIMES = (0.05, 0.2, 0.5)
DISCRETE_TIMES = (1, 3, 8)


def _analysis_op(plant):
    system = plant.sys
    a = system.a
    times = CONTINUOUS_TIMES if plant.continuous else DISCRETE_TIMES
    anti = plant.kind == "antilinear"
    a2, b2, c2 = system.a.second, system.b.second, system.c.second
    eye = np.eye(plant.n)

    def run(tr):
        out = {
            "report": tr.call("analysis.structure_report", structure_report, system),
            "stable": tr.call("analysis.is_asymptotically_stable", is_asymptotically_stable,
                              system),
            "spectrum": tr.call("systems.CxSystem.spectrum", system.spectrum),
            "transitions": [tr.call("analysis.transition_pair", transition_pair, system, t)
                            for t in times],
            "matmul": tr.call("core.Bimatrix.matmul", a.__matmul__, a),
            "inverse": tr.call("core.Bimatrix.inverse", a.inverse),
            "expm": tr.call("core.Bimatrix.expm", a.expm, 0.1),
            "eigenvalues": tr.call("core.Bimatrix.eigenvalues", a.eigenvalues),
        }
        if anti:
            out["anti_ctrb"] = tr.call("analysis.antilinear_controllable",
                                       antilinear_controllable, a2, b2)
            out["anti_obsv"] = tr.call("analysis.antilinear_observable",
                                       antilinear_observable, a2, c2)
            out["anti_stab"] = tr.call("analysis.antilinear_stabilizable_discrete",
                                       antilinear_stabilizable_discrete, a2, b2)
            if not plant.continuous:
                # identity weight: the stability test the reduced equation serves
                out["anti_lyap"] = tr.call("analysis.antilinear_lyapunov_reduced",
                                           antilinear_lyapunov_reduced, a2, eye)
        return out

    def check_report(out):
        rep = out["report"]
        stable = orc.is_stable(plant.eigs, plant.continuous)
        # generated plants are controllable and observable (oracle), so also
        # stabilizable and detectable
        require(rep.controllable.passed and rep.observable.passed
                and rep.stabilizable.passed and rep.detectable.passed,
                "structure report denies a property the oracle confirmed")
        require(rep.stable == stable, "structure report stability flag is wrong")
        gap = orc.spectrum_gap(rep.spectrum.values, plant.eigs)
        require(gap <= ALGEBRA_RTOL, f"reported spectrum off by {gap:.1e}")

    def check_stable(out):
        require(out["stable"] == orc.is_stable(plant.eigs, plant.continuous),
                "stability verdict is wrong")

    def check_spectrum(out):
        gap = orc.spectrum_gap(out["spectrum"].values, plant.eigs)
        require(gap <= ALGEBRA_RTOL, f"spectrum off by {gap:.1e}")

    def check_transitions(out):
        for t, tp in zip(times, out["transitions"]):
            if plant.continuous:
                want = sla.expm(t * plant.a)
            else:
                want = np.linalg.matrix_power(plant.a, t)
            got = orc.real_rep(tp.phi1, tp.phi2)
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            require(err <= ALGEBRA_RTOL, f"transition pair at t={t} off by {err:.1e}")

    def check_algebra(out):
        ar = plant.a
        err = orc.rel_err(pair_rep(out["matmul"]), ar @ ar)
        require(err <= ALGEBRA_RTOL, f"pair product off by {err:.1e}")
        x = pair_rep(out["inverse"])
        err = np.linalg.norm(ar @ x - np.eye(ar.shape[0])) / (
            np.linalg.norm(ar) * np.linalg.norm(x))
        require(err <= ALGEBRA_RTOL, f"pair inverse backward error {err:.1e}")
        err = orc.rel_err(pair_rep(out["expm"]), sla.expm(0.1 * ar))
        require(err <= ALGEBRA_RTOL, f"pair exponential off by {err:.1e}")
        gap = orc.spectrum_gap(out["eigenvalues"].values, plant.eigs)
        require(gap <= ALGEBRA_RTOL, f"pair eigenvalues off by {gap:.1e}")

    def check_antilinear(out):
        require(bool(out["anti_ctrb"]) == orc.controllable(plant),
                "reduced controllability verdict is wrong")
        require(bool(out["anti_obsv"]) == orc.observable(plant),
                "reduced observability verdict is wrong")
        bad = orc.bad_eigs(plant.eigs, continuous=False)
        require(bool(out["anti_stab"]) == orc.controllable(plant, bad),
                "reduced stabilizability verdict is wrong")
        if "anti_lyap" in out:
            p = out["anti_lyap"]
            m0 = np.conj(a2) @ a2
            w = eye
            res = np.linalg.norm(m0.conj().T @ p @ m0 - p + w) / (
                np.linalg.norm(w) + (np.linalg.norm(m0) ** 2 + 1.0) * np.linalg.norm(p))
            require(res <= LYAP_RTOL, f"reduced Lyapunov backward error {res:.1e}")
            require(np.linalg.eigvalsh((p + p.conj().T) / 2)[0] > 0,
                    "reduced Lyapunov solution is not positive definite")

    checks = [("analysis.structure_report", check_report),
              ("analysis.is_asymptotically_stable", check_stable),
              ("systems.CxSystem.spectrum", check_spectrum),
              ("analysis.transition_pair", check_transitions),
              ("core.Bimatrix", check_algebra)]
    if anti:
        checks.append(("analysis.antilinear", check_antilinear))
    return Op("analysis.op", _tags(plant), run, checks)


def build_analysis(seed, ctx):
    deck = []
    for rnd in range(ANALYSIS_ROUNDS):
        for n in ANALYSIS_SIZES:
            for ci, (kind, domain, scale) in enumerate(ANALYSIS_CLASSES):
                rng = _rng(seed, ci, n, rnd)
                deck.append(_analysis_op(orc.draw_plant(rng, n, 2, domain, kind, scale,
                                                         need_are=False)))
    return deck


# -- trajectory --------------------------------------------------------------------

TRAJECTORY_CLASSES = [("continuous", "raw"), ("discrete", "rho1.1")]
TRAJECTORY_SIZES = (2, 8)
TRAJECTORY_ROUNDS = 2


def _zoh_dt(plant_a):
    """Power-of-two step resolving the fastest closed-loop mode 50 times over."""
    fastest = float(np.max(np.abs(np.linalg.eigvals(plant_a))))
    return 2.0 ** math.floor(math.log2(0.02 / fastest))


def _trajectory_ops(plant, rng, ctx):
    closed = plant.closed_loop()
    a_cl = pair_rep(closed.a)
    p_ref, k_ref = plant.riccati()
    gain = orc.fold(k_ref)
    weights = WeightPair.identity(plant.n, plant.m)
    x0 = rng.standard_normal(plant.n) + 1j * rng.standard_normal(plant.n)
    rows = CSV_ROWS[plant.n]
    u_all = 0.1 * (rng.standard_normal((rows, plant.m))
                   + 1j * rng.standard_normal((rows, plant.m)))
    if plant.continuous:
        dt = _zoh_dt(a_cl)
        horizon, cost_dt = COST_STEPS * dt, dt
        grid = np.arange(rows) * dt
    else:
        dt = 1.0
        horizon, cost_dt = COST_STEPS, None
        grid = np.arange(rows, dtype=float)
    times, u = grid[:SAMPLES], u_all[:SAMPLES]
    states_all, outputs_all = orc.simulate(a_cl, plant.b, plant.c, plant.d, x0, u_all, dt,
                                           plant.continuous)
    states, outputs = states_all[:SAMPLES], outputs_all[:SAMPLES]
    trace = SimTrace(grid, states_all, u_all, outputs_all)
    csv_path = os.path.join(ctx["tmpdir"], "trace.csv")

    def check_response(out):
        scale = max(1.0, float(np.max(np.abs(states))))
        err = max(float(np.max(np.abs(out.states - states))),
                  float(np.max(np.abs(out.outputs - outputs)))) / scale
        require(err <= TRAJ_RTOL, f"state_response off the stepping oracle by {err:.1e}")

    def check_cost(cost):
        # the regulator's value function drops by exactly the accrued stage cost
        xr0 = orc.stack(x0)
        if plant.continuous:
            xr_end = sla.expm(a_cl * horizon) @ xr0
            rtol = 1e-3
        else:
            xr_end = np.linalg.matrix_power(a_cl, COST_STEPS) @ xr0
            rtol = TRAJ_RTOL
        want = float(xr0 @ p_ref @ xr0 - xr_end @ p_ref @ xr_end)
        require(abs(cost - want) <= rtol * abs(want),
                f"lqr_cost {cost:.6e} against x0'Px0 identity {want:.6e}")

    def run_csv(tr):
        with open(csv_path, "w", encoding="utf-8") as f:
            tr.call("analysis.SimTrace.write_csv", trace.write_csv, f)
        return csv_path

    def check_csv(path):
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        require(len(lines) == rows + 1, f"CSV has {len(lines)} lines, want {rows + 1}")
        last = [float(v) for v in lines[-1].split(",")]
        want = [grid[-1]]
        for arr in (states_all, u_all, outputs_all):
            for v in arr[-1]:
                want += [v.real, v.imag]
        require(last == want, "CSV last row does not round-trip")

    return [
        Op("analysis.state_response", _tags(plant, samples=SAMPLES),
           lambda tr: tr.call("analysis.state_response", state_response, closed, x0, times, u),
           [("analysis.state_response", check_response)]),
        Op("design.lqr_cost", _tags(plant, samples=COST_STEPS),
           lambda tr: tr.call("design.lqr_cost", lqr_cost, plant.sys, weights, gain, x0,
                              horizon, cost_dt),
           [("design.lqr_cost", check_cost)]),
        Op("analysis.SimTrace.write_csv", _tags(plant, samples=rows), run_csv,
           [("analysis.SimTrace.write_csv", check_csv)]),
    ]


def build_trajectory(seed, ctx):
    deck = []
    for rnd in range(TRAJECTORY_ROUNDS):
        for n in TRAJECTORY_SIZES:
            for ci, (domain, scale) in enumerate(TRAJECTORY_CLASSES):
                rng = _rng(seed, ci, n, rnd)
                plant = orc.draw_plant(rng, n, 1, domain, "general", scale)
                deck.extend(_trajectory_ops(plant, rng, ctx))
    return deck


# -- cli -----------------------------------------------------------------------------

CLI_CLASSES = [("continuous", "raw"), ("discrete", "rho1.1")]
CLI_SIZES = (2, 4)
CLI_VERBS = ("analyze", "place", "stabilize", "lqr", "observer", "simulate", "convert")
CLI_SIM_STEPS = 2000
CLI_TIMEOUT_S = 120


def _cmatrix_json(mat):
    mat = np.asarray(mat, dtype=complex)
    return {"rows": mat.shape[0], "cols": mat.shape[1],
            "data": [[float(v.real), float(v.imag)] for v in mat.ravel()]}


def _cvector_json(vec):
    return [[float(v.real), float(v.imag)] for v in np.asarray(vec, dtype=complex)]


def _pair_from_json(obj):
    def mat(o):
        flat = np.array([complex(re, im) for re, im in o["data"]])
        return flat.reshape(o["rows"], o["cols"])
    return mat(obj["first"]), mat(obj["second"])


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)
    return path


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _cli_files(plant, rng, d):
    """Write the system, spectra, gain, x0 and real-system files for one plant."""
    system_pairs = plant.sys
    system = {"domain": plant.domain, "n": plant.n, "m": plant.m, "p": plant.m}
    for name, bm in (("A", system_pairs.a), ("B", system_pairs.b), ("C", system_pairs.c)):
        system[name + "1"] = _cmatrix_json(bm.first)
        system[name + "2"] = _cmatrix_json(bm.second)
    place = orc.stable_targets(rng, plant.n, plant.continuous)
    observe = orc.stable_targets(rng, plant.n, plant.continuous)
    _, k_ref = plant.riccati()
    gain = orc.fold(k_ref)
    x0 = rng.standard_normal(plant.n) + 1j * rng.standard_normal(plant.n)
    real = {"domain": plant.domain, "convert": True,
            "real_system": {k: _cmatrix_json(v) for k, v in
                            (("A", plant.a), ("B", plant.b), ("C", plant.c), ("D", plant.d))}}
    files = {
        "system": _write_json(os.path.join(d, "system.json"), system),
        "place": _write_json(os.path.join(d, "place.json"), _cvector_json(place)),
        "observe": _write_json(os.path.join(d, "observe.json"), _cvector_json(observe)),
        "gain": _write_json(os.path.join(d, "gain.json"),
                            {"first": _cmatrix_json(gain.first),
                             "second": _cmatrix_json(gain.second)}),
        "x0": _write_json(os.path.join(d, "x0.json"), _cvector_json(x0)),
        "real": _write_json(os.path.join(d, "real.json"), real),
        "report": os.path.join(d, "report.json"),
        "trace": os.path.join(d, "trace.csv"),
    }
    return files, {"place": place, "observe": observe, "gain": gain, "x0": x0,
                   "system": system}


def _cli_argv(verb, plant, files):
    argv = [verb, files["real"] if verb == "convert" else files["system"]]
    if verb == "place":
        argv += ["--spectrum", files["place"]]
    elif verb == "observer":
        argv += ["--spectrum", files["observe"]]
    elif verb == "simulate":
        argv += ["--gain", files["gain"], "--x0", files["x0"], "--trace", files["trace"]]
        if plant.continuous:
            argv += ["--horizon", str(CLI_SIM_STEPS * 0.01), "--dt", "0.01"]
        else:
            argv += ["--horizon", str(CLI_SIM_STEPS)]
    return argv + ["--out", files["report"]]


def _cli_checks(verb, plant, files, data):
    """Checks on a finished invocation: report fields against the oracle."""

    def results():
        with open(files["report"], encoding="utf-8") as f:
            report = json.load(f)
        require(report.get("verb") == verb, "report names another verb")
        return report["results"], report.get("diagnostics", {})

    def spectrum_check(key_gain, targets, factors):
        res, diag = results()
        gain = pair_rep(orc.Bimatrix(*_pair_from_json(res[key_gain])))
        orc.check_spectrum(plant.a, *factors(gain), targets, verb)
        require(diag["spectrum_deviation"] <= orc.SPECTRUM_RTOL,
                "reported spectrum deviation exceeds the gate")

    def check(_):
        if verb == "analyze":
            res, _diag = results()
            require(all(res[k] for k in ("controllable", "observable", "stabilizable",
                                         "detectable")),
                    "analyze denies a property the oracle confirmed")
            require(res["stable"] == orc.is_stable(plant.eigs, plant.continuous),
                    "analyze stability flag is wrong")
            got = np.array([complex(re, im) for re, im in res["spectrum"]])
            require(orc.spectrum_gap(got, plant.eigs) <= ALGEBRA_RTOL,
                    "analyze spectrum is off")
        elif verb == "place":
            spectrum_check("gain", data["place"], lambda k: (plant.b, k))
        elif verb == "observer":
            spectrum_check("observer_gain", data["observe"], lambda g: (g, plant.c))
        elif verb in ("stabilize", "lqr"):
            res, _diag = results()
            require(res["closed_loop_stable"] is True, "report says the loop is unstable")
            gain = pair_rep(orc.Bimatrix(*_pair_from_json(res["gain"])))
            if verb == "lqr":
                p = pair_rep(orc.Bimatrix(*_pair_from_json(res["p"])))
                orc.check_riccati(plant, p, gain, "lqr")
            else:
                orc.check_stabilizing(plant, gain, "stabilize")
        elif verb == "simulate":
            res, _diag = results()
            with open(files["trace"], encoding="utf-8") as f:
                rows = sum(1 for _ in f)
            require(res["samples"] == CLI_SIM_STEPS + 1, "simulate sample count is wrong")
            require(rows == CLI_SIM_STEPS + 2, f"trace CSV has {rows} lines")
            a_cl = plant.a + plant.b @ pair_rep(data["gain"])
            if plant.continuous:
                x_end = sla.expm(a_cl * (CLI_SIM_STEPS * 0.01)) @ orc.stack(data["x0"])
            else:
                x_end = np.linalg.matrix_power(a_cl, CLI_SIM_STEPS) @ orc.stack(data["x0"])
            got = np.array([complex(re, im) for re, im in res["final_state"]])
            err = np.linalg.norm(got - orc.unstack(x_end)) / max(
                1e-300, np.linalg.norm(orc.stack(data["x0"])))
            require(err <= TRAJ_RTOL, f"simulate final state off by {err:.1e}")
        elif verb == "convert":
            res, _diag = results()
            folded = res["system"]
            for name, bm in (("A", plant.sys.a), ("B", plant.sys.b), ("C", plant.sys.c)):
                for part, want in (("1", bm.first), ("2", bm.second)):
                    block = folded.get(name + part)
                    got = (np.zeros_like(want) if block is None else
                           np.array([complex(re, im) for re, im in block["data"]])
                           .reshape(want.shape))
                    require(np.allclose(got, want, rtol=1e-12, atol=1e-12),
                            f"convert folded {name}{part} wrongly")

    return [("cli." + verb, check)]


def run_cli(argv, env):
    """One cold invocation; raises Declined on the documented error exits."""
    proc = subprocess.run([sys.executable, "-m", "bimatrix.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    if proc.returncode == 0:
        return proc
    message = proc.stderr.strip()
    if proc.returncode in (1, 2) and "\n" not in message and message.startswith("bimatrix "):
        raise Declined(message)
    raise RuntimeError(f"exit {proc.returncode}: {message[-400:]}")


def build_cli(seed, ctx):
    env = child_env(ctx["root"])
    deck = []
    for n in CLI_SIZES:
        for ci, (domain, scale) in enumerate(CLI_CLASSES):
            rng = _rng(seed, ci, n)
            plant = orc.draw_plant(rng, n, 1, domain, "general", scale)
            d = os.path.join(ctx["tmpdir"], f"{domain}-n{n}")
            os.makedirs(d, exist_ok=True)
            files, data = _cli_files(plant, rng, d)
            ctx.setdefault("cli_inputs", []).append((plant, files))
            for verb in CLI_VERBS:
                argv = _cli_argv(verb, plant, files)
                deck.append(Op("cli." + verb, _tags(plant, verb=verb),
                               lambda tr, argv=argv, verb=verb:
                               tr.call("cli." + verb, run_cli, argv, env),
                               _cli_checks(verb, plant, files, data)))
    # one verb after another, so that every verb is reached in a short run
    return _interleave([deck[i::len(CLI_VERBS)] for i in range(len(CLI_VERBS))])


def _cold(cmd, env, runs):
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        out.append((time.perf_counter() - t0, proc))
        if proc.returncode != 0:
            raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-400:]}")
    return out


def scipy_import_s(importtime_stderr):
    """Cumulative import time of the outermost scipy modules under -X importtime."""
    entries = []
    for line in importtime_stderr.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)", line)
        if m:
            entries.append((int(m.group(2)), len(m.group(3)), m.group(4)))
    total = 0
    for i, (cum, depth, name) in enumerate(entries):
        if not (name == "scipy" or name.startswith("scipy.")):
            continue
        # post-order listing: the parent is the next entry that is shallower
        parent = next((e[2] for e in entries[i + 1:] if e[1] < depth), "")
        if not (parent == "scipy" or parent.startswith("scipy.")):
            total += cum
    return total * 1e-6


def cli_layer_probes(tracer, ctx, repeats=5):
    """Start-up and in-process timings for the cli layer metrics (traced run only)."""
    env = child_env(ctx["root"])
    py = sys.executable
    with tracer.span("cli.interpreter"):
        interp = _cold([py, "-c", "pass"], env, repeats)
    with tracer.span("cli.import"):
        imp = _cold([py, "-c", "import bimatrix.cli"], env, repeats)
    with tracer.span("cli.importtime"):
        itime = _cold([py, "-X", "importtime", "-c", "import bimatrix.cli"], env, 3)
    metrics = {
        "cli.interpreter_s": statistics.median(t for t, _ in interp),
        "cli.import_s": statistics.median(t for t, _ in imp),
        "cli.import.scipy_s": statistics.median(scipy_import_s(p.stderr) for _, p in itime),
    }
    # imported here so that no other run pays for argparse in its set-up
    from bimatrix import cli as cli_module

    for verb in CLI_VERBS:
        durations = []
        for _ in range(repeats):
            for plant, files in ctx["cli_inputs"]:
                argv = _cli_argv(verb, plant, files)
                t0 = time.perf_counter()
                with tracer.span("cli.main." + verb):
                    code = cli_module.main(argv)
                durations.append(time.perf_counter() - t0)
                if code != 0:
                    raise RuntimeError(f"in-process {verb} exited {code}")
        metrics[f"cli.main.{verb}.p50_s"] = statistics.median(durations)
    objs = []
    for _plant, files in ctx["cli_inputs"]:
        with open(files["system"], encoding="utf-8") as f:
            objs.append(json.load(f))
    for _ in range(25):
        for obj in objs:
            tracer.call("systems.system_from_json", system_from_json, obj)
    return metrics


BUILDERS = {
    "design": build_design,
    "analysis": build_analysis,
    "trajectory": build_trajectory,
    "cli": build_cli,
}
