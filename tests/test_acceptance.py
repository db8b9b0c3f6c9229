"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Each test pins the tolerance it must meet; the random ones use a
fixed seed so the whole suite is reproducible.
"""

import time

import numpy as np
import pytest

from bimatrix import (
    Bimatrix,
    CxSystem,
    HermiteBimatrix,
    TimeDomain,
    WeightPair,
    antilinear_lqr_discrete,
    assign_eigenvalues,
    assign_eigenvalues_normal,
    closed_loop,
    design_observer,
    e_matrix,
    h_matrix,
    is_asymptotically_stable,
    is_controllable,
    is_observable,
    is_positive_definite,
    is_stabilizable,
    lqr,
    lqr_cost,
    make_antilinear,
    make_normal,
    observer_loop,
    solve_lyapunov,
    state_response,
    transition_pair,
)
from bimatrix.exceptions import NoUniqueSolutionError

from helpers import (
    antilinear_series_pair,
    lift,
    multiset_close,
    rand_bimatrix,
    rand_cmatrix,
    rand_system,
    simulate_real_system,
)


def _report(line):
    print(f"\n{line}")


def _example_pair(alpha0, alpha1):
    a1 = np.array([[0.0, 1.0], [-alpha0, -alpha1]])
    b1 = np.array([[0.0], [1.0]])
    return make_normal(a1, b1, np.eye(2), domain="continuous")


def test_criterion_01_restricted_gain_closed_form():
    start = time.perf_counter()
    gamma0, gamma1 = 2.0, 3.0
    worst = 0.0
    for alpha0, alpha1 in ((5.0, 4.0), (-1.5, 0.25), (0.0, 7.0)):
        sysm = _example_pair(alpha0, alpha1)
        poles = np.roots([1.0, gamma1, gamma0])
        gain = assign_eigenvalues_normal(sysm, poles)
        want = np.array([[alpha0 - gamma0, alpha1 - gamma1]])
        worst = max(worst, float(np.max(np.abs(gain.first - want))))
        worst = max(worst, float(np.max(np.abs(gain.second))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    _report(
        f"PASS criterion 1: restricted gain equals the closed-form row "
        f"(max dev {worst:.1e}, {elapsed:.2f} s)"
    )


def test_criterion_02_full_state_double_polynomial():
    start = time.perf_counter()
    alpha0, alpha1, gamma0, gamma1 = 5.0, 4.0, 2.0, 3.0
    sysm = _example_pair(alpha0, alpha1)
    target = np.polymul([1.0, gamma1, gamma0], [1.0, gamma1, gamma0])
    roots = np.roots([1.0, gamma1, gamma0])
    gamma = np.concatenate([roots, roots])

    gain = assign_eigenvalues(sysm, gamma)
    achieved = np.poly(closed_loop(sysm, gain).a.real_representation())
    dev_placed = float(np.max(np.abs(achieved - target)))
    assert dev_placed <= 1e-8

    # the two closed-form full-feedback gain rows must land on the same
    # quartic when substituted
    f1 = alpha0 - gamma0 - gamma1**2 / 2.0
    f2 = gamma0 + gamma1**2 / 2.0
    published = [
        (
            [[f1 - 0.5j * gamma0**2 - 0.5j, alpha1 - gamma1 - 1j * gamma0 * gamma1]],
            [[f2 + 0.5j * gamma0**2 - 0.5j, gamma1 + 1j * gamma0 * gamma1]],
        ),
        (
            [[f1 + 0.5j * gamma0**2 + 0.5j, alpha1 - gamma1 + 1j * gamma0 * gamma1]],
            [[-f2 + 0.5j * gamma0**2 - 0.5j, -gamma1 + 1j * gamma0 * gamma1]],
        ),
    ]
    dev_pairs = 0.0
    for k1, k2 in published:
        cl = closed_loop(sysm, Bimatrix(k1, k2))
        coeffs = np.poly(cl.a.real_representation())
        dev_pairs = max(dev_pairs, float(np.max(np.abs(coeffs - target))))
    assert dev_pairs <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        f"PASS criterion 2: doubled polynomial achieved (placement dev "
        f"{dev_placed:.1e}, published pairs dev {dev_pairs:.1e}, {elapsed:.2f} s)"
    )


def test_criterion_03_discrete_antilinear_stability_rule():
    rng = np.random.default_rng(3003)
    disagreements = 0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        scale = float(rng.uniform(0.1, 1.3))
        a2 = rand_cmatrix(rng, n, n, scale=scale)
        sysm = make_antilinear(a2, np.ones((n, 1)), domain="discrete")
        rho = float(np.max(np.abs(np.linalg.eigvals(np.conj(a2) @ a2))))
        if is_asymptotically_stable(sysm) != (rho < 1.0):
            disagreements += 1
    assert disagreements == 0
    _report(
        "PASS criterion 3: discrete stability matches the spectral-radius rule "
        "on 200 random systems (0 disagreements)"
    )


def test_criterion_04_continuous_antilinear_needs_conjugate_feedback():
    rng = np.random.default_rng(4004)
    stabilized = 0
    for _ in range(50):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        a2 = rand_cmatrix(rng, n, n)
        b2 = rand_cmatrix(rng, n, m)
        k1 = rand_cmatrix(rng, m, n)
        # conjugate-free feedback leaves the loop purely conjugate-driven
        loop = make_antilinear(a2 + b2 @ k1, b2, domain="continuous")
        assert not is_asymptotically_stable(loop)

        plant = make_antilinear(a2, b2, domain="continuous")
        if is_controllable(plant):
            from bimatrix import stabilize

            gain = stabilize(plant, rng=rng)
            assert is_asymptotically_stable(closed_loop(plant, gain))
            stabilized += 1
    assert stabilized > 0
    _report(
        f"PASS criterion 4: conjugate-free feedback never stabilizes (50/50); "
        f"full feedback stabilized every controllable instance ({stabilized})"
    )


def test_criterion_05_regulator_golden_values():
    start = time.perf_counter()
    sol_c = lqr(make_antilinear([[0.0]], [[1.0]], domain="continuous"))
    dev_c = max(
        abs(complex(sol_c.p.first[0, 0]) - 1.0),
        abs(complex(sol_c.p.second[0, 0])),
        abs(complex(sol_c.gain.first[0, 0])),
        abs(complex(sol_c.gain.second[0, 0]) + 1.0),
    )
    assert dev_c <= 1e-8
    t_c = time.perf_counter() - start

    start = time.perf_counter()
    sol_d = antilinear_lqr_discrete(
        np.array([[1.0]]), np.array([[1.0]]), np.eye(1), np.eye(1)
    )
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    dev_p = abs(complex(sol_d.p.first[0, 0]) - golden)
    dev_k = abs(complex(sol_d.gain.first[0, 0]) + 0.6180)
    assert dev_p <= 1e-8
    assert dev_k <= 1e-4
    t_d = time.perf_counter() - start
    assert t_c < 1.0 and t_d < 1.0
    _report(
        f"PASS criterion 5: golden regulator values (continuous dev {dev_c:.1e} "
        f"in {t_c:.2f} s; discrete dev {dev_p:.1e}/{dev_k:.1e} in {t_d:.2f} s)"
    )


def _rand_stabilizable(rng, domain):
    while True:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        sysm = rand_system(rng, n, m, 1, domain, scale=0.8)
        if not is_stabilizable(sysm):
            continue
        return sysm


def test_criterion_06_cost_identity():
    rng = np.random.default_rng(6006)
    worst = 0.0
    checked = 0
    while checked < 20:
        domain = TimeDomain.CONTINUOUS if checked % 2 == 0 else TimeDomain.DISCRETE
        sysm = _rand_stabilizable(rng, domain)
        weights = WeightPair.identity(sysm.n, sysm.m)
        sol = lqr(sysm, weights)
        vals = closed_loop(sysm, sol.gain).spectrum().values
        if domain.is_continuous:
            decay = np.abs(vals.real)
            if decay.max() / decay.min() > 25.0:
                continue  # keep the quadrature grid reasonable
            horizon = 40.0 / decay.min()
        else:
            rho = float(np.max(np.abs(vals)))
            horizon = float(np.ceil(40.0 * max(1.0, -1.0 / np.log(rho))))
        x0 = rand_cmatrix(rng, sysm.n, 1).ravel()
        want = sol.minimum_cost(x0)
        got = lqr_cost(sysm, weights, sol.gain, x0, horizon=horizon)
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
        checked += 1
    assert worst <= 1e-3
    _report(
        f"PASS criterion 6: simulated cost matches the Riccati value on 20 "
        f"systems (worst rel dev {worst:.1e})"
    )


def test_criterion_07_lyapunov_equivalence_suite():
    rng = np.random.default_rng(7007)
    worst_pair = worst_lift = 0.0
    stable_count = 0
    for k in range(100):
        domain = TimeDomain.CONTINUOUS if k % 2 == 0 else TimeDomain.DISCRETE
        n = int(rng.integers(1, 4))
        sysm = rand_system(rng, n, 1, n, domain, scale=float(rng.uniform(0.3, 1.0)))
        if k % 4 < 2 and domain.is_continuous:
            shift = float(np.max(sysm.spectrum().values.real)) + float(
                rng.uniform(0.2, 1.0)
            )
            sysm = CxSystem(
                Bimatrix(sysm.a.first - shift * np.eye(n), sysm.a.second),
                sysm.b, sysm.c, sysm.d, domain,
            )
        cw = Bimatrix.identity(n)
        stable = is_asymptotically_stable(sysm)
        try:
            p = solve_lyapunov(sysm, cw)
            solvable_pd = is_positive_definite(p)
        except NoUniqueSolutionError:
            p = None
            solvable_pd = False
        assert stable == solvable_pd
        stable_count += stable
        if p is None:
            continue
        w = cw.H @ cw
        if domain.is_continuous:
            res = sysm.a.H @ p + p @ sysm.a + w
        else:
            res = sysm.a.H @ p @ sysm.a - p + w
        scale = max(1.0, np.linalg.norm(w.first) + np.linalg.norm(w.second),
                    np.linalg.norm(p.first) + np.linalg.norm(p.second))
        worst_pair = max(
            worst_pair,
            (np.linalg.norm(res.first) + np.linalg.norm(res.second)) / scale,
        )
        al, pl, wl = lift(sysm.a), lift(p), lift(w)
        if domain.is_continuous:
            res_l = al.conj().T @ pl + pl @ al + wl
        else:
            res_l = al.conj().T @ pl @ al - pl + wl
        worst_lift = max(
            worst_lift,
            np.linalg.norm(res_l) / max(1.0, np.linalg.norm(wl), np.linalg.norm(pl)),
        )
    assert worst_pair <= 1e-10
    assert worst_lift <= 1e-10
    assert 10 <= stable_count <= 90  # both branches genuinely exercised
    _report(
        f"PASS criterion 7: stability equals solvability-with-PD on 100 systems "
        f"({stable_count} stable); residuals pair {worst_pair:.1e}, "
        f"lifted {worst_lift:.1e}"
    )


def test_criterion_08_representation_oracles():
    rng = np.random.default_rng(8008)
    worst = 0.0

    def dev(x, y, scale=1.0):
        return float(np.linalg.norm(np.asarray(x) - np.asarray(y)) / max(1.0, scale))

    for _ in range(500):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        a = rand_bimatrix(rng, n, m)
        b = rand_bimatrix(rng, n, m)
        c = rand_bimatrix(rng, m, n)

        ar, al = a.real_representation(), a.complex_lifting()
        br = b.real_representation()
        cr, cl = c.real_representation(), c.complex_lifting()

        worst = max(worst, dev((a + b).real_representation(), ar + br))
        prod_scale = np.linalg.norm(ar) * np.linalg.norm(cr)
        worst = max(
            worst, dev((a @ c).real_representation(), ar @ cr, prod_scale)
        )
        worst = max(
            worst, dev((a @ c).complex_lifting(), al @ cl, prod_scale)
        )
        worst = max(worst, dev(a.H.real_representation(), ar.T))
        worst = max(worst, dev(a.H.complex_lifting(), al.conj().T))
        hn, hm = h_matrix(n), h_matrix(m)
        worst = max(
            worst, dev(al, hn @ ar @ hm.conj().T, np.linalg.norm(ar))
        )
        worst = max(
            worst,
            dev(e_matrix(m) @ al.T, al.conj().T @ e_matrix(n), np.linalg.norm(al)),
        )
        if n == m:
            assert a.eigenvalues().matches(np.linalg.eigvals(al), rtol=1e-10)
    assert worst <= 1e-10
    _report(
        f"PASS criterion 8: representation homomorphism/transpose/H/E/spectrum "
        f"oracles on 500 pairs (worst rel dev {worst:.1e})"
    )


def test_criterion_09_solution_formula_oracle():
    rng = np.random.default_rng(9009)
    worst = 0.0
    for k in range(50):
        domain = TimeDomain.CONTINUOUS if k % 2 == 0 else TimeDomain.DISCRETE
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        sysm = rand_system(rng, n, m, 1, domain, scale=0.6)
        times = np.linspace(0.0, 1.5, 16) if domain.is_continuous else np.arange(8.0)
        x0 = rand_cmatrix(rng, n, 1).ravel()
        u = rand_cmatrix(rng, times.size, m)
        trace = state_response(sysm, x0, times, u)
        rep = sysm.real_representation()
        u_real = np.array(
            [np.concatenate([u[j].real, u[j].imag]) for j in range(times.size)]
        )
        x0_real = np.concatenate([x0.real, x0.imag])
        states_r, _ = simulate_real_system(
            rep.a, rep.b, rep.c, rep.d, x0_real, times, u_real, domain.is_continuous
        )
        got = np.hstack([trace.states.real, trace.states.imag])
        worst = max(worst, float(np.max(np.abs(got - states_r))))
    assert worst <= 1e-8

    series_dev = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 4))
        a2 = rand_cmatrix(rng, n, n, scale=0.7)
        sysm = make_antilinear(a2, np.ones((n, 1)), domain="continuous")
        t = float(rng.uniform(0.2, 1.4))
        tp = transition_pair(sysm, t)
        phi1, phi2 = antilinear_series_pair(a2, t)
        series_dev = max(series_dev, float(np.max(np.abs(tp.phi1 - phi1))))
        series_dev = max(series_dev, float(np.max(np.abs(tp.phi2 - phi2))))
        sysd = make_antilinear(a2, np.ones((n, 1)), domain="discrete")
        msq = np.conj(a2) @ a2
        tp4 = transition_pair(sysd, 4)
        tp5 = transition_pair(sysd, 5)
        series_dev = max(series_dev, float(np.max(np.abs(tp4.phi1 - msq @ msq))))
        series_dev = max(series_dev, float(np.max(np.abs(tp4.phi2))))
        series_dev = max(
            series_dev, float(np.max(np.abs(tp5.phi2 - a2 @ msq @ msq)))
        )
        series_dev = max(series_dev, float(np.max(np.abs(tp5.phi1))))
    assert series_dev <= 1e-10
    _report(
        f"PASS criterion 9: responses match the doubled-system oracle on 50 runs "
        f"(max err {worst:.1e}); conjugate-case closed forms match the series "
        f"(dev {series_dev:.1e})"
    )


def test_criterion_10_observer_convergence_and_separation():
    rng = np.random.default_rng(1010)
    checked = 0
    worst_sep = 0.0
    while checked < 20:
        domain = TimeDomain.CONTINUOUS if checked % 2 == 0 else TimeDomain.DISCRETE
        n = int(rng.integers(1, 3))
        sysm = rand_system(rng, n, 1, max(1, n), domain, scale=0.8)
        if domain.is_continuous:
            shift = float(np.max(sysm.spectrum().values.real)) + 0.2
            sysm = CxSystem(
                Bimatrix(sysm.a.first - shift * np.eye(n), sysm.a.second),
                sysm.b, sysm.c, sysm.d, domain,
            )
        else:
            rho = float(np.max(np.abs(sysm.spectrum().values)))
            if rho >= 0.9:
                sysm = CxSystem(
                    Bimatrix(
                        sysm.a.first * (0.8 / rho), sysm.a.second * (0.8 / rho)
                    ),
                    sysm.b, sysm.c, sysm.d, domain,
                )
        if not (is_observable(sysm) and is_controllable(sysm)):
            continue

        if domain.is_continuous:
            gamma_ob = -np.arange(1.0, 2 * n + 1.0) - 0.5
            gamma_fb = -np.arange(1.0, 2 * n + 1.0) * 0.4 - 0.3
            horizon_t = (np.log(1e6) + 12.0) / 1.5
            times = np.linspace(0.0, horizon_t, 400)
        else:
            gamma_ob = (0.5 - np.arange(2 * n) * 0.12) * 0.8
            gamma_fb = 0.4 - np.arange(2 * n) * 0.1
            steps = int(np.ceil((np.log(1e6) + 12.0) / -np.log(0.4)))
            times = np.arange(steps + 1, dtype=float)

        l_gain = design_observer(sysm, gamma_ob, rng=rng)
        k_gain = assign_eigenvalues(sysm, gamma_fb, rng=rng)

        loop = observer_loop(sysm, l_gain)
        x0 = rand_cmatrix(rng, n, 1).ravel()
        trace = state_response(
            loop, np.concatenate([x0, np.zeros(n, dtype=complex)]), times,
            u=0.2 * rand_cmatrix(rng, times.size, 1),
        )
        err = trace.states[:, :n] - trace.states[:, n:]
        assert np.linalg.norm(err[-1]) <= 1e-6 * np.linalg.norm(err[0])

        combined = observer_loop(sysm, l_gain, k_gain).spectrum()
        want = np.concatenate(
            [np.asarray(gamma_fb, complex), np.asarray(gamma_ob, complex)]
        )
        assert combined.matches(want, rtol=1e-6)
        got = sorted(combined.values, key=lambda z: (z.real, z.imag))
        want_s = sorted(want, key=lambda z: (z.real, z.imag))
        worst_sep = max(
            worst_sep,
            max(abs(g - w) / (1.0 + abs(w)) for g, w in zip(got, want_s)),
        )
        checked += 1
    _report(
        f"PASS criterion 10: observer error decays below 1e-6 and the combined "
        f"spectrum splits on 20 systems (worst spectrum dev {worst_sep:.1e})"
    )
