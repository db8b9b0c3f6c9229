import io

import numpy as np
import pytest

from bimatrix import (
    Bimatrix,
    CxSystem,
    HermiteBimatrix,
    TimeDomain,
    antilinear_controllable,
    antilinear_lyapunov_reduced,
    antilinear_observable,
    antilinear_stabilizable_discrete,
    arrow,
    is_asymptotically_stable,
    is_controllable,
    is_detectable,
    is_observable,
    is_positive_definite,
    is_stabilizable,
    make_antilinear,
    make_normal,
    quadratic_form_real,
    solve_lyapunov,
    state_response,
    structure_report,
    transition_pair,
    unarrow,
)
from bimatrix import analysis
from bimatrix.analysis import PBH_RTOL, STABILITY_TOL, _pbh, solve_lyapunov_real
from bimatrix.exceptions import (
    NoPositiveDefiniteSolutionError,
    NoUniqueSolutionError,
    SingularBimatrixError,
)

from helpers import (
    antilinear_series_pair,
    kron_lyapunov,
    lift,
    lifted_pbh_oracle,
    pbh_oracle,
    rand_bimatrix,
    rand_cmatrix,
    rand_stable_system,
    rand_system,
    simulate_real_system,
)


class TestTransitionPair:
    def test_time_zero_is_identity(self, rng):
        sysm = rand_system(rng, 3, 1, 1, TimeDomain.CONTINUOUS)
        tp = transition_pair(sysm, 0.0)
        assert np.allclose(tp.phi1, np.eye(3))
        assert np.allclose(tp.phi2, 0)

    def test_antilinear_scalar_continuous_is_cosh_sinh(self):
        sysm = make_antilinear([[1.0]], [[1.0]], domain="continuous")
        tp = transition_pair(sysm, 1.3)
        assert np.allclose(tp.phi1, [[np.cosh(1.3)]])
        assert np.allclose(tp.phi2, [[np.sinh(1.3)]])

    def test_antilinear_continuous_matches_series(self, rng):
        a2 = rand_cmatrix(rng, 3, 3, scale=0.6)
        sysm = make_antilinear(a2, np.ones((3, 1)), domain="continuous")
        t = 0.9
        tp = transition_pair(sysm, t)
        phi1, phi2 = antilinear_series_pair(a2, t)
        assert np.allclose(tp.phi1, phi1, atol=1e-12)
        assert np.allclose(tp.phi2, phi2, atol=1e-12)

    def test_antilinear_discrete_odd_power(self, rng):
        a2 = rand_cmatrix(rng, 2, 2)
        sysm = make_antilinear(a2, np.ones((2, 1)), domain="discrete")
        tp = transition_pair(sysm, 3)
        m = np.conj(a2) @ a2
        assert np.allclose(tp.phi1, 0, atol=1e-13)
        assert np.allclose(tp.phi2, a2 @ m, atol=1e-12)

    def test_antilinear_discrete_even_power_has_no_conjugate_part(self, rng):
        a2 = rand_cmatrix(rng, 2, 2)
        sysm = make_antilinear(a2, np.ones((2, 1)), domain="discrete")
        tp = transition_pair(sysm, 4)
        m = np.conj(a2) @ a2
        assert np.allclose(tp.phi1, m @ m, atol=1e-12)
        assert np.allclose(tp.phi2, 0, atol=1e-13)

    def test_continuous_group_law(self, rng):
        sysm = rand_system(rng, 2, 1, 1, TimeDomain.CONTINUOUS, scale=0.5)
        a, b = 0.4, 1.1
        combined = transition_pair(sysm, a + b).as_bimatrix()
        product = transition_pair(sysm, a).as_bimatrix() @ transition_pair(
            sysm, b
        ).as_bimatrix()
        assert combined.allclose(product, atol=1e-10)

    def test_discrete_negative_time_needs_invertible_state_pair(self):
        sysm = make_antilinear([[0.0]], [[1.0]], domain="discrete")
        with pytest.raises(SingularBimatrixError):
            transition_pair(sysm, -1)
        inv = transition_pair(
            make_antilinear([[2.0]], [[1.0]], domain="discrete"), -2
        ).as_bimatrix()
        fwd = transition_pair(
            make_antilinear([[2.0]], [[1.0]], domain="discrete"), 2
        ).as_bimatrix()
        assert (inv @ fwd).allclose(Bimatrix.identity(1), atol=1e-12)

    def test_discrete_fractional_time_rejected(self):
        sysm = make_antilinear([[0.5]], [[1.0]], domain="discrete")
        with pytest.raises(ValueError):
            transition_pair(sysm, 0.5)


class TestStateResponse:
    def test_antilinear_decaying_direction(self):
        # x0 = j: cosh(t) j + sinh(t) conj(j) = j exp(-t)
        sysm = make_antilinear([[1.0]], [[1.0]], domain="continuous")
        times = np.linspace(0.0, 2.0, 21)
        trace = state_response(sysm, [1j], times)
        assert np.allclose(trace.states[:, 0], 1j * np.exp(-times), atol=1e-9)

    def test_antilinear_growing_direction(self):
        sysm = make_antilinear([[1.0]], [[1.0]], domain="continuous")
        times = np.linspace(0.0, 2.0, 21)
        trace = state_response(sysm, [1.0], times)
        assert np.allclose(trace.states[:, 0], np.exp(times), atol=1e-8)

    def test_discrete_recursion_golden(self):
        sysm = make_antilinear([[0.5]], [[1.0]], domain="discrete")
        trace = state_response(sysm, [1j], np.arange(3.0), u=np.zeros((3, 1)))
        # x1 = conj(0.5) conj(j) = -0.5j ; x2 = conj(0.5) conj(-0.5j) = 0.25j
        assert np.allclose(trace.states[:, 0], [1j, -0.5j, 0.25j])

    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_matches_real_representation_simulation(self, rng, domain):
        for _ in range(5):
            n, m, p = 3, 2, 2
            sysm = rand_system(rng, n, m, p, domain, scale=0.6)
            if domain.is_continuous:
                times = np.linspace(0.0, 1.5, 16)
            else:
                times = np.arange(8.0)
            x0 = rand_cmatrix(rng, n, 1).ravel()
            u = rand_cmatrix(rng, times.size, m)
            trace = state_response(sysm, x0, times, u)
            rep = sysm.real_representation()
            u_real = np.array([arrow(u[k]) for k in range(times.size)])
            states_r, outputs_r = simulate_real_system(
                rep.a, rep.b, rep.c, rep.d, arrow(x0), times, u_real,
                domain.is_continuous,
            )
            got = np.array([arrow(trace.states[k]) for k in range(times.size)])
            got_y = np.array([arrow(trace.outputs[k]) for k in range(times.size)])
            assert np.max(np.abs(got - states_r)) <= 1e-8
            assert np.max(np.abs(got_y - outputs_r)) <= 1e-8

    def test_zero_input_matches_ode_integration(self, rng):
        from scipy.integrate import solve_ivp

        sysm = rand_system(rng, 2, 1, 1, TimeDomain.CONTINUOUS, scale=0.5)
        times = np.linspace(0.0, 2.0, 9)
        x0 = rand_cmatrix(rng, 2, 1).ravel()
        trace = state_response(sysm, x0, times)
        rep_a = sysm.a.real_representation()
        sol = solve_ivp(
            lambda _, v: rep_a @ v, (0.0, 2.0), arrow(x0), t_eval=times,
            rtol=1e-11, atol=1e-12,
        )
        want = np.array([unarrow(sol.y[:, k]) for k in range(times.size)])
        assert np.max(np.abs(trace.states - want)) <= 1e-7

    def test_grid_validation(self, rng):
        sysm = rand_system(rng, 2, 1, 1, TimeDomain.DISCRETE)
        with pytest.raises(ValueError):
            state_response(sysm, [0, 0], [1.0, 2.0])
        with pytest.raises(ValueError):
            state_response(sysm, [0, 0], [0.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            state_response(sysm, [0, 0], [])

    def test_input_shape_validation(self, rng):
        sysm = rand_system(rng, 2, 2, 1, TimeDomain.DISCRETE)
        with pytest.raises(Exception):
            state_response(sysm, [0, 0], np.arange(4.0), u=np.ones((4, 3)))

    def test_callable_input(self):
        sysm = make_normal([[-1.0]], [[1.0]], [[1.0]], domain="continuous")
        times = np.linspace(0.0, 1.0, 41)
        trace = state_response(sysm, [0.0], times, u=lambda t: [1.0])
        # step response of xdot = -x + 1
        assert np.allclose(trace.states[-1, 0], 1.0 - np.exp(-1.0), atol=1e-6)

    def test_csv_layout(self):
        sysm = make_normal([[-1.0]], [[1.0]], [[1.0]], domain="continuous")
        trace = state_response(sysm, [1.0], np.linspace(0.0, 1.0, 3))
        buf = io.StringIO()
        trace.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,x1_re,x1_im,u1_re,u1_im,y1_re,y1_im"
        assert len(lines) == 4
        assert lines[1].startswith("0.0,1.0,")


def _example_controllable_pair():
    a1 = np.array([[0.0, 1.0], [-5.0, -4.0]])
    b1 = np.array([[0.0], [1.0]])
    return make_normal(a1, b1, np.eye(2), domain="continuous")


class TestStructuralTests:
    def test_companion_pair_is_controllable(self):
        assert is_controllable(_example_controllable_pair())

    def test_zero_input_pair_is_uncontrollable(self, rng):
        sysm = CxSystem(
            rand_bimatrix(rng, 2, 2),
            Bimatrix.zeros(2, 1),
            rand_bimatrix(rng, 1, 2),
            Bimatrix.zeros(1, 1),
            TimeDomain.CONTINUOUS,
        )
        assert not is_controllable(sysm)

    def test_identity_output_pair_is_observable(self, rng):
        sysm = rand_system(rng, 3, 1, 3, TimeDomain.DISCRETE)
        sysm = CxSystem(sysm.a, sysm.b, Bimatrix.identity(3), Bimatrix.zeros(3, 1),
                        TimeDomain.DISCRETE)
        assert is_observable(sysm)

    def test_antilinear_reduced_controllability_agrees(self, rng):
        hits = 0
        for k in range(40):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            a2 = rand_cmatrix(rng, n, n)
            b2 = np.zeros((n, m)) if k % 5 == 0 else rand_cmatrix(rng, n, m)
            sysm = make_antilinear(a2, b2, domain="discrete")
            full = bool(is_controllable(sysm))
            reduced = bool(antilinear_controllable(a2, b2))
            assert full == reduced
            hits += full
        assert 0 < hits < 40  # both outcomes exercised

    def test_antilinear_reduced_observability_agrees(self, rng):
        for k in range(30):
            n, p = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            a2 = rand_cmatrix(rng, n, n)
            c2 = np.zeros((p, n)) if k % 5 == 0 else rand_cmatrix(rng, p, n)
            sysm = CxSystem(
                Bimatrix.antilinear(a2),
                Bimatrix.antilinear(rand_cmatrix(rng, n, 1)),
                Bimatrix.antilinear(c2),
                Bimatrix.zeros(p, 1),
                TimeDomain.DISCRETE,
            )
            assert bool(is_observable(sysm)) == bool(antilinear_observable(a2, c2))

    def test_duality(self, rng):
        for _ in range(10):
            sysm = rand_system(rng, 3, 2, 2, TimeDomain.CONTINUOUS)
            dual = CxSystem(sysm.a.H, sysm.c.H, sysm.b.H, sysm.d.H,
                            TimeDomain.CONTINUOUS)
            assert bool(is_observable(sysm)) == bool(is_controllable(dual))

    def test_stable_system_is_vacuously_stabilizable(self):
        sysm = CxSystem(
            Bimatrix.normal([[-1.0]]),
            Bimatrix.zeros(1, 1),
            Bimatrix.identity(1),
            Bimatrix.zeros(1, 1),
            TimeDomain.CONTINUOUS,
        )
        result = is_stabilizable(sysm)
        assert result and result.margin == np.inf
        assert is_detectable(sysm)

    def test_continuous_antilinear_stabilizable_iff_controllable(self, rng):
        for k in range(20):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            a2 = rand_cmatrix(rng, n, n)
            b2 = np.zeros((n, m)) if k % 4 == 0 else rand_cmatrix(rng, n, m)
            sysm = make_antilinear(a2, b2, domain="continuous")
            assert bool(is_stabilizable(sysm)) == bool(is_controllable(sysm))

    def test_discrete_antilinear_stable_no_input_is_stabilizable(self, rng):
        a2 = rand_cmatrix(rng, 3, 3, scale=0.2)
        sysm = make_antilinear(a2, np.zeros((3, 1)), domain="discrete")
        assert is_stabilizable(sysm)
        assert antilinear_stabilizable_discrete(a2, np.zeros((3, 1)))

    def test_agreement_across_representations(self, rng):
        # the same PBH decision must come out of the doubled real system
        for _ in range(10):
            n, m, p = 2, 1, 1
            sysm = rand_system(rng, n, m, p, TimeDomain.CONTINUOUS)
            rep = sysm.real_representation()
            pts = np.linalg.eigvals(rep.a)
            scale = np.linalg.norm(np.hstack([rep.a, rep.b]), 2)
            ctrb_real = all(
                np.linalg.svd(
                    np.hstack([s * np.eye(2 * n) - rep.a, rep.b]), compute_uv=False
                )[-1] > 1e-8 * scale
                for s in pts
            )
            scale_o = np.linalg.norm(np.vstack([rep.a, rep.c]), 2)
            obsv_real = all(
                np.linalg.svd(
                    np.vstack([s * np.eye(2 * n) - rep.a, rep.c]), compute_uv=False
                )[-1] > 1e-8 * scale_o
                for s in pts
            )
            assert ctrb_real == bool(is_controllable(sysm))
            assert obsv_real == bool(is_observable(sysm))

    def test_report_implications(self, rng):
        for _ in range(10):
            sysm = rand_system(rng, 2, 1, 1,
                               rng.choice([TimeDomain.CONTINUOUS, TimeDomain.DISCRETE]))
            rep = structure_report(sysm)
            if rep.controllable.passed:
                assert rep.stabilizable.passed
            if rep.observable.passed:
                assert rep.detectable.passed
            assert set(rep.margins()) == {
                "controllable", "observable", "stabilizable", "detectable",
            }


def _oracle_plant(seed, kind, n, domain, stable):
    """Random plant of one structure class, scaled or shifted to (in)stability."""
    rng = np.random.default_rng(seed)

    def part(rows, cols):
        first, second = rand_cmatrix(rng, rows, cols), rand_cmatrix(rng, rows, cols)
        if kind == "normal":
            return Bimatrix.normal(first)
        if kind == "antilinear":
            return Bimatrix.antilinear(second)
        return Bimatrix(first, second)

    a = part(n, n)
    lam = np.linalg.eigvals(a.real_representation())
    if domain == "discrete":
        a = ((0.5 if stable else 1.5) / float(np.max(np.abs(lam)))) * a
    elif kind != "antilinear":
        # a continuous antilinear spectrum is symmetric about 0: never stable
        top = float(np.max(lam.real))
        a = a - ((top + 0.5) if stable else (top - 0.5)) * Bimatrix.identity(n)
    return CxSystem(a, part(n, 2), part(2, n), part(2, 2), domain)


def _assert_matches_oracle(test, expected):
    """Margins above the roundoff floor to 12 digits; below it, both only fail.

    The floor is ``100 eps max(1, |[m0, g]|_2)``.  A margin of that order is
    the roundoff of a rank-deficient pencil: which point of a conjugate pair
    is decomposed, or how, moves it by O(1) relative, so no digit of it is
    information (Paige, IEEE TAC 26(1), 1981).
    """
    passed, margin, threshold = expected
    floor = 100 * np.finfo(float).eps * threshold / PBH_RTOL
    assert test.passed == passed
    if margin > floor:
        assert test.margin == pytest.approx(margin, rel=1e-12, abs=0.0)
    else:
        assert test.margin <= floor and not test.passed and not passed
    assert test.threshold == pytest.approx(threshold, rel=1e-12, abs=0.0)


_ORACLE_CASES = [
    (kind, n, domain, stable)
    for kind in ("general", "normal", "antilinear")
    for n in (1, 2, 8)
    for domain in ("continuous", "discrete")
    for stable in (True, False)
    if not (kind == "antilinear" and domain == "continuous" and stable)
]


class TestPbhKernelAgainstOracle:
    """Every structural margin against per-point SVDs of independently built pencils."""

    @pytest.mark.parametrize("kind,n,domain,stable", _ORACLE_CASES)
    def test_lifted_tests_match_oracle(self, kind, n, domain, stable):
        sysm = _oracle_plant(100 * n + len(kind), kind, n, domain, stable)
        expected = lifted_pbh_oracle(sysm, PBH_RTOL, STABILITY_TOL)
        rep = structure_report(sysm)
        assert rep.stable == stable
        standalone = {
            "controllable": is_controllable(sysm),
            "observable": is_observable(sysm),
            "stabilizable": is_stabilizable(sysm),
            "detectable": is_detectable(sysm),
        }
        for name, want in expected.items():
            _assert_matches_oracle(getattr(rep, name), want)
            _assert_matches_oracle(standalone[name], want)
        if stable:
            assert rep.stabilizable.margin == rep.detectable.margin == np.inf
        else:
            assert np.isfinite(rep.stabilizable.margin)
            assert np.isfinite(rep.detectable.margin)

    def test_pencils_spanning_several_batches(self):
        # 104 lifted pencils of 104 x 108 entries exceed one batched SVD call
        sysm = _oracle_plant(52, "general", 52, "continuous", stable=False)
        expected = lifted_pbh_oracle(sysm, PBH_RTOL, STABILITY_TOL)
        rep = structure_report(sysm)
        for name, want in expected.items():
            _assert_matches_oracle(getattr(rep, name), want)

    @pytest.mark.parametrize("kind,n,domain,stable", [
        case for case in _ORACLE_CASES if case[0] == "antilinear"
    ])
    def test_reduced_tests_match_oracle(self, kind, n, domain, stable):
        sysm = _oracle_plant(100 * n + len(kind), kind, n, domain, stable)
        a2, b2, c2 = sysm.a.second, sysm.b.second, sysm.c.second
        m0 = np.conj(a2) @ a2
        _assert_matches_oracle(
            antilinear_controllable(a2, b2),
            pbh_oracle(m0, np.hstack([np.conj(b2), np.conj(a2) @ b2]),
                       np.linalg.eigvals(m0), PBH_RTOL),
        )
        _assert_matches_oracle(
            antilinear_observable(a2, c2),
            pbh_oracle(m0, np.vstack([c2, np.conj(c2) @ a2]),
                       np.linalg.eigvals(m0), PBH_RTOL, tall=True),
        )
        m1 = a2 @ np.conj(a2)
        mu = np.linalg.eigvals(m1)
        _assert_matches_oracle(
            antilinear_stabilizable_discrete(a2, b2),
            pbh_oracle(m1, np.hstack([b2, a2 @ np.conj(b2)]),
                       mu[np.abs(mu) >= 1.0 - STABILITY_TOL], PBH_RTOL),
        )

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    def test_zero_input_plant_fails(self, domain):
        sysm = _oracle_plant(7, "general", 2, domain, stable=False)
        sysm = CxSystem(sysm.a, Bimatrix.zeros(2, 2), sysm.c, sysm.d, domain)
        expected = lifted_pbh_oracle(sysm, PBH_RTOL, STABILITY_TOL)
        rep = structure_report(sysm)
        assert not rep.controllable and not rep.stabilizable
        assert not is_controllable(sysm) and not is_stabilizable(sysm)
        for name in ("controllable", "stabilizable"):
            _assert_matches_oracle(getattr(rep, name), expected[name])
        a2 = rand_cmatrix(np.random.default_rng(3), 2, 2)
        assert not antilinear_controllable(a2, np.zeros((2, 1)))

    @pytest.mark.parametrize("domain,edge", [("continuous", 0.0), ("discrete", 1.0)])
    def test_bad_region_boundary(self, domain, edge):
        # an unreachable mode 1e-6 inside the stable region is not tested;
        # one within STABILITY_TOL of the boundary is, and fails
        for offset, inside in ((1e-6, True), (0.1 * STABILITY_TOL, False)):
            sysm = CxSystem(Bimatrix.normal([[edge - offset]]), Bimatrix.zeros(1, 1),
                            Bimatrix.identity(1), Bimatrix.zeros(1, 1), domain)
            rep = structure_report(sysm)
            assert rep.stable == inside == is_asymptotically_stable(sysm)
            assert rep.stabilizable.passed == inside == is_stabilizable(sysm).passed
            _assert_matches_oracle(
                rep.stabilizable,
                lifted_pbh_oracle(sysm, PBH_RTOL, STABILITY_TOL)["stabilizable"],
            )


class TestConjugatePairHalving:
    """The lifted tests decompose one member of each conjugate pair.

    With ``J`` swapping the blocks, ``conj(L) = J L J`` for every lifting, so
    the lifted pencils at ``s`` and ``conj(s)`` have the same singular values.
    """

    @pytest.mark.parametrize("n", [1, 2, 8, 24])
    def test_pair_spectra_are_exactly_conjugate_closed(self, n):
        for seed, kind in enumerate(("general", "normal", "antilinear")):
            for domain in ("continuous", "discrete"):
                sysm = _oracle_plant(900 + 10 * n + seed, kind, n, domain, stable=False)
                values = sysm.a.eigenvalues().values
                assert values.size == 2 * n
                assert np.array_equal(np.sort_complex(values), np.sort_complex(values.conj()))

    @pytest.mark.parametrize("kind", ["general", "normal", "antilinear"])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_margins_agree_at_conjugate_points(self, kind, n):
        sysm = _oracle_plant(300 + n, kind, n, "discrete", stable=False)
        al, bl, cl = lift(sysm.a), lift(sysm.b), lift(sysm.c)
        pts = np.linalg.eigvals(lift(sysm.a))
        for g, tall in ((bl, False), (cl, True)):
            at_s, scale = _pbh(al, g, pts, tall)
            at_conj, _ = _pbh(al, g, pts.conj(), tall)
            # well above the roundoff floor, so every digit compared is information
            assert np.min(at_s) > 1e-6 * scale
            np.testing.assert_allclose(at_conj, at_s, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    def test_lifted_tests_pass_only_upper_half_points(self, monkeypatch, domain):
        passed_points = []

        def counting_pbh(m0, g, points, tall=False):
            passed_points.append(np.array(points))
            return _pbh(m0, g, points, tall)

        monkeypatch.setattr(analysis, "_pbh", counting_pbh)
        for seed, kind in enumerate(("general", "normal", "antilinear")):
            sysm = _oracle_plant(40 + seed, kind, 8, domain, stable=False)
            values = sysm.spectrum().values
            upper = values[values.imag >= 0]
            real = np.count_nonzero(values.imag == 0)
            assert real < values.size and upper.size == real + (values.size - real) // 2
            if domain == "continuous":
                bad = upper[upper.real >= -STABILITY_TOL]
            else:
                bad = upper[np.abs(upper) >= 1.0 - STABILITY_TOL]
            assert 0 < bad.size < upper.size or kind == "antilinear"
            passed_points.clear()
            structure_report(sysm)
            for test in (is_controllable, is_observable, is_stabilizable, is_detectable):
                test(sysm)
            expected = [upper, upper, upper, upper, bad, bad]
            assert len(passed_points) == len(expected)
            for got, want in zip(passed_points, expected):
                assert np.array_equal(got, want)


class TestStability:
    def test_discrete_antilinear_golden(self):
        sysm = make_antilinear([[0.5j]], [[1.0]], domain="discrete")
        # rho(conj(A2) A2) = 0.25 < 1
        assert is_asymptotically_stable(sysm)

    def test_continuous_antilinear_never_stable(self, rng):
        for _ in range(10):
            a2 = rand_cmatrix(rng, int(rng.integers(1, 4)), 1)
            n = a2.shape[0]
            a2 = rand_cmatrix(rng, n, n)
            sysm = make_antilinear(a2, np.ones((n, 1)), domain="continuous")
            assert not is_asymptotically_stable(sysm)

    def test_normal_scalar(self):
        assert is_asymptotically_stable(
            make_normal([[-1.0]], [[1.0]], [[1.0]], domain="continuous")
        )

    def test_discrete_matches_spectral_radius_rule(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a2 = rand_cmatrix(rng, n, n, scale=float(rng.uniform(0.1, 1.2)))
            sysm = make_antilinear(a2, np.ones((n, 1)), domain="discrete")
            rho = float(np.max(np.abs(np.linalg.eigvals(np.conj(a2) @ a2))))
            assert is_asymptotically_stable(sysm) == (rho < 1.0)


class TestLyapunov:
    def test_normal_scalar_golden(self):
        sysm = make_normal([[-1.0]], [[1.0]], [[1.0]], domain="continuous")
        p = solve_lyapunov(sysm, Bimatrix.normal([[1.0]]))
        # scalar balance: 2 p = 1
        assert np.allclose(p.first, [[0.5]])
        assert np.allclose(p.second, 0, atol=1e-14)

    def test_antilinear_discrete_scalar_golden(self):
        sysm = make_antilinear([[0.5]], [[1.0]], [[1.0]], domain="discrete")
        p = solve_lyapunov(sysm, Bimatrix.antilinear([[1.0]]))
        # 0.25 p - p = -1  =>  p = 4/3
        assert np.allclose(p.first, [[4.0 / 3.0]])
        assert np.allclose(p.second, 0, atol=1e-13)

    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_residual_in_pair_arithmetic(self, rng, domain):
        for _ in range(5):
            sysm = rand_stable_system(rng, 3, 1, 2, domain)
            c = rand_bimatrix(rng, 2, 3)
            p = solve_lyapunov(sysm, c)
            w = c.H @ c
            if domain.is_continuous:
                res = sysm.a.H @ p + p @ sysm.a + w
            else:
                res = sysm.a.H @ p @ sysm.a - p + w
            scale = np.linalg.norm(w.first) + np.linalg.norm(w.second)
            err = np.linalg.norm(res.first) + np.linalg.norm(res.second)
            assert err <= 1e-10 * max(1.0, scale)

    def test_lifted_form_residual(self, rng):
        sysm = rand_stable_system(rng, 3, 1, 3, TimeDomain.CONTINUOUS)
        c = Bimatrix.identity(3)
        p = solve_lyapunov(sysm, c)
        al = lift(sysm.a)
        cl = lift(c)
        pl = lift(p)
        res = al.conj().T @ pl + pl @ al + cl.conj().T @ cl
        assert np.linalg.norm(res) <= 1e-10 * max(1.0, np.linalg.norm(cl.conj().T @ cl))

    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_stability_iff_solvable_with_pd_solution(self, rng, domain):
        stable_seen = unstable_seen = 0
        for k in range(25):
            sysm = rand_system(rng, 2, 1, 2, domain,
                               scale=float(rng.uniform(0.2, 1.0)))
            if k % 2 == 0 and domain.is_continuous:
                # shift the state pair left so both outcomes appear
                shift = float(np.max(sysm.spectrum().values.real)) + 0.4
                sysm = CxSystem(
                    Bimatrix(sysm.a.first - shift * np.eye(2), sysm.a.second),
                    sysm.b, sysm.c, sysm.d, domain,
                )
            stable = is_asymptotically_stable(sysm)
            try:
                p = solve_lyapunov(sysm, Bimatrix.identity(2))
                solvable_pd = is_positive_definite(p)
            except NoUniqueSolutionError:
                solvable_pd = False
            assert stable == solvable_pd
            stable_seen += stable
            unstable_seen += not stable
        assert stable_seen and unstable_seen

    def test_decay_along_trajectories(self, rng):
        sysm = rand_stable_system(rng, 3, 1, 3, TimeDomain.CONTINUOUS)
        p = solve_lyapunov(sysm, Bimatrix.identity(3))
        x0 = rand_cmatrix(rng, 3, 1).ravel()
        trace = state_response(sysm, x0, np.linspace(0.0, 3.0, 40))
        v = [quadratic_form_real(p, trace.states[k]) for k in range(len(trace))]
        assert all(v[k + 1] <= v[k] + 1e-12 for k in range(len(v) - 1))

    @pytest.mark.parametrize("continuous", [True, False])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_real_solver_matches_kronecker_formula(self, rng, n, continuous):
        a = rng.standard_normal((n, n))
        lam = np.linalg.eigvals(a)
        if continuous:
            a = a - (float(np.max(lam.real)) + 0.5) * np.eye(n)
        else:
            a = a * (0.9 / float(np.max(np.abs(lam))))
        y = rng.standard_normal((n, n))
        w = y @ y.T + np.eye(n)
        got = solve_lyapunov_real(a, w, continuous)
        want = kron_lyapunov(a, w, continuous)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        assert np.array_equal(got, got.T)

    def test_singular_operator_raises(self):
        # +1 and -1 eigenvalues sum to zero across the pair
        sysm = make_normal(np.diag([1.0, -1.0]), np.ones((2, 1)), np.eye(2),
                           domain="continuous")
        with pytest.raises(NoUniqueSolutionError):
            solve_lyapunov(sysm, Bimatrix.identity(2))

    def test_singular_discrete_operator_raises(self):
        # 2 * 0.5 = 1 makes the discrete operator singular
        sysm = make_normal(np.diag([2.0, 0.5]), np.ones((2, 1)), np.eye(2),
                           domain="discrete")
        with pytest.raises(NoUniqueSolutionError, match="eigenvalue pair"):
            solve_lyapunov(sysm, Bimatrix.identity(2))


class TestAntilinearLyapunovReduced:
    def test_scalar_golden(self):
        p = antilinear_lyapunov_reduced(np.array([[0.5]]), np.array([[1.0], [0.5]]))
        # 0.0625 p - p = -1.25  =>  p = 4/3
        assert np.allclose(p, [[4.0 / 3.0]])

    def test_unstable_has_no_pd_solution(self):
        with pytest.raises(NoPositiveDefiniteSolutionError):
            antilinear_lyapunov_reduced(np.array([[2.0]]), np.array([[1.0]]))

    def test_unit_mode_has_no_unique_solution(self):
        # M = conj(A2) A2 = 1, so conj(mu) mu - 1 = 0
        with pytest.raises(NoUniqueSolutionError, match="eigenvalue pair"):
            antilinear_lyapunov_reduced(np.array([[1.0]]), np.array([[1.0]]))

    def test_agrees_with_pair_solution_via_stacked_weight(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            a2 = rand_cmatrix(rng, n, n, scale=0.4)
            c2 = rand_cmatrix(rng, 1, n)
            sysm = make_antilinear(a2, np.ones((n, 1)), domain="discrete")
            if not is_asymptotically_stable(sysm):
                continue
            p_pair = solve_lyapunov(sysm, Bimatrix.antilinear(c2))
            c_n = np.vstack([c2, np.conj(c2) @ a2])
            p_n = antilinear_lyapunov_reduced(a2, c_n)
            assert np.allclose(p_pair.first, p_n, atol=1e-9)
            assert np.allclose(p_pair.second, 0, atol=1e-9)

    def test_matches_kronecker_formula(self, rng):
        for n in range(1, 6):
            a2 = rand_cmatrix(rng, n, n)
            rho = float(np.max(np.abs(np.linalg.eigvals(np.conj(a2) @ a2))))
            a2 = a2 * np.sqrt(0.9 / rho)
            c_n = rand_cmatrix(rng, 2, n)
            got = antilinear_lyapunov_reduced(a2, c_n)
            want = kron_lyapunov(np.conj(a2) @ a2, c_n.conj().T @ c_n, continuous=False)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
