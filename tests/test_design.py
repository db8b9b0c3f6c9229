import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from bimatrix import (
    Bimatrix,
    CxSystem,
    HermiteBimatrix,
    SpectrumSet,
    TimeDomain,
    WeightPair,
    antilinear_lqr_continuous,
    antilinear_lqr_discrete,
    assign_eigenvalues,
    assign_eigenvalues_normal,
    closed_loop,
    design_observer,
    h_matrix,
    hermite_from_real_representation,
    is_asymptotically_stable,
    is_controllable,
    is_observable,
    lqr,
    lqr_cost,
    make_antilinear,
    make_normal,
    observer_loop,
    stabilize,
    state_response,
)
import bimatrix.design as design_module
from bimatrix.design import _place, _real_spectrum_matrix
from bimatrix.exceptions import (
    DimensionError,
    NotControllableError,
    NotObservableError,
    NotStabilizableError,
    PlacementError,
    RiccatiError,
    SpectrumError,
)

from helpers import (
    multiset_close,
    rand_cmatrix,
    rand_controllable_system,
    rand_stable_spectrum,
    rand_system,
    real_spectrum_matrix_loop,
)


def _example_normal_system(alpha0=5.0, alpha1=4.0):
    a1 = np.array([[0.0, 1.0], [-alpha0, -alpha1]])
    b1 = np.array([[0.0], [1.0]])
    return make_normal(a1, b1, np.eye(2), domain="continuous")


def _rand_hpd(rng, n, floor=0.5):
    x = rand_cmatrix(rng, n, n)
    return x @ x.conj().T + floor * np.eye(n)


def _rand_pd_weights(rng, n, m):
    q = hermite_from_real_representation(_rand_spd(rng, 2 * n))
    r = hermite_from_real_representation(_rand_spd(rng, 2 * m))
    return WeightPair(HermiteBimatrix(q.first, q.second),
                      HermiteBimatrix(r.first, r.second))


def _rand_spd(rng, k, floor=0.5):
    y = rng.standard_normal((k, k))
    return y @ y.T + floor * np.eye(k)


class TestAssignEigenvalues:
    def test_random_controllable_systems_hit_target(self, rng):
        for domain in (TimeDomain.CONTINUOUS, TimeDomain.DISCRETE):
            for _ in range(5):
                n, m = int(rng.integers(1, 6)), int(rng.integers(1, 3))
                sysm = rand_controllable_system(rng, n, m, 1, domain)
                gamma = rand_stable_spectrum(rng, 2 * n, domain)
                gain = assign_eigenvalues(sysm, gamma, rng=rng)
                achieved = closed_loop(sysm, gain).spectrum()
                assert achieved.matches(gamma, rtol=1e-6)

    def test_reassigning_the_open_loop_spectrum(self, rng):
        sysm = _example_normal_system()
        gamma = sysm.spectrum()
        gain = assign_eigenvalues(sysm, gamma, rng=rng)
        achieved = closed_loop(sysm, gain).spectrum()
        assert achieved.matches(gamma, rtol=1e-6)

    def test_wrong_count_rejected(self, rng):
        sysm = _example_normal_system()
        with pytest.raises(SpectrumError):
            assign_eigenvalues(sysm, [-1.0, -2.0], rng=rng)

    def test_unclosed_spectrum_rejected(self, rng):
        sysm = _example_normal_system()
        with pytest.raises(SpectrumError):
            assign_eigenvalues(sysm, [-1.0, -2.0, -3.0, 1j], rng=rng)

    def test_real_target_blocks_match_the_pool_loop(self, rng):
        # shuffled real values and conjugate pairs, some repeated
        for _ in range(200):
            vals = []
            for _ in range(int(rng.integers(1, 7))):
                v = complex(rng.normal(), rng.normal() if rng.random() < 0.7 else 0.0)
                vals += ([v, np.conj(v)] if v.imag else [v]) * int(rng.integers(1, 3))
            vals = rng.permutation(vals)
            got = _real_spectrum_matrix(vals)
            assert got.tobytes() == real_spectrum_matrix_loop(vals).tobytes()

    def test_near_conjugate_pair_refused_like_spectrum_set(self, rng):
        # 1.3e-8 apart at |v| ~ 0.71, outside CONJ_PAIR_RTOL * max(1, |v|) = 1e-8
        targets = np.array([0.5 + 0.5j, 0.5 + 1.3e-8 - 0.5j])
        with pytest.raises(SpectrumError):
            SpectrumSet(targets)
        a, b = np.array([[0.0, 1.0], [-2.0, -3.0]]), np.array([[0.0], [1.0]])
        with pytest.raises(SpectrumError):
            _place(a, b, targets, rng)

    def test_uncontrollable_rejected(self, rng):
        sysm = CxSystem(
            Bimatrix.normal(np.eye(2)),
            Bimatrix.zeros(2, 1),
            Bimatrix.identity(2),
            Bimatrix.zeros(2, 1),
            TimeDomain.DISCRETE,
        )
        with pytest.raises(NotControllableError):
            assign_eigenvalues(sysm, [-0.5, -0.5, 0.5, 0.5], rng=rng)

    def test_gain_is_real_representation_consistent(self, rng):
        # folding the designed gain back must reproduce the real gain exactly
        sysm = rand_controllable_system(rng, 2, 2, 1, TimeDomain.CONTINUOUS)
        gamma = rand_stable_spectrum(rng, 4, TimeDomain.CONTINUOUS)
        gain = assign_eigenvalues(sysm, gamma, rng=rng)
        rep = sysm.real_representation()
        acl = rep.a + rep.b @ gain.real_representation()
        assert multiset_close(np.linalg.eigvals(acl), gamma, rtol=1e-6)


class TestAssignNormal:
    @pytest.mark.parametrize("alpha", [(5.0, 4.0), (-2.0, 0.5)])
    def test_companion_single_input_gain_is_unique_formula(self, rng, alpha):
        alpha0, alpha1 = alpha
        gamma0, gamma1 = 2.0, 3.0
        sysm = _example_normal_system(alpha0, alpha1)
        poles = np.roots([1.0, gamma1, gamma0])
        gain = assign_eigenvalues_normal(sysm, poles, rng=rng)
        want = np.array([[alpha0 - gamma0, alpha1 - gamma1]])
        assert np.allclose(gain.first, want, atol=1e-10)
        assert np.count_nonzero(gain.second) == 0

    def test_complex_poles_accepted(self, rng):
        sysm = _example_normal_system()
        poles = np.array([-1.0 + 2.0j, -3.0 - 0.5j])  # no closure requirement
        gain = assign_eigenvalues_normal(sysm, poles, rng=rng)
        acl = sysm.a.first + sysm.b.first @ gain.first
        assert multiset_close(np.linalg.eigvals(acl), poles, rtol=1e-8)

    def test_requires_normal_system(self, rng):
        sysm = make_antilinear([[0.5]], [[1.0]], domain="continuous")
        with pytest.raises(ValueError):
            assign_eigenvalues_normal(sysm, [-1.0], rng=rng)


class TestPlacementSylvesterSolve:
    """``_block_sylvester`` against Bartels-Stewart on well-separated spectra."""

    @staticmethod
    def _real_problem(rng, n, pairs):
        # the spectrum of a lies near the disc |s - 3| <= 1, the targets in -3 <= Re s <= -1
        a = rng.standard_normal((n, n)) / np.sqrt(n) + 3.0 * np.eye(n)
        vals = [complex(-1.0 - 2.0 * rng.random(), 0.5 + rng.random()) for _ in range(pairs)]
        vals = [v for z in vals for v in (z, z.conjugate())]
        vals += [complex(-1.0 - 2.0 * rng.random()) for _ in range(n - 2 * pairs)]
        return a, _real_spectrum_matrix(rng.permutation(vals))

    @pytest.mark.parametrize("n", [1, 2, 4, 16, 32])
    def test_real_blocks_match_solve_sylvester(self, rng, n):
        for pairs in sorted({0, n // 4, n // 2}):
            a, lam = self._real_problem(rng, n, pairs)
            assert np.count_nonzero(np.diag(lam, 1)) == pairs
            c = rng.standard_normal((n, n))
            x = design_module._block_sylvester(a, lam)(c)
            want = scipy.linalg.solve_sylvester(a, -lam, c)
            assert x.dtype == float
            assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [1, 2, 4, 16, 32])
    def test_complex_diagonal_matches_solve_sylvester(self, rng, n):
        a = rand_cmatrix(rng, n, n, 1.0 / np.sqrt(n)) + 3.0 * np.eye(n)
        lam = np.diag(-1.0 - 2.0 * rng.random(n) + 1j * rng.standard_normal(n))
        c = rand_cmatrix(rng, n, n)
        x = design_module._block_sylvester(a, lam)(c)
        want = scipy.linalg.solve_sylvester(a, -lam, c)
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "a, lam",
        [(np.diag([1.0, 2.0]), np.diag([1.0, -3.0])),
         (np.array([[1.0, 2.0], [-2.0, 1.0]]), np.array([[1.0, 2.0], [-2.0, 1.0]])),
         (np.diag([1.0 + 1.0j, 2.0]), np.diag([-1.0, 1.0 + 1.0j]))],
    )
    def test_exactly_singular_shift_skips_every_draw(self, rng, a, lam):
        with pytest.raises(np.linalg.LinAlgError):
            design_module._block_sylvester(a, lam)(np.ones((2, 2)))
        targets = np.linalg.eigvals(lam)
        with pytest.raises(PlacementError, match="20 parameter draws"):
            design_module._place_once(a, np.ones((2, 1)), lam, targets, rng)


class TestClosedLoop:
    def test_zero_gain_is_identity(self, rng):
        sysm = rand_system(rng, 2, 1, 1, TimeDomain.DISCRETE)
        cl = closed_loop(sysm, Bimatrix.zeros(1, 2))
        assert cl.a.allclose(sysm.a)

    def test_normal_plant_full_feedback_structure(self, rng):
        # feedback into a real normal plant: first part A1 + B1 K1, second B1 K2
        sysm = _example_normal_system()
        k1, k2 = rand_cmatrix(rng, 1, 2), rand_cmatrix(rng, 1, 2)
        cl = closed_loop(sysm, Bimatrix(k1, k2))
        assert np.allclose(cl.a.first, sysm.a.first + sysm.b.first @ k1)
        assert np.allclose(cl.a.second, np.conj(sysm.b.first) @ k2)

    def test_assignment_round_trip(self, rng):
        sysm = rand_controllable_system(rng, 2, 1, 1, TimeDomain.DISCRETE)
        gamma = rand_stable_spectrum(rng, 4, TimeDomain.DISCRETE)
        gain = assign_eigenvalues(sysm, gamma, rng=rng)
        assert closed_loop(sysm, gain).spectrum().matches(gamma, rtol=1e-6)


class TestStabilize:
    def test_conjugate_input_integrator(self, rng):
        # xdot = conj(u): only the conjugate channel can damp this plant
        sysm = make_antilinear([[0.0]], [[1.0]], domain="continuous")
        gain = stabilize(sysm, rng=rng)
        assert np.linalg.norm(gain.second) > 1e-6
        assert is_asymptotically_stable(closed_loop(sysm, gain))

    def test_stable_plant_without_input_gets_zero_gain(self):
        sysm = CxSystem(
            Bimatrix.normal([[-1.0]]),
            Bimatrix.zeros(1, 1),
            Bimatrix.identity(1),
            Bimatrix.zeros(1, 1),
            TimeDomain.CONTINUOUS,
        )
        gain = stabilize(sysm)
        assert np.allclose(gain.first, 0) and np.allclose(gain.second, 0)

    def test_unstabilizable_rejected(self):
        sysm = CxSystem(
            Bimatrix.normal([[1.0]]),
            Bimatrix.zeros(1, 1),
            Bimatrix.identity(1),
            Bimatrix.zeros(1, 1),
            TimeDomain.CONTINUOUS,
        )
        with pytest.raises(NotStabilizableError):
            stabilize(sysm)

    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_lqr_path_runs_each_check_once(self, monkeypatch, domain):
        counts = {"is_stabilizable": 0, "is_asymptotically_stable": 0}
        for name in counts:
            def counted(*args, _name=name, _real=getattr(design_module, name)):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(design_module, name, counted)
        sysm = rand_controllable_system(np.random.default_rng(17), 3, 2, 1, domain)
        gain = stabilize(sysm)
        assert counts == {"is_stabilizable": 1, "is_asymptotically_stable": 1}
        want = lqr(sysm).gain
        assert np.array_equal(gain.first, want.first)
        assert np.array_equal(gain.second, want.second)

    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_random_controllable_plants(self, rng, domain):
        for _ in range(5):
            sysm = rand_controllable_system(rng, 3, 2, 1, domain)
            gain = stabilize(sysm, rng=rng)
            assert is_asymptotically_stable(closed_loop(sysm, gain))


class TestLqr:
    def test_normal_scalar_integrator_golden(self):
        sysm = make_normal([[0.0]], [[1.0]], [[1.0]], domain="continuous")
        sol = lqr(sysm)
        # scalar balance p^2 = 1 with p > 0
        assert np.allclose(sol.p.first, [[1.0]], atol=1e-8)
        assert np.allclose(sol.p.second, 0, atol=1e-8)
        assert np.allclose(sol.gain.first, [[-1.0]], atol=1e-8)
        assert np.allclose(sol.gain.second, 0, atol=1e-8)

    def test_conjugate_integrator_golden(self):
        sysm = make_antilinear([[0.0]], [[1.0]], domain="continuous")
        sol = lqr(sysm)
        assert np.allclose(sol.p.first, [[1.0]], atol=1e-8)
        assert np.allclose(sol.p.second, 0, atol=1e-8)
        assert np.allclose(sol.gain.first, 0, atol=1e-8)
        assert np.allclose(sol.gain.second, [[-1.0]], atol=1e-8)
        cl = closed_loop(sysm, sol.gain)
        assert np.allclose(cl.a.first, [[-1.0]], atol=1e-8)
        assert sol.minimum_cost([1.0]) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_matches_library_riccati_solver(self, rng, domain):
        for _ in range(4):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            sysm = rand_controllable_system(rng, n, m, 1, domain)
            weights = _rand_pd_weights(rng, n, m)
            sol = lqr(sysm, weights)
            rep = sysm.real_representation()
            qr_ = weights.q.real_representation()
            rr = weights.r.real_representation()
            if domain.is_continuous:
                want = scipy.linalg.solve_continuous_are(rep.a, rep.b, qr_, rr)
            else:
                want = scipy.linalg.solve_discrete_are(rep.a, rep.b, qr_, rr)
            got = sol.p.real_representation()
            assert np.allclose(got, want, atol=1e-7 * max(1.0, np.linalg.norm(want)))

    def test_residual_in_both_forms(self, rng):
        for domain in (TimeDomain.CONTINUOUS, TimeDomain.DISCRETE):
            sysm = rand_controllable_system(rng, 2, 1, 1, domain)
            weights = _rand_pd_weights(rng, 2, 1)
            sol = lqr(sysm, weights)
            assert sol.residual <= 1e-8
            # lifted-form residual
            al = sysm.a.complex_lifting()
            bl = sysm.b.complex_lifting()
            ql = weights.q.complex_lifting()
            rl = weights.r.complex_lifting()
            pl = sol.p.complex_lifting()
            if domain.is_continuous:
                res = al.conj().T @ pl + pl @ al - pl @ bl @ np.linalg.solve(
                    rl, bl.conj().T @ pl
                ) + ql
            else:
                sl = rl + bl.conj().T @ pl @ bl
                bpa = bl.conj().T @ pl @ al
                res = al.conj().T @ pl @ al - pl - bpa.conj().T @ np.linalg.solve(
                    sl, bpa
                ) + ql
            scale = max(1.0, np.linalg.norm(ql), np.linalg.norm(pl))
            assert np.linalg.norm(res) <= 1e-8 * scale

    def test_normal_plant_with_normal_weights_reduces(self, rng):
        a1 = rand_cmatrix(rng, 3, 3)
        b1 = rand_cmatrix(rng, 3, 2)
        sysm = make_normal(a1, b1, np.eye(3), domain="continuous")
        if not is_controllable(sysm):
            pytest.skip("unlucky draw")
        weights = WeightPair(
            HermiteBimatrix(_rand_hpd(rng, 3)), HermiteBimatrix(_rand_hpd(rng, 2))
        )
        sol = lqr(sysm, weights)
        assert np.linalg.norm(sol.p.second) <= 1e-8 * np.linalg.norm(sol.p.first)
        assert np.linalg.norm(sol.gain.second) <= 1e-8 * max(
            1.0, np.linalg.norm(sol.gain.first)
        )

    def test_unstabilizable_rejected(self):
        sysm = CxSystem(
            Bimatrix.normal([[1.0]]),
            Bimatrix.zeros(1, 1),
            Bimatrix.identity(1),
            Bimatrix.zeros(1, 1),
            TimeDomain.CONTINUOUS,
        )
        with pytest.raises(NotStabilizableError):
            lqr(sysm)

    def test_indefinite_weight_rejected(self, rng):
        with pytest.raises(ValueError):
            WeightPair(
                HermiteBimatrix(-np.eye(2)), HermiteBimatrix(np.eye(1))
            )

    def test_perturbed_gains_cost_more(self, rng):
        sysm = rand_controllable_system(rng, 2, 1, 1, TimeDomain.DISCRETE)
        weights = _rand_pd_weights(rng, 2, 1)
        sol = lqr(sysm, weights)
        x0 = rand_cmatrix(rng, 2, 1).ravel()
        base = lqr_cost(sysm, weights, sol.gain, x0, horizon=400)
        for _ in range(10):
            delta = Bimatrix(
                1e-3 * rand_cmatrix(rng, 1, 2), 1e-3 * rand_cmatrix(rng, 1, 2)
            )
            trial = sol.gain + delta
            if not is_asymptotically_stable(closed_loop(sysm, trial)):
                continue
            cost = lqr_cost(sysm, weights, trial, x0, horizon=400)
            assert cost >= base - 1e-6


class TestLqrCost:
    def test_zero_initial_state(self, rng):
        sysm = make_normal([[0.0]], [[1.0]], [[1.0]], domain="continuous")
        sol = lqr(sysm)
        weights = WeightPair.identity(1, 1)
        assert lqr_cost(sysm, weights, sol.gain, [0.0], horizon=10.0) == 0.0

    def test_conjugate_integrator_cost_matches_riccati_value(self):
        sysm = make_antilinear([[0.0]], [[1.0]], domain="continuous")
        sol = lqr(sysm)
        weights = WeightPair.identity(1, 1)
        cost = lqr_cost(sysm, weights, sol.gain, [1.0], horizon=40.0)
        assert cost == pytest.approx(1.0, rel=1e-3)
        assert cost == pytest.approx(sol.minimum_cost([1.0]), rel=1e-3)

    def test_unstable_loop_warns(self, rng):
        sysm = make_normal([[1.0]], [[1.0]], [[1.0]], domain="continuous")
        weights = WeightPair.identity(1, 1)
        with pytest.warns(RuntimeWarning):
            lqr_cost(sysm, weights, Bimatrix.zeros(1, 1), [1.0], horizon=1.0, dt=0.01)

    @pytest.mark.parametrize(
        "domain, horizon, dt, message",
        [("discrete", 3e6, None, "span at most"),
         ("discrete", math.inf, None, "horizon must be finite"),
         ("continuous", math.inf, 0.1, "horizon must be finite"),
         ("discrete", -1.0, None, "non-negative"),
         ("continuous", 1.0, 0.0, "dt must be finite and positive"),
         ("continuous", 1.0, -0.1, "dt must be finite and positive")],
    )
    def test_bad_grid_refused_before_any_step(self, monkeypatch, domain, horizon, dt, message):
        def no_propagation(*args):
            raise AssertionError("the propagation kernel ran")

        monkeypatch.setattr(design_module, "_propagate", no_propagation)
        sysm = make_normal([[0.5]], [[1.0]], [[1.0]], domain=domain)
        gain = Bimatrix.normal([[-1.0]])
        with pytest.raises(ValueError, match=message):
            lqr_cost(sysm, WeightPair.identity(1, 1), gain, [1.0], horizon, dt)


class TestRiccatiSolverPath:
    def test_schur_solution_disagreeing_with_newton_polish_is_refused(
        self, rng, monkeypatch
    ):
        sysm = rand_controllable_system(rng, 2, 1, 1, TimeDomain.DISCRETE)
        assert lqr(sysm).iterations == 1
        exact = scipy.linalg.solve_discrete_are

        def perturbed(a, b, q, r):
            p = exact(a, b, q, r)
            return p + 1e-4 * np.linalg.norm(p) * np.eye(p.shape[0])

        monkeypatch.setattr(scipy.linalg, "solve_discrete_are", perturbed)
        with pytest.raises(RiccatiError, match="disagree"):
            lqr(sysm)

    @pytest.mark.parametrize(
        "domain, solver",
        [(TimeDomain.DISCRETE, "solve_discrete_are"),
         (TimeDomain.CONTINUOUS, "solve_continuous_are")],
    )
    def test_riccati_solve_looked_up_on_scipy_at_call_time(
        self, rng, monkeypatch, domain, solver
    ):
        # SciPy is imported inside the solver, so a patched module attribute
        # is what runs
        exact, calls = getattr(scipy.linalg, solver), []

        def recorded(*args):
            calls.append(None)
            return exact(*args)

        monkeypatch.setattr(scipy.linalg, solver, recorded)
        lqr(rand_controllable_system(rng, 2, 1, 1, domain))
        assert len(calls) == 1

    @staticmethod
    def _scipy_dare(sysm):
        rep = sysm.real_representation()
        return scipy.linalg.solve_discrete_are(
            rep.a, rep.b, np.eye(2 * sysm.n), np.eye(2 * sysm.m)
        )

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_raw_discrete_order_8_agrees_with_scipy_or_refuses(self, seed):
        sysm = rand_controllable_system(
            np.random.default_rng(seed), 8, 1, 1, TimeDomain.DISCRETE
        )
        try:
            sol = lqr(sysm)
        except RiccatiError:
            return
        want = self._scipy_dare(sysm)
        got = sol.p.real_representation()
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_newton_polished_raw_discrete_solution_matches_scipy(self):
        # this raw plant's Schur solution misses the residual gate by itself
        sysm = rand_controllable_system(
            np.random.default_rng(0), 8, 2, 1, TimeDomain.DISCRETE
        )
        sol = lqr(sysm)
        assert sol.iterations > 1
        want = self._scipy_dare(sysm)
        got = sol.p.real_representation()
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_rescaled_discrete_order_8_matches_scipy(self):
        for seed in (1, 2):
            raw = rand_controllable_system(
                np.random.default_rng(seed), 8, 1, 1, TimeDomain.DISCRETE
            )
            rho = np.max(np.abs(np.linalg.eigvals(raw.a.real_representation())))
            sysm = CxSystem(raw.a * (1.1 / rho), raw.b, raw.c, raw.d, raw.domain)
            sol = lqr(sysm)
            want = self._scipy_dare(sysm)
            got = sol.p.real_representation()
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


class TestAntilinearLqrDiscrete:
    def test_scalar_golden_ratio_fixed_point(self):
        sol = antilinear_lqr_discrete(
            np.array([[1.0]]), np.array([[1.0]]), np.eye(1), np.eye(1)
        )
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        assert np.allclose(sol.p.first, [[golden]], atol=1e-10)
        assert np.allclose(sol.gain.first, [[-1.0 / golden]], atol=1e-10)
        assert np.count_nonzero(sol.gain.second) == 0
        closed = 1.0 - 1.0 / golden
        assert closed == pytest.approx(0.382, abs=1e-3)
        assert closed**2 < 1.0

    def test_no_input_reduces_to_stein_equation(self, rng):
        a2 = rand_cmatrix(rng, 2, 2, scale=0.3)
        q1 = _rand_hpd(rng, 2)
        sol = antilinear_lqr_discrete(a2, np.zeros((2, 1)), q1, np.eye(1))
        assert np.allclose(sol.gain.first, 0)
        p = sol.p.first
        res = a2.conj().T @ np.conj(p) @ a2 - p + q1
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(q1)

    def test_agrees_with_general_regulator(self, rng):
        for _ in range(8):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            a2 = rand_cmatrix(rng, n, n, scale=0.8)
            b2 = rand_cmatrix(rng, n, m)
            q1, r1 = _rand_hpd(rng, n), _rand_hpd(rng, m)
            sysm = make_antilinear(a2, b2, domain="discrete")
            try:
                sol = antilinear_lqr_discrete(a2, b2, q1, r1)
            except NotStabilizableError:
                continue
            general = lqr(sysm, WeightPair(HermiteBimatrix(q1), HermiteBimatrix(r1)))
            scale = max(1.0, np.linalg.norm(general.p.first))
            assert np.linalg.norm(sol.p.first - general.p.first) <= 1e-8 * scale
            assert np.linalg.norm(general.p.second) <= 1e-8 * scale
            gscale = max(1.0, np.linalg.norm(general.gain.first))
            assert np.linalg.norm(sol.gain.first - general.gain.first) <= 1e-7 * gscale
            assert np.linalg.norm(general.gain.second) <= 1e-7 * gscale

    def test_unstabilizable_rejected(self):
        with pytest.raises(NotStabilizableError):
            antilinear_lqr_discrete(
                np.array([[2.0]]), np.zeros((1, 1)), np.eye(1), np.eye(1)
            )

    def test_weight_refused_by_the_weight_pair_rule(self):
        # eigenvalues {1, 1e-11}: min/max is below PD_EIG_RTOL = 1e-10
        q1 = np.diag([1.0, 1e-11])
        with pytest.raises(ValueError, match="not positive definite"):
            WeightPair(HermiteBimatrix(q1), HermiteBimatrix(np.eye(1)))
        with pytest.raises(ValueError, match="not positive definite"):
            antilinear_lqr_discrete(0.5 * np.eye(2), np.ones((2, 1)), q1, np.eye(1))

    def test_weight_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            antilinear_lqr_discrete(0.5 * np.eye(2), np.ones((2, 1)), np.eye(2), np.eye(2))

    def test_overflowing_plant_refused_by_schur_solve(self):
        # stabilizable, but the Riccati solution overflows float64
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RiccatiError, match="Schur Riccati solve failed"):
                antilinear_lqr_discrete(
                    np.array([[1e150]]), np.array([[1e148]]), np.eye(1), np.eye(1)
                )

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_raw_order_8_agrees_with_scipy_or_refuses(self, seed):
        rng = np.random.default_rng(seed)
        a2, b2 = rand_cmatrix(rng, 8, 8), rand_cmatrix(rng, 8, 1)
        try:
            sol = antilinear_lqr_discrete(a2, b2, np.eye(8), np.eye(1))
        except RiccatiError:
            return
        rep_a = Bimatrix.antilinear(a2).real_representation()
        rep_b = Bimatrix.antilinear(b2).real_representation()
        want = scipy.linalg.solve_discrete_are(rep_a, rep_b, np.eye(16), np.eye(2))
        got = sol.p.real_representation()
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_conjugate_part_in_solution_is_refused(self, rng, monkeypatch):
        a2, b2 = rand_cmatrix(rng, 2, 2, scale=0.8), rand_cmatrix(rng, 2, 1)
        antilinear_lqr_discrete(a2, b2, np.eye(2), np.eye(1))
        exact = design_module._solve_are_real
        sym = rand_cmatrix(rng, 2, 2)
        conj_part = Bimatrix.antilinear(sym + sym.T).real_representation()

        def coupled(a, b, q, r, continuous):
            p, k, iters = exact(a, b, q, r, continuous)
            return p + 1e-6 * np.linalg.norm(p) * conj_part, k, iters

        monkeypatch.setattr(design_module, "_solve_are_real", coupled)
        with pytest.raises(RiccatiError, match="decoupled equation"):
            antilinear_lqr_discrete(a2, b2, np.eye(2), np.eye(1))


class TestAntilinearLqrContinuous:
    def test_conjugate_integrator_golden(self, rng):
        sol = antilinear_lqr_continuous(
            np.zeros((1, 1)), np.ones((1, 1)), HermiteBimatrix(np.eye(1)), np.eye(1)
        )
        assert np.allclose(sol.p.first, [[1.0]], atol=1e-8)
        assert np.allclose(sol.p.second, 0, atol=1e-8)
        assert np.allclose(sol.gain.first, 0, atol=1e-8)
        assert np.allclose(sol.gain.second, [[-1.0]], atol=1e-8)

    def test_random_instances_satisfy_coupled_equations(self, rng):
        for _ in range(5):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            a2 = rand_cmatrix(rng, n, n)
            b2 = rand_cmatrix(rng, n, m)
            sysm = make_antilinear(a2, b2, domain="continuous")
            if not is_controllable(sysm):
                continue
            q = hermite_from_real_representation(_rand_spd(rng, 2 * n))
            sol = antilinear_lqr_continuous(a2, b2, q, _rand_hpd(rng, m))
            # the solver itself enforces residual <= 1e-8; make it visible here
            assert sol.residual <= 1e-8
            assert is_asymptotically_stable(
                closed_loop(sysm, sol.gain)
            )

    def test_uncontrollable_rejected(self, rng):
        with pytest.raises(NotControllableError):
            antilinear_lqr_continuous(
                np.array([[1.0]]), np.zeros((1, 1)), HermiteBimatrix(np.eye(1)),
                np.eye(1),
            )


class TestObserver:
    def test_identity_output_allows_arbitrary_stable_spectrum(self, rng):
        for domain in (TimeDomain.CONTINUOUS, TimeDomain.DISCRETE):
            sysm = rand_system(rng, 2, 1, 2, domain)
            sysm = CxSystem(sysm.a, sysm.b, Bimatrix.identity(2),
                            Bimatrix.zeros(2, 1), domain)
            gamma = rand_stable_spectrum(rng, 4, domain)
            l_gain = design_observer(sysm, gamma, rng=rng)
            err_spec = (sysm.a + l_gain @ sysm.c).eigenvalues()
            assert err_spec.matches(gamma, rtol=1e-6)

    def test_normal_system_admits_normal_observer_gain(self, rng):
        # classical design on the (A1, C1) pair alone gives a valid pair with
        # zero second part
        a1 = rand_cmatrix(rng, 2, 2)
        c1 = rand_cmatrix(rng, 1, 2)
        sysm = make_normal(a1, np.ones((2, 1)), c1, domain="continuous")
        if not is_observable(sysm):
            pytest.skip("unlucky draw")
        poles = np.array([-1.0 + 0.3j, -2.2 - 0.7j])
        dual = _place(a1.conj().T, c1.conj().T, np.conj(poles),
                      np.random.default_rng(5))
        l1 = dual.conj().T
        l_gain = Bimatrix.normal(l1)
        err_spec = (sysm.a + l_gain @ sysm.c).eigenvalues()
        want = np.concatenate([poles, np.conj(poles)])
        assert err_spec.matches(want, rtol=1e-7)

    def test_unobservable_rejected(self, rng):
        sysm = CxSystem(
            Bimatrix.normal(np.eye(2)),
            Bimatrix.normal(np.ones((2, 1))),
            Bimatrix.zeros(1, 2),
            Bimatrix.zeros(1, 1),
            TimeDomain.DISCRETE,
        )
        with pytest.raises(NotObservableError):
            design_observer(sysm, [0.1, 0.2, 0.3, 0.4], rng=rng)

    def test_unstable_target_rejected(self, rng):
        sysm = rand_system(rng, 1, 1, 1, TimeDomain.CONTINUOUS)
        with pytest.raises(SpectrumError):
            design_observer(sysm, [1.0, 2.0], rng=rng)

    def test_error_decays_in_simulation(self, rng):
        sysm = rand_controllable_system(rng, 2, 1, 2, TimeDomain.CONTINUOUS)
        if not is_observable(sysm):
            pytest.skip("unlucky draw")
        # keep the plant itself bounded so the error is not dominated by
        # cancellation noise of a blowing-up state
        shift = float(np.max(sysm.spectrum().values.real)) + 0.2
        sysm = CxSystem(
            Bimatrix(sysm.a.first - shift * np.eye(2), sysm.a.second),
            sysm.b, sysm.c, sysm.d, sysm.domain,
        )
        gamma = np.array([-1.5, -2.0, -2.5, -3.0])
        l_gain = design_observer(sysm, gamma, rng=rng)
        loop = observer_loop(sysm, l_gain)
        x0 = rand_cmatrix(rng, 2, 1).ravel()
        z0 = np.zeros(2, dtype=complex)
        times = np.linspace(0.0, 16.0, 161)
        u = rand_cmatrix(rng, times.size, 1) * 0.3
        trace = state_response(loop, np.concatenate([x0, z0]), times, u)
        err = trace.states[:, :2] - trace.states[:, 2:]
        assert np.linalg.norm(err[-1]) <= 1e-6 * max(1.0, np.linalg.norm(err[0]))

    def test_separation_of_combined_spectrum(self, rng):
        sysm = rand_controllable_system(rng, 2, 1, 2, TimeDomain.DISCRETE)
        if not is_observable(sysm):
            pytest.skip("unlucky draw")
        gamma_fb = rand_stable_spectrum(rng, 4, TimeDomain.DISCRETE)
        gamma_ob = rand_stable_spectrum(rng, 4, TimeDomain.DISCRETE)
        k_gain = assign_eigenvalues(sysm, gamma_fb, rng=rng)
        l_gain = design_observer(sysm, gamma_ob, rng=rng)
        combined = observer_loop(sysm, l_gain, k_gain).spectrum()
        want = np.concatenate([np.asarray(gamma_fb, dtype=complex),
                               np.asarray(gamma_ob, dtype=complex)])
        assert combined.matches(want, rtol=1e-6)
