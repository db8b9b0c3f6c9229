import math
import re
import types
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
import bimatrix.core as core_module
import bimatrix.design as design_module
from bimatrix.core import _spectrum_mismatch
from bimatrix.analysis import LYAP_RESIDUAL_RTOL, _lyapunov_gate
from bimatrix.design import PLACEMENT_RTOL, _mirror_spectrum, _place
from bimatrix.exceptions import (
    BimatrixError,
    DimensionError,
    NotControllableError,
    NotObservableError,
    NotStabilizableError,
    PlacementError,
    RiccatiError,
    SpectrumError,
)

from helpers import (
    bimatrix_are_residual_inverse_form,
    multiset_close,
    rand_cmatrix,
    rand_controllable_system,
    rand_stable_spectrum,
    rand_system,
    rand_unstabilizable_antilinear,
    rand_unstabilizable_normal,
    rand_unstabilizable_system,
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


def _count_calls(monkeypatch, *names):
    """Wrap each named function of ``bimatrix.design``; returns the live call counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(design_module, name)):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(design_module, name, counted)
    return counts


def _unstable_without_input(domain):
    """The 1-state plant with eigenvalue 2 and no input: unstabilizable in both domains."""
    return CxSystem(Bimatrix.normal([[2.0]]), Bimatrix.zeros(1, 1), Bimatrix.identity(1),
                    Bimatrix.zeros(1, 1), domain)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, 1.0),
                                     complex(np.inf, np.inf), complex(np.nan, 1.0)])
    def test_non_finite_targets_refused_before_any_draw(self, monkeypatch, bad):
        def no_draw(*args):
            raise AssertionError("placement ran on a non-finite target")

        monkeypatch.setattr(design_module, "_place", no_draw)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        one_state = make_normal([[0.5]], [[1.0]], [[1.0]], domain="discrete")
        with pytest.raises(SpectrumError):
            assign_eigenvalues(one_state, [bad, -1.0], rng=rng)
        with pytest.raises(SpectrumError):
            assign_eigenvalues_normal(one_state, [bad], rng=rng)
        with pytest.raises(SpectrumError):
            assign_eigenvalues_normal(_example_normal_system(), [-1.0, bad], rng=rng)
        assert rng.bit_generator.state == state

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


def _raw_discrete_plant(seed, n, m=1):
    """Unit-Gaussian discrete plant, p = 1, and stable targets for it."""
    rng = np.random.default_rng(seed)
    sysm = rand_system(rng, n, m, 1, TimeDomain.DISCRETE)
    return sysm, rand_stable_spectrum(rng, 2 * n, TimeDomain.DISCRETE)


def _eigenvector_condition(acl):
    """2-norm condition number of the unit-column eigenvector matrix of ``acl``."""
    v = np.linalg.eig(acl)[1]
    return np.linalg.cond(v / np.linalg.norm(v, axis=0))


class TestPlacementKNV:
    """``_place``: eigenvector columns from null spaces, one draw, sweeps only after a miss."""

    @pytest.mark.parametrize("seed, n, m", [(0, 1, 1), (1, 2, 2), (2, 8, 1), (3, 8, 2),
                                            (0, 16, 1), (1, 16, 2)])
    def test_generator_ends_one_draw_on(self, seed, n, m):
        # raw n = 16, m = 1 declines; a call draws the same either way
        sysm, gamma = _raw_discrete_plant(seed, n, m)
        rng = np.random.default_rng(7)
        try:
            assign_eigenvalues(sysm, gamma, rng=rng)
        except PlacementError:
            assert (n, m) == (16, 1)
        ref = np.random.default_rng(7)
        ref.standard_normal((2, 2 * n, 2 * n))  # the real representation has order 2n
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_complex_data_draw_once(self, n):
        rng = np.random.default_rng(n)
        a1, b1, c1 = rand_cmatrix(rng, n, n), rand_cmatrix(rng, n, 1), rand_cmatrix(rng, 1, n)
        poles = rng.uniform(0.2, 0.8, n) * np.exp(1j * rng.uniform(0, 6.28, n))
        rng = np.random.default_rng(7)
        gain = assign_eigenvalues_normal(make_normal(a1, b1, c1, domain="discrete"), poles, rng=rng)
        assert multiset_close(np.linalg.eigvals(a1 + b1 @ gain.first), poles, rtol=1e-6)
        ref = np.random.default_rng(7)
        ref.standard_normal((2, n, n))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed, n, m, sweeps", [(0, 2, 1, 0), (3, 8, 2, 0), (0, 16, 2, 1),
                                                    (0, 16, 1, 0)])
    def test_sweeps_only_after_a_miss(self, monkeypatch, seed, n, m, sweeps):
        # each sweep inverts X once; a first check that passes runs none, and
        # the raw n = 16, m = 1 decline ends at the conditioning exit, before
        # any sweep
        counts = {"inv": 0}
        inv = np.linalg.inv

        def counted(x):
            counts["inv"] += 1
            return inv(x)

        monkeypatch.setattr(np.linalg, "inv", counted)
        sysm, gamma = _raw_discrete_plant(seed, n, m)
        try:
            assign_eigenvalues(sysm, gamma, rng=np.random.default_rng(7))
        except PlacementError:
            assert (n, m) == (16, 1)
        assert counts["inv"] == sweeps

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_targets_on_the_open_loop_spectrum(self, seed, domain):
        # a conjugate-coupled plant: its own spectrum, then the mirrored one,
        # which keeps every open-loop eigenvalue in the stable region
        rng = np.random.default_rng(seed)
        sysm = rand_controllable_system(rng, 3, 1, 1, domain)
        assert np.linalg.norm(sysm.a.second) > 0.1
        a_r, b_r = sysm.a.real_representation(), sysm.b.real_representation()
        open_loop = sysm.spectrum().values
        mirrored = _mirror_spectrum(open_loop, domain)
        for targets in (open_loop, mirrored):
            k = _place(a_r, b_r, targets, rng)
            assert _spectrum_mismatch(np.linalg.eigvals(a_r + b_r @ k), targets) <= PLACEMENT_RTOL

    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_stabilize_fallback_places_the_mirrored_spectrum(self, monkeypatch, domain):
        def failed(*args, **kwargs):
            raise RiccatiError("forced")

        monkeypatch.setattr(design_module, "lqr", failed)
        rng = np.random.default_rng(11)
        for _ in range(4):
            sysm = rand_controllable_system(rng, 3, 1, 1, domain)
            gain = stabilize(sysm, rng=rng)
            want = _mirror_spectrum(sysm.spectrum().values, domain)
            assert closed_loop(sysm, gain).spectrum().matches(want, rtol=PLACEMENT_RTOL)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_repeated_input_pair_with_real_b(self, rng, domain, m):
        # B = {b, b} with real b acts through 2 Re(u) only: its real
        # representation has rank m, not 2m
        n = 3
        b = rng.standard_normal((n, m))
        sysm = CxSystem(Bimatrix(rand_cmatrix(rng, n, n), rand_cmatrix(rng, n, n)), Bimatrix(b, b),
                        Bimatrix.identity(n), Bimatrix.zeros(n, m), domain)
        assert np.linalg.matrix_rank(sysm.b.real_representation()) == m
        gamma = rand_stable_spectrum(rng, 2 * n, domain)
        gain = assign_eigenvalues(sysm, gamma, rng=rng)
        assert closed_loop(sysm, gain).spectrum().matches(gamma, rtol=PLACEMENT_RTOL)

    @pytest.mark.parametrize("seed", [0, 1, 2, 4, 6, 9, 11, 12, 13, 16])
    def test_raw_discrete_n16_m2_placed(self, seed):
        # 20 random Sylvester draws declined each of these plants; seed 16
        # passes a real-representation check but not its pair form at first
        sysm, gamma = _raw_discrete_plant(seed, 16, 2)
        gamma = SpectrumSet(gamma).values  # in the order assign_eigenvalues passes them
        a_r, b_r = sysm.a.real_representation(), sysm.b.real_representation()
        k = _place(a_r, b_r, gamma, np.random.default_rng(7))
        assert _spectrum_mismatch(np.linalg.eigvals(a_r + b_r @ k), gamma) <= PLACEMENT_RTOL
        gain = assign_eigenvalues(sysm, gamma, rng=np.random.default_rng(7))
        assert closed_loop(sysm, gain).spectrum().matches(SpectrumSet(gamma), rtol=PLACEMENT_RTOL)

    @pytest.mark.parametrize("seed", range(2))
    def test_raw_discrete_n16_m1_declines_in_one_line(self, seed):
        sysm, gamma = _raw_discrete_plant(seed, 16, 1)
        with pytest.raises(PlacementError, match="X is singular to working precision") as info:
            assign_eigenvalues(sysm, gamma, rng=np.random.default_rng(7))
        assert "\n" not in str(info.value)

    def test_singular_eigenvector_matrix_declines_at_the_first_check(self, monkeypatch):
        # the CI layer-time step's fresh raw discrete n = 16 systems (seed 16):
        # with m = 1, X at the first check is singular to working precision, so
        # the call names its condition number and runs no sweep; m = 2 places
        def fresh_system(m):
            rng = np.random.default_rng(16)

            def pair(rows, cols):
                parts = rng.standard_normal((2, 2, rows, cols))
                return Bimatrix(*(parts[0] + 1j * parts[1]))

            sysm = CxSystem(pair(16, 16), pair(16, m), pair(m, 16), pair(m, m),
                            TimeDomain.DISCRETE)
            upper = rng.uniform(0.2, 0.8, 16) * np.exp(1j * rng.uniform(0.2, 2.9, 16))
            return sysm, np.concatenate([upper, upper.conj()])

        sysm, gamma = fresh_system(2)
        gain = assign_eigenvalues(sysm, gamma, rng=np.random.default_rng(7))
        assert closed_loop(sysm, gain).spectrum().matches(gamma, rtol=PLACEMENT_RTOL)
        counts = _count_calls(monkeypatch, "_spectrum_mismatch")
        sysm, gamma = fresh_system(1)
        with pytest.raises(PlacementError) as info:
            assign_eigenvalues(sysm, gamma, rng=np.random.default_rng(7))
        kappa = float(re.search(r"condition number (\S+)\)", str(info.value)).group(1))
        assert kappa * np.finfo(float).eps >= 1.0
        assert counts == {"_spectrum_mismatch": 1}

    @pytest.mark.parametrize("b", [np.zeros((2, 1)), np.zeros((2, 2), dtype=complex),
                                   np.zeros((2, 0))])
    def test_singular_start_raises_placement_error(self, b):
        # with no input every null space is empty, so X starts as zero
        a = np.array([[0.0, 1.0], [-2.0, -3.0]], dtype=b.dtype)
        with pytest.raises(PlacementError, match="X is singular"):
            _place(a, b, np.array([-1.0, -4.0]), np.random.default_rng(7))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind, n, m", [("pair", 2, 1), ("real", 3, 2), ("real", 4, 2),
                                            ("real", 4, 3)])
    def test_sweeps_reach_yt_conditioning(self, monkeypatch, seed, kind, n, m):
        # reference: scipy's Tits-Yang placement.  Every check but the last
        # is made to miss, so the gain comes after PLACEMENT_SWEEPS sweeps.
        import scipy.signal

        checks = []

        def missing(got, want):
            checks.append(None)
            if len(checks) <= design_module.PLACEMENT_SWEEPS:
                return np.inf
            return _spectrum_mismatch(got, want)

        monkeypatch.setattr(design_module, "_spectrum_mismatch", missing)
        rng = np.random.default_rng(seed)
        if kind == "pair":
            sysm = rand_system(rng, n, m, 1, TimeDomain.CONTINUOUS)
            a, b = sysm.a.real_representation(), sysm.b.real_representation()
        else:
            a, b = rng.standard_normal((n, n)), rng.standard_normal((n, m))
        gamma = rand_stable_spectrum(rng, a.shape[0], TimeDomain.CONTINUOUS)
        k = _place(a, b, gamma, np.random.default_rng(7))
        yt = scipy.signal.place_poles(a, b, gamma, method="YT")
        ratio = _eigenvector_condition(a + b @ k) / _eigenvector_condition(a - b @ yt.gain_matrix)
        assert ratio <= 10.0


def _dual(sysm):
    """Real representation ``(A_r^T, C_r = B_r^T)``: observable iff ``sysm`` is controllable."""
    fold = Bimatrix.from_real_representation
    return CxSystem(fold(sysm.a.real_representation().T), Bimatrix.zeros(sysm.n, 1),
                    fold(sysm.b.real_representation().T), Bimatrix.zeros(sysm.m, 1), sysm.domain)


class TestCertificateFirstPlacement:
    """Placement runs first and is verified in pair form; a rank test only names a failure."""

    def test_rank_tests_run_only_to_name_a_failure(self, monkeypatch, rng):
        counts = _count_calls(monkeypatch, "is_controllable", "is_observable", "_rank_test")
        sysm = rand_controllable_system(rng, 2, 1, 1, TimeDomain.DISCRETE)
        gamma = rand_stable_spectrum(rng, 4, TimeDomain.DISCRETE)
        assign_eigenvalues(sysm, gamma, rng=rng)
        design_observer(_dual(sysm), gamma, rng=rng)
        assign_eigenvalues_normal(_example_normal_system(), [-1.0, -2.0], rng=rng)
        assert counts == {"is_controllable": 0, "is_observable": 0, "_rank_test": 0}
        stuck = _unstable_without_input(TimeDomain.DISCRETE)
        declines = [
            (lambda: assign_eigenvalues(stuck, [0.1, 0.2], rng=rng), NotControllableError),
            (lambda: design_observer(_dual(stuck), [0.1, 0.2], rng=rng), NotObservableError),
            (lambda: assign_eigenvalues_normal(stuck, [0.1], rng=rng), NotControllableError),
        ]
        for call, error in declines:
            with pytest.raises(error) as info:
                call()
            assert isinstance(info.value.__cause__, PlacementError)
        assert counts == {"is_controllable": 1, "is_observable": 1, "_rank_test": 1}

    def test_folded_observer_gain_checked_against_gamma(self, monkeypatch, rng):
        # as for assign_eigenvalues: a fold that moves the gain by 1e-3 is seen
        fold = Bimatrix.from_real_representation
        sysm = _dual(rand_controllable_system(rng, 2, 1, 1, TimeDomain.DISCRETE))
        monkeypatch.setattr(design_module, "Bimatrix", types.SimpleNamespace(
            from_real_representation=lambda mat: fold(np.asarray(mat) + 1e-3)))
        with pytest.raises(PlacementError, match="misses the targets"):
            design_observer(sysm, rand_stable_spectrum(rng, 4, TimeDomain.DISCRETE), rng=rng)

    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_unreached_unstable_modes_named_without_warnings(self, domain):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(30):
                for n in (2, 3, 4):
                    rng = np.random.default_rng([seed, n])
                    sysm = rand_unstabilizable_system(rng, n, 1, domain)
                    gamma = rand_stable_spectrum(rng, 2 * n, domain)
                    with pytest.raises(NotControllableError):
                        assign_eigenvalues(sysm, gamma, rng=rng)
                    with pytest.raises(NotObservableError):
                        design_observer(_dual(sysm), gamma, rng=rng)

    @pytest.mark.parametrize("seed, domain", [(11, TimeDomain.CONTINUOUS),
                                              (15, TimeDomain.CONTINUOUS),
                                              (17, TimeDomain.DISCRETE)])
    def test_singular_sweep_raises_placement_error(self, monkeypatch, seed, domain):
        # X is singular to working precision at the first check here, so the
        # conditioning exit declines; without that exit X turns singular in a
        # sweep, and numpy's LinAlgError must not escape either
        rng = np.random.default_rng([seed, 2])
        sysm = rand_unstabilizable_system(rng, 2, 1, domain)
        gamma = rand_stable_spectrum(rng, 4, domain)
        a_r, b_r = sysm.a.real_representation(), sysm.b.real_representation()
        with pytest.raises(PlacementError, match="X is singular to working precision"):
            _place(a_r, b_r, gamma, None)
        monkeypatch.setattr(np.linalg, "cond", lambda x: 1.0)
        with pytest.raises(PlacementError, match="X is singular$"):
            _place(a_r, b_r, gamma, None)

    @pytest.mark.parametrize("seed", range(3))
    def test_fixed_modes_in_gamma_get_a_verified_gain(self, seed):
        # the plant fails the rank test, but gamma holds its fixed modes (the
        # eigenvalues of the unreached block a22), so no NotControllableError
        rng = np.random.default_rng(seed)
        t, a = rng.standard_normal((2, 4, 4))
        a[2:, :2] = 0.0
        b = rng.standard_normal((4, 2))
        b[2:] = 0.0
        fold = Bimatrix.from_real_representation
        sysm = CxSystem(fold(t @ a @ np.linalg.inv(t)), fold(t @ b), Bimatrix.identity(2),
                        Bimatrix.zeros(2, 1), TimeDomain.CONTINUOUS)
        assert not is_controllable(sysm)
        gamma = np.concatenate([np.linalg.eigvals(a[2:, 2:]),
                                rand_stable_spectrum(rng, 2, TimeDomain.CONTINUOUS)])
        gain = assign_eigenvalues(sysm, gamma, rng=rng)
        assert closed_loop(sysm, gain).spectrum().matches(gamma, rtol=PLACEMENT_RTOL)


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

    def test_folded_gain_checked_against_gamma(self, monkeypatch, rng):
        # a fold that moves the gain by 1e-3: the real-representation closed
        # loop meets gamma, the pair form misses it, and the pair form decides
        fold = Bimatrix.from_real_representation
        monkeypatch.setattr(design_module, "Bimatrix", types.SimpleNamespace(
            from_real_representation=lambda mat: fold(np.asarray(mat) + 1e-3)))
        sysm = rand_controllable_system(rng, 2, 1, 1, TimeDomain.DISCRETE)
        gamma = rand_stable_spectrum(rng, 4, TimeDomain.DISCRETE)
        with pytest.raises(PlacementError, match="misses the targets"):
            assign_eigenvalues(sysm, gamma, rng=rng)


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
        # a verified regulator proves stabilizability: no rank test on success
        counts = _count_calls(monkeypatch, "is_stabilizable", "is_asymptotically_stable")
        sysm = rand_controllable_system(np.random.default_rng(17), 3, 2, 1, domain)
        gain = stabilize(sysm)
        assert counts == {"is_stabilizable": 0, "is_asymptotically_stable": 1}
        want = lqr(sysm).gain
        assert np.array_equal(gain.first, want.first)
        assert np.array_equal(gain.second, want.second)

    @pytest.mark.parametrize("design", [lqr, stabilize])
    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_rank_test_runs_once_to_name_a_failed_solve(self, monkeypatch, design, domain):
        counts = _count_calls(monkeypatch, "is_stabilizable")
        with pytest.raises(NotStabilizableError) as info:
            design(_unstable_without_input(domain))
        assert counts == {"is_stabilizable": 1}
        assert isinstance(info.value.__cause__, RiccatiError)

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

    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_residual_agrees_with_inverse_form_reference(self, domain):
        # 24 seeded plants per domain; the two forms differ only by rounding
        # (worst gap measured: 8.6e-14)
        rng = np.random.default_rng(14)
        for _ in range(24):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            sysm = rand_controllable_system(rng, n, m, 1, domain)
            weights = _rand_pd_weights(rng, n, m)
            sol = lqr(sysm, weights)
            want = bimatrix_are_residual_inverse_form(sysm, weights, sol.p)
            assert abs(sol.residual - want) <= 1e-12
            assert sol.residual <= 1e-8

    def test_residual_checks_that_the_gain_belongs_to_p(self, rng):
        sysm = rand_controllable_system(rng, 3, 1, 1, TimeDomain.CONTINUOUS)
        weights = _rand_pd_weights(rng, 3, 1)
        sol = lqr(sysm, weights)
        residual = design_module._bimatrix_are_residual
        assert residual(sysm, weights, sol.p, sol.gain) == sol.residual
        assert residual(sysm, weights, sol.p, lqr(sysm).gain) > 1e-3

    def test_identity_weights_skip_the_symmetry_rule(self, monkeypatch):
        want = WeightPair(HermiteBimatrix(np.eye(3)), HermiteBimatrix(np.eye(2)))

        def refuse(p):
            raise AssertionError("the symmetry rule ran on identity weights")

        monkeypatch.setattr(core_module, "_hermite_fault", refuse)
        got = WeightPair.identity(3, 2)
        for g, w in ((got.q, want.q), (got.r, want.r)):
            assert type(g) is HermiteBimatrix
            for part, ref in ((g.first, w.first), (g.second, w.second)):
                assert part.dtype == ref.dtype and np.array_equal(part, ref)
                assert not part.flags.writeable

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
    @staticmethod
    def _perturb_dare(monkeypatch, shift, direction=None):
        # The solver reads P = Z21 Z11^{-1} off the ordered QZ form, so adding
        # c D Z11 to Z21 shifts P by c D, with c = shift * |P| and D = direction
        # (default I).
        exact = scipy.linalg.ordqz

        def perturbed(*args, **kwargs):
            *head, z = exact(*args, **kwargs)
            n = z.shape[0] // 2
            p = np.linalg.solve(z[:n, :n].T, z[n:, :n].T).T
            shifted = z[:n, :n] if direction is None else direction @ z[:n, :n]
            z = z.copy()
            z[n:, :n] += shift * np.linalg.norm(p) * shifted
            return (*head, z)

        monkeypatch.setattr(scipy.linalg, "ordqz", perturbed)

    def test_schur_solution_disagreeing_with_newton_polish_is_refused(
        self, rng, monkeypatch
    ):
        # a 1e-4 error in P is far past the closed-loop Lyapunov gate
        sysm = rand_controllable_system(rng, 2, 1, 1, TimeDomain.DISCRETE)
        assert lqr(sysm).iterations == 1
        self._perturb_dare(monkeypatch, 1e-4)
        with pytest.raises(RiccatiError):
            lqr(sysm)

    @pytest.mark.parametrize("seed", range(5))
    def test_schur_solution_off_by_1e7_misses_the_scaled_residual_gate(self, monkeypatch, seed):
        sysm = rand_controllable_system(np.random.default_rng(seed), 2, 1, 1,
                                        TimeDomain.DISCRETE)
        self._perturb_dare(monkeypatch, 1e-7)
        with pytest.raises(RiccatiError, match="scaled residual") as info:
            lqr(sysm)
        scaled = float(re.search(r"scaled residual ([0-9.e+-]+)", str(info.value)).group(1))
        assert scaled > LYAP_RESIDUAL_RTOL
        assert "Lyapunov solve" not in str(info.value)  # the message names the Riccati solution

    @pytest.mark.parametrize("shift", [0.0, 1e-4])
    def test_riccati_gate_runs_no_lyapunov_solve(self, rng, monkeypatch, shift):
        def no_lyapunov(*args):
            raise AssertionError("a Lyapunov solve ran inside the Riccati solver")

        for solver in ("solve_discrete_lyapunov", "solve_continuous_lyapunov"):
            monkeypatch.setattr(scipy.linalg, solver, no_lyapunov)
        sysm = rand_controllable_system(rng, 2, 1, 1, TimeDomain.DISCRETE)
        self._perturb_dare(monkeypatch, shift)
        if shift:
            with pytest.raises(RiccatiError, match="scaled residual"):
                lqr(sysm)
        else:
            assert lqr(sysm).iterations == 1

    @pytest.mark.parametrize(
        "domain, solver",
        [(TimeDomain.DISCRETE, "solve_discrete_are"),
         (TimeDomain.CONTINUOUS, "solve_continuous_are")],
    )
    def test_riccati_solve_looked_up_on_scipy_at_call_time(
        self, rng, monkeypatch, domain, solver
    ):
        # SciPy is imported inside the solver, so a patched module attribute
        # is what runs: one ordered Schur factorization per solve (the
        # Hamiltonian's schur, or the symplectic pencil's ordqz), and never
        # SciPy's general Riccati solver
        calls = {"schur": 0, "ordqz": 0}
        for name in calls:
            def recorded(*args, _name=name, _exact=getattr(scipy.linalg, name), **kwargs):
                calls[_name] += 1
                return _exact(*args, **kwargs)

            monkeypatch.setattr(scipy.linalg, name, recorded)

        def general_solver(*args, **kwargs):
            raise AssertionError(f"{solver} ran")

        monkeypatch.setattr(scipy.linalg, solver, general_solver)
        lqr(rand_controllable_system(rng, 2, 1, 1, domain))
        expected = "schur" if domain.is_continuous else "ordqz"
        assert calls == {name: int(name == expected) for name in calls}

    @pytest.mark.parametrize("domain, a", [(TimeDomain.CONTINUOUS, 0.0),
                                           (TimeDomain.DISCRETE, 1.0)])
    def test_boundary_mode_without_input_fails_the_stable_count(self, domain, a):
        # a mode on the stability boundary that no input reaches leaves no
        # eigenvalue of the Hamiltonian or of the pencil strictly stable
        sysm = make_normal([[a]], [[0.0]], [[1.0]], domain=domain)
        with pytest.raises(NotStabilizableError) as info:
            lqr(sysm)
        assert "Schur Riccati solve failed: 0 of 4 eigenvalues are stable, not 2" in str(
            info.value.__cause__)

    @staticmethod
    def _closed_loop(a, b, q, r, p, continuous):
        """``a + b K`` and ``q + K^T r K`` for the optimal gain ``K`` of ``p``."""
        if continuous:
            k = -np.linalg.solve(r, b.T @ p)
        else:
            k = -np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
        return a + b @ k, q + k.T @ r @ k

    @pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("order", [4, 16])
    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_ill_conditioned_input_weight_keeps_scipys_verdicts(self, domain, order, kappa):
        # R^-1 enters the continuous Hamiltonian, so its accuracy falls with
        # kappa(R); the discrete pencil never inverts R.  Either way P is
        # accepted exactly when the P of SciPy's general solver passes the
        # same gate, and an accepted P meets the scaled closed-loop residual
        # bound, recomputed here.
        continuous = domain.is_continuous
        solver = (scipy.linalg.solve_continuous_are if continuous
                  else scipy.linalg.solve_discrete_are)
        rng = np.random.default_rng([order, round(math.log10(kappa))])
        n, m = order // 2, order // 8 or 1
        for _ in range(3):
            rep = rand_controllable_system(rng, n, m, 1, domain).real_representation()
            a, b, q = rep.a, rep.b, np.eye(order)
            v = np.linalg.qr(rng.standard_normal((2 * m, 2 * m)))[0]
            r = (v * np.geomspace(1.0, 1.0 / kappa, 2 * m)) @ v.T
            try:
                p = design_module._solve_are_real(a, b, q, r, continuous)[0]
            except RiccatiError:
                p = None
            want = solver(a, b, q, r)
            closed, w = self._closed_loop(a, b, q, r, want, continuous)
            assert (p is not None) == (_lyapunov_gate(closed, want, w, continuous) is None)
            if p is None:
                continue
            closed, w = self._closed_loop(a, b, q, r, p, continuous)
            norm_c = np.linalg.norm(closed)
            if continuous:
                res, norm_l = closed.T @ p + p @ closed + w, 2.0 * norm_c
            else:
                res, norm_l = closed.T @ p @ closed - p + w, norm_c * norm_c + 1.0
            scale = np.linalg.norm(w) + norm_l * np.linalg.norm(p)
            assert np.linalg.norm(res) <= LYAP_RESIDUAL_RTOL * scale

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

    def test_raw_discrete_schur_solution_is_accepted_as_it_stands(self):
        # this raw plant's Schur solution missed the old |res| / max(1, |P|) gate
        sysm = rand_controllable_system(
            np.random.default_rng(0), 8, 2, 1, TimeDomain.DISCRETE
        )
        sol = lqr(sysm)
        assert sol.iterations == 1
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
            assert sol.residual == general.residual
            for got, want in ((sol.p, general.p), (sol.gain, general.gain)):
                assert np.array_equal(got.first, want.first)
                assert np.array_equal(got.second, want.second)
            # the paper's decoupled equation and gain formula hold for it
            norm = np.linalg.norm
            p1, pc = sol.p.first, np.conj(sol.p.first)
            k1 = -np.linalg.solve(r1 + b2.conj().T @ pc @ b2, b2.conj().T @ pc @ a2)
            res = q1 + a2.conj().T @ pc @ (a2 + b2 @ k1) - p1
            assert norm(res) <= LYAP_RESIDUAL_RTOL * (norm(q1) + (norm(a2) ** 2 + 1.0) * norm(p1))
            assert norm(sol.p.second) <= 1e-8 * max(1.0, norm(p1), norm(q1))
            g1, g2 = sol.gain.first, sol.gain.second
            assert norm(k1 - g1) + norm(g2) <= 1e-8 * max(1.0, norm(g1) + norm(g2))

    def test_unstabilizable_rejected(self):
        with pytest.raises(NotStabilizableError):
            antilinear_lqr_discrete(
                np.array([[2.0]]), np.zeros((1, 1)), np.eye(1), np.eye(1)
            )

    def test_rank_test_runs_only_to_name_a_failure(self, rng, monkeypatch):
        counts = _count_calls(monkeypatch, "antilinear_stabilizable_discrete")
        antilinear_lqr_discrete(rand_cmatrix(rng, 2, 2, scale=0.8), rand_cmatrix(rng, 2, 1),
                                np.eye(2), np.eye(1))
        assert counts == {"antilinear_stabilizable_discrete": 0}
        with pytest.raises(NotStabilizableError) as info:
            antilinear_lqr_discrete(np.array([[2.0]]), np.zeros((1, 1)), np.eye(1), np.eye(1))
        assert counts == {"antilinear_stabilizable_discrete": 1}
        assert isinstance(info.value.__cause__, RiccatiError)

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
    def test_raw_order_8_agrees_with_scipy(self, seed):
        rng = np.random.default_rng(seed)
        a2, b2 = rand_cmatrix(rng, 8, 8), rand_cmatrix(rng, 8, 1)
        sol = antilinear_lqr_discrete(a2, b2, np.eye(8), np.eye(1))
        rep_a = Bimatrix.antilinear(a2).real_representation()
        rep_b = Bimatrix.antilinear(b2).real_representation()
        want = scipy.linalg.solve_discrete_are(rep_a, rep_b, np.eye(16), np.eye(2))
        got = sol.p.real_representation()
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_conjugate_part_in_solution_is_refused(self, rng, monkeypatch):
        a2, b2 = rand_cmatrix(rng, 2, 2, scale=0.8), rand_cmatrix(rng, 2, 1)
        antilinear_lqr_discrete(a2, b2, np.eye(2), np.eye(1))
        sym = rand_cmatrix(rng, 2, 2)
        conj_part = Bimatrix.antilinear(sym + sym.T).real_representation()
        # a conjugate part of 1e-6 |P|, planted in the ordered QZ form
        TestRiccatiSolverPath._perturb_dare(monkeypatch, 1e-6, conj_part)
        with pytest.raises(RiccatiError, match="scaled residual") as info:
            antilinear_lqr_discrete(a2, b2, np.eye(2), np.eye(1))
        scaled = float(re.search(r"scaled residual ([0-9.e+-]+)", str(info.value)).group(1))
        assert scaled > LYAP_RESIDUAL_RTOL


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
            r1 = _rand_hpd(rng, m)
            sol = antilinear_lqr_continuous(a2, b2, q, r1)
            general = lqr(sysm, WeightPair(q, HermiteBimatrix(r1)))
            assert sol.residual == general.residual
            for got, want in ((sol.p, general.p), (sol.gain, general.gain)):
                assert np.array_equal(got.first, want.first)
                assert np.array_equal(got.second, want.second)
            # the paper's decoupled equations and gain formulas hold for it
            p1, p2, g1, g2 = sol.p.first, sol.p.second, sol.gain.first, sol.gain.second
            r1i = np.linalg.inv(r1)
            k1 = -r1i @ b2.conj().T @ p2
            k2 = -np.conj(r1i) @ b2.T @ p1
            res1 = a2.conj().T @ p2 + np.conj(p2) @ (a2 + b2 @ k1) + p1 @ np.conj(b2) @ k2 + q.first
            res2 = a2.T @ p1 + np.conj(p1) @ (a2 + b2 @ k1) + p2 @ np.conj(b2) @ k2 + q.second
            norm = np.linalg.norm
            scale = max(1.0, norm(q.first) + norm(q.second), norm(p1) + norm(p2))
            assert max(norm(res1), norm(res2)) <= 1e-8 * scale
            assert norm(k1 - g1) + norm(k2 - g2) <= 1e-8 * max(1.0, norm(g1) + norm(g2))
            assert is_asymptotically_stable(closed_loop(sysm, sol.gain))

    def test_uncontrollable_rejected(self, rng):
        with pytest.raises(NotControllableError):
            antilinear_lqr_continuous(
                np.array([[1.0]]), np.zeros((1, 1)), HermiteBimatrix(np.eye(1)),
                np.eye(1),
            )

    def test_reduced_rank_test_runs_only_to_name_a_failure(self, monkeypatch):
        # one reduced test on failure, and never the lifted one
        counts = _count_calls(monkeypatch, "antilinear_controllable", "is_stabilizable")
        antilinear_lqr_continuous(np.zeros((1, 1)), np.ones((1, 1)),
                                  HermiteBimatrix(np.eye(1)), np.eye(1))
        assert counts == {"antilinear_controllable": 0, "is_stabilizable": 0}
        with pytest.raises(NotControllableError) as info:
            antilinear_lqr_continuous(np.array([[1.0]]), np.zeros((1, 1)),
                                      HermiteBimatrix(np.eye(1)), np.eye(1))
        assert counts == {"antilinear_controllable": 1, "is_stabilizable": 0}
        assert isinstance(info.value.__cause__, RiccatiError)


class TestUnstabilizableFailurePath:
    """The Riccati solve runs before the rank test: a failure must stay warning-free."""

    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_regulators_decline_without_warnings(self, domain):
        plants = [_unstable_without_input(domain)] + [
            rand_unstabilizable_system(np.random.default_rng([seed, n]), n, 1, domain)
            for seed in range(10) for n in (2, 3)
        ]
        antilinear = [(np.array([[2.0]]), np.zeros((1, 1)))] + [
            rand_unstabilizable_antilinear(np.random.default_rng([seed, n]), n, 1)
            for seed in range(10) for n in (2, 3)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sysm in plants:
                for design in (lqr, stabilize):
                    with pytest.raises(NotStabilizableError) as info:
                        design(sysm)
                    assert isinstance(info.value.__cause__, RiccatiError)
            for a2, b2 in antilinear:
                n = a2.shape[0]
                if domain.is_continuous:
                    with pytest.raises(NotControllableError):
                        antilinear_lqr_continuous(a2, b2, HermiteBimatrix(np.eye(n)), np.eye(1))
                else:
                    with pytest.raises(NotStabilizableError):
                        antilinear_lqr_discrete(a2, b2, np.eye(n), np.eye(1))

    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_unstabilizable_plant_is_refused_without_a_lyapunov_solve(self, monkeypatch, domain):
        def no_lyapunov(*args):
            raise AssertionError("a Lyapunov solve ran for an unstabilizable plant")

        for solver in ("solve_discrete_lyapunov", "solve_continuous_lyapunov"):
            monkeypatch.setattr(scipy.linalg, solver, no_lyapunov)
        for seed in range(10):
            sysm = rand_unstabilizable_system(np.random.default_rng([seed, 3]), 3, 1, domain)
            with pytest.raises(NotStabilizableError):
                lqr(sysm)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_weakly_reached_unstable_block_gets_a_verified_gain_or_a_refusal(self, domain):
        # the unstable block is reached only through an input weight inside the
        # rank test's tolerance band; SciPy must not warn on the way to either answer
        for weight in (1e-8, 1e-7, 1e-6):
            for seed in range(3):
                for n in (2, 3):
                    rng = np.random.default_rng([seed, n])
                    for sysm in (rand_unstabilizable_system(rng, n, 1, domain, weight),
                                 rand_unstabilizable_normal(rng, n, domain, weight)):
                        for design in (lambda s: lqr(s).gain, stabilize):
                            try:
                                gain = design(sysm)
                            except BimatrixError:
                                continue
                            assert is_asymptotically_stable(closed_loop(sysm, gain))


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
