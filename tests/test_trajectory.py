"""The propagation kernel behind state_response and lqr_cost, and the trace CSV writer.

Each array-at-a-time path is checked against the per-sample loop it replaces
(``helpers.state_response_loop``, ``lqr_cost_loop`` and ``trace_csv_loop``).
"""

import io
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from bimatrix import (
    Bimatrix,
    CxSystem,
    HermiteBimatrix,
    TimeDomain,
    WeightPair,
    arrow,
    closed_loop,
    is_positive_definite,
    lqr,
    lqr_cost,
    make_normal,
    state_response,
)
import bimatrix.analysis as analysis_module
import bimatrix.design as design_module
from bimatrix.analysis import CSV_BLOCK_ROWS, _write_trace_csv

from helpers import (
    lqr_cost_loop,
    rand_bimatrix,
    rand_cmatrix,
    rand_controllable_system,
    rand_system,
    state_response_loop,
    trace_csv_loop,
)

ORDERS = (1, 2, 3, 8)
DOMAINS = (TimeDomain.CONTINUOUS, TimeDomain.DISCRETE)


def _rel_err(got, want):
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def _grid(kind, domain, rng):
    if domain is TimeDomain.DISCRETE:
        return np.arange(41.0) if kind == "uniform" else np.linspace(0.0, 40.0, 41)
    if kind == "uniform":
        return np.arange(41) * 0.05
    if kind == "linspace":
        return np.linspace(0.0, 2.0, 41)
    return np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.1, 40))])


def _input(kind, rng, times, m):
    if kind == "zero":
        return None
    u = 0.3 * rand_cmatrix(rng, times.size, m)
    if kind == "array":
        return u
    return lambda t: u[int(np.searchsorted(times, t))]


class TestStateResponseAgainstLoop:
    @pytest.mark.parametrize("n", ORDERS)
    @pytest.mark.parametrize(
        "domain, grid",
        [(TimeDomain.CONTINUOUS, "uniform"), (TimeDomain.CONTINUOUS, "linspace"),
         (TimeDomain.CONTINUOUS, "irregular"), (TimeDomain.DISCRETE, "uniform"),
         (TimeDomain.DISCRETE, "linspace")],
    )
    @pytest.mark.parametrize("inputs", ["array", "callable", "zero"])
    def test_states_and_outputs_agree(self, n, domain, grid, inputs):
        rng = np.random.default_rng([n, len(grid), len(inputs), domain is TimeDomain.DISCRETE])
        sysm = rand_system(rng, n, 2, 2, domain, scale=0.6 / math.sqrt(n))
        times = _grid(grid, domain, rng)
        x0 = rand_cmatrix(rng, n, 1).ravel()
        u = _input(inputs, rng, times, sysm.m)
        trace = state_response(sysm, x0, times, u)
        states, outputs = state_response_loop(sysm, x0, times, u)
        assert _rel_err(trace.states, states) <= 1e-12
        assert _rel_err(trace.outputs, outputs) <= 1e-12

    def test_single_sample_grid(self):
        for domain in DOMAINS:
            sysm = rand_system(np.random.default_rng(5), 2, 1, 1, domain)
            trace = state_response(sysm, [1.0, 2j], [0.0], u=[[0.5j]])
            assert np.array_equal(trace.states, [[1.0, 2j]])
            assert _rel_err(trace.outputs, state_response_loop(sysm, [1.0, 2j], [0.0],
                                                               [[0.5j]])[1]) <= 1e-15

    # A linspace grid, and arange grids whose rounded steps fall on two or
    # three f"{h:.12e}" keys of the loop oracle (the CLI builds its grids so).
    @pytest.mark.parametrize("samples, dt", [(401, None)] + [
        (samples, dt) for dt in (0.01, 0.05, 0.1) for samples in (2001, 4000)])
    def test_steps_sharing_a_key_share_one_exponential(self, monkeypatch, samples, dt):
        rng = np.random.default_rng(11)
        sysm = rand_system(rng, 2, 1, 1, TimeDomain.CONTINUOUS)
        shift = float(np.max(sysm.spectrum().values.real)) + 0.2  # bounded over 400 s
        sysm = CxSystem(Bimatrix(sysm.a.first - shift * np.eye(2), sysm.a.second),
                        sysm.b, sysm.c, sysm.d, sysm.domain)
        times = np.linspace(0.0, 1.0, samples) if dt is None else np.arange(samples) * dt
        assert np.unique(np.diff(times)).size > 1
        u = 0.3 * rand_cmatrix(rng, samples, 1)
        calls = []
        real_expm = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a) or real_expm(a))
        trace = state_response(sysm, [1.0, 0.0], times, u)
        assert len(calls) == 1
        states, outputs = state_response_loop(sysm, [1.0, 0.0], times, u)
        assert _rel_err(trace.states, states) <= 1e-12
        assert _rel_err(trace.outputs, outputs) <= 1e-12


# Block lengths isqrt(steps) of 1 (the loop), 6, 7 and 63, with a short last block.
SCAN_STEPS = (0, 1, 2, 3, 48, 49, 50, 4000)
# The non-normal plant's bound against the pair-form loop, which is itself
# 5.4e-11 off a long-double recursion there (the scan: 6.3e-11 from the loop).
# A scan without the correction sweep misses it by 1000x, one whose sweep
# multiplies the starts themselves by the jump (not their change) by 25x, and
# one with the jump from repeated squaring by 65x.
NON_NORMAL_RTOL = 2e-10


def _regulated_plant(n, domain):
    """A controllable plant, its lqr gain, the closed loop and a start state."""
    rng = np.random.default_rng([n, domain is TimeDomain.DISCRETE, 17])
    sysm = rand_controllable_system(rng, n, 2, 1, domain, scale=0.7)
    gain = lqr(sysm).gain
    return sysm, gain, closed_loop(sysm, gain), rand_cmatrix(rng, n, 1).ravel(), rng


def _non_normal_plant():
    """Discrete n = 8 plant with state matrix ``Q T Q^T``, ``|Ad|_2 / rho`` about 12.

    ``T`` has 2x2 rotation blocks of radius at most 0.995 on its diagonal and
    Gaussian entries of standard deviation 2 above them.
    """
    rng = np.random.default_rng(1)
    t = 2.0 * np.triu(rng.standard_normal((16, 16)), 1)
    for k in range(0, 16, 2):
        r, th = 0.995 if k == 0 else rng.uniform(0.9, 0.995), rng.uniform(0.1, 3.0)
        t[k:k + 2, k:k + 2] = r * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    q = np.linalg.qr(rng.standard_normal((16, 16)))[0]
    a = Bimatrix.from_real_representation(q @ t @ q.T)
    sysm = CxSystem(a, rand_bimatrix(rng, 8, 1), rand_bimatrix(rng, 1, 8),
                    rand_bimatrix(rng, 1, 1), "discrete")
    rep = a.real_representation()
    rho = float(np.max(np.abs(np.linalg.eigvals(rep))))
    assert 0.99 <= rho < 1.0 and np.linalg.norm(rep, 2) >= 10.0 * rho
    return sysm, rand_cmatrix(rng, 8, 1).ravel(), rand_cmatrix(rng, 4001, 1)


class TestBlockedScan:
    @pytest.mark.parametrize("steps", SCAN_STEPS)
    @pytest.mark.parametrize("n", (1, 2, 8))
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_state_response_agrees_with_the_loop(self, domain, n, steps):
        _, _, cl, x0, rng = _regulated_plant(n, domain)
        times = np.arange(steps + 1) * (2.0**-7 if domain.is_continuous else 1.0)
        u = rand_cmatrix(rng, steps + 1, cl.m)
        trace = state_response(cl, x0, times, u)
        states, outputs = state_response_loop(cl, x0, times, u)
        assert _rel_err(trace.states, states) <= 1e-12
        assert _rel_err(trace.outputs, outputs) <= 1e-12

    @pytest.mark.parametrize("steps", SCAN_STEPS)
    @pytest.mark.parametrize("n", (1, 2, 8))
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_lqr_cost_agrees_with_the_loop(self, domain, n, steps):
        sysm, gain, cl, x0, _ = _regulated_plant(n, domain)
        weights = WeightPair.identity(n, sysm.m)
        dt = 2.0**-7 if domain.is_continuous else None
        got = lqr_cost(sysm, weights, gain, x0, steps * (dt or 1.0), dt)
        want = lqr_cost_loop(cl, weights, gain, x0, steps, dt)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_non_normal_plant(self):
        sysm, x0, u = _non_normal_plant()
        times = np.arange(4001.0)
        trace = state_response(sysm, x0, times, u)
        states, outputs = state_response_loop(sysm, x0, times, u)
        assert _rel_err(trace.states, states) <= NON_NORMAL_RTOL
        assert _rel_err(trace.outputs, outputs) <= NON_NORMAL_RTOL

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    def test_non_normal_plant_as_accurate_as_the_loop(self):
        # both kernels against a long-double recursion of the same real system
        sysm, x0, u = _non_normal_plant()
        rep = sysm.real_representation()
        xs = np.vstack([arrow(x0), arrow(u[:-1]) @ rep.b.T])
        ref, ad = xs.astype(np.longdouble), rep.a.astype(np.longdouble)
        for k in range(xs.shape[0] - 1):
            ref[k + 1] += ad @ ref[k]
        loop, scan = xs.copy(), xs.copy()
        analysis_module._step_rows(loop, itertools.repeat(rep.a))
        analysis_module._propagate(scan, [rep.a])
        assert _rel_err(scan, ref) <= 3.0 * _rel_err(loop, ref)

    @pytest.mark.parametrize("domain, a", [(TimeDomain.DISCRETE, 1e20),
                                           (TimeDomain.CONTINUOUS, 400.0)])
    def test_unexcited_unstable_mode_stays_finite(self, domain, a):
        # |Ad|^isqrt(400) overflows; the capped block length keeps the jump
        # finite, so the mode that is never excited stays exactly zero
        sysm = make_normal(np.diag([a, -0.5 if domain.is_continuous else 0.5]),
                           [[0.0], [1.0]], np.eye(2), domain=domain)
        times = np.arange(401.0)
        trace = state_response(sysm, [0.0, 1.0], times)
        states, outputs = state_response_loop(sysm, [0.0, 1.0], times)
        assert np.all(trace.states[:, 0] == 0.0)
        assert _rel_err(trace.states, states) <= 1e-12
        assert _rel_err(trace.outputs, outputs) <= 1e-12

    def test_only_a_single_step_matrix_takes_the_scan(self, monkeypatch):
        calls = []
        real_scan = analysis_module._scan
        monkeypatch.setattr(analysis_module, "_scan",
                            lambda xs, ad: calls.append(len(xs)) or real_scan(xs, ad))
        sysm = rand_system(np.random.default_rng(4), 2, 1, 1, TimeDomain.CONTINUOUS, scale=0.5)
        irregular = np.concatenate([[0.0], np.cumsum(0.05 * (1.0 + 0.1 * (np.arange(40) % 3)))])
        state_response(sysm, [1.0, 0.0], irregular)
        assert calls == []
        state_response(sysm, [1.0, 0.0], np.arange(41) * 2.0**-4)
        assert calls == [41]


class TestNonFiniteRefused:
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_non_finite_input_samples(self, domain):
        sysm = make_normal([[-0.5]], [[1.0]], [[1.0]], domain=domain)
        times = np.arange(4.0)
        u = np.zeros((4, 1), dtype=complex)
        u[-1, 0] = complex(np.nan, 0.0)  # reaches only the last output
        with pytest.raises(ValueError, match="non-finite"):
            state_response(sysm, [1.0], times, u)
        with pytest.raises(ValueError, match="non-finite"):
            state_response(sysm, [1.0], times, lambda t: [np.inf])
        with pytest.raises(ValueError, match="non-finite"):
            state_response(sysm, [np.nan], times)

    @pytest.mark.parametrize("times", [[0.0, 1.0, np.inf], [0.0, np.nan]])
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_non_finite_time_grid_refused_before_any_step(self, monkeypatch, domain, times):
        def no_step(*args):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(analysis_module, "_zoh_steps", no_step)
        monkeypatch.setattr(analysis_module, "_propagate", no_step)
        sysm = make_normal([[-0.5]], [[1.0]], [[1.0]], domain=domain)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="time grid must be finite"):
                state_response(sysm, [1.0], times)

    @pytest.mark.parametrize(
        "domain, a, times",
        [(TimeDomain.DISCRETE, 1e200, np.arange(4.0)),
         (TimeDomain.CONTINUOUS, 300.0, np.arange(4.0))],
    )
    def test_overflowing_state(self, domain, a, times):
        sysm = make_normal([[a]], [[1.0]], [[1.0]], domain=domain)
        with pytest.raises(ValueError, match="non-finite"):
            state_response(sysm, [1.0], times)

    @pytest.mark.parametrize("domain, a", [(TimeDomain.DISCRETE, 1e200),
                                           (TimeDomain.CONTINUOUS, 300.0)])
    def test_overflowing_cost(self, domain, a):
        sysm = make_normal([[a]], [[1.0]], [[1.0]], domain=domain)
        with pytest.warns(RuntimeWarning, match="not asymptotically stable"):
            with pytest.raises(ValueError, match="non-finite"):
                lqr_cost(sysm, WeightPair.identity(1, 1), Bimatrix.zeros(1, 1), [1.0],
                         horizon=5.0, dt=1.0)


class TestLqrCostAgainstLoop:
    @staticmethod
    def _plant(n, domain):
        rng = np.random.default_rng([n, domain is TimeDomain.DISCRETE, 77])
        sysm = rand_controllable_system(rng, n, 2, 1, domain, scale=0.7)
        return sysm, lqr(sysm).gain, rand_cmatrix(rng, n, 1).ravel()

    @pytest.mark.parametrize("n", ORDERS)
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_blocks_of_seven_steps(self, monkeypatch, n, domain):
        monkeypatch.setattr(design_module, "COST_BLOCK_STEPS", 7)
        sysm, gain, x0 = self._plant(n, domain)
        weights = WeightPair.identity(n, sysm.m)
        cl = closed_loop(sysm, gain)
        dt = 2.0**-7 if domain.is_continuous else None
        for steps in (1, 6, 7, 8, 14, 50):
            horizon = steps * (dt or 1.0)
            got = lqr_cost(sysm, weights, gain, x0, horizon, dt)
            want = lqr_cost_loop(cl, weights, gain, x0, steps, dt)
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_horizon_spanning_several_default_blocks(self, domain):
        sysm, gain, x0 = self._plant(2, domain)
        weights = WeightPair.identity(2, sysm.m)
        steps = 2 * design_module.COST_BLOCK_STEPS + 3
        dt = 2.0**-10 if domain.is_continuous else None
        got = lqr_cost(sysm, weights, gain, x0, steps * (dt or 1.0), dt)
        want = lqr_cost_loop(closed_loop(sysm, gain), weights, gain, x0, steps, dt)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_kernel_sentinel_is_live(self, monkeypatch):
        # the sentinel of test_design's bad-grid test fires on a good grid
        def no_propagation(*args):
            raise AssertionError("the propagation kernel ran")

        monkeypatch.setattr(design_module, "_propagate", no_propagation)
        sysm = make_normal([[-1.0]], [[1.0]], [[1.0]], domain="continuous")
        with pytest.raises(AssertionError, match="kernel ran"):
            lqr_cost(sysm, WeightPair.identity(1, 1), Bimatrix.zeros(1, 1), [1.0], 1.0, 0.5)


class TestLqrCostGrid:
    def test_continuous_grid_ends_at_the_horizon(self):
        # xdot = -x without feedback: stage cost exp(-2t); ceil(1.0 / 0.3) = 4
        # steps of 0.25, so the grid is the one dt = 0.25 gives
        sysm = make_normal([[-1.0]], [[1.0]], [[1.0]], domain="continuous")
        weights, gain = WeightPair.identity(1, 1), Bimatrix.zeros(1, 1)
        got = lqr_cost(sysm, weights, gain, [1.0], horizon=1.0, dt=0.3)
        g = np.exp(-2.0 * np.linspace(0.0, 1.0, 5))
        assert got == pytest.approx(0.25 * (np.sum(g) - 0.5 * (g[0] + g[-1])), rel=1e-13)
        assert got == lqr_cost(sysm, weights, gain, [1.0], horizon=1.0, dt=0.25)


class TestLqrCostZeroHorizon:
    def test_continuous_zero_horizon_costs_nothing(self):
        sysm = make_normal([[-1.0]], [[1.0]], [[1.0]], domain="continuous")
        sol = lqr(sysm)
        weights = WeightPair.identity(1, 1)
        assert lqr_cost(sysm, weights, sol.gain, [1.0], horizon=0.0) == 0.0
        assert lqr_cost(sysm, weights, sol.gain, [1.0], horizon=0.0, dt=0.01) == 0.0

    def test_default_step_without_time_scale_is_never_refused(self):
        # closed-loop spectrum {0}: no time scale, so the default splits the horizon
        sysm = make_normal([[0.0]], [[1.0]], [[1.0]], domain="continuous")
        weights = WeightPair.identity(1, 1)
        with pytest.warns(RuntimeWarning, match="not asymptotically stable"):
            assert lqr_cost(sysm, weights, Bimatrix.zeros(1, 1), [1.0], horizon=0.0) == 0.0
        with pytest.warns(RuntimeWarning, match="not asymptotically stable"):
            tiny = lqr_cost(sysm, weights, Bimatrix.zeros(1, 1), [1.0], horizon=1e-320)
        assert 0.0 <= tiny <= 1e-300


class TestTraceCsvBlocks:
    @pytest.mark.parametrize("rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
    def test_bytes_match_the_per_value_writer(self, rows):
        rng = np.random.default_rng(rows)
        times = np.cumsum(rng.uniform(0.0, 1.0, rows))
        specials = np.array([-0.0, 5e-324, 2.5e-310, 1e308, -1e308, 0.1, 1.0 / 3.0])
        groups = []
        for kind, width in (("x", 3), ("u", 1), ("y", 2)):
            re = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
            im = rng.choice(specials, (rows, width))
            groups.append((kind, re + 1j * im))
        groups[0][1][0, 0] = complex(-0.0, -0.0)
        got, want = io.StringIO(), io.StringIO()
        _write_trace_csv(got, times, groups)
        trace_csv_loop(want, times, groups)
        assert got.getvalue() == want.getvalue()
        assert got.getvalue().count("\n") == rows + 1

    def test_column_slices_of_a_wider_array(self):
        states = rand_cmatrix(np.random.default_rng(3), 5, 4)
        groups = [("x", states[:, :2]), ("z", states[:, 2:])]
        got, want = io.StringIO(), io.StringIO()
        _write_trace_csv(got, np.arange(5.0), groups)
        trace_csv_loop(want, np.arange(5.0), groups)
        assert got.getvalue() == want.getvalue()


def test_apply_rows_matches_apply_per_row():
    rng = np.random.default_rng(8)
    for rows, cols in ((1, 1), (2, 3), (8, 8)):
        bm = Bimatrix(rand_cmatrix(rng, rows, cols), rand_cmatrix(rng, rows, cols))
        xs = rand_cmatrix(rng, 50, cols)
        want = np.array([bm.apply(x) for x in xs])
        assert _rel_err(bm.apply(xs), want) <= 1e-14


def test_one_symmetry_rule_for_hermite_pairs_and_definiteness():
    # the first part is Hermitian within HERMITE_RTOL * max(1, |P1|) but its
    # real representation is sqrt(2) further from symmetric
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    q = HermiteBimatrix(0.1 * np.eye(2) + 6e-11j * e12)
    assert is_positive_definite(q)
    WeightPair(q, HermiteBimatrix(np.eye(1)))
