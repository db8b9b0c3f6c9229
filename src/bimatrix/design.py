"""Feedback synthesis: eigenvalue assignment, stabilization, LQR, observers.

Gains are designed on the real representation, where the problem is ordinary
multi-input state feedback with twice the inputs, and then folded back into a
coefficient pair.  The doubled input count is what gives conjugate feedback
``u = K1 x + conj(K2) conj(x)`` its extra design freedom.  Designing on the
complex lifting instead is deliberately avoided: a gain for the lifted system
generally has no pair structure to fold back.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    Bimatrix,
    HermiteBimatrix,
    SpectrumSet,
    _conjugate_pairing,
    _spectrum_mismatch,
    arrow,
    as_cvector,
    block_bimatrix,
    hermite_from_real_representation,
    is_positive_definite,
    quadratic_form_real,
)
from .exceptions import (
    DimensionError,
    NoUniqueSolutionError,
    NotControllableError,
    NotObservableError,
    NotStabilizableError,
    PlacementError,
    RiccatiError,
    SpectrumError,
)
from .analysis import (
    PBH_RTOL,
    _bad_region_mask,
    _pbh,
    _propagate,
    _rank_test,
    antilinear_controllable,
    antilinear_stabilizable_discrete,
    is_asymptotically_stable,
    is_controllable,
    is_observable,
    is_stabilizable,
    solve_lyapunov_real,
)
from .systems import CxSystem, TimeDomain, make_antilinear

__all__ = [
    "DEFAULT_SEED",
    "WeightPair",
    "LqrSolution",
    "assign_eigenvalues",
    "assign_eigenvalues_normal",
    "stabilize",
    "closed_loop",
    "lqr",
    "lqr_cost",
    "antilinear_lqr_discrete",
    "antilinear_lqr_continuous",
    "design_observer",
    "observer_loop",
]

DEFAULT_SEED = 12345
# Achieved-spectrum tolerance, scaled by 1 + |eigenvalue|.
PLACEMENT_RTOL = 1e-6
# Riccati residual gate: |res| / max(1, |P|).
ARE_RESIDUAL_RTOL = 1e-10
# Newton polish steps allowed when the Schur solution misses the gate, and how
# far they may move it (relative to the Schur solution) before the two
# solvers count as disagreeing.
ARE_NEWTON_STEPS = 3
ARE_POLISH_RTOL = math.sqrt(np.finfo(float).eps)
# Longest time grid a cost or simulation may allocate.
MAX_GRID_STEPS = 2_000_000
# Steps per block of lqr_cost's propagation: memory stays O(block) at any grid.
COST_BLOCK_STEPS = 4096
# Random Sylvester parameters drawn per placement before giving up.
PLACEMENT_DRAWS = 20


def _rng(rng):
    if rng is None:
        return np.random.default_rng(DEFAULT_SEED)
    return rng


# ---------------------------------------------------------------------------
# Eigenvalue placement (parametric Sylvester method)
# ---------------------------------------------------------------------------


def _real_spectrum_matrix(values):
    """Real block-diagonal matrix with the given conjugate-closed spectrum.

    Blocks are built from, and sorted by, each pair's first member in
    ``(Re, |Im|, Im)`` order.
    """
    values = np.asarray(values, dtype=complex)
    groups, unpaired = _conjugate_pairing(values)
    if unpaired:
        raise SpectrumError("spectrum is not closed under conjugation")
    blocks = sorted(
        (min((v.real, abs(v.imag), v.imag) for v in values[list(g)]), len(g)) for g in groups
    )
    out = np.zeros((values.size, values.size))
    k = 0
    for (re, im, _), size in blocks:
        out[k:k + size, k:k + size] = [[re]] if size == 1 else [[re, im], [-im, re]]
        k += size
    return out


def _block_sylvester(a, lam_mat):
    """Solver ``c -> X`` of ``a X - X lam_mat = c``, one diagonal block of ``lam_mat`` at a time.

    ``lam_mat`` is diagonal (complex data) or comes from
    :func:`_real_spectrum_matrix`.  A 1x1 block ``lam`` at column ``j`` solves
    ``(a - lam I) x_j = c_j``.  A 2x2 block ``[[r, w], [-w, r]]`` at columns
    ``j, j+1`` solves ``(a - (r + iw) I) z = c_j + i c_{j+1}`` and gives
    ``x_j = Re z``, ``x_{j+1} = Im z``.  The shifted matrices are built once;
    each ``c`` is one batched ``np.linalg.solve`` over all blocks, which
    raises ``LinAlgError`` for an exactly singular shift.
    """
    n = a.shape[0]
    sup = np.append(np.diag(lam_mat, 1), 0.0)
    pair = sup != 0  # column j opens a 2x2 block
    starts = np.flatnonzero(np.append(True, ~pair[:-1]))
    opens = pair[starts]
    seconds = starts[opens] + 1
    shifted = np.empty((starts.size, n, n), dtype=complex)
    shifted[:] = a
    diag = np.arange(n)
    shifted[:, diag, diag] -= (np.diag(lam_mat)[starts] + 1j * sup[starts])[:, None]
    complex_data = np.iscomplexobj(lam_mat)

    def solve(c):
        rhs = c[:, starts].astype(complex)
        rhs[:, opens] += 1j * c[:, seconds]
        z = np.linalg.solve(shifted, rhs.T[:, :, None])[:, :, 0].T
        if complex_data:
            return z
        x = np.empty((n, n))
        x[:, starts] = z.real
        x[:, seconds] = z[:, opens].imag
        return x

    return solve


def _place_once(a, b, lam_mat, targets, rng):
    """Gain ``K = G X^{-1}`` for one spectrum matrix ``lam_mat``, over random ``G``.

    Each draw of ``G`` solves ``a X - X lam_mat = -b G`` column block by column
    block (:func:`_block_sylvester`, the parametric method of Kautsky, Nichols
    and Van Dooren).  A draw is skipped when a shift is exactly singular,
    ``X`` is numerically singular, or ``a + b K`` misses ``targets``; after
    ``PLACEMENT_DRAWS`` draws :class:`PlacementError` is raised.
    """
    n = a.shape[0]
    m = b.shape[1]
    complex_data = np.iscomplexobj(a) or np.iscomplexobj(b)
    sylvester = _block_sylvester(a, lam_mat)
    for _ in range(PLACEMENT_DRAWS):
        g = rng.standard_normal((m, n))
        if complex_data:
            g = g + 1j * rng.standard_normal((m, n))
        try:
            x = sylvester(-b @ g)
        except np.linalg.LinAlgError:
            continue
        sv = np.linalg.svd(x, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= 1e-10 * sv[0]:
            continue
        k = np.linalg.solve(x.T, g.T).T
        if _spectrum_mismatch(np.linalg.eigvals(a + b @ k), targets) <= PLACEMENT_RTOL:
            return k
    raise PlacementError(
        f"eigenvalue placement failed after {PLACEMENT_DRAWS} parameter draws"
    )


def _place(a, b, targets, rng, _depth=0):
    """Gain K with ``spectrum(a + b K) = targets`` via a random-parameter
    Sylvester equation ``a X - X L = -b G``, ``K = G X^{-1}``.

    ``L`` is ``diag(targets)`` for complex data and the real block-diagonal
    :func:`_real_spectrum_matrix` for real data.  ``X`` comes one column block
    of ``L`` at a time from ``(a - lam I) x = -b g`` (see
    :func:`_place_once`).

    Target values overlapping the open-loop spectrum make the Sylvester
    operator singular; those are routed through an intermediate disjoint
    spectrum (two placements composed).
    """
    targets = np.asarray(targets, dtype=complex)
    n = a.shape[0]
    if targets.shape[0] != n:
        raise SpectrumError(f"expected {n} target eigenvalues, got {targets.shape[0]}")
    open_eigs = np.linalg.eigvals(a)
    sep = min(
        abs(t - lam) for t in targets for lam in open_eigs
    )
    if sep <= 1e-8 * (1.0 + float(np.max(np.abs(targets)))) and _depth < 2:
        radius = 1.0 + max(
            float(np.max(np.abs(open_eigs))), float(np.max(np.abs(targets)))
        )
        mids = -radius * (1.0 + 0.5 * np.arange(1, n + 1, dtype=float))
        k1 = _place(a, b, mids.astype(complex), rng, _depth + 1)
        k2 = _place(a + b @ k1, b, targets, rng, _depth + 1)
        return k1 + k2
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        lam_mat = np.diag(targets)
    else:
        lam_mat = _real_spectrum_matrix(targets)
    return _place_once(a, b, lam_mat, targets, rng)


def _as_spectrum(gamma, n, what):
    """``gamma`` as the spectrum of ``2n`` values an order-``n`` ``what`` needs."""
    if not isinstance(gamma, SpectrumSet):
        gamma = SpectrumSet(np.asarray(gamma, dtype=complex))
    if len(gamma) != 2 * n:
        raise SpectrumError(
            f"need {2 * n} target eigenvalues for an order-{n} {what}, got {len(gamma)}"
        )
    return gamma


def assign_eigenvalues(sys, gamma, rng=None, rtol=PBH_RTOL):
    """Full-feedback gain pair placing the closed-loop spectrum at ``gamma``.

    ``gamma`` must hold ``2n`` values closed under conjugation.  The gain is
    computed on the real representation and folded back, so the closed loop
    ``{A} + {B}{K}`` attains ``gamma`` exactly (up to numerical tolerance).

    Raises
    ------
    NotControllableError
        If the system fails the controllability rank test.
    SpectrumError
        If ``gamma`` has the wrong size or is not conjugate-closed.
    PlacementError
        If no acceptable parameter draw is found.
    """
    gamma = _as_spectrum(gamma, sys.n, "system")
    if not is_controllable(sys, rtol):
        raise NotControllableError("system is not controllable; cannot assign spectrum")
    rep = sys.real_representation()
    k = _place(rep.a, rep.b, gamma.values, _rng(rng))
    return Bimatrix.from_real_representation(k)


def assign_eigenvalues_normal(sys, poles, rng=None, rtol=PBH_RTOL):
    """Classical (conjugate-free) gain for a normal system.

    Restricts the feedback to ``u = K1 x``; only meaningful for systems with
    no conjugate coupling.  ``poles`` holds the ``n`` desired eigenvalues of
    ``A1 + B1 K1`` (the pair spectrum is then ``poles`` united with its
    conjugates).  With a single input the returned gain is the unique one.
    """
    if not sys.is_normal:
        raise ValueError("conjugate-free placement requires a normal system")
    poles = np.asarray(poles, dtype=complex).reshape(-1)
    if poles.shape[0] != sys.n:
        raise SpectrumError(f"expected {sys.n} poles, got {poles.shape[0]}")
    a1, b1 = sys.a.first, sys.b.first
    if not _rank_test(*_pbh(a1, b1, np.linalg.eigvals(a1)), rtol):
        raise NotControllableError(
            "the (A1, B1) pair is not controllable; cannot assign poles"
        )
    k1 = _place(a1, b1, poles, _rng(rng))
    return Bimatrix.normal(k1)


def closed_loop(sys, gain):
    """System under full state feedback: the state pair becomes ``A + B K``."""
    if gain.shape != (sys.m, sys.n):
        raise DimensionError(
            f"gain must be {(sys.m, sys.n)}, got {gain.shape}"
        )
    return CxSystem(sys.a + sys.b @ gain, sys.b, sys.c, sys.d, sys.domain)


def _mirror_spectrum(values, domain):
    """Reflect bad eigenvalues into the stable region (conjugate closure kept)."""
    values = np.asarray(values, dtype=complex)
    margin = 0.1 * max(1.0, float(np.max(np.abs(values))))
    out = values.copy()
    for i in np.flatnonzero(_bad_region_mask(values, domain)):
        v = values[i]
        if domain.is_continuous:
            out[i] = -max(abs(v.real), margin) + 1j * v.imag
        else:
            r = abs(v)
            out[i] = v * (min(0.8, 1.0 / r) / r)
    return out


def stabilize(sys, rng=None, rtol=PBH_RTOL):
    """Gain pair whose closed loop is asymptotically stable.

    Returns the gain of the quadratic regulator with identity weights, which
    :func:`lqr` has already checked for stabilizability (raising
    :class:`NotStabilizableError`) and for closed-loop stability.  If the
    Riccati solve fails, falls back to placing the mirrored open-loop
    spectrum; only that gain is checked here.
    """
    try:
        return lqr(sys, rtol=rtol).gain
    except (RiccatiError, PlacementError):
        gamma = _mirror_spectrum(sys.spectrum().values, sys.domain)
        rep = sys.real_representation()
        gain = Bimatrix.from_real_representation(_place(rep.a, rep.b, gamma, _rng(rng)))
    if not is_asymptotically_stable(closed_loop(sys, gain)):
        raise PlacementError("stabilization produced an unstable closed loop")
    return gain


# ---------------------------------------------------------------------------
# Linear quadratic regulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightPair:
    """Positive definite state and input weight pairs for the quadratic cost."""

    q: HermiteBimatrix
    r: HermiteBimatrix

    def __post_init__(self):
        if not is_positive_definite(self.q):
            raise ValueError("state weight is not positive definite")
        if not is_positive_definite(self.r):
            raise ValueError("input weight is not positive definite")

    @classmethod
    def identity(cls, n, m):
        return cls(HermiteBimatrix(np.eye(n)), HermiteBimatrix(np.eye(m)))


def _check_weight_shapes(sys, weights):
    if weights.q.shape != (sys.n, sys.n):
        raise DimensionError(f"state weight must be {(sys.n, sys.n)}")
    if weights.r.shape != (sys.m, sys.m):
        raise DimensionError(f"input weight must be {(sys.m, sys.m)}")


@dataclass(frozen=True)
class LqrSolution:
    """Riccati solution pair, optimal gain pair, and solution diagnostics.

    ``residual`` is the relative residual of the pair-valued Riccati equation
    evaluated with pair arithmetic.  ``iterations`` is 1 plus the number of
    Newton polish steps that followed the Schur solve, for :func:`lqr` and
    both antilinear regulators alike.
    ``minimum_cost(x0)`` evaluates the optimal cost ``Re(x0^H {P} x0)``.
    """

    p: HermiteBimatrix
    gain: Bimatrix
    residual: float
    iterations: int

    def minimum_cost(self, x0):
        return quadratic_form_real(self.p, x0)


def _solve_are_real(a, b, q, r, continuous):
    """Riccati equation of the real representation; returns ``(P, K, iterations)``.

    SciPy's Schur solvers (Laub's method for the continuous equation, the
    generalized Schur method for the discrete one) give ``P``.  It must meet
    ``|res| / max(1, |P|) <= ARE_RESIDUAL_RTOL``.  When it misses, at most
    ``ARE_NEWTON_STEPS`` Kleinman (continuous) or Hewer (discrete) Newton
    steps polish it, each one Lyapunov solve for the closed loop of the
    current gain.  The polished ``P`` is kept only if it lies within
    ``ARE_POLISH_RTOL`` of the Schur solution: two independent solvers must
    agree.  ``K`` is the optimal gain for ``P``, and ``iterations`` is 1 plus
    the number of Newton steps taken.
    """
    import scipy.linalg

    solver = scipy.linalg.solve_continuous_are if continuous else scipy.linalg.solve_discrete_are
    try:
        p0 = solver(a, b, q, r)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise RiccatiError(f"Schur Riccati solve failed: {exc}") from exc
    if not np.all(np.isfinite(p0)):
        raise RiccatiError("Schur Riccati solve returned non-finite entries")
    p = p0
    for steps in range(ARE_NEWTON_STEPS + 1):
        # optimal gain (u = K x) for the current P; the residual is written
        # with the closed loop a + b K
        if continuous:
            k = -np.linalg.solve(r, b.T @ p)
            acl = a + b @ k
            res = a.T @ p + p @ acl + q
        else:
            k = -np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
            acl = a + b @ k
            res = a.T @ p @ acl - p + q
        rel = np.linalg.norm(res) / max(1.0, np.linalg.norm(p))
        if rel <= ARE_RESIDUAL_RTOL:
            moved = np.linalg.norm(p - p0) / np.linalg.norm(p0)
            if moved > ARE_POLISH_RTOL:
                raise RiccatiError(
                    f"Newton polish moved the Schur solution by {moved:.1e} (relative); "
                    "the two solvers disagree"
                )
            return p, k, 1 + steps
        if steps == ARE_NEWTON_STEPS:
            break
        try:
            p = solve_lyapunov_real(acl, q + k.T @ r @ k, continuous)
        except NoUniqueSolutionError as exc:
            raise RiccatiError(f"Newton polish step failed: {exc}") from exc
    raise RiccatiError(
        f"Riccati residual {rel:.1e} above {ARE_RESIDUAL_RTOL:.0e} after "
        f"{ARE_NEWTON_STEPS} Newton polish steps"
    )


def _bimatrix_are_residual(sys, weights, p):
    """Relative residual of the pair-valued Riccati equation, pair arithmetic only."""
    a, b = sys.a, sys.b
    q, r = weights.q, weights.r
    if sys.domain.is_continuous:
        res = a.H @ p + p @ a - p @ b @ r.inverse() @ b.H @ p + q
    else:
        s = r + b.H @ p @ b
        res = a.H @ p @ a - p - a.H @ p @ b @ s.inverse() @ b.H @ p @ a + q
    num = np.linalg.norm(res.first) + np.linalg.norm(res.second)
    den = max(
        1.0,
        np.linalg.norm(q.first) + np.linalg.norm(q.second),
        np.linalg.norm(p.first) + np.linalg.norm(p.second),
    )
    return float(num / den)


def lqr(sys, weights=None, rtol=PBH_RTOL):
    """Optimal full state feedback for the infinite-horizon quadratic cost.

    Solves the Riccati equation of the real representation (the two pictures
    are equivalent) with SciPy's Schur solvers and at most a few Newton
    polish steps (see :func:`_solve_are_real`), folds the solution back into
    a Hermite pair ``{P1, P2}`` and the gain into ``{K1*, K2*}``, and verifies
    positive definiteness, closed-loop stability and the pair-form residual.

    Parameters
    ----------
    weights : WeightPair, optional
        Defaults to identity state and input weights.

    Returns
    -------
    LqrSolution

    Raises
    ------
    RiccatiError
        When the Schur solve fails, misses the residual gate even after
        Newton polishing, disagrees with its polished solution, or the result
        fails the definiteness or stability check.
    """
    weights = WeightPair.identity(sys.n, sys.m) if weights is None else weights
    _check_weight_shapes(sys, weights)
    if not is_stabilizable(sys, rtol):
        raise NotStabilizableError("system is not stabilizable; no regulator exists")
    rep = sys.real_representation()
    qr_, rr = weights.q.real_representation(), weights.r.real_representation()
    p_real, k_real, iters = _solve_are_real(
        rep.a, rep.b, qr_, rr, sys.domain.is_continuous
    )
    p = hermite_from_real_representation(p_real)
    gain = Bimatrix.from_real_representation(k_real)
    residual = _bimatrix_are_residual(sys, weights, p)
    if not is_positive_definite(p):
        raise RiccatiError("Riccati solution is not positive definite")
    if not is_asymptotically_stable(closed_loop(sys, gain)):
        raise RiccatiError("optimal closed loop failed the stability check")
    return LqrSolution(p=p, gain=gain, residual=residual, iterations=iters)


def _grid_span(horizon, dt):
    """``horizon / dt`` for a time grid, refused unless it lies in ``[0, MAX_GRID_STEPS]``.

    The horizon is checked first, so a bad horizon is named as such whatever
    ``dt`` is.
    """
    horizon = float(horizon)
    bad_horizon = (
        f"horizon must be finite, non-negative and span at most {MAX_GRID_STEPS:.0e} steps"
    )
    if not (math.isfinite(horizon) and horizon >= 0.0):
        raise ValueError(bad_horizon)
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    span = horizon / float(dt)
    if span > MAX_GRID_STEPS:
        raise ValueError(bad_horizon)
    return span


def lqr_cost(sys, weights, gain, x0, horizon, dt=None):
    """Accumulated quadratic cost of the closed loop from ``x0``.

    Discrete time sums the stage costs; continuous time integrates them with
    the composite trapezoid rule on a fine uniform grid (states advance by
    the exact one-step transition, so only quadrature error remains).  The
    continuous grid takes ``ceil(horizon / dt)`` equal steps, so it ends at
    the horizon and no step is longer than ``dt``.  The states come from the
    propagation kernel of :func:`state_response` on the real representation,
    in blocks of at most ``COST_BLOCK_STEPS`` steps, so memory stays
    bounded; each block's stage costs
    ``x_r' Q_r x_r + u_r' R_r u_r`` with ``u_r = K_r x_r`` are one
    ``einsum``.  The sum never touches a Riccati solution.

    An unstable closed loop yields a truncated, diverging partial sum and a
    ``RuntimeWarning``; a state that overflows raises ``ValueError``.  A
    zero horizon costs exactly 0.0.  Without ``dt``, continuous time takes
    1/50 of the fastest closed-loop time scale, or else 10,000 steps over
    the horizon.  A ``ValueError`` refuses, before any step, a horizon that
    is negative or not finite, a ``dt`` that is not positive and finite,
    and a grid of more than ``MAX_GRID_STEPS`` steps.
    """
    import scipy.linalg

    cl = closed_loop(sys, gain)
    _check_weight_shapes(sys, weights)
    x0 = as_cvector(x0, "x0")
    if x0.shape[0] != sys.n:
        raise DimensionError(f"x0 has length {x0.shape[0]}, expected {sys.n}")
    stable = is_asymptotically_stable(cl)
    continuous = sys.domain.is_continuous
    if continuous and dt is None:
        # resolve both the fastest decay and the fastest oscillation
        vals = cl.spectrum().values
        fastest = float(np.max(np.abs(vals))) if stable else 0.0
        # the floor keeps the step positive for a zero or subnormal horizon
        default = max(float(horizon) / 10_000.0, np.finfo(float).tiny)
        dt = 1.0 / (50.0 * fastest) if fastest > 0 else default
    steps = math.ceil(_grid_span(horizon, dt if continuous else 1.0))
    if continuous and steps:
        dt = float(horizon) / steps  # the grid ends at the horizon
    if not stable:
        warnings.warn(
            "closed loop is not asymptotically stable; cost is a diverging partial sum",
            RuntimeWarning,
            stacklevel=2,
        )
    x = arrow(x0)
    a_r = cl.a.real_representation()
    ad = scipy.linalg.expm(float(dt) * a_r) if continuous else a_r
    k_r = gain.real_representation()
    zero = np.zeros((2 * sys.n, 2 * sys.m))
    # stage cost z' W z of z = (x_r, K_r x_r)
    w = np.block([[weights.q.real_representation(), zero],
                  [zero.T, weights.r.real_representation()]])

    total = 0.0
    for done in range(0, steps, COST_BLOCK_STEPS):
        xs = np.zeros((min(COST_BLOCK_STEPS, steps - done) + 1, x.size))
        xs[0] = x
        _propagate(xs, [ad])
        zs = np.hstack([xs, xs @ k_r.T])
        g = np.einsum("ij,ij->i", zs @ w, zs)
        if continuous:
            total += 0.5 * dt * float(np.sum(g[:-1] + g[1:]))
        else:
            total += float(np.sum(g[:-1]))
        x = xs[-1]
    return float(total)


# ---------------------------------------------------------------------------
# Decoupled regulators for purely conjugate-driven systems
# ---------------------------------------------------------------------------


def antilinear_lqr_discrete(a2, b2, q1, r1):
    """Discrete-time regulator for ``x+ = conj(A2) conj(x) + conj(B2) conj(u)``.

    The Riccati equation decouples: a single Hermitian ``P1`` solves

        ``A2^H conj(P1) A2 - A2^H conj(P1) B2 S^{-1} B2^H conj(P1) A2 - P1 = -Q1``

    with ``S = R1 + B2^H conj(P1) B2``, and the optimal feedback is the
    conjugate-free ``u = K1 x``, ``K1 = -S^{-1} B2^H conj(P1) A2``.  It is the
    Riccati equation of the real representation, so :func:`_solve_are_real`
    solves it there.  The folded solution must then have a vanishing second
    part, meet the decoupled equation and reproduce the folded general gain
    as ``K1``, each within 1e-8 relative.  A ``RiccatiError`` means that the
    Schur solve failed or missed its residual gate, or that one of these
    checks or the closed-loop stability check failed.
    """
    a2 = np.asarray(a2, dtype=complex)
    b2 = np.asarray(b2, dtype=complex)
    weights = WeightPair(HermiteBimatrix(q1), HermiteBimatrix(r1))
    q1, r1 = weights.q.first, weights.r.first
    n, m = a2.shape[0], b2.shape[-1]
    if a2.shape != (n, n) or b2.shape != (n, m) or q1.shape != (n, n) or r1.shape != (m, m):
        raise DimensionError("coefficient or weight shapes are inconsistent")
    if not antilinear_stabilizable_discrete(a2, b2):
        raise NotStabilizableError("antilinear system is not stabilizable")

    p_real, k_real, iters = _solve_are_real(
        Bimatrix.antilinear(a2).real_representation(),
        Bimatrix.antilinear(b2).real_representation(),
        weights.q.real_representation(),
        weights.r.real_representation(),
        continuous=False,
    )
    p_pair = hermite_from_real_representation(p_real)
    gain = Bimatrix.from_real_representation(k_real)
    p, pc = p_pair.first, np.conj(p_pair.first)
    k1 = -np.linalg.solve(r1 + b2.conj().T @ pc @ b2, b2.conj().T @ pc @ a2)
    res = q1 + a2.conj().T @ pc @ a2 + a2.conj().T @ pc @ b2 @ k1 - p
    scale = max(1.0, np.linalg.norm(p), np.linalg.norm(q1))
    residual = float(np.linalg.norm(res) / scale)
    coupling = float(np.linalg.norm(p_pair.second) / scale)
    gain_scale = max(1.0, np.linalg.norm(gain.first) + np.linalg.norm(gain.second))
    drift = (np.linalg.norm(k1 - gain.first) + np.linalg.norm(gain.second)) / gain_scale
    if max(residual, coupling, drift) > 1e-8:
        raise RiccatiError(
            f"solution violates the decoupled equation (residual {residual:.1e}, "
            f"conjugate part {coupling:.1e}, gain drift {drift:.1e})"
        )

    closed = a2 + b2 @ k1
    closed_eigs = np.linalg.eigvals(np.conj(closed) @ closed)
    if np.any(_bad_region_mask(closed_eigs, TimeDomain.DISCRETE)):
        raise RiccatiError("regulated antilinear loop failed the stability check")
    return LqrSolution(
        p=HermiteBimatrix(p),
        gain=Bimatrix.normal(k1),
        residual=residual,
        iterations=iters,
    )


def antilinear_lqr_continuous(a2, b2, q, r1):
    """Continuous-time regulator for a purely conjugate-driven system.

    Delegates to the general regulator (with ``A1 = B1 = 0`` and ``R2 = 0``),
    then checks the decoupled coupled-equation form of the Riccati system and
    re-derives the gains from it::

        K1* = -R1^{-1} B2^H P2,    K2* = -conj(R1)^{-1} B2^T P1

    asserting agreement with the general extraction.  Controllability is the
    exact stabilizability condition in continuous time.
    """
    a2 = np.asarray(a2, dtype=complex)
    b2 = np.asarray(b2, dtype=complex)
    if not isinstance(q, HermiteBimatrix):
        raise TypeError("q must be a HermiteBimatrix weight pair")
    weights = WeightPair(q, HermiteBimatrix(r1))
    r1 = weights.r.first
    if not antilinear_controllable(a2, b2):
        raise NotControllableError(
            "continuous antilinear system is not controllable (hence not stabilizable)"
        )
    sys = make_antilinear(a2, b2, domain=TimeDomain.CONTINUOUS)
    sol = lqr(sys, weights)
    p1, p2 = sol.p.first, sol.p.second
    q1, q2 = q.first, q.second

    r1i = np.linalg.inv(r1)
    r1ci = np.conj(r1i)
    res1 = (
        a2.conj().T @ p2
        + np.conj(p2) @ a2
        - np.conj(p2) @ b2 @ r1i @ b2.conj().T @ p2
        - p1 @ np.conj(b2) @ r1ci @ b2.T @ p1
        + q1
    )
    res2 = (
        a2.T @ p1
        + np.conj(p1) @ a2
        - np.conj(p1) @ b2 @ r1i @ b2.conj().T @ p2
        - p2 @ np.conj(b2) @ r1ci @ b2.T @ p1
        + q2
    )
    scale = max(1.0, np.linalg.norm(q1) + np.linalg.norm(q2),
                np.linalg.norm(p1) + np.linalg.norm(p2))
    residual = float(max(np.linalg.norm(res1), np.linalg.norm(res2)) / scale)
    if residual > 1e-8:
        raise RiccatiError(
            f"solution violates the decoupled equations (residual {residual:.1e})"
        )

    k1 = -r1i @ b2.conj().T @ p2
    k2 = -r1ci @ b2.T @ p1
    gain_scale = max(1.0, np.linalg.norm(sol.gain.first) + np.linalg.norm(sol.gain.second))
    drift = (
        np.linalg.norm(k1 - sol.gain.first) + np.linalg.norm(k2 - sol.gain.second)
    ) / gain_scale
    if drift > 1e-8:
        raise RiccatiError(
            f"decoupled gain formulas disagree with the general gain ({drift:.1e})"
        )
    return LqrSolution(
        p=sol.p,
        gain=Bimatrix(k1, k2),
        residual=residual,
        iterations=sol.iterations,
    )


# ---------------------------------------------------------------------------
# Observer design
# ---------------------------------------------------------------------------


def design_observer(sys, gamma, rng=None, rtol=PBH_RTOL):
    """Injection gain pair ``{L1, L2}`` placing the error spectrum at ``gamma``.

    The error dynamics are ``e+ = ({A} + {L}{C}) e``; the gain is obtained by
    placing ``gamma`` on the transposed real representation and transposing
    back.  ``gamma`` needs ``2n`` conjugate-closed values strictly inside the
    stable region.
    """
    gamma = _as_spectrum(gamma, sys.n, "observer")
    if np.any(_bad_region_mask(gamma.values, sys.domain)):
        raise SpectrumError(
            "observer spectrum must lie strictly inside the stable region"
        )
    if not is_observable(sys, rtol):
        raise NotObservableError(
            "system is not observable; cannot place the error spectrum exactly"
        )
    rep = sys.real_representation()
    k_dual = _place(rep.a.T, rep.c.T, gamma.values, _rng(rng))
    l_real = k_dual.T
    gain = Bimatrix.from_real_representation(l_real)
    achieved = (sys.a + gain @ sys.c).eigenvalues()
    if not achieved.matches(gamma, rtol=PLACEMENT_RTOL):
        raise PlacementError("observer spectrum verification failed")
    return gain


def observer_loop(sys, l_gain, k_gain=None):
    """Plant and observer combined into one system with state ``[x; z]``.

    The observer copies the plant, driven by the innovation
    ``{L}({C} z + {D} u - y)``.  With ``k_gain`` the input is
    ``u = {K} z + v`` (certainty-equivalence feedback from the observer
    state); without it the input feeds both subsystems directly.  The
    combined spectrum is the union of the feedback and error spectra.
    """
    n, p, m = sys.n, sys.p, sys.m
    if l_gain.shape != (n, p):
        raise DimensionError(f"observer gain must be {(n, p)}, got {l_gain.shape}")
    a, b, c, d = sys.a, sys.b, sys.c, sys.d
    lc = l_gain @ c
    if k_gain is None:
        a_aug = [[a, Bimatrix.zeros(n, n)], [-1.0 * lc, a + lc]]
        c_aug = [[c, Bimatrix.zeros(p, n)]]
    else:
        if k_gain.shape != (m, n):
            raise DimensionError(f"feedback gain must be {(m, n)}, got {k_gain.shape}")
        bk = b @ k_gain
        a_aug = [[a, bk], [-1.0 * lc, a + bk + lc]]
        c_aug = [[c, d @ k_gain]]
    return CxSystem(
        block_bimatrix(a_aug),
        block_bimatrix([[b], [b]]),
        block_bimatrix(c_aug),
        d,
        sys.domain,
    )
