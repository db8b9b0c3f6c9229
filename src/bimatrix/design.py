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
from contextlib import contextmanager
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
    NotControllableError,
    NotObservableError,
    NotStabilizableError,
    PlacementError,
    RiccatiError,
    SpectrumError,
)
from .analysis import (
    LYAP_RESIDUAL_RTOL,
    PBH_RTOL,
    _bad_region_mask,
    _lyapunov_gate,
    _pbh,
    _propagate,
    _rank_test,
    antilinear_controllable,
    antilinear_stabilizable_discrete,
    is_asymptotically_stable,
    is_controllable,
    is_observable,
    is_stabilizable,
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
# Longest time grid a cost or simulation may allocate.
MAX_GRID_STEPS = 2_000_000
# Steps per block of lqr_cost's propagation: memory stays O(block) at any grid.
COST_BLOCK_STEPS = 4096
# Gauss-Seidel sweeps over the eigenvector columns before placement gives up.
PLACEMENT_SWEEPS = 2


# ---------------------------------------------------------------------------
# Eigenvalue placement (Kautsky, Nichols and Van Dooren, method 0)
# ---------------------------------------------------------------------------


def _place(a, b, targets, rng, spectrum=None):
    """Gain K with ``spectrum(K) = targets``, by Kautsky, Nichols and Van Dooren's method 0.

    With ``b = [U0 U1] diag(s) V^H`` (an SVD with a rank cut), the eigenvectors
    for ``lam`` fill ``S_lam``, the null space of ``U1^H (a - lam I)``, also at
    an open-loop eigenvalue; a batched complete QR of the ``(a - lam I)^H U1``
    gives orthonormal bases.  Real data take one ``lam`` per conjugate pair
    (real shifts stay real) and the conjugate column for the partner.  Column
    ``j`` of ``X`` starts as the projection onto ``S_lam`` of column ``j`` of
    the orthogonal factor of the call's one ``rng.standard_normal((2, n, n))``
    draw (for the ``q`` pairs of real data, columns ``j`` and ``j + q`` give
    the real and imaginary part).  ``K = b^+ U0 U0^H (X Lam X^{-1} - a)``, real
    for real data, must bring ``spectrum(K)`` (the eigenvalues of ``a + b K``
    unless a caller that folds K into a pair passes its pair form) within
    ``PLACEMENT_RTOL`` of ``targets``, the one check; after a miss, each of up
    to ``PLACEMENT_SWEEPS`` Gauss-Seidel sweeps moves each column (a pair's two
    at once) to the unit projection onto its ``S_lam`` of that column of
    ``X^{-H}`` where this raises ``|det X|``, and checks again.  A singular
    ``X``, a non-finite ``K`` or a last miss raises :class:`PlacementError`.
    So does a first miss when ``X`` with unit columns has a 2-norm condition
    number of at least ``1/eps``: such an ``X`` is singular to working
    precision, so its ``X^{-H}`` carries no correct digit to sweep with, and
    the message names that number.
    """
    targets = np.asarray(targets, dtype=complex)
    n, m = a.shape[0], b.shape[1]
    if targets.shape[0] != n:
        raise SpectrumError(f"expected {n} target eigenvalues, got {targets.shape[0]}")
    complex_data = np.iscomplexobj(a) or np.iscomplexobj(b)
    real, pairs = np.empty(0), targets
    if not complex_data:
        groups, unpaired = _conjugate_pairing(targets)
        if unpaired:
            raise SpectrumError("spectrum is not closed under conjugation")
        real = np.array([targets[g[0]].real for g in groups if len(g) == 1])
        pairs = np.array([complex(targets[g[0]].real, abs(targets[g[0]].imag))
                          for g in groups if len(g) == 2], dtype=complex)
    p, q = real.size, pairs.size
    u, s, vh = np.linalg.svd(b)
    r = int(np.count_nonzero(s > max(n, m) * np.finfo(float).eps * s.max(initial=0.0)))
    g = (np.random.default_rng(DEFAULT_SEED) if rng is None else rng).standard_normal((2, n, n))
    if complex_data:
        z = np.linalg.qr(g[0] + 1j * g[1], mode="complete")[0]
    else:
        z = np.linalg.qr(g[0], mode="complete")[0]
        z = np.hstack([z[:, :p], z[:, p:p + q] + 1j * z[:, p + q:]])
    # One batch of complete QRs per shift kind; S_lam is the last r columns.
    u1 = u[:, r:]
    a_u1 = a.conj().T @ u1
    real_bases = np.linalg.qr(a_u1 - real[:, None, None] * u1, mode="complete")[0]
    real_bases = real_bases[..., n - r:]
    pair_bases = np.linalg.qr(a_u1 - pairs.conj()[:, None, None] * u1, mode="complete")[0]
    pair_bases = pair_bases[..., n - r:]
    # Column k of X starts as the projection of column k of z onto its S_lam.
    starts = z.T[:, :, None]
    x_real = real_bases @ (real_bases.conj().transpose(0, 2, 1) @ starts[:p])
    x_pair = pair_bases @ (pair_bases.conj().transpose(0, 2, 1) @ starts[p:])
    x = np.hstack([x_real[..., 0].T, x_pair[..., 0].T]).astype(complex)
    if not complex_data:  # each pair's partner takes the conjugate column
        x = np.hstack([x, x_pair[..., 0].T.conj()])
        pairs = np.concatenate([pairs, pairs.conj()])
    lam = np.concatenate([real, pairs])
    bases = [*real_bases, *pair_bases]
    spectrum = spectrum or (lambda k: np.linalg.eigvals(a + b @ k))

    for sweep in range(PLACEMENT_SWEEPS + 1):
        try:
            if sweep:  # unit columns; x_inv follows each move by a Woodbury update
                scale = np.linalg.norm(x, axis=0)
                x, x_inv = x / scale, np.linalg.inv(x) * scale[:, None]
                for j, basis in enumerate(bases):
                    y = x_inv[j].conj()
                    y = basis @ (basis.conj().T @ (y.real if j < p else y))
                    y /= np.linalg.norm(y)
                    if j < p or complex_data:  # det X grows by the factor 1 + w_j, at least 1
                        w = x_inv @ (y - x[:, j])
                        x_inv -= np.outer(w / (1.0 + w[j]), x_inv[j])
                        x[:, j] = y
                        continue
                    cols, y = [j, j + q], np.column_stack((y, y.conj()))
                    w = x_inv @ (y - x[:, cols])
                    (c00, c01), (c10, c11) = w[cols] + np.eye(2)
                    det = c00 * c11 - c01 * c10  # the factor on det X; a pair may lower it
                    if abs(det) > 1.0:
                        x_inv -= w @ (np.array([[c11, -c01], [-c10, c00]]) @ x_inv[cols]) / det
                        x[:, cols] = y
            k = np.linalg.solve(x.T, (x * lam).T).T - a
        except np.linalg.LinAlgError:
            raise PlacementError("eigenvalue placement failed: X is singular") from None
        k = vh[:r].conj().T @ ((u[:, :r].conj().T @ k) / s[:r, None])
        k = k if complex_data else k.real
        if not np.all(np.isfinite(k)):
            raise PlacementError("eigenvalue placement failed: the gain is not finite")
        miss = _spectrum_mismatch(spectrum(k), targets)
        if miss <= PLACEMENT_RTOL:
            return k
        if not sweep:  # no sweep can repair an X that is singular to working precision
            kappa = np.linalg.cond(x / np.linalg.norm(x, axis=0))
            if np.finfo(float).eps * kappa >= 1.0:
                raise PlacementError(f"eigenvalue placement failed: X is singular to working "
                                     f"precision (condition number {kappa:.1e}); the closed-loop "
                                     f"spectrum misses the targets by {miss:.1e} (relative)")
    raise PlacementError(f"eigenvalue placement failed after {PLACEMENT_SWEEPS} sweeps: the "
                         f"closed-loop spectrum misses the targets by {miss:.1e} (relative)")


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

    ``gamma`` must hold ``2n`` finite values closed under conjugation.  The gain
    is computed on the real representation and folded back; :func:`_place`
    checks each candidate in pair form, so the closed loop ``{A} + {B}{K}``
    attains ``gamma`` within ``PLACEMENT_RTOL``.  ``rng`` is a
    ``numpy.random.Generator``; a call that reaches placement draws
    ``standard_normal((2, 2n, 2n))`` from it once (see :func:`_place`).  The
    rank test (``rtol``) runs only to name a failed placement, so an
    uncontrollable plant whose fixed modes all lie in ``gamma`` gets a gain.

    Raises
    ------
    NotControllableError
        In place of a ``PlacementError`` when the system fails the rank test.
    SpectrumError
        If ``gamma`` has the wrong size, a non-finite value, or is not conjugate-closed.
    PlacementError
        If the pair-form closed loop misses ``gamma`` after the last sweep of
        :func:`_place`, or ``X`` is singular.
    """
    gamma = _as_spectrum(gamma, sys.n, "system")
    with _named_failure(lambda: is_controllable(sys, rtol), NotControllableError(
            "system is not controllable; cannot assign spectrum")):
        fold = Bimatrix.from_real_representation
        k = _place(sys.a.real_representation(), sys.b.real_representation(), gamma.values, rng,
                   lambda k: (sys.a + sys.b @ fold(k)).eigenvalues().values)
    return fold(k)


def assign_eigenvalues_normal(sys, poles, rng=None, rtol=PBH_RTOL):
    """Classical (conjugate-free) gain for a normal system.

    Restricts the feedback to ``u = K1 x``; only meaningful for systems with
    no conjugate coupling.  ``poles`` holds the ``n`` desired (finite)
    eigenvalues of ``A1 + B1 K1`` (the pair spectrum is then ``poles`` united
    with its conjugates).  With a single input the returned gain is unique.
    ``rng`` gives one ``standard_normal((2, n, n))`` draw to :func:`_place`,
    whose check of ``A1 + B1 K1`` is the pair form; the rank test of
    ``(A1, B1)`` runs only to name a failure (:class:`NotControllableError`).
    """
    if not sys.is_normal:
        raise ValueError("conjugate-free placement requires a normal system")
    poles = np.asarray(poles, dtype=complex).reshape(-1)
    if poles.shape[0] != sys.n:
        raise SpectrumError(f"expected {sys.n} poles, got {poles.shape[0]}")
    if not np.all(np.isfinite(poles)):
        raise SpectrumError("poles must be finite")
    a1, b1 = sys.a.first, sys.b.first
    with _named_failure(lambda: _rank_test(*_pbh(a1, b1, np.linalg.eigvals(a1)), rtol),
                        NotControllableError("the (A1, B1) pair is not controllable; "
                                             "cannot assign poles")):
        return Bimatrix.normal(_place(a1, b1, poles, rng))


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
    :func:`lqr` has checked for closed-loop stability; if it fails, its rank
    test (``rtol``) names an unstabilizable plant (:class:`NotStabilizableError`).
    Another Riccati failure falls back to placing the mirrored open-loop
    spectrum; only that gain is checked here.  The fallback draws
    ``standard_normal((2, 2n, 2n))`` once from ``rng`` (see :func:`_place`).
    """
    try:
        return lqr(sys, rtol=rtol).gain
    except (RiccatiError, PlacementError):
        gamma = _mirror_spectrum(sys.spectrum().values, sys.domain)
        a_r, b_r = sys.a.real_representation(), sys.b.real_representation()
        gain = Bimatrix.from_real_representation(_place(a_r, b_r, gamma, rng))
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
        """Identity weights, built without the symmetry and definiteness checks they cannot fail."""
        weights = object.__new__(cls)
        for name, size in (("q", n), ("r", m)):
            eye = object.__new__(HermiteBimatrix)
            eye._adopt(np.eye(size, dtype=complex), np.zeros((size, size), dtype=complex))
            object.__setattr__(weights, name, eye)
        return weights


def _check_weight_shapes(sys, weights):
    if weights.q.shape != (sys.n, sys.n):
        raise DimensionError(f"state weight must be {(sys.n, sys.n)}")
    if weights.r.shape != (sys.m, sys.m):
        raise DimensionError(f"input weight must be {(sys.m, sys.m)}")


@dataclass(frozen=True)
class LqrSolution:
    """Riccati solution pair, optimal gain pair, and solution diagnostics.

    ``residual`` is the relative residual of the pair-valued Riccati equation,
    in closed-loop form with the returned gain (:func:`_bimatrix_are_residual`)
    for :func:`lqr` and :func:`antilinear_lqr_continuous`.  ``iterations`` is always
    1: every regulator makes one ordered Schur factorization (:func:`_solve_are_real`).
    ``minimum_cost(x0)`` evaluates the optimal cost ``Re(x0^H {P} x0)``.
    """

    p: HermiteBimatrix
    gain: Bimatrix
    residual: float
    iterations: int

    def minimum_cost(self, x0):
        return quadratic_form_real(self.p, x0)


def _solve_are_real(a, b, q, r, continuous):
    """Riccati equation of the real representation; returns ``(P, K, 1)``.

    One unbalanced ordered Schur factorization with exactly ``n`` stable eigenvalues gives
    ``P = U21 U11^{-1}``, symmetrized, from its stable subspace ``[U11; U21]``: the Schur form
    of the Hamiltonian ``[[a, -b r^-1 b^T], [-q, -a^T]]`` (Laub, 1979), or the QZ form of
    ``[[a, 0, b], [-q, I, 0], [0, 0, r]] - z [[I, 0], [0, a^T], [0, -b^T]]`` compressed to
    ``2n`` rows by one QR (Pappas, Laub and Sandell, 1980).  With the optimal ``K`` for ``P``
    the Riccati residual is the residual of the closed-loop Lyapunov equation for ``a + b K``
    with weight ``q + K^T r K``, which :func:`_lyapunov_gate` accepts or names why it refuses.
    """
    import scipy.linalg

    n, m = b.shape
    try:
        if continuous:
            h = np.block([[a, -b @ np.linalg.solve(r, b.T)], [-q, -a.T]])
            _, u, stable = scipy.linalg.schur(h, sort="lhp")
        else:
            zero, below = np.zeros((n, n)), np.zeros((m, n))
            h = np.block([[a, zero, b], [-q, np.eye(n), below.T], [below, below, r]])
            j = np.block([[np.eye(n), zero], [zero, a.T], [below, -b.T]])
            w = np.linalg.qr(h[:, 2 * n:], mode="complete")[0][:, m:].T
            _, _, alpha, beta, _, u = scipy.linalg.ordqz(w @ h[:, :2 * n], w @ j, sort="iuc")
            stable = np.count_nonzero(np.abs(alpha) < np.abs(beta))
        if stable != n:
            raise ValueError(f"{stable} of {2 * n} eigenvalues are stable, not {n}")
        p = np.linalg.solve(u[:n, :n].T, u[n:, :n].T)  # P^T = U11^{-T} U21^T
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise RiccatiError(f"Schur Riccati solve failed: {exc}") from exc
    p = (p + p.T) / 2
    if not np.all(np.isfinite(p)):
        raise RiccatiError("Schur Riccati solve returned non-finite entries")
    # optimal gain (u = K x) for P
    if continuous:
        k = -np.linalg.solve(r, b.T @ p)
    else:
        k = -np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
    reason = _lyapunov_gate(a + b @ k, p, q + k.T @ r @ k, continuous)
    if reason:
        raise RiccatiError(f"Riccati solution is too ill-conditioned to trust: {reason}")
    return p, k, 1


def _bimatrix_are_residual(sys, weights, p, gain):
    """Relative residual of the pair-valued Riccati equation in closed-loop form.

    ``A^H P + P (A + B K) + Q`` (continuous) or ``A^H P (A + B K) - P + Q``
    (discrete) in pair arithmetic: the Riccati equation for the optimal
    ``K``, without a pair inverse, and it also checks that ``P`` and ``K`` match.
    """
    a, q = sys.a, weights.q
    if sys.domain.is_continuous:
        res = a.H @ p + p @ (a + sys.b @ gain) + q
    else:
        res = a.H @ p @ (a + sys.b @ gain) - p + q
    num = np.linalg.norm(res.first) + np.linalg.norm(res.second)
    den = max(1.0, np.linalg.norm(q.first) + np.linalg.norm(q.second),
              np.linalg.norm(p.first) + np.linalg.norm(p.second))
    return float(num / den)


@contextmanager
def _named_failure(passes, error):
    """Raise ``error`` from a Riccati or placement failure in the block if ``passes()`` fails.

    A verified regulator proves the plant stabilizable, and a verified placement the
    spectrum assignable, so the rank test ``passes`` runs only to name a failure.
    """
    try:
        yield
    except (RiccatiError, PlacementError) as exc:
        if not passes():
            raise error from exc
        raise


def _lqr_solution(sys, weights):
    """:func:`lqr` without its rank test."""
    _check_weight_shapes(sys, weights)
    a_r, b_r = sys.a.real_representation(), sys.b.real_representation()
    qr_, rr = weights.q.real_representation(), weights.r.real_representation()
    p_real, k_real, iters = _solve_are_real(a_r, b_r, qr_, rr, sys.domain.is_continuous)
    p = hermite_from_real_representation(p_real)
    gain = Bimatrix.from_real_representation(k_real)
    residual = _bimatrix_are_residual(sys, weights, p, gain)
    if not is_positive_definite(p):
        raise RiccatiError("Riccati solution is not positive definite")
    if not is_asymptotically_stable(closed_loop(sys, gain)):
        raise RiccatiError("optimal closed loop failed the stability check")
    return LqrSolution(p=p, gain=gain, residual=residual, iterations=iters)


def lqr(sys, weights=None, rtol=PBH_RTOL):
    """Optimal full state feedback for the infinite-horizon quadratic cost.

    Solves the Riccati equation of the real representation (the two pictures are
    equivalent) with one ordered Schur factorization, of the Hamiltonian or of the
    compressed symplectic pencil, under the closed-loop Lyapunov gate (see
    :func:`_solve_are_real`), folds the solution back into a Hermite pair ``{P1, P2}``
    and the gain into ``{K1*, K2*}``, and verifies positive definiteness, closed-loop
    stability and the closed-loop form of the pair residual.  The stabilizability rank
    test runs only to name a failure (see :func:`_named_failure`); ``rtol`` matters only then.

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
        When the Schur solve fails or misses the Lyapunov gate, or the
        result fails the definiteness or stability check.
    NotStabilizableError
        In place of a ``RiccatiError`` when the plant fails the rank test.
    """
    weights = WeightPair.identity(sys.n, sys.m) if weights is None else weights
    with _named_failure(lambda: is_stabilizable(sys, rtol),
                        NotStabilizableError("system is not stabilizable; no regulator exists")):
        return _lqr_solution(sys, weights)


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
    bounded; the kernel's blocked scan matches a per-step sum to roundoff,
    not bit for bit.  Each block's stage costs
    ``x_r' Q_r x_r + u_r' R_r u_r`` with ``u_r = K_r x_r`` are one
    ``einsum``.  The sum never touches a Riccati solution; only continuous
    time loads SciPy.

    An unstable closed loop yields a truncated, diverging partial sum and a
    ``RuntimeWarning``; a state that overflows raises ``ValueError``.  A
    zero horizon costs exactly 0.0.  Without ``dt``, continuous time takes
    1/50 of the fastest closed-loop time scale, or else 10,000 steps over
    the horizon.  A ``ValueError`` refuses, before any step, a horizon that
    is negative or not finite, a ``dt`` that is not positive and finite,
    and a grid of more than ``MAX_GRID_STEPS`` steps.
    """
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
    ad = cl.a.real_representation()
    if continuous and steps:
        import scipy.linalg
        dt = float(horizon) / steps  # the grid ends at the horizon
        ad = scipy.linalg.expm(dt * ad)  # the exact one-step transition
    if not stable:
        warnings.warn(
            "closed loop is not asymptotically stable; cost is a diverging partial sum",
            RuntimeWarning,
            stacklevel=2,
        )
    x = arrow(x0)
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
    Riccati equation of the real representation, which :func:`_solve_are_real`
    solves by one QZ of the compressed symplectic pencil.  The folded solution
    must then meet the decoupled equation with a scaled residual
    ``|res| / (|Q1| + (|A2|^2 + 1)|P1|)`` at most ``LYAP_RESIDUAL_RTOL``
    (reported as ``residual``), have a vanishing second part and reproduce
    the folded general gain as ``K1``, the last two within 1e-8 relative.
    A ``RiccatiError`` means that ``_solve_are_real`` failed, or that one of
    these checks or the closed-loop stability check failed; only then does
    the rank test :func:`antilinear_stabilizable_discrete` run.
    """
    a2 = np.asarray(a2, dtype=complex)
    b2 = np.asarray(b2, dtype=complex)
    weights = WeightPair(HermiteBimatrix(q1), HermiteBimatrix(r1))
    q1, r1 = weights.q.first, weights.r.first
    n, m = a2.shape[0], b2.shape[-1]
    if a2.shape != (n, n) or b2.shape != (n, m) or q1.shape != (n, n) or r1.shape != (m, m):
        raise DimensionError("coefficient or weight shapes are inconsistent")
    with _named_failure(lambda: antilinear_stabilizable_discrete(a2, b2),
                        NotStabilizableError("antilinear system is not stabilizable")):
        p_real, k_real, iters = _solve_are_real(
            Bimatrix.antilinear(a2).real_representation(),
            Bimatrix.antilinear(b2).real_representation(),
            weights.q.real_representation(), weights.r.real_representation(), continuous=False)
        p_pair = hermite_from_real_representation(p_real)
        gain = Bimatrix.from_real_representation(k_real)
        p, pc = p_pair.first, np.conj(p_pair.first)
        k1 = -np.linalg.solve(r1 + b2.conj().T @ pc @ b2, b2.conj().T @ pc @ a2)
        closed = a2 + b2 @ k1
        res = q1 + a2.conj().T @ pc @ closed - p
        norm_a, norm_p, norm_q = (np.linalg.norm(x) for x in (a2, p, q1))
        residual = float(np.linalg.norm(res) / (norm_q + (norm_a * norm_a + 1.0) * norm_p))
        coupling = float(np.linalg.norm(p_pair.second) / max(1.0, norm_p, norm_q))
        gain_scale = max(1.0, np.linalg.norm(gain.first) + np.linalg.norm(gain.second))
        drift = (np.linalg.norm(k1 - gain.first) + np.linalg.norm(gain.second)) / gain_scale
        if residual > LYAP_RESIDUAL_RTOL or max(coupling, drift) > 1e-8:
            raise RiccatiError(
                f"solution violates the decoupled equation (residual {residual:.1e}, "
                f"conjugate part {coupling:.1e}, gain drift {drift:.1e})"
            )
        closed_eigs = np.linalg.eigvals(np.conj(closed) @ closed)
        if np.any(_bad_region_mask(closed_eigs, TimeDomain.DISCRETE)):
            raise RiccatiError("regulated antilinear loop failed the stability check")
        return LqrSolution(p=HermiteBimatrix(p), gain=Bimatrix.normal(k1), residual=residual,
                           iterations=iters)


def antilinear_lqr_continuous(a2, b2, q, r1):
    """Continuous-time regulator for a purely conjugate-driven system.

    This is the general regulator on ``make_antilinear(a2, b2)`` (``A1 = B1 =
    0``) with state weight ``q`` and input weight ``{r1, 0}``, and its
    :class:`LqrSolution` comes back unchanged: the gain is the general
    extraction from the real representation, and ``residual`` is the pair
    residual that :func:`lqr` reports.  The solution solves the paper's
    decoupled form of the Riccati system, whose gains are::

        K1* = -R1^{-1} B2^H P2,    K2* = -conj(R1)^{-1} B2^T P1

    Controllability is the exact stabilizability condition in continuous
    time; its rank test :func:`antilinear_controllable` runs only to name a
    ``RiccatiError``.
    """
    a2 = np.asarray(a2, dtype=complex)
    b2 = np.asarray(b2, dtype=complex)
    if not isinstance(q, HermiteBimatrix):
        raise TypeError("q must be a HermiteBimatrix weight pair")
    weights = WeightPair(q, HermiteBimatrix(r1))
    with _named_failure(lambda: antilinear_controllable(a2, b2), NotControllableError(
            "continuous antilinear system is not controllable (hence not stabilizable)")):
        return _lqr_solution(make_antilinear(a2, b2, domain=TimeDomain.CONTINUOUS), weights)


# ---------------------------------------------------------------------------
# Observer design
# ---------------------------------------------------------------------------


def design_observer(sys, gamma, rng=None, rtol=PBH_RTOL):
    """Injection gain pair ``{L1, L2}`` placing the error spectrum at ``gamma``.

    The error dynamics are ``e+ = ({A} + {L}{C}) e``; the gain is obtained by
    placing ``gamma`` on the transposed real representation and transposing
    back.  ``gamma`` needs ``2n`` conjugate-closed values strictly inside the
    stable region.  ``rng`` gives one ``standard_normal((2, 2n, 2n))`` draw
    to :func:`_place`, which checks ``{A} + {L}{C}`` in pair form.  The
    observability rank test (``rtol``) runs only to name a failure
    (:class:`NotObservableError`), so an unobservable plant whose fixed modes
    all lie in ``gamma`` gets a gain verified like any other.
    """
    gamma = _as_spectrum(gamma, sys.n, "observer")
    if np.any(_bad_region_mask(gamma.values, sys.domain)):
        raise SpectrumError(
            "observer spectrum must lie strictly inside the stable region"
        )
    with _named_failure(lambda: is_observable(sys, rtol), NotObservableError(
            "system is not observable; cannot place the error spectrum exactly")):
        fold = Bimatrix.from_real_representation
        k = _place(sys.a.real_representation().T, sys.c.real_representation().T, gamma.values,
                   rng, lambda k: (sys.a + fold(k.T) @ sys.c).eigenvalues().values)
    return fold(k.T)


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
