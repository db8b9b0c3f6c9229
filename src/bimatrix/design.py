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
import scipy.linalg

from .core import (
    Bimatrix,
    HermiteBimatrix,
    SpectrumSet,
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
    STABILITY_TOL,
    _bad_region_mask,
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


def _rng(rng):
    if rng is None:
        return np.random.default_rng(DEFAULT_SEED)
    return rng


# ---------------------------------------------------------------------------
# Eigenvalue placement (parametric Sylvester method)
# ---------------------------------------------------------------------------


def _real_spectrum_matrix(values, rtol=1e-8):
    """Real block-diagonal matrix with the given conjugate-closed spectrum."""
    blocks = []
    pool = list(np.asarray(values, dtype=complex))
    pool.sort(key=lambda v: (v.real, abs(v.imag), v.imag))
    while pool:
        v = pool.pop(0)
        if abs(v.imag) <= rtol * (1.0 + abs(v)):
            blocks.append(np.array([[v.real]]))
            continue
        target = np.conj(v)
        best = min(range(len(pool)), key=lambda j: abs(pool[j] - target))
        if abs(pool[best] - target) > rtol * (1.0 + abs(v)):
            raise SpectrumError("spectrum is not closed under conjugation")
        pool.pop(best)
        a, b = v.real, abs(v.imag)
        blocks.append(np.array([[a, b], [-b, a]]))
    return scipy.linalg.block_diag(*blocks)


def _spectrum_mismatch(got, want):
    """Largest matching distance between two equal-size multisets."""
    got = list(np.asarray(got, dtype=complex))
    worst = 0.0
    for w in np.asarray(want, dtype=complex):
        j = min(range(len(got)), key=lambda i: abs(got[i] - w))
        worst = max(worst, abs(got.pop(j) - w) / (1.0 + abs(w)))
    return worst


def _place_once(a, b, lam_mat, targets, rng, retries, rcond_min=1e-10):
    n = a.shape[0]
    m = b.shape[1]
    complex_data = np.iscomplexobj(a) or np.iscomplexobj(b)
    for _ in range(retries):
        g = rng.standard_normal((m, n))
        if complex_data:
            g = g + 1j * rng.standard_normal((m, n))
        try:
            x = scipy.linalg.solve_sylvester(a, -lam_mat, -b @ g)
        except (np.linalg.LinAlgError, ValueError):
            continue
        sv = np.linalg.svd(x, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= rcond_min * sv[0]:
            continue
        k = np.linalg.solve(x.T, g.T).T
        if _spectrum_mismatch(np.linalg.eigvals(a + b @ k), targets) <= PLACEMENT_RTOL:
            return k
    raise PlacementError(
        f"eigenvalue placement failed after {retries} parameter draws"
    )


def _place(a, b, targets, rng, retries=20, _depth=0):
    """Gain K with ``spectrum(a + b K) = targets`` via a random-parameter
    Sylvester solve ``a X - X L = -b G``, ``K = G X^{-1}``.

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
        k1 = _place(a, b, mids.astype(complex), rng, retries, _depth + 1)
        k2 = _place(a + b @ k1, b, targets, rng, retries, _depth + 1)
        return k1 + k2
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        lam_mat = np.diag(targets)
    else:
        lam_mat = _real_spectrum_matrix(targets)
    return _place_once(a, b, lam_mat, targets, rng, retries)


def _as_spectrum(gamma):
    if isinstance(gamma, SpectrumSet):
        return gamma
    return SpectrumSet(np.asarray(gamma, dtype=complex))


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
    gamma = _as_spectrum(gamma)
    if len(gamma) != 2 * sys.n:
        raise SpectrumError(
            f"need {2 * sys.n} target eigenvalues for an order-{sys.n} system, "
            f"got {len(gamma)}"
        )
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
    pts = np.linalg.eigvals(a1)
    scale = max(1.0, float(np.linalg.norm(np.hstack([a1, b1]), 2)))
    n = sys.n
    for s in pts:
        sv = np.linalg.svd(np.hstack([s * np.eye(n) - a1, b1]), compute_uv=False)
        if sv[-1] <= rtol * scale:
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
    out = []
    for v in values:
        if domain.is_continuous:
            if v.real >= -STABILITY_TOL:
                v = -max(abs(v.real), margin) + 1j * v.imag
        else:
            r = abs(v)
            if r >= 1.0 - STABILITY_TOL:
                out_r = min(0.8, 1.0 / r)
                v = v * (out_r / r)
        out.append(v)
    return np.asarray(out, dtype=complex)


def stabilize(sys, rng=None, rtol=PBH_RTOL):
    """Gain pair whose closed loop is asymptotically stable.

    Uses the quadratic regulator with identity weights; if the Riccati solve
    fails, falls back to placing the mirrored open-loop spectrum.
    """
    if not is_stabilizable(sys, rtol):
        raise NotStabilizableError("system is not stabilizable")
    rng = _rng(rng)
    try:
        gain = lqr(sys, rng=rng, rtol=rtol).gain
    except (RiccatiError, PlacementError):
        gamma = _mirror_spectrum(sys.spectrum().values, sys.domain)
        rep = sys.real_representation()
        gain = Bimatrix.from_real_representation(_place(rep.a, rep.b, gamma, rng))
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


def lqr(sys, weights=None, rng=None, rtol=PBH_RTOL):
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
    rng : numpy.random.Generator, optional
        Unused: the Riccati solve is deterministic.  Kept so callers such as
        :func:`stabilize` can pass one generator through every design step.

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
    if weights.q.shape != (sys.n, sys.n):
        raise DimensionError(f"state weight must be {(sys.n, sys.n)}")
    if weights.r.shape != (sys.m, sys.m):
        raise DimensionError(f"input weight must be {(sys.m, sys.m)}")
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


def lqr_cost(sys, weights, gain, x0, horizon, dt=None):
    """Accumulated quadratic cost of the closed loop from ``x0``.

    Discrete time sums the stage costs; continuous time integrates them with
    the composite trapezoid rule on a fine uniform grid (states advance by
    the exact one-step transition, so only quadrature error remains).  An
    unstable closed loop yields a truncated, diverging partial sum and a
    ``RuntimeWarning``.
    """
    cl = closed_loop(sys, gain)
    stable = is_asymptotically_stable(cl)
    if not stable:
        warnings.warn(
            "closed loop is not asymptotically stable; cost is a diverging partial sum",
            RuntimeWarning,
            stacklevel=2,
        )
    q, r = weights.q, weights.r
    x = np.asarray(x0, dtype=complex).reshape(-1)

    if not sys.domain.is_continuous:
        steps = int(math.ceil(horizon))
        total = 0.0
        for _ in range(steps):
            u = gain.apply(x)
            total += quadratic_form_real(q, x) + quadratic_form_real(r, u)
            x = cl.a.apply(x)
        return float(total)

    if dt is None:
        # resolve both the fastest decay and the fastest oscillation
        vals = cl.spectrum().values
        fastest = float(np.max(np.abs(vals))) if stable else 0.0
        dt = 1.0 / (50.0 * fastest) if fastest > 0 else float(horizon) / 10_000.0
    steps = max(1, int(math.ceil(float(horizon) / dt)))
    if steps > MAX_GRID_STEPS:
        raise ValueError("cost grid would exceed 2e6 steps; pass a coarser dt")
    step = cl.a.expm(dt)

    def stage(xk):
        uk = gain.apply(xk)
        return quadratic_form_real(q, xk) + quadratic_form_real(r, uk)

    total = 0.0
    g_prev = stage(x)
    for _ in range(steps):
        x = step.apply(x)
        g_next = stage(x)
        total += 0.5 * dt * (g_prev + g_next)
        g_prev = g_next
    return float(total)


# ---------------------------------------------------------------------------
# Decoupled regulators for purely conjugate-driven systems
# ---------------------------------------------------------------------------


def _check_pd_matrix(mat, name):
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"{name} must be square")
    if np.linalg.norm(mat - mat.conj().T) > 1e-10 * max(1.0, np.linalg.norm(mat)):
        raise ValueError(f"{name} must be Hermitian")
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    if w[0] <= 1e-12 * max(1.0, float(w[-1])):
        raise ValueError(f"{name} must be positive definite")
    return mat


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
    q1 = _check_pd_matrix(q1, "q1")
    r1 = _check_pd_matrix(r1, "r1")
    n, m = a2.shape[0], b2.shape[-1]
    if a2.shape != (n, n) or b2.shape != (n, m) or q1.shape != (n, n) or r1.shape != (m, m):
        raise DimensionError("coefficient or weight shapes are inconsistent")
    if not antilinear_stabilizable_discrete(a2, b2):
        raise NotStabilizableError("antilinear system is not stabilizable")

    p_real, k_real, iters = _solve_are_real(
        Bimatrix.antilinear(a2).real_representation(),
        Bimatrix.antilinear(b2).real_representation(),
        HermiteBimatrix(q1).real_representation(),
        HermiteBimatrix(r1).real_representation(),
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
    if float(np.max(np.abs(np.linalg.eigvals(np.conj(closed) @ closed)))) >= 1.0 - STABILITY_TOL:
        raise RiccatiError("regulated antilinear loop failed the stability check")
    return LqrSolution(
        p=HermiteBimatrix(p),
        gain=Bimatrix.normal(k1),
        residual=residual,
        iterations=iters,
    )


def antilinear_lqr_continuous(a2, b2, q, r1, rng=None):
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
    r1 = _check_pd_matrix(r1, "r1")
    if not isinstance(q, HermiteBimatrix):
        raise TypeError("q must be a HermiteBimatrix weight pair")
    if not antilinear_controllable(a2, b2):
        raise NotControllableError(
            "continuous antilinear system is not controllable (hence not stabilizable)"
        )
    sys = make_antilinear(a2, b2, domain=TimeDomain.CONTINUOUS)
    weights = WeightPair(q, HermiteBimatrix(r1))
    sol = lqr(sys, weights, rng=rng)
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
    gamma = _as_spectrum(gamma)
    if len(gamma) != 2 * sys.n:
        raise SpectrumError(
            f"need {2 * sys.n} target eigenvalues for an order-{sys.n} observer, "
            f"got {len(gamma)}"
        )
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
