"""State response, structural tests, stability, and Lyapunov-type solvers.

All criteria are evaluated on the lifted or real pictures of the system,
which are ordinary linear systems; results are mapped back to coefficient
pairs.  Rank tests follow the eigenvector (PBH) form: a pencil loses rank
only at spectrum points, so only those finitely many points are checked.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    Bimatrix,
    SpectrumSet,
    arrow,
    as_cvector,
    hermite_from_real_representation,
    unarrow,
)
from .exceptions import (
    DimensionError,
    NoPositiveDefiniteSolutionError,
    NoUniqueSolutionError,
)
from .systems import TimeDomain

__all__ = [
    "TransitionPair",
    "SimTrace",
    "RankTest",
    "StructureReport",
    "transition_pair",
    "state_response",
    "is_controllable",
    "is_observable",
    "is_stabilizable",
    "is_detectable",
    "is_asymptotically_stable",
    "structure_report",
    "antilinear_controllable",
    "antilinear_observable",
    "antilinear_stabilizable_discrete",
    "solve_lyapunov",
    "antilinear_lyapunov_reduced",
]

# Smallest-singular-value threshold for rank tests, relative to the pencil norm.
PBH_RTOL = 1e-8
# Margin separating "stable" from the closed bad region of the domain.
STABILITY_TOL = 1e-9


@dataclass(frozen=True)
class TransitionPair:
    """State-transition pair ``(Phi1(t), Phi2(t))`` of an autonomous system."""

    phi1: np.ndarray
    phi2: np.ndarray
    t: float

    def as_bimatrix(self):
        return Bimatrix(self.phi1, self.phi2)


def transition_pair(sys, t):
    """Transition pair at time ``t``: matrix exponential or integer power.

    Continuous systems accept any real ``t``; discrete systems require an
    integer ``t`` and, for ``t < 0``, a nonsingular state pair.
    """
    a = sys.a
    if sys.domain.is_continuous:
        bm = a.expm(float(t))
    else:
        k = int(round(float(t)))
        if abs(float(t) - k) > 1e-9:
            raise ValueError(f"discrete-time transition requires integer t, got {t}")
        bm = a.power(k) if k >= 0 else a.inverse().power(-k)
    return TransitionPair(bm.first, bm.second, float(t))


@dataclass(frozen=True)
class SimTrace:
    """Sampled trajectory: time grid with state, input and output sequences."""

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).reshape(-1)
        if times.size == 0:
            raise ValueError("trace requires a nonempty time grid")
        if np.any(np.diff(times) <= 0):
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "times", times)
        for name in ("states", "inputs", "outputs"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.ndim != 2 or arr.shape[0] != times.size:
                raise DimensionError(
                    f"{name} must have one row per grid point ({times.size})"
                )
            object.__setattr__(self, name, arr)

    def __len__(self):
        return self.times.size

    def write_csv(self, f):
        """Write the spreadsheet layout ``t, x*_re, x*_im, u*, y*`` to a file object."""
        cols = ["t"]
        for kind, arr in (("x", self.states), ("u", self.inputs), ("y", self.outputs)):
            for i in range(arr.shape[1]):
                cols += [f"{kind}{i + 1}_re", f"{kind}{i + 1}_im"]
        f.write(",".join(cols) + "\n")
        for k, t in enumerate(self.times):
            row = [repr(float(t))]
            for arr in (self.states, self.inputs, self.outputs):
                for v in arr[k]:
                    row += [repr(float(v.real)), repr(float(v.imag))]
            f.write(",".join(row) + "\n")


def _input_samples(u, times, m):
    if u is None:
        return np.zeros((times.size, m), dtype=complex)
    if callable(u):
        samples = np.array([as_cvector(u(float(t)), "input") for t in times])
    else:
        samples = np.asarray(u, dtype=complex)
        if samples.ndim == 1 and m == 1:
            samples = samples.reshape(-1, 1)
    if samples.shape != (times.size, m):
        raise DimensionError(
            f"input samples must have shape {(times.size, m)}, got {samples.shape}"
        )
    return samples


def state_response(sys, x0, times, u=None):
    """Simulate the system on a time grid starting at zero.

    Discrete systems use the exact recursion.  Continuous systems apply the
    per-step matrix exponential of the real representation with the input held
    constant over each interval (exact for piecewise-constant inputs); the
    forced term comes from the augmented-exponential construction.

    Parameters
    ----------
    x0 : array_like
        Initial complex state (length n).
    times : array_like
        Strictly increasing grid starting at 0.  Discrete systems require
        consecutive integers.
    u : None, callable, or array (len(times), m)
        Input samples; ``None`` means zero input, a callable is evaluated at
        each grid point.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0:
        raise ValueError("time grid is empty")
    if times[0] != 0.0:
        raise ValueError("time grid must start at 0")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")
    x0 = as_cvector(x0, "x0")
    if x0.shape[0] != sys.n:
        raise DimensionError(f"x0 has length {x0.shape[0]}, expected {sys.n}")

    usamp = _input_samples(u, times, sys.m)
    states = np.empty((times.size, sys.n), dtype=complex)
    states[0] = x0

    if sys.domain.is_continuous:
        rep = sys.real_representation()
        n2, m2 = rep.a.shape[0], rep.b.shape[1]
        aug = np.zeros((n2 + m2, n2 + m2))
        aug[:n2, :n2] = rep.a
        aug[:n2, n2:] = rep.b
        step_cache = {}
        xv = arrow(x0)
        for k in range(times.size - 1):
            h = float(times[k + 1] - times[k])
            key = f"{h:.12e}"
            if key not in step_cache:
                ex = scipy.linalg.expm(aug * h)
                step_cache[key] = (ex[:n2, :n2], ex[:n2, n2:])
            ad, bd = step_cache[key]
            xv = ad @ xv + bd @ arrow(usamp[k])
            states[k + 1] = unarrow(xv)
    else:
        if not np.array_equal(times, np.arange(times.size, dtype=float)):
            raise ValueError("discrete-time grid must be the consecutive integers 0..T")
        for k in range(times.size - 1):
            states[k + 1] = sys.a.apply(states[k]) + sys.b.apply(usamp[k])

    outputs = np.empty((times.size, sys.p), dtype=complex)
    for k in range(times.size):
        outputs[k] = sys.c.apply(states[k]) + sys.d.apply(usamp[k])
    return SimTrace(times, states, usamp, outputs)


# ---------------------------------------------------------------------------
# Structural rank tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankTest:
    """Outcome of a pointwise rank test.

    ``margin`` is the smallest singular value seen over the tested spectrum
    points (infinite when no point needed testing); the test passes when the
    margin exceeds ``threshold``.
    """

    passed: bool
    margin: float
    threshold: float

    def __bool__(self):
        return self.passed


def _rank_test(build, points, scale, rtol):
    threshold = rtol * scale
    if len(points) == 0:
        return RankTest(True, math.inf, threshold)
    margin = math.inf
    for s in points:
        sv = np.linalg.svd(build(s), compute_uv=False)
        margin = min(margin, float(sv[-1]))
    return RankTest(margin > threshold, margin, threshold)


def _bad_region_mask(values, domain, tol=STABILITY_TOL):
    values = np.asarray(values)
    if domain.is_continuous:
        return values.real >= -tol
    return np.abs(values) >= 1.0 - tol


def is_controllable(sys, rtol=PBH_RTOL):
    """Rank test of ``[sI - A, B]`` on the lifted system at every eigenvalue."""
    al, bl, _, _ = sys.complex_lifting()
    pts = sys.spectrum().values
    scale = max(1.0, float(np.linalg.norm(np.hstack([al, bl]), 2)))
    n2 = al.shape[0]
    return _rank_test(
        lambda s: np.hstack([s * np.eye(n2) - al, bl]), pts, scale, rtol
    )


def is_observable(sys, rtol=PBH_RTOL):
    """Rank test of ``[sI - A; C]`` on the lifted system at every eigenvalue."""
    al, _, cl, _ = sys.complex_lifting()
    pts = sys.spectrum().values
    scale = max(1.0, float(np.linalg.norm(np.vstack([al, cl]), 2)))
    n2 = al.shape[0]
    return _rank_test(
        lambda s: np.vstack([s * np.eye(n2) - al, cl]), pts, scale, rtol
    )


def is_stabilizable(sys, rtol=PBH_RTOL):
    """Controllability rank test restricted to eigenvalues in the bad region."""
    al, bl, _, _ = sys.complex_lifting()
    pts = sys.spectrum().values
    pts = pts[_bad_region_mask(pts, sys.domain)]
    scale = max(1.0, float(np.linalg.norm(np.hstack([al, bl]), 2)))
    n2 = al.shape[0]
    return _rank_test(
        lambda s: np.hstack([s * np.eye(n2) - al, bl]), pts, scale, rtol
    )


def is_detectable(sys, rtol=PBH_RTOL):
    """Observability rank test restricted to eigenvalues in the bad region."""
    al, _, cl, _ = sys.complex_lifting()
    pts = sys.spectrum().values
    pts = pts[_bad_region_mask(pts, sys.domain)]
    scale = max(1.0, float(np.linalg.norm(np.vstack([al, cl]), 2)))
    n2 = al.shape[0]
    return _rank_test(
        lambda s: np.vstack([s * np.eye(n2) - al, cl]), pts, scale, rtol
    )


def is_asymptotically_stable(sys, tol=STABILITY_TOL):
    """All eigenvalues strictly inside the stable region of the domain."""
    vals = sys.spectrum().values
    if sys.domain.is_continuous:
        return bool(np.max(vals.real) < -tol)
    return bool(np.max(np.abs(vals)) < 1.0 - tol)


@dataclass(frozen=True)
class StructureReport:
    """Bundle of structural test outcomes for one system."""

    controllable: RankTest
    observable: RankTest
    stabilizable: RankTest
    detectable: RankTest
    stable: bool
    spectrum: SpectrumSet

    def margins(self):
        return {
            "controllable": self.controllable.margin,
            "observable": self.observable.margin,
            "stabilizable": self.stabilizable.margin,
            "detectable": self.detectable.margin,
        }


def structure_report(sys, rtol=PBH_RTOL):
    return StructureReport(
        controllable=is_controllable(sys, rtol),
        observable=is_observable(sys, rtol),
        stabilizable=is_stabilizable(sys, rtol),
        detectable=is_detectable(sys, rtol),
        stable=is_asymptotically_stable(sys),
        spectrum=sys.spectrum(),
    )


# Reduced tests for purely conjugate-driven systems.  These work on n-dim
# normal pairs built from the coefficients instead of the 2n-dim lifting.


def antilinear_controllable(a2, b2, rtol=PBH_RTOL):
    """Reduced test: rank ``[sI - conj(A2) A2, conj(B2), conj(A2) B2]``."""
    a2 = np.asarray(a2, dtype=complex)
    b2 = np.asarray(b2, dtype=complex)
    m0 = np.conj(a2) @ a2
    wide = np.hstack([np.conj(b2), np.conj(a2) @ b2])
    pts = np.linalg.eigvals(m0)
    scale = max(1.0, float(np.linalg.norm(np.hstack([m0, wide]), 2)))
    n = m0.shape[0]
    return _rank_test(
        lambda s: np.hstack([s * np.eye(n) - m0, wide]), pts, scale, rtol
    )


def antilinear_observable(a2, c2, rtol=PBH_RTOL):
    """Reduced test: rank ``[sI - conj(A2) A2; C2; conj(C2) A2]``."""
    a2 = np.asarray(a2, dtype=complex)
    c2 = np.asarray(c2, dtype=complex)
    m0 = np.conj(a2) @ a2
    tall = np.vstack([c2, np.conj(c2) @ a2])
    pts = np.linalg.eigvals(m0)
    scale = max(1.0, float(np.linalg.norm(np.vstack([m0, tall]), 2)))
    n = m0.shape[0]
    return _rank_test(
        lambda s: np.vstack([s * np.eye(n) - m0, tall]), pts, scale, rtol
    )


def antilinear_stabilizable_discrete(a2, b2, rtol=PBH_RTOL):
    """Reduced test: rank ``[lam I - A2 conj(A2), B2, A2 conj(B2)]`` for ``|lam| >= 1``."""
    a2 = np.asarray(a2, dtype=complex)
    b2 = np.asarray(b2, dtype=complex)
    m0 = a2 @ np.conj(a2)
    wide = np.hstack([b2, a2 @ np.conj(b2)])
    pts = np.linalg.eigvals(m0)
    pts = pts[_bad_region_mask(pts, TimeDomain.DISCRETE)]
    scale = max(1.0, float(np.linalg.norm(np.hstack([m0, wide]), 2)))
    n = m0.shape[0]
    return _rank_test(
        lambda s: np.hstack([s * np.eye(n) - m0, wide]), pts, scale, rtol
    )


# ---------------------------------------------------------------------------
# Lyapunov-type equations (SciPy's Schur-based solvers)
# ---------------------------------------------------------------------------


def _solve_lyapunov_refined(a, w, continuous):
    """Solve ``a^H P + P a = -w`` or ``a^H P a - P = -w`` with SciPy.

    The continuous equation goes to Bartels-Stewart; SciPy solves the
    discrete one directly below order 10 and by the bilinear map to the
    continuous one above.  One refinement step follows: the equation is
    solved again for the residual and the correction added.  Returns the
    Hermitian part of the solution and the norm of its residual.
    """
    # SciPy solves ``m X + X m^H = q`` and ``m X m^H - X = -q``; with
    # ``m = a^H`` each ``solve(rhs)`` below returns the X with ``op(X) = rhs``
    ah = a.conj().T
    if continuous:
        def op(x):
            return ah @ x + x @ a

        def solve(rhs):
            return scipy.linalg.solve_continuous_lyapunov(ah, rhs)
    else:
        def op(x):
            return ah @ x @ a - x

        def solve(rhs):
            return scipy.linalg.solve_discrete_lyapunov(ah, -rhs)
    p = solve(-w)
    p = p - solve(op(p) + w)
    p = (p + p.conj().T) / 2.0
    return p, np.linalg.norm(op(p) + w)


def solve_lyapunov_real(a, w, continuous, pair_rtol=1e-10):
    """Solve ``a^T P + P a = -w`` or ``a^T P a - P = -w`` for symmetric ``P``.

    ``scipy.linalg.solve_continuous_lyapunov`` / ``solve_discrete_lyapunov``,
    followed by one refinement step (see :func:`_solve_lyapunov_refined`).  An
    eigenvalue pair that makes the operator singular is rejected up front,
    and a solution whose residual exceeds ``1e-6 * max(1, |w|)`` is refused.
    """
    n = a.shape[0]
    lam = np.linalg.eigvals(a)
    scale = max(1.0, float(np.max(np.abs(lam))) if n else 1.0)
    if continuous:
        gaps = np.abs(lam[:, None] + lam[None, :])
        if np.min(gaps) <= pair_rtol * scale:
            raise NoUniqueSolutionError(
                "eigenvalue pair with lam_i + lam_j = 0; no unique solution"
            )
    else:
        gaps = np.abs(lam[:, None] * lam[None, :] - 1.0)
        if np.min(gaps) <= pair_rtol * max(1.0, scale**2):
            raise NoUniqueSolutionError(
                "eigenvalue pair with lam_i * lam_j = 1; no unique solution"
            )
    p, res = _solve_lyapunov_refined(a, w, continuous)
    if res > 1e-6 * max(1.0, np.linalg.norm(w)):
        raise NoUniqueSolutionError(
            "Lyapunov solve is too ill-conditioned to trust"
        )
    return p


def solve_lyapunov(sys, c_bm=None):
    """Solve the pair-valued stability equation for the system.

    Continuous: ``{A}^H {P} + {P} {A} = -{C}^H {C}``; discrete replaces the
    left side with ``{A}^H {P} {A} - {P}``.  Solved on the real
    representation by :func:`solve_lyapunov_real` (a SciPy solve plus one
    refinement step) and mapped back; the result is a Hermite pair.

    Raises
    ------
    NoUniqueSolutionError
        When the underlying linear operator is singular (an eigenvalue pair
        sums to zero / multiplies to one), or so ill-conditioned that the
        solution misses its residual gate.
    """
    c_bm = sys.c if c_bm is None else c_bm
    if c_bm.cols != sys.n:
        raise DimensionError(
            f"weight bimatrix has {c_bm.cols} columns, expected {sys.n}"
        )
    a = sys.a.real_representation()
    c = c_bm.real_representation()
    p = solve_lyapunov_real(a, c.T @ c, sys.domain.is_continuous)
    return hermite_from_real_representation(p)


def antilinear_lyapunov_reduced(a2, c_n, require_pd=True):
    """Solve ``M^H P M - P = -C_N^H C_N`` with ``M = conj(A2) A2``.

    This is the reduced, decoupled form of the discrete stability equation
    for a purely conjugate-driven system.  Returns a Hermitian matrix.

    Parameters
    ----------
    require_pd : bool
        When true (default), raise :class:`NoPositiveDefiniteSolutionError`
        if the solved matrix is not positive definite, which by the stability
        theory means the system is not asymptotically stable.
    """
    a2 = np.asarray(a2, dtype=complex)
    c_n = np.asarray(c_n, dtype=complex)
    m0 = np.conj(a2) @ a2
    w = c_n.conj().T @ c_n
    mu = np.linalg.eigvals(m0)
    gaps = np.abs(np.conj(mu)[:, None] * mu[None, :] - 1.0)
    if np.min(gaps) <= 1e-10 * max(1.0, float(np.max(np.abs(mu))) ** 2):
        raise NoUniqueSolutionError(
            "eigenvalue pair with conj(mu_i) mu_j = 1; no unique solution"
        )
    p, _ = _solve_lyapunov_refined(m0, w, continuous=False)
    if require_pd:
        w_eigs = np.linalg.eigvalsh(p)
        if w_eigs[0] <= 1e-10 * max(abs(float(w_eigs[0])), abs(float(w_eigs[-1]))):
            raise NoPositiveDefiniteSolutionError(
                "no positive definite solution: the system is not asymptotically stable"
            )
    return p
