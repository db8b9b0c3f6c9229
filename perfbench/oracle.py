"""Seeded inputs and independent reference answers on the real representation.

Nothing here runs the library's numerics.  Plants are drawn with NumPy,
controllability and observability are decided by a PBH rank test on the
real ``2n x 2n`` picture, and every reference answer (Riccati solutions,
spectra, exponentials, trajectories) comes from NumPy or SciPy on real
matrices.  Library types are only constructed, to hand the inputs over.
"""

import numpy as np
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from bimatrix import Bimatrix, CxSystem

# Smallest PBH singular value, relative to the pencil norm, for a plant to be
# accepted as controllable / observable.
PBH_RTOL = 1e-8
# Spectrum agreement demanded of placement and observer gains, scaled by
# 1 + |target| (the library's own acceptance gate uses the same figure).
SPECTRUM_RTOL = 1e-6
# Riccati solutions and gains must agree with SciPy to this relative error.
ARE_RTOL = 1e-6


class CheckFailed(Exception):
    """An output disagreed with the reference answer."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def rel_err(got, want):
    return float(np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)))


# -- representations -----------------------------------------------------------


def real_rep(first, second):
    """Real matrix acting on stacked (Re x, Im x) for x -> F x + conj(S) conj(x)."""
    s = np.asarray(first) + np.asarray(second)
    d = np.asarray(first) - np.asarray(second)
    return np.block([[s.real, -s.imag], [d.imag, d.real]])


def pair_rep(bm):
    return real_rep(bm.first, bm.second)


def fold(mat):
    """The pair whose real representation is ``mat`` (inverse of real_rep)."""
    n, m = mat.shape[0] // 2, mat.shape[1] // 2
    m11, m12, m21, m22 = mat[:n, :m], mat[:n, m:], mat[n:, :m], mat[n:, m:]
    first = 0.5 * (m11 + m22) + 0.5j * (m21 - m12)
    second = 0.5 * (m11 - m22) - 0.5j * (m21 + m12)
    return Bimatrix(first, second)


def stack(x):
    x = np.asarray(x, dtype=complex)
    return np.concatenate([x.real, x.imag], axis=-1)


def unstack(v):
    h = v.shape[-1] // 2
    return v[..., :h] + 1j * v[..., h:]


# -- plants ----------------------------------------------------------------------


class Plant:
    """A generated system with its real picture and reference answers."""

    def __init__(self, sys, domain, scale, kind):
        self.sys = sys
        self.domain = domain
        self.scale = scale
        self.kind = kind
        self.n, self.m = sys.n, sys.m
        self.a = pair_rep(sys.a)
        self.b = pair_rep(sys.b)
        self.c = pair_rep(sys.c)
        self.d = pair_rep(sys.d)
        self.eigs = np.linalg.eigvals(self.a)
        self.continuous = domain == "continuous"

    def riccati(self):
        """SciPy's stabilizing Riccati solution and gain for identity weights.

        None when SciPy finds no finite stabilizing solution, as on raw-scale
        discrete plants of order 16 (there ||P|| passes 1e16).
        """
        if not hasattr(self, "_are"):
            self._are = None
            n2, m2 = self.a.shape[0], self.b.shape[1]
            q, r = np.eye(n2), np.eye(m2)
            try:
                if self.continuous:
                    p = sla.solve_continuous_are(self.a, self.b, q, r)
                    k = -np.linalg.solve(r, self.b.T @ p)
                else:
                    p = sla.solve_discrete_are(self.a, self.b, q, r)
                    k = -np.linalg.solve(r + self.b.T @ p @ self.b, self.b.T @ p @ self.a)
            except (np.linalg.LinAlgError, ValueError):
                return None
            if is_stable(np.linalg.eigvals(self.a + self.b @ k), self.continuous):
                self._are = (p, k)
        return self._are

    def closed_loop(self):
        """The plant under the reference regulator gain, as a library system."""
        _, k = self.riccati()
        return CxSystem(fold(self.a + self.b @ k), self.sys.b, self.sys.c, self.sys.d,
                        self.domain)


def _cm(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def pbh_ok(a, other, eigs, tall):
    """PBH rank test of [sI - a, other] (or stacked, when tall) at each eigenvalue."""
    pencil = np.vstack([a, other]) if tall else np.hstack([a, other])
    threshold = PBH_RTOL * max(1.0, float(np.linalg.norm(pencil, 2)))
    eye = np.eye(a.shape[0])
    for s in eigs:
        block = np.vstack([s * eye - a, other]) if tall else np.hstack([s * eye - a, other])
        if np.linalg.svd(block, compute_uv=False)[-1] <= threshold:
            return False
    return True


def controllable(plant, eigs=None):
    return pbh_ok(plant.a, plant.b, plant.eigs if eigs is None else eigs, tall=False)


def observable(plant, eigs=None):
    return pbh_ok(plant.a, plant.c, plant.eigs if eigs is None else eigs, tall=True)


def bad_eigs(eigs, continuous):
    return eigs[eigs.real >= 0.0] if continuous else eigs[np.abs(eigs) >= 1.0]


def is_stable(eigs, continuous):
    return bool(np.max(eigs.real) < 0.0) if continuous else bool(np.max(np.abs(eigs)) < 1.0)


def draw_plant(rng, n, m, domain, kind="general", scale="raw", need_are=True):
    """A controllable and observable plant with unit-Gaussian complex blocks.

    ``kind`` is ``"general"`` (both parts of every pair), ``"antilinear"``
    (second parts only) or ``"normal"`` (first parts only).  ``scale`` is
    ``"raw"`` or a target spectral radius for the state pair, written as
    ``"rho<value>"``.  With ``need_are`` the plant must also have a
    stabilizing SciPy Riccati solution, the reference its checks need.  Plants
    are redrawn only on these oracle verdicts, never on the library's.
    """
    def pair(rows, cols):
        first = _cm(rng, rows, cols) if kind != "antilinear" else np.zeros((rows, cols))
        second = _cm(rng, rows, cols) if kind != "normal" else np.zeros((rows, cols))
        return first, second

    for _ in range(100):
        a1, a2 = pair(n, n)
        if scale != "raw":
            rho = float(scale[3:])
            now = np.max(np.abs(np.linalg.eigvals(real_rep(a1, a2))))
            a1, a2 = a1 * (rho / now), a2 * (rho / now)
        sys = CxSystem(Bimatrix(a1, a2), Bimatrix(*pair(n, m)), Bimatrix(*pair(m, n)),
                       Bimatrix.zeros(m, m), domain)
        plant = Plant(sys, domain, scale, kind)
        if (controllable(plant) and observable(plant)
                and (not need_are or plant.riccati() is not None)):
            return plant
    raise RuntimeError(f"no controllable and observable {kind} plant drawn for n={n}")


def stable_targets(rng, n, continuous):
    """2n conjugate-closed values (n pairs) strictly inside the stable region."""
    if continuous:
        v = -rng.uniform(1.0, 3.0, n) + 1j * rng.uniform(0.2, 2.0, n)
    else:
        v = rng.uniform(0.2, 0.7, n) * np.exp(1j * rng.uniform(0.2, 2.5, n))
    return np.concatenate([v, np.conj(v)])


# -- checks ----------------------------------------------------------------------


def spectrum_gap(got, want):
    """Largest distance, scaled by 1 + |want|, under the best one-to-one matching."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return np.inf
    cost = np.abs(got[:, None] - want[None, :]) / (1.0 + np.abs(want[None, :]))
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def check_spectrum(base, left, right, want, what):
    """Eigenvalues of ``base + left @ right`` against ``want``, up to conditioning.

    Each matched eigenvalue may miss by SPECTRUM_RTOL (scaled by 1 + |target|)
    plus its condition number times the roundoff of forming the matrix from a
    gain stored as a pair: no algorithm can place an eigenvalue closer than
    that in float64.
    """
    mat = base + left @ right
    got, vl, vr = sla.eig(mat, left=True, right=True)
    kappa = 1.0 / np.maximum(np.abs(np.sum(vl.conj() * vr, axis=0)), 1e-300)
    roundoff = 4.0 * np.finfo(float).eps * (
        np.linalg.norm(base, 2) + np.linalg.norm(left, 2) * np.linalg.norm(right, 2))
    scale = 1.0 + np.abs(want)[None, :]
    cost = np.abs(got[:, None] - want[None, :]) / scale
    rows, cols = linear_sum_assignment(cost)
    allowed = SPECTRUM_RTOL + kappa[rows] * roundoff / scale[0, cols]
    excess = cost[rows, cols] / allowed
    worst = int(np.argmax(excess))
    require(excess[worst] <= 1.0,
            f"{what} spectrum misses a target by {cost[rows, cols][worst]:.1e} "
            f"(allowed {allowed[worst]:.1e})")


def check_stabilizing(plant, gain_rep, what):
    eigs = np.linalg.eigvals(plant.a + plant.b @ gain_rep)
    require(is_stable(eigs, plant.continuous), f"{what} closed loop is not stable")


def check_riccati(plant, p_rep, gain_rep, what):
    """Against SciPy; without a SciPy solution, stability and definiteness only."""
    if plant.riccati() is None:
        require(np.allclose(p_rep, p_rep.T) and np.linalg.eigvalsh(p_rep)[0] > 0,
                f"{what} P is not symmetric positive definite")
        check_stabilizing(plant, gain_rep, what)
        return
    p_ref, k_ref = plant.riccati()
    err_p, err_k = rel_err(p_rep, p_ref), rel_err(gain_rep, k_ref)
    require(err_p <= ARE_RTOL, f"{what} P differs from SciPy by {err_p:.1e}")
    require(err_k <= ARE_RTOL, f"{what} gain differs from SciPy by {err_k:.1e}")
    check_stabilizing(plant, gain_rep, what)


def lyapunov_residual(a, p, w, continuous):
    """Backward error of a^T p + p a = -w (or a^T p a - p = -w)."""
    if continuous:
        res = a.T @ p + p @ a + w
        scale = np.linalg.norm(w) + 2.0 * np.linalg.norm(a) * np.linalg.norm(p)
    else:
        res = a.T @ p @ a - p + w
        scale = np.linalg.norm(w) + (np.linalg.norm(a) ** 2 + 1.0) * np.linalg.norm(p)
    return float(np.linalg.norm(res) / scale)


def step_matrices(a, b, dt):
    """Zero-order-hold discretisation (exact for inputs held over each step)."""
    n2, m2 = b.shape
    aug = np.zeros((n2 + m2, n2 + m2))
    aug[:n2, :n2], aug[:n2, n2:] = a, b
    ex = sla.expm(aug * dt)
    return ex[:n2, :n2], ex[:n2, n2:]


def simulate(a, b, c, d, x0, u, dt, continuous):
    """Step the real system (a, b, c, d) directly; returns complex states and outputs."""
    ad, bd = step_matrices(a, b, dt) if continuous else (a, b)
    ur = stack(u)
    xs = np.empty((ur.shape[0], a.shape[0]))
    xs[0] = stack(x0)
    for k in range(ur.shape[0] - 1):
        xs[k + 1] = ad @ xs[k] + bd @ ur[k]
    ys = xs @ c.T + ur @ d.T
    return unstack(xs), unstack(ys)
