"""State response, structural tests, stability, and Lyapunov-type solvers.

All criteria are evaluated on the lifted or real pictures of the system,
which are ordinary linear systems; results are mapped back to coefficient
pairs.  Rank tests follow the eigenvector (PBH) form: a pencil loses rank
only at spectrum points, so only those finitely many points are checked.
One kernel decomposes every pencil; its per-point margins are computed once
per pencil and reused by the bad-region (stabilizable, detectable) tests.
A lifting ``L`` has ``conj(L) = J L J`` (J swaps the blocks), so its pencils
at ``s`` and ``conj(s)`` share singular values: one of each pair is tested.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Bimatrix,
    SpectrumSet,
    _is_pd_hermitian,
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
# Lyapunov acceptance: scaled residual, and forward-error estimate (above 1,
# not even the leading digit of P is certain); see solve_lyapunov_real.
LYAP_RESIDUAL_RTOL = 1e-10
LYAP_FORWARD_LIMIT = 1.0
# The four rank tests of a StructureReport, in report order.
RANK_TESTS = ("controllable", "observable", "stabilizable", "detectable")


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
        _write_trace_csv(
            f, self.times, [("x", self.states), ("u", self.inputs), ("y", self.outputs)]
        )


# Rows formatted per write by the trace CSV writer.
CSV_BLOCK_ROWS = 1024


def _write_trace_csv(f, times, groups):
    """Write ``t`` and the re/im columns of each ``(prefix, array)`` group, in order.

    Rows go out in blocks of ``CSV_BLOCK_ROWS``; every value is the ``repr`` of
    a Python float.
    """
    cols = ["t"]
    for kind, arr in groups:
        for i in range(arr.shape[1]):
            cols += [f"{kind}{i + 1}_re", f"{kind}{i + 1}_im"]
    f.write(",".join(cols) + "\n")
    times = np.asarray(times, dtype=float)
    for start in range(0, times.size, CSV_BLOCK_ROWS):
        rows = slice(start, start + CSV_BLOCK_ROWS)
        # a complex row viewed as floats interleaves re and im
        block = [times[rows, None]] + [
            np.ascontiguousarray(arr[rows], dtype=complex).view(float) for _, arr in groups
        ]
        lines = [",".join(map(repr, row)) for row in np.hstack(block).tolist()]
        f.write("\n".join(lines) + "\n")


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
    if not np.all(np.isfinite(samples)):
        raise ValueError("input contains non-finite entries")
    return samples


# Cap on log |Ad|_1**size, half of float64's exponent range: jumps keep finite states finite.
JUMP_LOG_MAX = math.log(np.finfo(float).max) / 2.0


def _propagate(xs, ads, ids=None):
    """The propagation kernel: ``x[k+1] = Ad[k] x[k] + f[k]`` on stacked real states.

    Works in place on the ``(steps + 1, N)`` array ``xs``: on entry ``xs[0]``
    holds the initial state and ``xs[k + 1]`` the forcing ``f[k]``, on return
    ``xs[k]`` holds ``x[k]``.  ``Ad[k]`` is ``ads[ids[k]]``, or ``ads[0]`` at
    every step when ``ids`` is None; that case takes the blocked :func:`_scan`,
    several matrices the per-step loop.  A state that overflows raises
    ``ValueError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if ids is None:
            _scan(xs, ads[0])
        else:
            _step_rows(xs, [ads[i] for i in ids.tolist()])
    if not np.all(np.isfinite(xs)):
        raise ValueError("state trajectory contains non-finite entries")


def _step_rows(xs, mats):
    """The per-step loop: ``xs[k + 1] += mats[k] @ xs[k]`` in place, in order."""
    rows = list(xs)
    for prev, row, ad in zip(rows, rows[1:], mats):
        row += np.dot(ad, prev)


def _scan(xs, ad):
    """Blocked scan (Blelloch, 1990) of :func:`_propagate` with one ``Ad``, parareal-corrected.

    Fine passes step all blocks of ``size = isqrt(steps)`` at once.  Two sweeps
    from zero starts set ``new[b+1] = fine[b] + J (new[b] - old[b])`` with
    ``J = Ad**size`` (sequential products); in the second, ``J`` meets only
    small changes, so its roundoff stays out on non-normal ``Ad``.  A last
    pass writes the states over the padded forcing.  ``JUMP_LOG_MAX`` caps
    ``size``; below 2 the loop runs.  States match the loop's to roundoff.
    """
    steps, width = xs.shape[0] - 1, xs.shape[1]
    growth = math.log(max(float(np.linalg.norm(ad, 1)), 1.0))
    size = min(math.isqrt(steps), int(JUMP_LOG_MAX / growth) if growth > 0.0 else steps)
    if size < 2:
        _step_rows(xs, itertools.repeat(ad))
        return
    forcing = np.zeros((-(-steps // size) * size, width))
    forcing[:steps] = xs[1:]
    forcing = forcing.reshape(-1, size, width)
    jump = functools.reduce(np.matmul, [ad] * size)

    def fine_pass(starts, keep=False):
        x = starts
        for j in range(size):
            x = x @ ad.T + forcing[:, j]
            if keep:
                forcing[:, j] = x
        return x

    starts = np.zeros((forcing.shape[0], width))
    for _ in range(2):
        change = np.empty_like(starts)  # each block's miss, carried by the jump
        change[0] = xs[0] - starts[0]
        change[1:] = fine_pass(starts)[:-1] - starts[1:]
        _step_rows(change, itertools.repeat(jump))
        starts += change
    fine_pass(starts, keep=True)
    xs[1:] = forcing.reshape(-1, width)[:steps]


def _zoh_steps(rep, times):
    """One-step matrices ``(Ad, Bd)`` of a real continuous system over the steps of ``times``.

    Returns the lists of distinct ``Ad`` and ``Bd`` and each step's index into
    them (None when there is only one), from the augmented exponential with
    the input held over the step (zero-order hold).  Steps within
    ``4 eps times[-1]`` (the error of the grid times themselves) of the smallest
    step of their group share its pair, so each group is exponentiated once.
    """
    import scipy.linalg

    n2, m2 = rep.b.shape
    aug = np.zeros((n2 + m2, n2 + m2))
    aug[:n2, :n2] = rep.a
    aug[:n2, n2:] = rep.b
    values, inverse = np.unique(np.diff(times), return_inverse=True)
    ads, bds, slot_of = [], [], np.empty(values.size, dtype=int)
    for i, h in enumerate(values):
        if not ads or h - head > 4.0 * np.finfo(float).eps * times[-1]:
            head, ex = h, scipy.linalg.expm(aug * h)
            ads.append(ex[:n2, :n2])
            bds.append(ex[:n2, n2:])
        slot_of[i] = len(ads) - 1
    return ads, bds, (None if len(ads) == 1 else slot_of[inverse])


def state_response(sys, x0, times, u=None):
    """Simulate the system on a time grid starting at zero.

    Both domains run on the real representation through one propagation
    kernel, ``x[k+1] = Ad[k] x[k] + Bd[k] u[k]`` on stacked real states.
    Discrete systems use ``(Ad, Bd) = (A_r, B_r)``, the exact recursion.
    Continuous systems use the matrix exponential of each distinct grid step
    with the input held constant over the interval (exact for
    piecewise-constant inputs), from the augmented-exponential construction.
    The forcing ``Bd u`` and the outputs ``C_r x + D_r u`` are one matrix
    product each over all samples, on row stacks from :func:`arrow` and
    :func:`unarrow`.  A grid whose steps share one pair (any discrete grid,
    and uniform grids up to the error of their times) takes the kernel's
    blocked scan, which matches per-sample stepping to roundoff, not bit for
    bit; other grids and grids under four steps are stepped sample by sample.

    Parameters
    ----------
    x0 : array_like
        Initial complex state (length n).
    times : array_like
        Finite, strictly increasing grid starting at 0.  Discrete systems require
        consecutive integers.
    u : None, callable, or array (len(times), m)
        Input samples; ``None`` means zero input, a callable is evaluated at
        each grid point.

    Raises
    ------
    ValueError
        For a bad grid, a non-finite ``x0`` or input sample, and a state that
        overflows to a non-finite value.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0:
        raise ValueError("time grid is empty")
    if not np.all(np.isfinite(times)):
        raise ValueError("time grid must be finite")
    if times[0] != 0.0:
        raise ValueError("time grid must start at 0")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")
    x0 = as_cvector(x0, "x0")
    if x0.shape[0] != sys.n:
        raise DimensionError(f"x0 has length {x0.shape[0]}, expected {sys.n}")

    usamp = _input_samples(u, times, sys.m)
    rep = sys.real_representation()
    if sys.domain.is_continuous:
        ads, bds, ids = _zoh_steps(rep, times)
    else:
        if not np.array_equal(times, np.arange(times.size, dtype=float)):
            raise ValueError("discrete-time grid must be the consecutive integers 0..T")
        ads, bds, ids = [rep.a], [rep.b], None

    u_r = arrow(usamp)
    xs = np.empty((times.size, 2 * sys.n))
    xs[0] = arrow(x0)
    for slot, bd in enumerate(bds):
        at = slice(None) if ids is None else ids == slot
        xs[1:][at] = u_r[:-1][at] @ bd.T
    _propagate(xs, ads, ids)
    outputs = xs @ rep.c.T + u_r @ rep.d.T
    return SimTrace(times, unarrow(xs), usamp, unarrow(outputs))


# ---------------------------------------------------------------------------
# Structural rank tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankTest:
    """Outcome of a pointwise rank test.

    ``margin`` is the smallest singular value seen over the tested spectrum
    points (infinite when no point needed testing; one member of each conjugate
    pair for the lifted tests); the test passes when it exceeds ``threshold``.
    """

    passed: bool
    margin: float
    threshold: float

    def __bool__(self):
        return self.passed


def _pbh(m0, g, points, tall=False):
    """The PBH kernel: per-point margins of ``[sI - m0, g]`` (``[sI - m0; g]`` if ``tall``).

    Returns the smallest singular value of the pencil at each point and the
    scale ``max(1, |[m0, g]|_2)`` for rank thresholds.  The stacked pencils go
    through batched SVDs of at most 2**20 entries (16 MB) each.  The lifted
    tests pass one member of each conjugate pair (J-symmetric pencils).
    """
    stack = np.vstack if tall else np.hstack
    scale = max(1.0, float(np.linalg.norm(stack([m0, g]), 2)))
    eye, per_call = np.eye(m0.shape[0]), max(1, 2**20 // (m0.size + g.size))
    margins = []
    for s in np.split(np.asarray(points), np.arange(per_call, len(points), per_call)):
        pencils = [s[:, None, None] * eye - m0, np.broadcast_to(g, (s.size,) + g.shape)]
        pencils = np.concatenate(pencils, axis=1 if tall else 2)
        margins.append(np.linalg.svd(pencils, compute_uv=False)[:, -1])
    return np.concatenate(margins), scale


def _rank_test(margins, scale, rtol):
    threshold = rtol * scale
    if len(margins) == 0:
        return RankTest(True, math.inf, threshold)
    margin = float(np.min(margins))
    return RankTest(margin > threshold, margin, threshold)


def _bad_region_mask(values, domain):
    """True where a value is not strictly inside the stable region of the domain."""
    values = np.asarray(values)
    if domain.is_continuous:
        return ~(values.real < -STABILITY_TOL)
    return ~(np.abs(values) < 1.0 - STABILITY_TOL)


def _pair_members(spectrum):
    """Real values and the ``Im s > 0`` member of each pair (``eigvals`` gives exact pairs)."""
    return spectrum.values[spectrum.values.imag >= 0]


def _lifted_test(sys, g_bm, rtol, tall=False, bad_only=False):
    pts = _pair_members(sys.spectrum())
    if bad_only:
        pts = pts[_bad_region_mask(pts, sys.domain)]
    return _rank_test(*_pbh(sys.a.complex_lifting(), g_bm.complex_lifting(), pts, tall), rtol)


def is_controllable(sys, rtol=PBH_RTOL):
    """Rank test of ``[sI - A, B]`` on the lifted system at every eigenvalue."""
    return _lifted_test(sys, sys.b, rtol)


def is_observable(sys, rtol=PBH_RTOL):
    """Rank test of ``[sI - A; C]`` on the lifted system at every eigenvalue."""
    return _lifted_test(sys, sys.c, rtol, tall=True)


def is_stabilizable(sys, rtol=PBH_RTOL):
    """Controllability rank test restricted to eigenvalues in the bad region."""
    return _lifted_test(sys, sys.b, rtol, bad_only=True)


def is_detectable(sys, rtol=PBH_RTOL):
    """Observability rank test restricted to eigenvalues in the bad region."""
    return _lifted_test(sys, sys.c, rtol, tall=True, bad_only=True)


def is_asymptotically_stable(sys):
    """All eigenvalues strictly inside the stable region of the domain."""
    return not np.any(_bad_region_mask(sys.spectrum().values, sys.domain))


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
        return {name: getattr(self, name).margin for name in RANK_TESTS}


def structure_report(sys, rtol=PBH_RTOL):
    """All four rank tests, the stability flag and the spectrum of one system.

    The lifting, the spectrum and the per-point margins of each pencil are
    computed once; the bad-region tests take the subset of those margins.  A
    margin is the minimum over one member of each conjugate pair, where the
    J-symmetric lifted pencils at ``s`` and ``conj(s)`` agree.
    """
    al, bl, cl = (bm.complex_lifting() for bm in (sys.a, sys.b, sys.c))
    spectrum = sys.spectrum()
    pts = _pair_members(spectrum)
    bad = _bad_region_mask(pts, sys.domain)
    ctrb, c_scale = _pbh(al, bl, pts)
    obsv, o_scale = _pbh(al, cl, pts, tall=True)
    return StructureReport(
        controllable=_rank_test(ctrb, c_scale, rtol),
        observable=_rank_test(obsv, o_scale, rtol),
        stabilizable=_rank_test(ctrb[bad], c_scale, rtol),
        detectable=_rank_test(obsv[bad], o_scale, rtol),
        stable=not np.any(bad),
        spectrum=spectrum,
    )


# Reduced tests for purely conjugate-driven systems.  These work on n-dim
# normal pairs built from the coefficients instead of the 2n-dim lifting.


def antilinear_controllable(a2, b2, rtol=PBH_RTOL):
    """Reduced test: rank ``[sI - conj(A2) A2, conj(B2), conj(A2) B2]``."""
    a2 = np.asarray(a2, dtype=complex)
    b2 = np.asarray(b2, dtype=complex)
    m0 = np.conj(a2) @ a2
    wide = np.hstack([np.conj(b2), np.conj(a2) @ b2])
    return _rank_test(*_pbh(m0, wide, np.linalg.eigvals(m0)), rtol)


def antilinear_observable(a2, c2, rtol=PBH_RTOL):
    """Reduced test: rank ``[sI - conj(A2) A2; C2; conj(C2) A2]``."""
    a2 = np.asarray(a2, dtype=complex)
    c2 = np.asarray(c2, dtype=complex)
    m0 = np.conj(a2) @ a2
    outputs = np.vstack([c2, np.conj(c2) @ a2])
    return _rank_test(*_pbh(m0, outputs, np.linalg.eigvals(m0), tall=True), rtol)


def antilinear_stabilizable_discrete(a2, b2, rtol=PBH_RTOL):
    """Reduced test: rank ``[lam I - A2 conj(A2), B2, A2 conj(B2)]`` for ``|lam| >= 1``."""
    a2 = np.asarray(a2, dtype=complex)
    b2 = np.asarray(b2, dtype=complex)
    m0 = a2 @ np.conj(a2)
    wide = np.hstack([b2, a2 @ np.conj(b2)])
    pts = np.linalg.eigvals(m0)
    pts = pts[_bad_region_mask(pts, TimeDomain.DISCRETE)]
    return _rank_test(*_pbh(m0, wide, pts), rtol)


# ---------------------------------------------------------------------------
# Lyapunov-type equations (SciPy's Schur-based solvers)
# ---------------------------------------------------------------------------


def solve_lyapunov_real(a, w, continuous):
    """Solve ``a^H P + P a = -w`` or ``a^H P a - P = -w``; returns the Hermitian part of P.

    One call of SciPy's ``solve_continuous_lyapunov`` (Bartels-Stewart) or
    ``solve_discrete_lyapunov`` (direct below order 10, else the bilinear
    map); ``a`` may be complex.  With the operator bound ``|L|`` = ``2|a|``
    (continuous) or ``|a|^2 + 1`` (discrete), P is accepted when the scaled
    residual ``|op(P) + w| / (|w| + |L||P|)`` is at most
    ``LYAP_RESIDUAL_RTOL`` (the true backward error of this Sylvester-type
    equation can be larger: Higham, BIT 33, 1993) and the forward-error
    estimate ``eps |L||P| / |w|`` at most ``LYAP_FORWARD_LIMIT`` (``|P| / |w|``
    bounds ``|L^-1|`` from below: Byers, IEEE TAC 29, 1984).  A zero ``w``
    gives ``P = 0``.

    An operator eigenvalue ``conj(lam_i) + lam_j`` (``conj(lam_i) lam_j - 1``
    in discrete time) within ``1e-10 * max(1, max|lam|)`` of zero, the scale
    squared in discrete time, raises :class:`NoUniqueSolutionError` before
    the solve; so do a singular SciPy solve and a P that misses either test.
    """
    lam = np.linalg.eigvals(a)
    scale = max(1.0, float(np.max(np.abs(lam))))
    if continuous:
        gaps, limit = np.conj(lam)[:, None] + lam, 1e-10 * scale
    else:
        gaps, limit = np.conj(lam)[:, None] * lam - 1.0, 1e-10 * scale**2
    if np.min(np.abs(gaps)) <= limit:
        raise NoUniqueSolutionError(
            "an eigenvalue pair makes the Lyapunov operator singular; no unique solution"
        )
    import scipy.linalg

    # SciPy solves ``m X + X m^H = q`` and ``m X m^H - X = -q``; here ``m = a^H``
    ah = a.conj().T
    try:
        if continuous:
            p = scipy.linalg.solve_continuous_lyapunov(ah, -w)
        else:
            p = scipy.linalg.solve_discrete_lyapunov(ah, w)
    except np.linalg.LinAlgError as exc:  # the direct discrete solve's Kronecker system
        raise NoUniqueSolutionError(f"Lyapunov operator is singular in float64: {exc}") from exc
    p = (p + p.conj().T) / 2.0
    reason = _lyapunov_gate(a, p, w, continuous)
    if reason:
        raise NoUniqueSolutionError(f"Lyapunov solution is too ill-conditioned to trust: {reason}")
    return p


def _lyapunov_gate(a, p, w, continuous):
    """Why ``p`` fails an acceptance test of :func:`solve_lyapunov_real`, or None if it passes.

    The reason names the scaled residual of ``a^H P + P a + w``
    (``a^H P a - P + w``) and the forward-error estimate, each with its limit.
    """
    ah = a.conj().T
    res = ah @ p + p @ a + w if continuous else ah @ p @ a - p + w
    norm_a, norm_p, norm_w = (float(np.linalg.norm(x)) for x in (a, p, w))
    norm_l = 2.0 * norm_a if continuous else norm_a * norm_a + 1.0
    tiny = np.finfo(float).tiny  # both quotients are 0, not 0/0, for w = 0 and P = 0
    scaled = float(np.linalg.norm(res)) / max(norm_w + norm_l * norm_p, tiny)
    forward = np.finfo(float).eps * norm_l * norm_p / max(norm_w, tiny)
    if not (scaled <= LYAP_RESIDUAL_RTOL and forward <= LYAP_FORWARD_LIMIT):
        return (f"scaled residual {scaled:.1e} (limit {LYAP_RESIDUAL_RTOL:g}), "
                f"forward-error estimate {forward:.1e} (limit {LYAP_FORWARD_LIMIT:g})")
    return None


def solve_lyapunov(sys, c_bm=None):
    """Solve the pair-valued stability equation for the system.

    Continuous: ``{A}^H {P} + {P} {A} = -{C}^H {C}``; discrete replaces the
    left side with ``{A}^H {P} {A} - {P}``.  Solved on the real
    representation by :func:`solve_lyapunov_real` (one SciPy solve) and
    mapped back; the result is a Hermite pair.

    Raises
    ------
    NoUniqueSolutionError
        When the underlying linear operator is singular (an eigenvalue pair
        sums to zero / multiplies to one), or the solution misses the scaled
        residual gate ``LYAP_RESIDUAL_RTOL`` or has a forward-error estimate
        above ``LYAP_FORWARD_LIMIT``; the message names both numbers.
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


def antilinear_lyapunov_reduced(a2, c_n):
    """Solve ``M^H P M - P = -C_N^H C_N`` with ``M = conj(A2) A2``.

    This is the reduced, decoupled form of the discrete stability equation
    for a purely conjugate-driven system, solved and gated by
    :func:`solve_lyapunov_real`.  Returns a Hermitian matrix.

    Raises
    ------
    NoUniqueSolutionError
        When an eigenvalue pair of ``M`` has ``conj(mu_i) mu_j = 1``, or the
        solution misses either acceptance test of :func:`solve_lyapunov_real`.
    NoPositiveDefiniteSolutionError
        If the solved matrix is not positive definite, which by the stability
        theory means the system is not asymptotically stable.
    """
    a2 = np.asarray(a2, dtype=complex)
    c_n = np.asarray(c_n, dtype=complex)
    m0 = np.conj(a2) @ a2
    p = solve_lyapunov_real(m0, c_n.conj().T @ c_n, continuous=False)
    if not _is_pd_hermitian(p):
        raise NoPositiveDefiniteSolutionError(
            "no positive definite solution: the system is not asymptotically stable"
        )
    return p
