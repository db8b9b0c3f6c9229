"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library code paths they are used to
check: series are summed term by term, simulations step the doubled real
system directly, and spectra come from the lifted matrices.
"""

import numpy as np
import scipy.linalg

from bimatrix import Bimatrix, CxSystem, TimeDomain, arrow, quadratic_form_real, unarrow


def rand_cmatrix(rng, rows, cols, scale=1.0):
    return scale * (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    )


def rand_bimatrix(rng, rows, cols, scale=1.0):
    return Bimatrix(
        rand_cmatrix(rng, rows, cols, scale), rand_cmatrix(rng, rows, cols, scale)
    )


def rand_system(rng, n, m, p, domain, scale=1.0):
    return CxSystem(
        rand_bimatrix(rng, n, n, scale),
        rand_bimatrix(rng, n, m, scale),
        rand_bimatrix(rng, p, n, scale),
        rand_bimatrix(rng, p, m, scale),
        domain,
    )


def rand_stable_system(rng, n, m, p, domain):
    """Random system scaled/shifted until asymptotically stable."""
    from bimatrix import is_asymptotically_stable

    for _ in range(100):
        sysm = rand_system(rng, n, m, p, domain)
        if domain in (TimeDomain.DISCRETE, "discrete"):
            rep = sysm.a.real_representation()
            rho = np.max(np.abs(np.linalg.eigvals(rep)))
            a = Bimatrix(
                sysm.a.first * (0.5 / max(rho, 0.5)),
                sysm.a.second * (0.5 / max(rho, 0.5)),
            )
        else:
            rep = sysm.a.real_representation()
            shift = np.max(np.linalg.eigvals(rep).real) + 0.5
            a = Bimatrix(sysm.a.first - shift * np.eye(n), sysm.a.second)
        sysm = CxSystem(a, sysm.b, sysm.c, sysm.d, domain)
        if is_asymptotically_stable(sysm):
            return sysm
    raise AssertionError("could not generate a stable system")


def rand_controllable_system(rng, n, m, p, domain, scale=1.0):
    from bimatrix import is_controllable

    for _ in range(100):
        sysm = rand_system(rng, n, m, p, domain, scale)
        if is_controllable(sysm):
            return sysm
    raise AssertionError("could not generate a controllable system")


def rand_unstabilizable_system(rng, n, m, domain):
    """System with an unstable part that no input reaches, up to rounding.

    The real representation is ``T [[A11, A12], [0, A22]] T^-1`` with input
    ``T [B1; 0]`` for a random real ``T``; the order-``n`` block ``A22`` is
    shifted (continuous) or scaled (discrete) to put its whole spectrum 0.3
    past the stability boundary.  Any real even-order system folds into pair
    form, so the plant is a general coupled one.
    """
    t = rng.standard_normal((2 * n, 2 * n))
    a = rng.standard_normal((2 * n, 2 * n))
    a[n:, :n] = 0.0
    lam = np.linalg.eigvals(a[n:, n:])
    if domain in (TimeDomain.CONTINUOUS, "continuous"):
        a[n:, n:] -= (lam.real.min() - 0.3) * np.eye(n)
    else:
        a[n:, n:] *= 1.3 / np.abs(lam).min()
    b = rng.standard_normal((2 * n, 2 * m))
    b[n:] = 0.0
    return CxSystem(
        Bimatrix.from_real_representation(t @ a @ np.linalg.inv(t)),
        Bimatrix.from_real_representation(t @ b),
        Bimatrix.identity(n),
        Bimatrix.zeros(n, m),
        domain,
    )


def rand_unstabilizable_antilinear(rng, n, m):
    """``(A2, B2)`` of ``x+ = conj(A2) conj(x) + conj(B2) conj(u)`` with an unreached unstable part.

    In the basis ``y`` with ``x = T y``, ``A2`` is block upper triangular and
    ``B2`` vanishes on the last ``n - n // 2`` coordinates, whose block ``Z``
    has ``rho(conj(Z) Z) = 1.5``: unstable in both domains.  The change of
    basis gives ``conj(T)^-1 A2 T`` and ``conj(T)^-1 B2``.
    """
    k = n // 2
    a2 = rand_cmatrix(rng, n, n)
    a2[k:, :k] = 0.0
    z = a2[k:, k:]
    a2[k:, k:] = z * np.sqrt(1.5 / np.max(np.abs(np.linalg.eigvals(np.conj(z) @ z))))
    b2 = rand_cmatrix(rng, n, m)
    b2[k:] = 0.0
    t = rand_cmatrix(rng, n, n)
    tci = np.linalg.inv(np.conj(t))
    return tci @ a2 @ t, tci @ b2


def bimatrix_are_residual_inverse_form(sysm, weights, p):
    """Relative pair residual of the Riccati equation, written with pair inverses.

    ``A^H P + P A - P B R^-1 B^H P + Q`` (continuous) or
    ``A^H P A - P - A^H P B S^-1 B^H P A + Q`` with ``S = R + B^H P B``
    (discrete), over ``max(1, |Q|, |P|)`` with ``|X| = |X1| + |X2|``: the
    reference for the closed-loop form of ``LqrSolution.residual``.
    """
    a, b = sysm.a, sysm.b
    q, r = weights.q, weights.r
    if sysm.domain.is_continuous:
        res = a.H @ p + p @ a - p @ b @ r.inverse() @ b.H @ p + q
    else:
        s = r + b.H @ p @ b
        res = a.H @ p @ a - p - a.H @ p @ b @ s.inverse() @ b.H @ p @ a + q

    def size(x):
        return np.linalg.norm(x.first) + np.linalg.norm(x.second)

    return float(size(res) / max(1.0, size(q), size(p)))


def lift(bm):
    """Doubled-up complex matrix, assembled independently of the library."""
    a1, a2 = np.asarray(bm.first), np.asarray(bm.second)
    top = np.hstack([a1, np.conj(a2)])
    bot = np.hstack([a2, np.conj(a1)])
    return np.vstack([top, bot])


def power_by_squaring(bm, k):
    """``k``-fold composition by square-and-multiply in pair arithmetic (oracle for ``power``)."""
    result, base = Bimatrix.identity(bm.rows), bm
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


def inverse_first_schur(bm):
    """Paper's closed-form inverse, assuming the first part is nonsingular."""
    a1, a2 = bm.first, bm.second
    a1ci = np.linalg.inv(np.conj(a1))
    s1 = a1 - np.conj(a2) @ a1ci @ a2
    s1i = np.linalg.inv(s1)
    return Bimatrix(s1i, -a1ci @ a2 @ s1i)


def inverse_second_schur(bm):
    """Paper's closed-form inverse, assuming the second part is nonsingular."""
    a1, a2 = bm.first, bm.second
    a2i = np.linalg.inv(a2)
    s2 = np.conj(a2) - a1 @ a2i @ np.conj(a1)
    s2i = np.linalg.inv(s2)
    return Bimatrix(-a2i @ np.conj(a1) @ s2i, s2i)


def pbh_oracle(m0, g, points, rtol, tall=False):
    """PBH rank test ``(passed, margin, threshold)`` with one SVD per point.

    The pencil is ``[sI - m0, g]``, or ``[sI - m0; g]`` when ``tall``.  The
    margin is the smallest singular value over the points (infinite when
    there are none) and the threshold is ``rtol * max(1, |[m0, g]|_2)``.
    """
    stack = np.vstack if tall else np.hstack
    eye = np.eye(m0.shape[0])
    threshold = rtol * max(1.0, np.linalg.norm(stack([m0, g]), 2))
    margin = np.inf
    for s in points:
        sv = np.linalg.svd(stack([s * eye - m0, g]), compute_uv=False)
        margin = min(margin, sv[-1])
    return margin > threshold, margin, threshold


def lifted_pbh_oracle(sysm, rtol, stability_tol):
    """The four lifted PBH tests of a system, pencils built from :func:`lift`.

    Returns a dict of :func:`pbh_oracle` triples keyed like a structure report.
    The bad region is ``Re s >= -tol`` (continuous) or ``|s| >= 1 - tol``.
    """
    al, bl, cl = lift(sysm.a), lift(sysm.b), lift(sysm.c)
    pts = np.linalg.eigvals(sysm.a.real_representation())
    if getattr(sysm.domain, "value", sysm.domain) == "continuous":
        bad = pts[pts.real >= -stability_tol]
    else:
        bad = pts[np.abs(pts) >= 1.0 - stability_tol]
    return {
        "controllable": pbh_oracle(al, bl, pts, rtol),
        "observable": pbh_oracle(al, cl, pts, rtol, tall=True),
        "stabilizable": pbh_oracle(al, bl, bad, rtol),
        "detectable": pbh_oracle(al, cl, bad, rtol, tall=True),
    }


def antilinear_series_pair(a2, t, tol=1e-17, max_terms=300):
    """Transition pair of a conjugate-driven system by direct series summation.

    phi1 = sum_i t^(2i) / (2i)!  (conj(A2) A2)^i
    phi2 = A2 @ sum_i t^(2i+1) / (2i+1)! (conj(A2) A2)^i
    """
    a2 = np.asarray(a2, dtype=complex)
    n = a2.shape[0]
    m = np.conj(a2) @ a2
    phi1 = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for i in range(1, max_terms):
        term = term @ m * (t * t / ((2 * i - 1) * (2 * i)))
        phi1 = phi1 + term
        if np.linalg.norm(term) < tol * max(1.0, np.linalg.norm(phi1)):
            break
    acc = t * np.eye(n, dtype=complex)
    term = acc.copy()
    for i in range(1, max_terms):
        term = term @ m * (t * t / ((2 * i) * (2 * i + 1)))
        acc = acc + term
        if np.linalg.norm(term) < tol * max(1.0, np.linalg.norm(acc)):
            break
    phi2 = a2 @ acc
    return phi1, phi2


def simulate_real_system(ar, br, cr, dr, x0v, times, u_real, continuous):
    """Step the doubled real system directly (the oracle for state_response)."""
    n2 = ar.shape[0]
    m2 = br.shape[1]
    states = np.empty((len(times), n2))
    states[0] = x0v
    if continuous:
        for k in range(len(times) - 1):
            h = float(times[k + 1] - times[k])
            aug = np.zeros((n2 + m2, n2 + m2))
            aug[:n2, :n2] = ar
            aug[:n2, n2:] = br
            ex = scipy.linalg.expm(aug * h)
            states[k + 1] = ex[:n2, :n2] @ states[k] + ex[:n2, n2:] @ u_real[k]
    else:
        for k in range(len(times) - 1):
            states[k + 1] = ar @ states[k] + br @ u_real[k]
    outputs = np.array([cr @ states[k] + dr @ u_real[k] for k in range(len(times))])
    return states, outputs


def state_response_loop(sysm, x0, times, u=None):
    """``(states, outputs)`` stepped one sample at a time through ``Bimatrix.apply``.

    The oracle for ``state_response``: discrete systems recur in pair form;
    continuous systems cache one augmented exponential per ``f"{h:.12e}"``
    step key, with the input held over each step.  ``u`` is None, a callable
    of ``t`` or an array of per-sample inputs.
    """
    times = np.asarray(times, dtype=float)
    if u is None:
        usamp = np.zeros((times.size, sysm.m), dtype=complex)
    elif callable(u):
        usamp = np.array([np.asarray(u(float(t)), dtype=complex).reshape(-1) for t in times])
    else:
        usamp = np.asarray(u, dtype=complex).reshape(times.size, sysm.m)
    states = np.empty((times.size, sysm.n), dtype=complex)
    states[0] = x0
    if sysm.domain.is_continuous:
        rep = sysm.real_representation()
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
        for k in range(times.size - 1):
            states[k + 1] = sysm.a.apply(states[k]) + sysm.b.apply(usamp[k])
    outputs = np.empty((times.size, sysm.p), dtype=complex)
    for k in range(times.size):
        outputs[k] = sysm.c.apply(states[k]) + sysm.d.apply(usamp[k])
    return states, outputs


def lqr_cost_loop(cl, weights, gain, x0, steps, dt=None):
    """Quadratic cost of the closed loop ``cl`` over ``steps`` steps, one sample at a time.

    The oracle for ``lqr_cost``: stage costs from ``quadratic_form_real``,
    summed in discrete time and integrated by the trapezoid rule with step
    ``dt`` in continuous time, states advanced through ``Bimatrix.apply``.
    """
    q, r = weights.q, weights.r
    x = np.asarray(x0, dtype=complex).reshape(-1)

    def stage(xk):
        return quadratic_form_real(q, xk) + quadratic_form_real(r, gain.apply(xk))

    total = 0.0
    if not cl.domain.is_continuous:
        for _ in range(steps):
            total += stage(x)
            x = cl.a.apply(x)
        return float(total)
    step = cl.a.expm(dt)
    g_prev = stage(x)
    for _ in range(steps):
        x = step.apply(x)
        g_next = stage(x)
        total += 0.5 * dt * (g_prev + g_next)
        g_prev = g_next
    return float(total)


def trace_csv_loop(f, times, groups):
    """The trace CSV layout written one value at a time (oracle for the block writer)."""
    cols = ["t"]
    for kind, arr in groups:
        for i in range(arr.shape[1]):
            cols += [f"{kind}{i + 1}_re", f"{kind}{i + 1}_im"]
    f.write(",".join(cols) + "\n")
    for k, t in enumerate(times):
        row = [repr(float(t))]
        for _, arr in groups:
            for v in arr[k]:
                row += [repr(float(v.real)), repr(float(v.imag))]
        f.write(",".join(row) + "\n")


def rand_stable_spectrum(rng, count, domain):
    """Conjugate-closed multiset of `count` values strictly in the stable region."""
    continuous = getattr(domain, "value", domain) == "continuous"
    vals = []
    while len(vals) < count:
        if count - len(vals) >= 2 and rng.uniform() < 0.6:
            if continuous:
                v = complex(-rng.uniform(0.5, 2.5), rng.uniform(0.3, 2.0))
            else:
                rho, th = rng.uniform(0.2, 0.8), rng.uniform(0.2, 2.9)
                v = rho * np.exp(1j * th)
            vals += [v, np.conj(v)]
        else:
            vals.append(
                complex(-rng.uniform(0.5, 2.5), 0.0)
                if continuous
                else complex(rng.uniform(0.1, 0.8) * rng.choice([-1.0, 1.0]), 0.0)
            )
    return np.asarray(vals, dtype=complex)


def multiset_close(got, want, rtol=1e-8):
    got = list(np.asarray(got, dtype=complex))
    for w in np.asarray(want, dtype=complex):
        j = min(range(len(got)), key=lambda i: abs(got[i] - w))
        if abs(got[j] - w) > rtol * (1.0 + abs(w)):
            return False
        got.pop(j)
    return len(got) == 0


def kron_lyapunov(a, w, continuous):
    """Lyapunov/Stein solution by the paper-formula Kronecker vectorization.

    Solves ``a^H P + P a = -w`` (continuous) or ``a^H P a - P = -w``
    (discrete) as one dense linear system in ``vec(P)``, using
    ``vec(X P Y) = (Y^T kron X) vec(P)``.  O(n^6): an oracle for small n only.
    """
    a = np.asarray(a)
    n = a.shape[0]
    eye = np.eye(n)
    ah = a.conj().T
    if continuous:
        op = np.kron(eye, ah) + np.kron(a.T, eye)
    else:
        op = np.kron(a.T, ah) - np.eye(n * n)
    vec_p = np.linalg.solve(op, -np.asarray(w).flatten(order="F"))
    return vec_p.reshape((n, n), order="F")


def lyapunov_scaled_residual(a, p, w, continuous):
    """``|op(P) + w| / (|w| + |L| |P|)`` with ``|L|`` = ``2|a|`` or ``|a|^2 + 1``."""
    ah = a.conj().T
    res = ah @ p + p @ a + w if continuous else ah @ p @ a - p + w
    norm_l = 2.0 * np.linalg.norm(a) if continuous else np.linalg.norm(a) ** 2 + 1.0
    return np.linalg.norm(res) / (np.linalg.norm(w) + norm_l * np.linalg.norm(p))


def dare_closed_loop(sysm):
    """The closed loop of a discrete plant under SciPy's regulator for unit weights."""
    rep = sysm.real_representation()
    n2, m2 = rep.b.shape
    p = scipy.linalg.solve_discrete_are(rep.a, rep.b, np.eye(n2), np.eye(m2))
    k = -np.linalg.solve(np.eye(m2) + rep.b.T @ p @ rep.b, rep.b.T @ p @ rep.a)
    return CxSystem(Bimatrix.from_real_representation(rep.a + rep.b @ k),
                    sysm.b, sysm.c, sysm.d, sysm.domain)
