"""System records and conversions between the complex, real, and lifted forms.

The central object is :class:`CxSystem`, a linear system whose state update
couples the state with its conjugate::

    x+ = A1 x + conj(A2) conj(x) + B1 u + conj(B2) conj(u)
    y  = C1 x + conj(C2) conj(x) + D1 u + conj(D2) conj(u)

``x+`` means the shifted state ``x(t+1)`` in discrete time and the derivative
in continuous time.  Every such system has an equivalent real-valued system of
doubled dimension (the real representation) and a structured complex lifted
system; both are plain linear systems and carry all structural properties.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .core import Bimatrix, _json_count, as_cmatrix, cmatrix_from_json, cmatrix_to_json
from .exceptions import DimensionError, SingularBimatrixError

__all__ = [
    "TimeDomain",
    "CxSystem",
    "RealSystem",
    "make_normal",
    "make_antilinear",
    "from_real_system",
    "real_conversion_residual",
    "transfer_function_eval",
    "system_to_json",
    "system_from_json",
]


class TimeDomain(enum.Enum):
    CONTINUOUS = "continuous"
    DISCRETE = "discrete"

    @property
    def is_continuous(self):
        return self is TimeDomain.CONTINUOUS


def _coerce_domain(domain):
    if isinstance(domain, TimeDomain):
        return domain
    try:
        return TimeDomain(str(domain).lower())
    except ValueError:
        raise ValueError(
            f"domain must be 'continuous' or 'discrete', got {domain!r}"
        ) from None


@dataclass(frozen=True)
class CxSystem:
    """Conjugate-coupled linear system held as four coefficient bimatrices.

    Attributes
    ----------
    a, b, c, d : Bimatrix
        State (n x n), input (n x m), output (p x n) and feedthrough (p x m)
        coefficient pairs.
    domain : TimeDomain
        Continuous or discrete time.
    """

    a: Bimatrix
    b: Bimatrix
    c: Bimatrix
    d: Bimatrix
    domain: TimeDomain

    def __post_init__(self):
        object.__setattr__(self, "domain", _coerce_domain(self.domain))
        if not self.a.is_square:
            raise DimensionError(f"state bimatrix must be square, got {self.a.shape}")
        n = self.a.rows
        if self.b.rows != n:
            raise DimensionError(f"input bimatrix has {self.b.rows} rows, expected {n}")
        if self.c.cols != n:
            raise DimensionError(f"output bimatrix has {self.c.cols} cols, expected {n}")
        if self.d.shape != (self.c.rows, self.b.cols):
            raise DimensionError(
                f"feedthrough bimatrix is {self.d.shape}, expected {(self.c.rows, self.b.cols)}"
            )

    @property
    def n(self):
        return self.a.rows

    @property
    def m(self):
        return self.b.cols

    @property
    def p(self):
        return self.c.rows

    @property
    def is_normal(self):
        """All second parts exactly zero (no conjugate coupling)."""
        return all(
            not np.any(bm.second) for bm in (self.a, self.b, self.c, self.d)
        )

    @property
    def is_antilinear(self):
        """All first parts exactly zero (pure conjugate coupling)."""
        return all(
            not np.any(bm.first) for bm in (self.a, self.b, self.c, self.d)
        )

    def real_representation(self):
        """Equivalent real system of doubled dimensions (the pairs' cached, read-only arrays)."""
        return RealSystem(
            self.a.real_representation(),
            self.b.real_representation(),
            self.c.real_representation(),
            self.d.real_representation(),
            self.domain,
        )

    def complex_lifting(self):
        """Lifted coefficient quadruple (complex 2n/2m/2p dimensions; cached, read-only)."""
        return (
            self.a.complex_lifting(),
            self.b.complex_lifting(),
            self.c.complex_lifting(),
            self.d.complex_lifting(),
        )

    def spectrum(self):
        """Eigenvalues of the state pair, cached on it."""
        return self.a.eigenvalues()


@dataclass(frozen=True)
class RealSystem:
    """Plain real state-space system (the doubled-dimension picture)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    domain: TimeDomain

    def __post_init__(self):
        object.__setattr__(self, "domain", _coerce_domain(self.domain))
        for name in ("a", "b", "c", "d"):
            mat = np.asarray(getattr(self, name), dtype=float)
            if mat.ndim != 2:
                raise DimensionError(f"{name} must be 2-D")
            object.__setattr__(self, name, mat)
        n2 = self.a.shape[0]
        if self.a.shape != (n2, n2):
            raise DimensionError("state matrix must be square")
        if self.b.shape[0] != n2 or self.c.shape[1] != n2:
            raise DimensionError("state dimension mismatch between a, b, c")
        if self.d.shape != (self.c.shape[0], self.b.shape[1]):
            raise DimensionError("feedthrough dimensions inconsistent with b, c")


def make_normal(a1, b1, c1, d1=None, *, domain):
    """System without conjugate coupling (all second parts zero)."""
    a1, b1, c1 = as_cmatrix(a1, "a1"), as_cmatrix(b1, "b1"), as_cmatrix(c1, "c1")
    d1 = np.zeros((c1.shape[0], b1.shape[1])) if d1 is None else as_cmatrix(d1, "d1")
    return CxSystem(
        Bimatrix.normal(a1),
        Bimatrix.normal(b1),
        Bimatrix.normal(c1),
        Bimatrix.normal(d1),
        _coerce_domain(domain),
    )


def make_antilinear(a2, b2, c2=None, d2=None, *, domain):
    """System driven purely by the conjugated state and input."""
    a2, b2 = as_cmatrix(a2, "a2"), as_cmatrix(b2, "b2")
    c2 = np.eye(a2.shape[0]) if c2 is None else as_cmatrix(c2, "c2")
    d2 = np.zeros((c2.shape[0], b2.shape[1])) if d2 is None else as_cmatrix(d2, "d2")
    return CxSystem(
        Bimatrix.antilinear(a2),
        Bimatrix.antilinear(b2),
        Bimatrix.antilinear(c2),
        Bimatrix.antilinear(d2),
        _coerce_domain(domain),
    )


def from_real_system(a, b, c, d, domain):
    """Fold a real even-dimensional system into its conjugate-coupled form.

    The state pairing is ``x = xi_1 + j xi_2`` (first half of the real state
    becomes the real part), and similarly for inputs and outputs.  The
    conversion inverts the real representation blockwise, so it is exact for
    every even-dimensional real system; block-symmetric inputs produce
    exactly-zero second parts, block-antisymmetric inputs exactly-zero first
    parts.
    """
    domain = _coerce_domain(domain)
    pairs = []
    for name, mat in (("a", a), ("b", b), ("c", c), ("d", d)):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] % 2 or mat.shape[1] % 2:
            raise DimensionError(
                f"{name} must be a real matrix with even dimensions, got {mat.shape}"
            )
        pairs.append(Bimatrix.from_real_representation(mat))
    return CxSystem(*pairs, domain)


def real_conversion_residual(mat):
    """Round-trip defect of folding a real matrix through the pair form.

    The representation map is bijective, so this is zero up to floating-point
    noise; it is exposed as a cheap integrity check on external inputs.
    """
    mat = np.asarray(mat, dtype=float)
    rt = Bimatrix.from_real_representation(mat).real_representation()
    return float(np.linalg.norm(mat - rt) / max(1.0, np.linalg.norm(mat)))


def transfer_function_eval(sys, s):
    """Transfer pair ``{C}{sI - A1, -A2}^{-1}{B} + {D}`` at a real frequency ``s``.

    The frequency must be real: the resolvent pair is only well defined when
    ``s`` equals its own conjugate.

    Raises
    ------
    SingularBimatrixError
        If ``s`` belongs to the system spectrum.
    """
    if np.iscomplexobj(s) and complex(s).imag != 0:
        raise ValueError("transfer function evaluation requires a real s")
    s = float(np.real(s))
    n = sys.n
    resolvent = Bimatrix(s * np.eye(n) - sys.a.first, -sys.a.second)
    try:
        rinv = resolvent.inverse()
    except SingularBimatrixError as exc:
        raise SingularBimatrixError(
            f"s = {s} lies in the system spectrum; resolvent is singular"
        ) from exc
    return sys.c @ rinv @ sys.b + sys.d


# ---------------------------------------------------------------------------
# JSON file schema
# ---------------------------------------------------------------------------

_BLOCKS = ("A1", "A2", "B1", "B2", "C1", "C2", "D1", "D2")


def system_to_json(sys):
    """Serialize to the system file schema (all-zero blocks omitted)."""
    obj = {
        "domain": sys.domain.value,
        "n": sys.n,
        "m": sys.m,
        "p": sys.p,
    }
    parts = {
        "A1": sys.a.first, "A2": sys.a.second,
        "B1": sys.b.first, "B2": sys.b.second,
        "C1": sys.c.first, "C2": sys.c.second,
        "D1": sys.d.first, "D2": sys.d.second,
    }
    for name, mat in parts.items():
        if np.any(mat):
            obj[name] = cmatrix_to_json(mat)
    return obj


def _block_shapes(n, m, p):
    return {
        "A1": (n, n), "A2": (n, n),
        "B1": (n, m), "B2": (n, m),
        "C1": (p, n), "C2": (p, n),
        "D1": (p, m), "D2": (p, m),
    }


def _finite_norm(sys):
    """``sys`` itself, or ``ValueError`` when a real-representation norm overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        rep = sys.real_representation()
        norms = [np.linalg.norm(mat) for mat in (rep.a, rep.b, rep.c, rep.d)]
    if not np.all(np.isfinite(norms)):
        raise ValueError("system coefficients are too large: a norm overflows float64")
    return sys


def system_from_json(obj):
    """Parse the system file schema; supports embedded real-system conversion.

    Rejects a system whose real-representation norm overflows (``ValueError``).
    """
    if not isinstance(obj, dict):
        raise ValueError("system file must hold a JSON object")
    if "real_system" in obj:
        if obj.get("convert") is not True:
            raise ValueError('embedded "real_system" requires "convert": true')
        # a fold that overflows is refused as non-finite, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite_norm(_real_system_from_json(obj))
    if "domain" not in obj:
        raise ValueError('system file is missing the "domain" field')
    domain = _coerce_domain(obj["domain"])

    blocks = {}
    for name in _BLOCKS:
        if name in obj:
            blocks[name] = cmatrix_from_json(obj[name], name)

    def dim(key, fallback):
        if key in obj:
            return _json_count(obj[key], f'"{key}" must be a positive integer')
        if fallback is None:
            raise ValueError(
                f'cannot infer dimension "{key}"; give it explicitly or supply more blocks'
            )
        return fallback

    n = dim("n", next((blocks[k].shape[0] for k in ("A1", "A2", "B1", "B2") if k in blocks),
                      next((blocks[k].shape[1] for k in ("C1", "C2") if k in blocks), None)))
    m = dim("m", next((blocks[k].shape[1] for k in ("B1", "B2", "D1", "D2") if k in blocks), None))
    p = dim("p", next((blocks[k].shape[0] for k in ("C1", "C2", "D1", "D2") if k in blocks), None))

    shapes = _block_shapes(n, m, p)
    mats = {}
    for name in _BLOCKS:
        want = shapes[name]
        if name in blocks:
            if blocks[name].shape != want:
                raise DimensionError(
                    f"block {name} has shape {blocks[name].shape}, expected {want}"
                )
            mats[name] = blocks[name]
        else:
            mats[name] = np.zeros(want, dtype=complex)

    return _finite_norm(CxSystem(
        Bimatrix(mats["A1"], mats["A2"]),
        Bimatrix(mats["B1"], mats["B2"]),
        Bimatrix(mats["C1"], mats["C2"]),
        Bimatrix(mats["D1"], mats["D2"]),
        domain,
    ))


def _real_system_from_json(obj):
    payload = obj["real_system"]
    if not isinstance(payload, dict):
        raise ValueError('"real_system" must hold an object with A, B, C, D')
    if "domain" not in obj and "domain" not in payload:
        raise ValueError('real-system file is missing the "domain" field')
    domain = _coerce_domain(payload.get("domain", obj.get("domain")))
    mats = []
    for name in ("A", "B", "C", "D"):
        if name not in payload:
            raise ValueError(f'real_system is missing block "{name}"')
        mat = cmatrix_from_json(payload[name], f"real_system.{name}")
        if np.any(mat.imag != 0):
            raise ValueError(f"real_system.{name} must be real-valued")
        mats.append(mat.real)
    return from_real_system(*mats, domain)
