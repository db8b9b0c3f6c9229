"""Bimatrix algebra: ordered pairs of complex matrices acting through the conjugate.

A bimatrix ``{A1, A2}`` maps a complex vector ``x`` to ``A1 @ x + conj(A2) @
conj(x)``.  The map is linear over the reals but not over the complexes.  Two
faithful matrix pictures exist: a ``2n x 2m`` *real representation* acting on
stacked (real, imaginary) coordinates, and a ``2n x 2m`` complex *lifting*
acting on stacked ``(x, conj(x))/sqrt(2)`` coordinates.  Both carry sums to
sums and products to products, and the unitary :func:`h_matrix` intertwines
them.  Eigenvalues, exponentials and inverses of a bimatrix are defined
through these representations.
"""

import numpy as np

from .exceptions import DimensionError, SingularBimatrixError, SpectrumError

__all__ = [
    "Bimatrix",
    "HermiteBimatrix",
    "SpectrumSet",
    "h_matrix",
    "e_matrix",
    "arrow",
    "unarrow",
    "breve",
    "block_bimatrix",
    "hermite_from_real_representation",
    "is_positive_definite",
    "quadratic_form_real",
    "conjugate_complete",
    "cmatrix_to_json",
    "cmatrix_from_json",
    "cvector_to_json",
    "cvector_from_json",
    "bimatrix_to_json",
    "bimatrix_from_json",
]

# Reciprocal-condition floor below which an inverse is refused.
RCOND_FLOOR = 1e-12
# Relative symmetry residual allowed by the Hermite check.
HERMITE_RTOL = 1e-10
# Positive definiteness: smallest eigenvalue must exceed this times the norm.
PD_EIG_RTOL = 1e-10
# Relative tolerance when pairing eigenvalues with their conjugates.
CONJ_PAIR_RTOL = 1e-8


def as_cmatrix(a, name="matrix"):
    """Coerce to a 2-D complex array with finite entries (always a copy)."""
    arr = np.array(a, dtype=complex, copy=True)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_cvector(x, name="vector"):
    """Coerce to a 1-D complex array with finite entries."""
    arr = np.array(x, dtype=complex, copy=True).reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _pair(first, second):
    """A :class:`Bimatrix` over complex 2-D arrays the library has just made: no copy.

    The arrays become read-only parts; a non-finite entry (an overflow)
    raises the public constructor's ``ValueError``.
    """
    for name, part in (("first part", first), ("second part", second)):
        if not np.isfinite(part).all():
            raise ValueError(f"{name} contains non-finite entries")
    bm = object.__new__(Bimatrix)
    bm._adopt(first, second)
    return bm


def _as_cvectors(x, name="vector"):
    """A finite 2-D ``x`` as a stack of row vectors; anything else goes to :func:`as_cvector`."""
    arr = np.asarray(x, dtype=complex)
    return arr if arr.ndim == 2 and np.all(np.isfinite(arr)) else as_cvector(arr, name)


class Bimatrix:
    """Ordered pair ``{A1, A2}`` of equal-shape complex matrices.

    The pair acts on a complex vector ``x`` as ``A1 x + conj(A2) conj(x)``.
    Instances are immutable values: the stored arrays belong to the instance
    and are marked read-only, so a bimatrix can be shared freely across threads.
    The real representation, the complex lifting and the eigenvalues are
    computed on first use and kept on the instance; the two representations
    are read-only arrays.  Two threads may both fill the same cache, which is
    harmless, because both compute the same value.

    Parameters
    ----------
    first : array_like
        The part multiplying ``x`` (complex ``n x m``).
    second : array_like
        The part whose conjugate multiplies ``conj(x)``; same shape as
        ``first``.
    """

    __slots__ = ("first", "second", "_real", "_lift", "_spectrum")

    def __init__(self, first, second):
        self._adopt(as_cmatrix(first, "first part"), as_cmatrix(second, "second part"))

    def _adopt(self, first, second):
        """Store two complex 2-D arrays as the parts, without copying them."""
        if first.shape != second.shape:
            raise DimensionError(
                f"bimatrix parts must share a shape, got {first.shape} and {second.shape}"
            )
        first.setflags(write=False)
        second.setflags(write=False)
        for name, value in zip(Bimatrix.__slots__, (first, second, None, None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Bimatrix is immutable")

    def __reduce__(self):
        return type(self), (self.first, self.second)

    # -- shape -------------------------------------------------------------

    @property
    def shape(self):
        return self.first.shape

    @property
    def rows(self):
        return self.first.shape[0]

    @property
    def cols(self):
        return self.first.shape[1]

    @property
    def is_square(self):
        return self.rows == self.cols

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n), np.zeros((n, n)))

    @classmethod
    def zeros(cls, rows, cols=None):
        cols = rows if cols is None else cols
        return cls(np.zeros((rows, cols)), np.zeros((rows, cols)))

    @classmethod
    def normal(cls, first):
        """Pair with vanishing second part: a plain complex matrix."""
        first = as_cmatrix(first, "first part")
        return cls(first, np.zeros_like(first))

    @classmethod
    def antilinear(cls, second):
        """Pair with vanishing first part: acts only through the conjugate."""
        second = as_cmatrix(second, "second part")
        return cls(np.zeros_like(second), second)

    @classmethod
    def from_real_representation(cls, mat):
        """Recover the unique bimatrix whose real representation equals ``mat``.

        ``mat`` must be real with even dimensions ``2n x 2m``.  The inverse is
        computed blockwise, which keeps structural zeros exact (a block-
        symmetric input yields an exactly zero second part).
        """
        mat = np.asarray(mat)
        if np.iscomplexobj(mat):
            if np.any(mat.imag != 0):
                raise ValueError("real representation must be a real matrix")
            mat = mat.real
        mat = mat.astype(float, copy=False)
        if mat.ndim != 2 or mat.shape[0] % 2 or mat.shape[1] % 2:
            raise DimensionError(
                f"real representation must have even dimensions, got {mat.shape}"
            )
        n, m = mat.shape[0] // 2, mat.shape[1] // 2
        m11, m12 = mat[:n, :m], mat[:n, m:]
        m21, m22 = mat[n:, :m], mat[n:, m:]
        first = 0.5 * (m11 + m22) + 0.5j * (m21 - m12)
        second = 0.5 * (m11 - m22) - 0.5j * (m21 + m12)
        return _pair(first, second) if cls is Bimatrix else cls(first, second)

    # -- action and arithmetic -----------------------------------------------

    def apply(self, x):
        """Evaluate ``A1 x + conj(A2) conj(x)`` on the last axis: 2-D ``x`` is a stack of rows."""
        x = _as_cvectors(x)
        if x.shape[-1] != self.cols:
            raise DimensionError(
                f"vector of length {x.shape[-1]} incompatible with {self.shape} bimatrix"
            )
        return x @ self.first.T + np.conj(x) @ np.conj(self.second).T

    def __add__(self, other):
        if not isinstance(other, Bimatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionError(f"cannot add shapes {self.shape} and {other.shape}")
        return _pair(self.first + other.first, self.second + other.second)

    def __sub__(self, other):
        if not isinstance(other, Bimatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionError(f"cannot subtract shapes {self.shape} and {other.shape}")
        return _pair(self.first - other.first, self.second - other.second)

    def __neg__(self):
        return _pair(-self.first, -self.second)

    def __mul__(self, scalar):
        # Only real scalars commute with the action; complex ones do not scale
        # both parts uniformly.
        if not np.isrealobj(np.asarray(scalar)) or np.ndim(scalar) != 0:
            return NotImplemented
        s = float(scalar)
        return _pair(s * self.first, s * self.second)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Bimatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot compose {self.shape} with {other.shape} bimatrix"
            )
        a1, a2 = self.first, self.second
        b1, b2 = other.first, other.second
        return _pair(a1 @ b1 + np.conj(a2) @ b2, np.conj(a1) @ b2 + a2 @ b1)

    def conj_transpose(self):
        """Adjoint pair ``{A1^H, A2^T}``."""
        return _pair(self.first.conj().T, self.second.T)

    @property
    def H(self):
        return self.conj_transpose()

    # -- representations -----------------------------------------------------

    def real_representation(self):
        """Real ``2n x 2m`` matrix acting on stacked (Re x, Im x); cached, read-only."""
        if self._real is None:
            n, m = self.shape
            s = self.first + self.second
            d = self.first - self.second
            rep = np.empty((2 * n, 2 * m))
            rep[:n, :m], rep[:n, m:] = s.real, -s.imag
            rep[n:, :m], rep[n:, m:] = d.imag, d.real
            rep.setflags(write=False)
            object.__setattr__(self, "_real", rep)
        return self._real

    def complex_lifting(self):
        """Complex ``2n x 2m`` matrix acting on stacked ``(x, conj(x))``; cached, read-only."""
        if self._lift is None:
            n, m = self.shape
            lift = np.empty((2 * n, 2 * m), dtype=complex)
            lift[:n, :m], lift[n:, m:] = self.first, np.conj(self.first)
            lift[n:, :m], lift[:n, m:] = self.second, np.conj(self.second)
            lift.setflags(write=False)
            object.__setattr__(self, "_lift", lift)
        return self._lift

    # -- inverse, power, exponent, spectrum ------------------------------------

    def inverse(self):
        """Inverse bimatrix, computed through the complex lifting.

        Raises
        ------
        SingularBimatrixError
            If the lifting's reciprocal condition number falls below
            ``RCOND_FLOOR``.
        """
        if not self.is_square:
            raise DimensionError("only square bimatrices can be inverted")
        lift = self.complex_lifting()
        sv = np.linalg.svd(lift, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= RCOND_FLOOR * sv[0]:
            rc = 0.0 if sv[0] == 0.0 else float(sv[-1] / sv[0])
            raise SingularBimatrixError(
                f"bimatrix is singular to working precision (rcond ~ {rc:.2e})"
            )
        n = self.rows
        rhs = np.vstack([np.eye(n), np.zeros((n, n))]).astype(complex)
        stack = np.linalg.solve(lift, rhs)
        return _pair(stack[:n], stack[n:])

    def power(self, k):
        """``k``-fold composition (identity at ``k = 0``): a power of the real representation."""
        if not self.is_square:
            raise DimensionError("only square bimatrices can be raised to a power")
        k = int(k)
        if k < 0:
            raise ValueError("power expects k >= 0; compose inverse() explicitly")
        rep = np.linalg.matrix_power(self.real_representation(), k)
        return Bimatrix.from_real_representation(rep)

    def expm(self, t=1.0):
        """Bimatrix exponential ``exp(t {A1, A2})``.

        Evaluated as the real matrix exponential of ``t`` times the real
        representation (Pade scaling-and-squaring), mapped back to a pair.
        """
        if not self.is_square:
            raise DimensionError("only square bimatrices have an exponential")
        import scipy.linalg

        rep = scipy.linalg.expm(float(t) * self.real_representation())
        return Bimatrix.from_real_representation(rep)

    def eigenvalues(self):
        """Eigenvalue multiset of the real representation (conjugate-closed); cached."""
        if not self.is_square:
            raise DimensionError("only square bimatrices have eigenvalues")
        if self._spectrum is None:
            spectrum = SpectrumSet(np.linalg.eigvals(self.real_representation()))
            object.__setattr__(self, "_spectrum", spectrum)
        return self._spectrum

    # -- misc ----------------------------------------------------------------

    def allclose(self, other, rtol=1e-9, atol=1e-12):
        return (
            self.shape == other.shape
            and np.allclose(self.first, other.first, rtol=rtol, atol=atol)
            and np.allclose(self.second, other.second, rtol=rtol, atol=atol)
        )

    def __repr__(self):
        return f"Bimatrix(shape={self.shape})"


def h_matrix(n):
    """Unitary ``(1/sqrt 2) [[I, jI], [I, -jI]]`` linking the two pictures.

    Satisfies ``H H^H = I`` and ``H H^T = e_matrix(n)``.
    """
    if n < 1:
        raise ValueError("h_matrix expects n >= 1")
    ey = np.eye(n)
    return np.block([[ey, 1j * ey], [ey, -1j * ey]]) / np.sqrt(2.0)


def e_matrix(n):
    """Block anti-identity ``[[0, I], [I, 0]]`` of order ``2n``."""
    ey = np.eye(n)
    z = np.zeros((n, n))
    return np.block([[z, ey], [ey, z]])


def arrow(x):
    """Stack real and imaginary parts: ``C^m -> R^(2m)``, row by row for a 2-D ``x``."""
    x = _as_cvectors(x)
    return np.concatenate([x.real, x.imag], axis=-1)


def unarrow(v):
    """Inverse of :func:`arrow`; the parts are assigned, not summed, so signed zeros survive."""
    v = np.asarray(v, dtype=float)
    v = v if v.ndim == 2 else v.reshape(-1)
    if v.shape[-1] % 2:
        raise DimensionError("arrow vector must have even length")
    m = v.shape[-1] // 2
    out = np.empty(v.shape[:-1] + (m,), dtype=complex)
    out.real, out.imag = v[..., :m], v[..., m:]
    return out


def breve(x):
    """Stack ``x`` and its conjugate with a ``1/sqrt 2`` factor (norm-preserving)."""
    x = as_cvector(x)
    return np.concatenate([x, np.conj(x)]) / np.sqrt(2.0)


def block_bimatrix(rows):
    """Assemble a bimatrix from a 2-D grid of bimatrix blocks."""
    firsts = [[bm.first for bm in row] for row in rows]
    seconds = [[bm.second for bm in row] for row in rows]
    return Bimatrix(np.block(firsts), np.block(seconds))


class HermiteBimatrix(Bimatrix):
    """Square pair ``{P1, P2}`` with ``P1`` Hermitian and ``P2`` symmetric.

    This is the self-adjoint class of bimatrices: the real representation is
    a symmetric real matrix and the real quadratic form
    ``Re(x^H (P1 x + conj(P2) conj(x)))`` is well defined.  Note that being
    Hermite does not by itself make ``x^H {P1,P2} x`` real.
    """

    __slots__ = ()

    def __init__(self, p1, p2=None):
        p1 = as_cmatrix(p1, "first part")
        self._adopt(p1, np.zeros_like(p1) if p2 is None else as_cmatrix(p2, "second part"))
        if not self.is_square:
            raise DimensionError("Hermite bimatrix must be square")
        fault = _hermite_fault(self)
        if fault:
            raise ValueError(f"{fault} within tolerance")

    def is_positive_definite(self):
        return is_positive_definite(self)

    def __repr__(self):
        return f"HermiteBimatrix(shape={self.shape})"


def hermite_from_real_representation(mat):
    """Map a symmetric real ``2n x 2n`` matrix to its Hermite bimatrix."""
    bm = Bimatrix.from_real_representation(mat)
    return HermiteBimatrix(bm.first, bm.second)


def _hermite_fault(p):
    """The symmetry rule: why the square ``p`` is not a Hermite pair, or ``""``.

    ``P1`` must be Hermitian and ``P2`` symmetric, each within
    ``HERMITE_RTOL * max(1, |part|)`` in the Frobenius norm.
    """
    if np.linalg.norm(p.first - p.first.conj().T) > HERMITE_RTOL * max(
        1.0, np.linalg.norm(p.first)
    ):
        return "first part is not Hermitian"
    if np.linalg.norm(p.second - p.second.T) > HERMITE_RTOL * max(
        1.0, np.linalg.norm(p.second)
    ):
        return "second part is not symmetric"
    return ""


def _is_pd_hermitian(mat):
    """True iff the Hermitian ``mat`` has ``min eig > PD_EIG_RTOL * max |eig|``."""
    w = np.linalg.eigvalsh(mat)
    return float(w[0]) > PD_EIG_RTOL * max(abs(float(w[0])), abs(float(w[-1])))


def is_positive_definite(p):
    """True iff the real representation of ``p`` is symmetric positive definite.

    Accepts any square bimatrix; a pair that fails the symmetry rule of
    :class:`HermiteBimatrix` is reported as not positive definite rather than
    as an error.
    """
    if not p.is_square:
        raise DimensionError("definiteness is defined for square bimatrices")
    if _hermite_fault(p):
        return False
    rep = p.real_representation()
    return _is_pd_hermitian((rep + rep.T) / 2.0)


def quadratic_form_real(p, x):
    """Real quadratic form ``Re(x^H (P1 x + conj(P2) conj(x)))``.

    Equals ``arrow(x)^T  rep  arrow(x)`` where ``rep`` is the real
    representation of ``p``.
    """
    x = as_cvector(x)
    return float(np.real(np.vdot(x, p.apply(x))))


# ---------------------------------------------------------------------------
# Eigenvalue multisets
# ---------------------------------------------------------------------------


def _conjugate_pairing(values):
    """Pair values with their conjugates within ``CONJ_PAIR_RTOL * max(1, |v|)``.

    Returns ``(groups, unpaired)``: ``(i,)`` for a value that counts as real,
    ``(i, j)`` for a pair, and the partnerless indices, every non-finite one too.
    """
    used = (~np.isfinite(values)).tolist()
    vals, groups, unpaired = values.tolist(), [], np.flatnonzero(used).tolist()
    for i in np.argsort(-np.abs(np.imag(values))).tolist():
        if used[i]:
            continue
        used[i] = True
        v, target = vals[i], vals[i].conjugate()
        tol = CONJ_PAIR_RTOL * max(1.0, abs(v))
        if abs(v.imag) <= tol:
            groups.append((i,))
            continue
        free = [j for j in range(len(vals)) if not used[j]]
        j = min(free, key=lambda j: abs(vals[j] - target), default=None)
        if j is not None and abs(vals[j] - target) <= tol:
            used[j] = True
            groups.append((i, j))
        else:
            unpaired.append(i)
    return groups, unpaired


def _spectrum_mismatch(got, want):
    """Largest matching distance ``|g - w| / (1 + |w|)`` between two multisets.

    Each value of ``want`` in turn takes its nearest remaining value of
    ``got`` (greedy matching); ``got`` needs at least as many values.
    """
    got = list(np.asarray(got, dtype=complex))
    dists = []
    for w in np.asarray(want, dtype=complex):
        j = min(range(len(got)), key=lambda i: abs(got[i] - w))
        dists.append(abs(got.pop(j) - w) / (1.0 + abs(w)))
    return float(np.max(dists, initial=0.0))


def conjugate_complete(values):
    """Append missing conjugates so the multiset becomes conjugate-closed."""
    vals = np.asarray(values, dtype=complex).reshape(-1)
    extra = [np.conj(vals[i]) for i in _conjugate_pairing(vals)[1]]
    return np.concatenate([vals, np.asarray(extra, dtype=complex)]) if extra else vals


class SpectrumSet:
    """Multiset of complex eigenvalues, closed under conjugation.

    Construction validates closure (exact, or within a pairing tolerance that
    absorbs eigensolver noise) and sorts the values for deterministic output.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        vals = np.sort_complex(np.asarray(values, dtype=complex).reshape(-1))
        exact = np.isfinite(vals).all() and np.array_equal(vals, np.sort_complex(vals.conj()))
        if not exact and _conjugate_pairing(vals)[1]:
            raise SpectrumError("eigenvalue multiset is not finite and closed under conjugation")
        vals.setflags(write=False)
        object.__setattr__(self, "_values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("SpectrumSet is immutable")

    def __reduce__(self):
        return SpectrumSet, (self._values,)

    @property
    def values(self):
        return self._values

    def __len__(self):
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def matches(self, other, rtol=1e-6):
        """Multiset equality up to ``rtol * (1 + |value|)`` per element."""
        theirs = np.asarray(getattr(other, "values", other), dtype=complex)
        return len(self._values) == len(theirs) and _spectrum_mismatch(
            theirs, self._values
        ) <= rtol

    def __repr__(self):
        return f"SpectrumSet({np.array2string(self._values, precision=4)})"


# ---------------------------------------------------------------------------
# JSON serialization: complex scalars are always [re, im] pairs
# ---------------------------------------------------------------------------


def cmatrix_to_json(a):
    a = as_cmatrix(a)
    data = [[float(v.real), float(v.imag)] for v in a.ravel()]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def _json_count(value, message):
    """The rule for a dimension read from JSON: a positive integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(message)
    return int(value)


def cmatrix_from_json(obj, name="matrix"):
    if not isinstance(obj, dict):
        raise ValueError(f"{name}: expected an object with rows/cols/data")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise ValueError(f"{name}: missing field {exc}") from exc
    rule = f"{name}: rows and cols must be integers >= 1"
    rows, cols = _json_count(rows, rule), _json_count(cols, rule)
    if not isinstance(data, (list, tuple)):
        raise ValueError(f"{name}: data must be a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise ValueError(
            f"{name}: data holds {len(data)} entries, expected {rows * cols}"
        )
    return cvector_from_json(data, name).reshape(rows, cols)


def cvector_to_json(x):
    x = as_cvector(x)
    return [[float(v.real), float(v.imag)] for v in x]


def cvector_from_json(obj, name="vector"):
    if not isinstance(obj, (list, tuple)):
        raise ValueError(f"{name}: expected a list of [re, im] pairs")
    vals = np.empty(len(obj), dtype=complex)
    for i, pair in enumerate(obj):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"{name}: entry {i} is not an [re, im] pair")
        re, im = pair
        # a JSON number: int or float, not bool
        if isinstance(re, bool) or isinstance(im, bool) or not (
            isinstance(re, (int, float)) and isinstance(im, (int, float))
        ):
            raise ValueError(f"{name}: entry {i} holds a non-number")
        try:
            vals[i] = complex(re, im)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"{name}: contains non-finite entries") from None
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{name}: contains non-finite entries")
    return vals


def bimatrix_to_json(bm):
    return {"first": cmatrix_to_json(bm.first), "second": cmatrix_to_json(bm.second)}


def bimatrix_from_json(obj, name="bimatrix"):
    if not isinstance(obj, dict) or "first" not in obj or "second" not in obj:
        raise ValueError(f"{name}: expected an object with first/second matrices")
    return Bimatrix(
        cmatrix_from_json(obj["first"], f"{name}.first"),
        cmatrix_from_json(obj["second"], f"{name}.second"),
    )
