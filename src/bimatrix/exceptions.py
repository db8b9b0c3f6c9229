"""Exception hierarchy shared by the library and the CLI."""


class BimatrixError(Exception):
    """Base class for all library-specific errors."""


class DimensionError(BimatrixError, ValueError):
    """Operands have incompatible or malformed shapes."""


class SingularBimatrixError(BimatrixError):
    """A bimatrix (equivalently its lifting) is singular to working precision."""


class SpectrumError(BimatrixError, ValueError):
    """An eigenvalue multiset violates a required property (closure, size, region)."""


class NoUniqueSolutionError(BimatrixError):
    """A Lyapunov/Stein operator is singular; the equation has no unique solution."""


class NoPositiveDefiniteSolutionError(BimatrixError):
    """The equation was solved but admits no positive definite solution."""


class InfeasibleError(BimatrixError):
    """A design problem has no solution for structural reasons."""


class NotControllableError(InfeasibleError):
    pass


class NotStabilizableError(InfeasibleError):
    pass


class NotObservableError(InfeasibleError):
    pass


class PlacementError(BimatrixError):
    """Eigenvalue placement failed numerically after retries."""


class RiccatiError(BimatrixError):
    """A Riccati solve failed, missed its residual gate, or its solution fails its invariants."""
