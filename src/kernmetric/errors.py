"""Exception hierarchy shared across the package."""


class KernmetricError(ValueError):
    """Base class for all validation failures raised by this package."""


class DomainError(KernmetricError):
    """An argument is outside the mathematical domain of an operation."""


OVERFLOW = "kernel values overflow or are undefined on these points"


class ShapeError(KernmetricError):
    """Two objects live on incompatible spaces or grids."""


class ProfileClassError(KernmetricError):
    """A radial profile is not strictly positive definite where required."""


class InjectivityError(KernmetricError):
    """A map fails the numerical injectivity check."""


class DegeneracyError(KernmetricError):
    """A base kernel of an L^p operator kernel has k1(x, x) = 0 at a grid node."""
