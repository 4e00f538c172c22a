"""Exception hierarchy shared across the package."""


class HolderLabError(Exception):
    """Base class for all errors raised by holderlab."""


class ShapeError(HolderLabError, ValueError):
    """Matrix shapes are inconsistent with the requested operation."""


class ParameterError(HolderLabError, ValueError):
    """A scalar parameter (p, theta, q, ...) is outside its admissible range."""


class DomainError(HolderLabError, ValueError):
    """An input matrix or scalar lies outside the mathematical domain."""


class SingularityError(HolderLabError, ArithmeticError):
    """A symbol or divided difference was evaluated at a singular point."""


class CapabilityError(HolderLabError, ValueError):
    """The requested computation exceeds what the object can provide
    (e.g. derivative order beyond the catalog entry, infinite seminorm)."""


class EigensolverError(HolderLabError, RuntimeError):
    """The underlying eigensolver failed; carries the residual norm if known."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
