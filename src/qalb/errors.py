"""Exception types shared across the package.

Every guard failure raises a subclass of QalbError so callers (and the CLI)
can map failures to exit codes without string matching.
"""


class QalbError(Exception):
    """Base class for all package errors."""


class OmegaOutOfRange(QalbError):
    """Relaxation parameter omega outside the stable interval (0, 2)."""


class TauTooSmall(QalbError):
    """Relaxation time tau <= dt/2, outside the stable collision regime."""


class ZeroDensity(QalbError):
    """Per-site density rho <= 0 where moments require rho > 0."""


class SingularTime(QalbError):
    """Closed-form logistic solution evaluated at or past its finite-time
    singularity."""

    def __init__(self, message, t_singular=None):
        super().__init__(message)
        self.t_singular = t_singular


class TooLarge(QalbError):
    """A combinatorial or dimensional guard was exceeded."""


class DimMismatch(QalbError):
    """Operands have incompatible dimensions."""


class OutOfRange(QalbError):
    """Encoded value outside the domain [-1, 1]."""


class IndexOutOfRange(QalbError):
    """Qubit index outside the register layout."""


class NegativeRadicand(QalbError):
    """Quadratic-root radicand is negative."""


class DiscriminantNotClosed(QalbError):
    """Completed-square identity b'^2 - 4 a' c' = 0 failed beyond tolerance."""


class NonFinite(QalbError):
    """A matrix or state contains non-finite entries."""
