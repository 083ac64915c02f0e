"""Exception hierarchy.

Two broad families matter for the command line tool: input/validation
problems (exit code 2) and numerical failures (exit code 3).
"""

__all__ = [
    "QGraphError",
    "QGraphValidationError",
    "QGraphNumericalError",
    "InvalidGraphError",
    "NotATreeError",
    "SameVertexError",
    "UnknownVertexError",
    "OmitNotBoundaryError",
    "InfeasiblePathUnionError",
    "InvalidPathUnionError",
    "NotPSDError",
    "AsymmetricMatrixError",
    "ConvergenceFailureError",
    "SolveFailureError",
    "CovarianceNotPSDError",
    "SpectralGapAmbiguousError",
    "SpectrumTooCoarseError",
]


class QGraphError(Exception):
    """Base class for all package errors."""


class QGraphValidationError(QGraphError):
    """Bad input: malformed graphs, noise specs, or arguments."""


class QGraphNumericalError(QGraphError):
    """A numerical procedure failed or cannot certify its result."""


# -- validation -------------------------------------------------------------

class InvalidGraphError(QGraphValidationError):
    """The graph fails structural validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid graph: " + "; ".join(self.violations))


class NotATreeError(QGraphValidationError):
    pass


class SameVertexError(QGraphValidationError):
    pass


class UnknownVertexError(QGraphValidationError):
    pass


class OmitNotBoundaryError(QGraphValidationError):
    pass


class InfeasiblePathUnionError(QGraphValidationError):
    pass


class InvalidPathUnionError(QGraphValidationError):
    pass


class NotPSDError(QGraphValidationError):
    pass


class AsymmetricMatrixError(QGraphValidationError):
    pass


# -- numerics ---------------------------------------------------------------

class ConvergenceFailureError(QGraphNumericalError):
    pass


class SolveFailureError(QGraphNumericalError):
    pass


class CovarianceNotPSDError(QGraphNumericalError):
    pass


class SpectralGapAmbiguousError(QGraphNumericalError):
    pass


class SpectrumTooCoarseError(QGraphNumericalError):
    pass
