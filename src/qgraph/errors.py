"""Exception hierarchy: one family per failure exit code of the command line.

QGraphValidationError is bad input (exit 2) and QGraphNumericalError is a
numerical procedure that cannot certify its result (exit 3); each raise site
says in its message which rule failed.  InvalidGraphError, a validation
error, lists every structural violation of a graph in ``.violations``.
"""

__all__ = [
    "QGraphError",
    "QGraphValidationError",
    "QGraphNumericalError",
    "InvalidGraphError",
]


class QGraphError(Exception):
    """Base class for all package errors."""


class QGraphValidationError(QGraphError):
    """Bad input: malformed graphs, noise specs, or arguments."""


class QGraphNumericalError(QGraphError):
    """A numerical procedure failed or cannot certify its result."""


class InvalidGraphError(QGraphValidationError):
    """The graph fails structural validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid graph: " + "; ".join(self.violations))
