"""Exception hierarchy: one family per failure exit code of the command line.

QGraphValidationError, also a ValueError, is bad input (exit 2) and
QGraphNumericalError a result the numerics cannot certify (exit 3); each
raise site names the rule that failed.  Any other ValueError is a program
fault (exit 3), and a missing file stays an OSError (exit 2).
InvalidGraphError lists every structural violation of a graph in ``.violations``.
"""

__all__ = [
    "QGraphError",
    "QGraphValidationError",
    "QGraphNumericalError",
    "InvalidGraphError",
]


class QGraphError(Exception):
    """Base class for all package errors."""


class QGraphValidationError(QGraphError, ValueError):
    """Bad input: malformed graphs, noise specs, or arguments."""


class QGraphNumericalError(QGraphError):
    """A numerical procedure failed or cannot certify its result."""


class InvalidGraphError(QGraphValidationError):
    """The graph fails structural validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid graph: " + "; ".join(self.violations))
