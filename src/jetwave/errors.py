"""Exception types shared across the package."""


class JetwaveError(Exception):
    """Base class for all package errors."""


class DomainViolationError(JetwaveError):
    """A field left its admissible range (e.g. nonpositive radius)."""


class ConvergenceError(JetwaveError):
    """Iterative solve failed to reach the requested tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class EllipticityError(JetwaveError):
    """A symbol required to be elliptic failed the check."""


class ConfigError(JetwaveError):
    """Invalid run configuration; the message names the offending key."""
