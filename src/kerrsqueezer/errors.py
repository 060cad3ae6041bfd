"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: validation/domain problems exit 1,
numerical failures exit 2, inconsistent observations exit 3.
"""


class KerrSqueezerError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(KerrSqueezerError, ValueError):
    """An argument lies outside its physically meaningful domain."""


class ValidationError(KerrSqueezerError):
    """A configuration failed schema or invariant checks."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


class NumericalError(KerrSqueezerError):
    """A numerical routine failed to bracket or converge."""


class ThresholdError(NumericalError):
    """Operating point at or above the parametric oscillation threshold."""


class InconsistentObservationError(KerrSqueezerError):
    """An observation admits no physical solution under the requested model."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NoSolutionError(InconsistentObservationError):
    """An observation violates basic bounds before any inversion is attempted."""
