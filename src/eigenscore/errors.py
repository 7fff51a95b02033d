"""Exception hierarchy shared across the package."""


class EigenScoreError(Exception):
    """Base class for all library errors."""


class InvalidInputError(EigenScoreError, ValueError):
    """An argument violates a precondition (non-finite, out of range, mismatched)."""


class CapacityError(EigenScoreError):
    """A basis or table is too small to represent a requested quantity exactly."""


class DomainError(EigenScoreError):
    """A point lies outside the domain of the forward process."""


class DegenerateInputError(EigenScoreError):
    """Input data is degenerate (e.g. a coordinate with zero range)."""


class IllConditionedError(EigenScoreError):
    """The preconditioned system is numerically singular."""

    def __init__(self, message, condition_estimate):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class NonConvergenceError(EigenScoreError):
    """The ODE integrator exhausted its step budget or met a non-finite field."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class UnsupportedTargetError(EigenScoreError):
    """The requested reference target is not available for this operation."""


class ConfigError(EigenScoreError):
    """A run configuration failed validation."""
