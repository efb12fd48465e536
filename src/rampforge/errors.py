"""Exception types shared across the package."""

from __future__ import annotations


class RampError(Exception):
    """Base class for everything raised deliberately by this package."""


class ParameterError(RampError, ValueError):
    """Invalid physical or configuration parameter.

    ``code`` distinguishes the failure class so callers can react without
    parsing the message: ``"angle_range"`` for friction angles outside the
    admissible interval, ``"magnitude"`` for nonpositive or nonfinite
    magnitudes, ``"hemisphere"`` for a direction that is not a finite unit
    vector on the closed south hemisphere, ``"config"`` for malformed run
    configuration.
    """

    def __init__(self, message: str, code: str = "magnitude"):
        super().__init__(message)
        self.code = code


class SingularFieldError(RampError):
    """A tangent field was evaluated inside its singular set."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class ContractViolationError(RampError):
    """An input broke a precondition that verification relies on."""
