"""Exception types shared across the package, and its one parameter check."""

import math


class Error(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(Error, ValueError):
    """A distribution or operation parameter violates its constraint."""


def finite_positive(name: str, value) -> float:
    """``value`` as a float, or InvalidParameterError unless finite and > 0."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidParameterError(f"{name} must be finite and > 0, got {value}")
    return value


class NotInvertibleError(Error):
    """The pdf is not strictly monotone, so it has no usable inverse."""


class NotMonotoneError(Error):
    """The operation requires a density with a strictly monotone pdf."""


class OutOfRangeError(Error, ValueError):
    """A requested value lies outside the attainable range."""


class InconsistentTransformError(Error):
    """Supplied inverse or derivative disagrees with the forward map."""


class UnsupportedSamplerError(Error):
    """No sampling strategy is available for this density."""


class DisjointSupportError(Error):
    """The two supports do not intersect."""


class SupportMismatchError(Error):
    """Discrete distributions are defined on different supports."""


class QuadratureConvergenceError(Error):
    """Adaptive integration hit the subdivision limit.

    Carries the best available estimate so callers can inspect how far
    the integration got before giving up.
    """

    def __init__(self, message, value, abs_error_estimate, subdivisions):
        super().__init__(message)
        self.value = value
        self.abs_error_estimate = abs_error_estimate
        self.subdivisions = subdivisions


class NoConvergenceError(Error):
    """An iterative fit failed to converge."""


class NonPositiveDataError(Error, ValueError):
    """Data must be strictly positive for this operation."""


class DegenerateDataError(Error, ValueError):
    """Data has zero variance (or is otherwise degenerate)."""


class ThresholdViolationError(Error):
    """A candidate's divergence meets or exceeds the acceptance threshold."""


class NoValidCandidatesError(Error):
    """Every candidate was disqualified."""


class SpecParseError(Error, ValueError):
    """A textual distribution spec or data file could not be parsed."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position
