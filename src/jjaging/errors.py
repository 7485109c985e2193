"""Exception types shared across the package."""

__all__ = ["JJAgingError", "ParameterError", "ConfigurationError", "ValidationError",
           "InsufficientDataError", "ParseError"]


class JJAgingError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(JJAgingError, ValueError):
    """A physical or model parameter is outside its allowed domain."""


class ConfigurationError(JJAgingError, ValueError):
    """A lookup table or configuration entry needed for the request is missing."""


class ValidationError(JJAgingError, ValueError):
    """Structured inputs (schedules, sample grids, event lists) are inconsistent."""


class InsufficientDataError(JJAgingError, ValueError):
    """Not enough usable data points for the requested computation."""


class ParseError(JJAgingError, ValueError):
    """A text input file violates its schema.

    ``lines`` holds the offending 1-based line numbers when known.
    """

    def __init__(self, message: str, lines: list[int] | None = None):
        super().__init__(message)
        self.lines = list(lines) if lines else []
