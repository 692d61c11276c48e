"""Exception types shared across the toolkit."""


class AnalysisError(ValueError):
    """Base class for all toolkit errors."""


class DomainError(AnalysisError):
    """A point or parameter lies outside its documented domain."""


class WindowError(AnalysisError):
    """A window is malformed or incompatible with the data."""


class EmptyWindowError(WindowError):
    """No cube of the finest scale fits inside the window."""


class OutOfWindowError(WindowError):
    """Queried point lies outside the analysis window."""


class ScaleError(AnalysisError):
    """Requested scale range is unavailable or too short."""


class FilterError(AnalysisError):
    """Unknown wavelet filter."""


class RangeError(AnalysisError):
    """A result lies beyond the range of double-precision floats."""


class SignalError(AnalysisError):
    """Signal has the wrong length or contains invalid values."""


class RadiusError(AnalysisError):
    """Local-analysis radius leaves too few cubes at the finest scale."""


class CoverageError(AnalysisError):
    """Base-point grid does not cover the requested window."""


class ModelError(AnalysisError):
    """Model specification is invalid or of an unsupported kind."""
