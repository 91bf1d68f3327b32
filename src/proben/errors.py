"""Exception types shared across the package."""


class FusionError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateWeightsError(FusionError):
    """Empty input or all-zero weights where a convex combination is required."""


class InvalidScoreError(FusionError):
    """Score vector contains NaN or other non-finite entries."""


class EmptyClusterError(FusionError):
    """A fusion rule was applied to an empty member list."""


class ConfigurationError(FusionError):
    """Inconsistent or invalid configuration (bad threshold, unknown modality, ...)."""


class MissingVarianceError(FusionError):
    """Variance-weighted box fusion requested but a member carries no box variance."""


class ParseError(FusionError):
    """Malformed or unreadable input file; carries the offending path and line
    number (None for a file that cannot be opened)."""

    def __init__(self, path, line_number, message):
        self.path = str(path)
        self.line_number = line_number
        where = self.path if line_number is None else f"{self.path}:{line_number}"
        super().__init__(f"{where}: {message}")
