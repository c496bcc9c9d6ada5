"""Exception and warning types shared across the package."""


class MrtfitError(Exception):
    """Base class for all package errors."""


class DomainError(MrtfitError, ValueError):
    """An argument is outside the physically meaningful domain."""


class ValidationError(MrtfitError, ValueError):
    """A composite object violates one of its invariants."""


class DatasetFormatError(ValidationError):
    """A dataset file cannot be parsed or fails row-level validation."""

    def __init__(self, message, line=None, path=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class ConfigError(ValidationError):
    """A run-configuration file contains unknown or invalid entries."""


class ConvergenceError(MrtfitError):
    """An iterative solver failed to converge; carries best-so-far state."""

    def __init__(self, message, best=None):
        self.best = best
        super().__init__(message)


class SingleWellError(ValidationError):
    """The circuit parameters do not produce a double-well potential."""


class ReportError(ValidationError):
    """A fit report fails its self-consistency check on load."""


class ModelValidityWarning(UserWarning):
    """A parameter combination strains a model assumption (not fatal)."""
