"""Exception hierarchy shared by all modules.

Each class carries the CLI exit code it maps to, as ``exit_code``: 1 for
parsing, 2 for domain/validation/configuration/identifiability, 3 for
convergence and fit failures.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class DomainError(ToolkitError, ValueError):
    """An argument is outside the physical or contractual domain."""


class ValidationError(ToolkitError, ValueError):
    """A constructed value violates its invariants."""


class ConfigurationError(ToolkitError, ValueError):
    """A configuration document or registry entry is unusable."""


class ParseError(ToolkitError):
    """A data file could not be parsed; carries the offending line."""

    exit_code = 1

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConvergenceError(ToolkitError):
    """An iterative computation exhausted its budget.

    ``partial`` carries the best available result, when one exists.
    """

    exit_code = 3

    def __init__(self, message: str, partial=None):
        self.partial = partial
        super().__init__(message)


class IdentifiabilityError(ToolkitError, ValueError):
    """A fit design cannot separate the requested parameters."""


class FitError(ToolkitError):
    """A least-squares fit failed to converge."""

    exit_code = 3
