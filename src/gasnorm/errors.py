"""Exception hierarchy shared across the package.

The CLI maps ValidationError (and unreadable files) to exit code 1 and
NumericalError to exit code 2; everything else is a plain crash.
"""


class GasNormError(Exception):
    """Base class for all package errors."""


class ValidationError(GasNormError, ValueError):
    """Bad arguments, malformed files, or violated preconditions."""


class NumericalError(GasNormError, ArithmeticError):
    """Non-finite values or other numerical failures during computation."""


class FitError(NumericalError):
    """A fit could not start, or every feature failed; carries per-feature diagnostics."""

    def __init__(self, message: str, diagnostics: list | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or []
