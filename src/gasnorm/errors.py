"""Exception hierarchy shared across the package, and key checks for parsed JSON.

The CLI maps ValidationError (and unreadable files) to exit code 1 and
NumericalError to exit code 2; everything else is a plain crash.
"""

from dataclasses import fields


class GasNormError(Exception):
    """Base class for all package errors."""


class ValidationError(GasNormError, ValueError):
    """Bad arguments, malformed files, or violated preconditions."""


class NumericalError(GasNormError, ArithmeticError):
    """Non-finite values or other numerical failures during computation."""


class FitError(NumericalError):
    """A fit could not start, or every feature failed and not all on invalid input."""


def check_keys(d, where: str, required=(), allowed=None) -> dict:
    """Return ``d`` if it is a dict with every ``required`` key and none outside ``allowed``."""
    if not isinstance(d, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(d).__name__}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ValidationError(f"{where} is missing keys {missing}")
    unknown = [] if allowed is None else sorted(set(d) - set(allowed))
    if unknown:
        raise ValidationError(f"{where} has unknown keys {unknown}")
    return d


def from_keys(cls, d, where: str, required=()):
    """Build the dataclass ``cls`` from ``d``, naming any missing or unknown key.

    A value of the wrong type or outside its set, such as a string where
    a number belongs or an unknown enum name, fails the dataclass's own
    checks with a TypeError or ValueError; it is reported as invalid
    input under ``where``.
    """
    kwargs = check_keys(d, where, required, [f.name for f in fields(cls)])
    try:
        return cls(**kwargs)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from None
