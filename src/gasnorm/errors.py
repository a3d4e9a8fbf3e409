"""Exception hierarchy shared across the package, and the JSON contract.

The CLI maps ValidationError (and unreadable files) to exit code 1 and
NumericalError to exit code 2; everything else is a plain crash. Every
JSON file is written from ``to_json`` and read back through ``from_keys``.
"""

import enum
from dataclasses import fields, is_dataclass

import numpy as np


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


def to_json(obj):
    """``obj`` as plain JSON values, the inverse of reading it with ``from_keys``.

    A dataclass becomes an object of its fields in declaration order, an
    enum its value and an ndarray (or numpy scalar) a list (or number);
    dicts, lists and tuples are converted entry by entry.
    """
    if is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    return obj
