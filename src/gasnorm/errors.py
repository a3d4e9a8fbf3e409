"""Exception hierarchy shared across the package, and the JSON contract.

The CLI maps ValidationError (and unreadable files) to exit code 1 and
NumericalError to exit code 2; everything else is a plain crash. Every
JSON file is written by ``write_json`` from ``to_json`` and read back by
``read_json`` and ``from_keys``; dataclasses check their field types, and
the ranges their annotations declare, with ``check_fields``.
"""

import enum
import functools
import json
import math
import sys
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from numbers import Integral, Real

import numpy as np


class GasNormError(Exception):
    """Base class for all package errors."""


class ValidationError(GasNormError, ValueError):
    """Bad arguments, malformed files, or violated preconditions."""


class NumericalError(GasNormError, ArithmeticError):
    """Non-finite values or other numerical failures during computation."""


class FitError(NumericalError):
    """A fit could not start, or a frame's fit failed and not only on invalid input."""


def check_keys(d, where: str, required=(), allowed=None) -> dict:
    """Return ``d`` if it is a dict with every ``required`` key and none outside ``allowed``.

    Otherwise one ValidationError names every missing and every unknown key.
    """
    if not isinstance(d, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(d).__name__}")
    missing = [k for k in required if k not in d]
    unknown = [] if allowed is None else sorted(set(d) - set(allowed))
    problems = [f"{what} keys {keys}" for what, keys in
                (("is missing", missing), ("has unknown", unknown)) if keys]
    if problems:
        raise ValidationError(f"{where} {' and '.join(problems)}")
    return d


@dataclass(frozen=True, slots=True)
class Range:
    """The interval a number, or each entry of a tuple of numbers, must lie in.

    A field declares it beside its type: ``Annotated[float, Range(0, 1, high_open=True)]``
    is a float in [0, 1), and ``Annotated[int, Range(1)]`` an integer of at least 1.
    """

    low: float
    high: float = math.inf
    low_open: bool = False
    high_open: bool = False

    def __str__(self) -> str:
        if self.high == math.inf:
            return f"{'above' if self.low_open else 'at least'} {self.low}"
        return (f"in {'(' if self.low_open else '['}{self.low}, "
                f"{self.high}{')' if self.high_open else ']'}")

    def check(self, value, name: str):
        """``value``, or a ValidationError naming ``name`` if it lies outside the range."""
        if not ((self.low < value if self.low_open else self.low <= value)
                and (value < self.high if self.high_open else value <= self.high)):
            raise ValidationError(f"{name} must be {self}, got {value}")
        return value


@functools.cache
def _annotations(cls) -> tuple:
    """Per field of ``cls``: its name, its type and the Range its annotation declares, or None.

    The Range is split from its ``Annotated`` alias here, once per class, so
    ``check_fields`` dispatches on the plain type.
    """
    hints = typing.get_type_hints(cls, include_extras=True)
    split = [typing.get_args(h) if typing.get_origin(h) is typing.Annotated else (h, None)
             for h in (hints[f.name] for f in fields(cls))]
    return tuple((f.name, tp, bound) for f, (tp, bound) in zip(fields(cls), split))


_SCALARS = {bool: (bool, "true or false"), int: (Integral, "an integer"),
            float: (Real, "a finite number")}


def check_value(tp, value, name: str, bound: Range | None):
    """``value`` as the annotation ``tp`` asks and within ``bound``, or a ValidationError
    naming ``name``; a tuple's entries are each checked against ``bound``."""
    if tp in _SCALARS:
        kind, want = _SCALARS[tp]
        # only bool takes a bool; the bound rejects NaN, infinities and overlarge integers
        ok = type(value) is tp or (isinstance(value, kind) and not isinstance(value, bool))
        ok = ok and (tp is bool or abs(value) <= sys.float_info.max)
    elif isinstance(tp, enum.EnumMeta):
        ok = isinstance(value, tp) or value in [m.value for m in tp]
        want = f"one of {[m.value for m in tp]}"
    elif len(args := typing.get_args(tp)) == 2 and args[1] is type(None):  # X | None
        return None if value is None else check_value(args[0], value, name, bound)
    elif typing.get_origin(tp) is tuple:
        value = value.tolist() if isinstance(value, np.ndarray) else value
        ok = isinstance(value, (list, tuple)) and (args[-1] is ... or len(value) == len(args))
        if ok:
            types = args[:1] * len(value) if args[-1] is ... else args
            return tuple(check_value(types[i], v, f"{name} entry {i}", bound)
                         for i, v in enumerate(value))
        want = "a list" if args[-1] is ... else f"a list of {len(args)} entries"
    else:
        return value  # arrays, dicts and unions are the class's own to check
    if not ok:
        raise ValidationError(f"{name} must be {want}, got {value!r}")
    value = value if type(value) is tp else tp(value)
    return value if bound is None else bound.check(value, name)


def check_fields(obj) -> None:
    """Check each field of the dataclass ``obj`` against its annotation; store the converted value.

    Fields annotated int, float, bool, an enum, ``tuple[X, ...]``, ``tuple[X, Y]`` or
    ``X | None`` are checked here, each against the Range an ``Annotated`` annotation
    declares; other annotations are left to the class.
    """
    for name, tp, bound in _annotations(type(obj)):
        object.__setattr__(obj, name, check_value(tp, getattr(obj, name), name, bound))


def from_keys(cls, d, where: str, required=()):
    """Build the dataclass ``cls`` from ``d``, naming any missing or unknown key.

    Fields without a default and those in ``required`` must be present. A
    nested dataclass given as an object is read the same way, under
    ``f"{where} {name}"``. A value of the wrong type or outside its range
    fails the dataclass's own checks and is reported under ``where``.
    """
    required = [f.name for f in fields(cls) if f.name in required
                or (f.default is MISSING and f.default_factory is MISSING)]
    kwargs = dict(check_keys(d, where, required, [f.name for f in fields(cls)]))
    for name, tp, _ in _annotations(cls):
        if is_dataclass(tp) and name in kwargs and not isinstance(kwargs[name], tp):
            kwargs[name] = from_keys(tp, kwargs[name], f"{where} {name}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from None


def to_json(obj):
    """``obj`` as plain JSON values, the inverse of reading it with ``from_keys``.

    A dataclass becomes an object of its fields in declaration order, an
    enum its value and an ndarray (or numpy scalar) a list (or number);
    dicts, lists and tuples are converted entry by entry. A NaN or infinite
    float becomes None, so the JSON holds ``null``: strict parsers reject
    ``NaN`` and ``Infinity``.
    """
    if is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_json(obj, path) -> None:
    """Write ``to_json(obj)`` to ``path`` as UTF-8 strict JSON, indented by 2."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json(obj), fh, indent=2, allow_nan=False)


def read_json(path):
    """The JSON value in the UTF-8 file ``path``; a ValidationError if it is not valid JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from None
