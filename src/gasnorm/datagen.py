"""Seeded synthetic generators for the controlled experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import NumericalError, Range, ValidationError, check_fields, to_json, write_json
from .series import SeriesFrame


@dataclass(frozen=True)
class ArSpec:
    """Autoregression plus sinusoidal seasonality and linear trend."""

    length: Annotated[int, Range(1)] = 1000
    ar_coeffs: tuple[float, ...] = (0.9,)
    noise_std: Annotated[float, Range(0, low_open=True)] = 1.0
    season_amplitude: float = 0.0
    season_period: Annotated[int, Range(1)] = 12
    trend_slope: float = 0.0
    seed: Annotated[int, Range(0)] = 0
    require_stable: bool = False

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class LorenzSpec:
    """Fixed-step integration of the Lorenz system.

    ``noise_std = None`` selects the default of 0.5% of each
    coordinate's clean standard deviation; 0 disables noise.
    """

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    dt: Annotated[float, Range(0, 0.05, low_open=True)] = 0.01
    steps: Annotated[int, Range(1)] = 5000
    initial: tuple[float, float, float] = (1.0, 1.0, 1.0)
    noise_std: Annotated[float | None, Range(0)] = None
    seed: Annotated[int, Range(0)] = 0

    def __post_init__(self):
        check_fields(self)


def ar_is_stable(ar_coeffs) -> bool:
    """True when all roots of 1 - a_1 z - ... - a_p z^p lie outside the unit circle."""
    coeffs = np.asarray(ar_coeffs, dtype=np.float64)
    roots = np.roots(np.concatenate(([1.0], -coeffs))[::-1])
    return bool(np.all(np.abs(roots) > 1.0))


def gen_ar(spec: ArSpec) -> SeriesFrame:
    """x_t = sum_i a_i x_{t-i} + eps_t + A sin(2 pi t / P) + slope * t."""
    if spec.require_stable and not ar_is_stable(spec.ar_coeffs):
        raise ValidationError(f"unstable AR coefficients {spec.ar_coeffs}")
    rng = np.random.default_rng(spec.seed)
    eps = rng.normal(0.0, spec.noise_std, size=spec.length)
    coeffs = [float(a) for a in spec.ar_coeffs]
    p = len(coeffs)
    t = np.arange(spec.length)
    deterministic = spec.season_amplitude * np.sin(2.0 * np.pi * t / spec.season_period)
    deterministic = deterministic + spec.trend_slope * t
    # the recursion runs on Python floats: the same IEEE-754 results as numpy scalars, faster
    x = []
    for i, (e, d) in enumerate(zip(eps.tolist(), deterministic.tolist())):
        ar = 0.0
        for j in range(min(p, i)):
            ar += coeffs[j] * x[i - 1 - j]
        x.append(ar + e + d)
    return SeriesFrame(np.array(x)[:, None], ["ar"])


def rk4_step(x, y, z, dt, sigma, rho, beta):
    """One classic Runge-Kutta step of the Lorenz system, on Python floats."""
    h = 0.5 * dt
    k1x, k1y, k1z = sigma * (y - x), x * (rho - z) - y, x * y - beta * z
    x2, y2, z2 = x + h * k1x, y + h * k1y, z + h * k1z
    k2x, k2y, k2z = sigma * (y2 - x2), x2 * (rho - z2) - y2, x2 * y2 - beta * z2
    x3, y3, z3 = x + h * k2x, y + h * k2y, z + h * k2z
    k3x, k3y, k3z = sigma * (y3 - x3), x3 * (rho - z3) - y3, x3 * y3 - beta * z3
    x4, y4, z4 = x + dt * k3x, y + dt * k3y, z + dt * k3z
    k4x, k4y, k4z = sigma * (y4 - x4), x4 * (rho - z4) - y4, x4 * y4 - beta * z4
    w = dt / 6.0
    return (
        x + w * (((k1x + 2.0 * k2x) + 2.0 * k3x) + k4x),
        y + w * (((k1y + 2.0 * k2y) + 2.0 * k3y) + k4y),
        z + w * (((k1z + 2.0 * k2z) + 2.0 * k3z) + k4z),
    )


def gen_lorenz(spec: LorenzSpec) -> SeriesFrame:
    """RK4 trajectory of the Lorenz system, optional additive noise afterwards."""
    isfinite = math.isfinite
    sigma, rho, beta, dt = spec.sigma, spec.rho, spec.beta, spec.dt
    x, y, z = (float(v) for v in spec.initial)
    rows = []
    for i in range(spec.steps):
        x, y, z = rk4_step(x, y, z, dt, sigma, rho, beta)
        if not (isfinite(x) and isfinite(y) and isfinite(z)):
            raise NumericalError(f"integration diverged at step {i}")
        rows.append((x, y, z))
    states = np.array(rows)
    if spec.noise_std is None:
        noise_std = 0.005 * states.std(axis=0)
    else:
        noise_std = np.full(3, float(spec.noise_std))
    if np.any(noise_std > 0):
        rng = np.random.default_rng(spec.seed)
        states = states + rng.normal(0.0, 1.0, size=states.shape) * noise_std
    return SeriesFrame(states, ["x", "y", "z"])


DATASET_KINDS = {"ar": ArSpec, "lorenz": LorenzSpec}


def dataset_kind(spec: ArSpec | LorenzSpec) -> str:
    """The kind under which ``DATASET_KINDS`` holds the class of ``spec``."""
    return next(kind for kind, cls in DATASET_KINDS.items() if isinstance(spec, cls))


def write_spec_sidecar(spec, path) -> None:
    """Write ``{"kind": ..., **fields}``: a ``gen --config`` file and an experiment dataset."""
    write_json({"kind": dataset_kind(spec), **to_json(spec)}, path)
