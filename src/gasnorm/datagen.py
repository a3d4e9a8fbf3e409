"""Seeded synthetic generators for the controlled experiments."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, check_fields, to_json
from .series import SeriesFrame


@dataclass(frozen=True)
class ArSpec:
    """Autoregression plus sinusoidal seasonality and linear trend."""

    length: int = 1000
    ar_coeffs: tuple[float, ...] = (0.9,)
    noise_std: float = 1.0
    season_amplitude: float = 0.0
    season_period: int = 12
    trend_slope: float = 0.0
    seed: int = 0
    require_stable: bool = False

    def __post_init__(self):
        check_fields(self)
        for name in ("length", "noise_std", "season_period"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class LorenzSpec:
    """Fixed-step integration of the Lorenz system.

    ``noise_std = None`` selects the default of 0.5% of each
    coordinate's clean standard deviation; 0 disables noise.
    """

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    dt: float = 0.01
    steps: int = 5000
    initial: tuple[float, float, float] = (1.0, 1.0, 1.0)
    noise_std: float | None = None
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.dt <= 0.05:
            raise ValidationError("dt must lie in (0, 0.05]")
        if self.steps < 1:
            raise ValidationError("steps must be at least 1")
        if self.noise_std is not None and self.noise_std < 0:
            raise ValidationError("noise_std must be non-negative")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")


def ar_is_stable(ar_coeffs) -> bool:
    """True when all roots of 1 - a_1 z - ... - a_p z^p lie outside the unit circle."""
    coeffs = np.asarray(ar_coeffs, dtype=np.float64)
    if coeffs.size == 0:
        return True
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


def write_spec_sidecar(spec, path) -> None:
    """JSON sidecar describing the generator, for reproducibility."""
    with open(path, "w") as fh:
        json.dump({**to_json(spec), "generator": type(spec).__name__}, fh, indent=2)
