"""Seeded synthetic generators for the controlled experiments."""

from __future__ import annotations

import json
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
    coeffs = np.asarray(spec.ar_coeffs)
    p = coeffs.size
    t = np.arange(spec.length)
    deterministic = spec.season_amplitude * np.sin(2.0 * np.pi * t / spec.season_period)
    deterministic = deterministic + spec.trend_slope * t
    x = np.zeros(spec.length)
    for i in range(spec.length):
        ar = 0.0
        for j in range(min(p, i)):
            ar += coeffs[j] * x[i - 1 - j]
        x[i] = ar + eps[i] + deterministic[i]
    return SeriesFrame(x[:, None], ["ar"])


def _lorenz_deriv(state: np.ndarray, sigma: float, rho: float, beta: float) -> np.ndarray:
    x, y, z = state
    return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])


def rk4_step(state: np.ndarray, dt: float, sigma: float, rho: float, beta: float) -> np.ndarray:
    k1 = _lorenz_deriv(state, sigma, rho, beta)
    k2 = _lorenz_deriv(state + 0.5 * dt * k1, sigma, rho, beta)
    k3 = _lorenz_deriv(state + 0.5 * dt * k2, sigma, rho, beta)
    k4 = _lorenz_deriv(state + dt * k3, sigma, rho, beta)
    return state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def gen_lorenz(spec: LorenzSpec) -> SeriesFrame:
    """RK4 trajectory of the Lorenz system, optional additive noise afterwards."""
    states = np.empty((spec.steps, 3))
    state = np.asarray(spec.initial, dtype=np.float64)
    for i in range(spec.steps):
        state = rk4_step(state, spec.dt, spec.sigma, spec.rho, spec.beta)
        if not np.all(np.isfinite(state)):
            raise NumericalError(f"integration diverged at step {i}")
        states[i] = state
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
