"""Static parameter estimation for the score-driven filter.

The objective trades the prediction-error-decomposition log-likelihood
against an information-weighted penalty on how far each update step
moved the state, weighted gamma vs (1 - gamma). It is maximized per
feature with a bounded Nelder-Mead simplex search and multiplicative
multi-start, which copes with the non-smoothness near the stability
boundary without needing gradients. The restarts are independent and
run in parallel worker processes.

scipy is imported by ``fit`` alone, so a command that never fits does not
load it.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import FitError, ValidationError, check_at_least, check_fields
from .filtering import Family, GasParams, filter_series
from .series import SeriesFrame

if TYPE_CHECKING:
    from scipy.optimize import OptimizeResult

_MOMENT_FLOOR = 1e-8


@dataclass(frozen=True)
class FitConfig:
    gamma: float = 0.5
    family: Family = Family.STUDENT_T
    max_iters: int = 400
    restarts: int = 3
    seed: int = 0
    fit_nu: bool = False
    nu: float = 100.0

    def __post_init__(self):
        check_fields(self)
        if not 0.0 <= self.gamma < 1.0:
            raise ValidationError("gamma must lie in [0, 1)")
        check_at_least(self, seed=0, restarts=1, max_iters=1)


@dataclass(frozen=True)
class FitResult:
    params: GasParams
    objective: float
    iterations: int
    converged: bool
    evaluations: int  # objective evaluations: the initial point plus every restart's

    def __post_init__(self):
        check_fields(self)
        check_at_least(self, iterations=0, evaluations=1)


def penalized_objective(params: GasParams, ys) -> float:
    """gamma-weighted log-likelihood minus (1-gamma)/2 times the step penalty."""
    trace = filter_series(params, ys)
    return params.gamma * trace.loglik - 0.5 * (1.0 - params.gamma) * trace.penalty


_PARAM_ORDER = ("alpha_mu", "alpha_sigma", "beta_mu", "beta_sigma", "omega_mu", "omega_sigma")


def _default_bounds(mean: float, var: float) -> dict[str, tuple[float, float]]:
    w = 10.0 * abs(mean) + 1.0
    return {
        "alpha_mu": (0.0, 2.0),
        "alpha_sigma": (0.0, 2.0),
        "beta_mu": (0.0, 0.999),
        "beta_sigma": (0.0, 0.999),
        "omega_mu": (-w, w),
        "omega_sigma": (0.0, 10.0 * var + 1.0),
        "nu": (2.1, 1000.0),
    }


def _initial_params(config: FitConfig, mean: float, var: float) -> GasParams:
    beta = 0.95
    return GasParams(
        alpha_mu=0.05,
        alpha_sigma=0.05,
        beta_mu=beta,
        beta_sigma=beta,
        omega_mu=(1.0 - beta) * mean,
        omega_sigma=(1.0 - beta) * var,
        nu=config.nu,
        gamma=config.gamma,
        mu0=mean,
        sigma2_0=var,
        family=config.family,
    )


def _to_params(x: np.ndarray, template: GasParams, fit_nu: bool) -> GasParams:
    kwargs = dict(zip(_PARAM_ORDER, x[: len(_PARAM_ORDER)]))
    if fit_nu:
        kwargs["nu"] = x[len(_PARAM_ORDER)]
    return replace(template, **kwargs)


def _negative(x: np.ndarray, template: GasParams, fit_nu: bool, ys: np.ndarray) -> float:
    try:
        return -penalized_objective(_to_params(x, template, fit_nu), ys)
    except (ValidationError, ArithmeticError):
        return np.inf


def _nelder_mead(task) -> OptimizeResult:
    """One bounded Nelder-Mead run; module-level so that a worker process can run it."""
    from scipy.optimize import Bounds, minimize  # loaded by ``fit`` before the workers fork

    start, lo, hi, max_iters, args = task
    return minimize(
        _negative,
        start,
        args=args,
        method="Nelder-Mead",
        bounds=Bounds(lo, hi),
        options={"maxiter": max_iters, "xatol": 1e-6, "fatol": 1e-8},
    )


def _run_restarts(tasks: list) -> list[OptimizeResult]:
    """Results of ``_nelder_mead`` for every task, in task order.

    The tasks run in forked worker processes, one per usable core and at
    most one per task; a spawned or forkserver worker would re-import numpy
    and scipy, which costs about as much as one restart. With one worker,
    or where fork is unavailable, they run in this process.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = 1
    if "fork" in multiprocessing.get_all_start_methods() and hasattr(os, "sched_getaffinity"):
        workers = min(len(tasks), len(os.sched_getaffinity(0)))
    if workers == 1:
        return list(map(_nelder_mead, tasks))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_nelder_mead, tasks))


def fit(ys, config: FitConfig) -> FitResult:
    """Maximize the penalized objective for one feature's training series.

    The initial state is pinned to the training-set unconditional mean
    and (floored) variance. Restarts perturb the initial point by up to
    +/-50% multiplicatively and run in parallel worker processes, one per
    usable core; the returned objective never falls below the one at the
    unperturbed initialization.
    """
    ys = np.asarray(ys, dtype=np.float64).ravel()
    if ys.size < 10:
        raise ValidationError(f"need at least 10 observations to fit, got {ys.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(ys))
        var = float(np.var(ys))
    if not np.isfinite(var):
        raise ValidationError(f"training variance must be finite, got {var}")
    var = max(var, _MOMENT_FLOOR)

    fit_nu = config.fit_nu and config.family is Family.STUDENT_T
    names = _PARAM_ORDER + ("nu",) if fit_nu else _PARAM_ORDER
    bounds = _default_bounds(mean, var)
    lo = np.array([bounds[n][0] for n in names])
    hi = np.array([bounds[n][1] for n in names])

    template = _initial_params(config, mean, var)
    x0 = np.array([getattr(template, n) for n in names])
    x0 = np.clip(x0, lo, hi)

    init_objective = -_negative(x0, template, fit_nu, ys)
    if not np.isfinite(init_objective):
        raise FitError("objective is non-finite at the initialization point")
    if config.gamma == 0.0:
        # the objective is identically 0 at gamma = 0: no move can beat the initial point
        return FitResult(_to_params(x0, template, fit_nu), init_objective, 0, False, 1)

    rng = np.random.default_rng(config.seed)
    starts = [x0]
    for _ in range(config.restarts - 1):
        factors = rng.uniform(0.5, 1.5, size=x0.shape)
        starts.append(np.clip(x0 * factors, lo, hi))

    # here, not in the workers: a forked worker inherits the module instead of importing it
    import scipy.optimize  # noqa: F401

    args = (template, fit_nu, ys)
    results = _run_restarts([(start, lo, hi, config.max_iters, args) for start in starts])

    # the initial point was not reached by an optimizer, so it has not converged
    best = (init_objective, x0, 0, False)
    for res in results:
        if np.isfinite(res.fun) and -res.fun > best[0]:
            best = (-res.fun, res.x, int(res.nit), bool(res.success))

    objective, x, iterations, converged = best
    evaluations = 1 + sum(int(res.nfev) for res in results)
    return FitResult(
        _to_params(x, template, fit_nu), objective, iterations, converged, evaluations
    )


def fit_frame(frame: SeriesFrame, config: FitConfig) -> dict[str, FitResult]:
    """Independent per-feature fits; failures are collected, not fail-fast."""
    results: dict[str, FitResult] = {}
    errors: dict[str, Exception] = {}
    for name in frame.feature_names:
        try:
            results[name] = fit(frame.feature(name), config)
        except (ValidationError, ArithmeticError) as exc:
            errors[name] = exc
    if errors and not results:
        reasons = "; ".join(f"{name}: {exc}" for name, exc in errors.items())
        invalid = all(isinstance(exc, ValidationError) for exc in errors.values())
        raise (ValidationError if invalid else FitError)(f"every feature failed to fit: {reasons}")
    if errors:
        for name, exc in errors.items():
            warnings.warn(f"feature {name!r} failed to fit: {exc}", stacklevel=2)
    return results

