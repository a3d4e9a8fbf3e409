"""Static parameter estimation for the score-driven filter.

The objective trades the prediction-error-decomposition log-likelihood
against an information-weighted penalty on how far each update step
moved the state, weighted gamma vs (1 - gamma). It is maximized per
feature with a bounded Nelder-Mead simplex search and multiplicative
multi-start, which copes with the non-smoothness near the stability
boundary without needing gradients. The restarts are independent and
run in parallel worker processes.

The simplex search is this module's own transcription of scipy's, so the
package needs no scipy at run time; the tests hold it to scipy's results
bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import FitError, ValidationError, check_at_least, check_fields
from .filtering import VARIANCE_FLOOR, Family, GasParams, filter_series
from .series import SeriesFrame, one_series


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
        if self.fit_nu and self.family is Family.GAUSSIAN:
            raise ValidationError("fit_nu needs the student_t family: a gaussian fit has no nu")


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
    # the filter steps by gamma/(1-gamma) * alpha: the cap keeps a start step within one score
    alpha = min(0.05, (1.0 - config.gamma) / config.gamma) if config.gamma > 0 else 0.05
    return GasParams(
        alpha_mu=alpha,
        alpha_sigma=alpha,
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


def _nelder_mead(func, x0, lo, hi, max_iters: int, args: tuple):
    """Minimize ``func(x, *args)`` over the box [lo, hi] from ``x0``: (x, fun, nit, nfev, success).

    The same search, bit for bit, as ``scipy.optimize.minimize(func, x0, args,
    method="Nelder-Mead", bounds=Bounds(lo, hi), options={"maxiter": max_iters,
    "xatol": 1e-6, "fatol": 1e-8})``, except that ``func`` gets a view of the simplex, not
    a copy, so it must not modify ``x``. Module-level so that a worker process can run it.
    """
    # Transcribed from scipy 1.17.1, scipy/optimize/_optimize.py, _minimize_neldermead:
    # the non-adaptive, bounded path without maxfev. Copyright (c) 2001-2002 Enthought,
    # Inc. 2003, SciPy Developers; BSD-3-Clause.
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    xatol, fatol = 1e-6, 1e-8
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return func(x, *args)

    x0 = np.clip(x0, lo, hi)
    N = len(x0)
    sim = np.tile(x0, (N + 1, 1))
    for k in range(N):
        sim[k + 1, k] = (1 + nonzdelt) * x0[k] if x0[k] != 0 else zdelt
    # a start near an upper bound may step past it: reflect into the box, then clip
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)

    fsim = np.full((N + 1,), np.inf)
    for k in range(N + 1):
        fsim[k] = f(sim[k])
    # sorted twice, as scipy does: argsort makes no promise about the order of ties
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while iterations < max_iters:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = np.clip((1 + rho) * xbar - rho * sim[-1], lo, hi)
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = np.clip((1 + rho * chi) * xbar - rho * chi * sim[-1], lo, hi)
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = np.clip((1 + psi * rho) * xbar - psi * rho * sim[-1], lo, hi)
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = np.clip((1 - psi) * xbar + psi * sim[-1], lo, hi)
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, N + 1):
                    sim[j] = np.clip(sim[0] + sigma * (sim[j] - sim[0]), lo, hi)
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], np.min(fsim), iterations, nfev, iterations < max_iters


_IN_POOL_WORKER = False


def _mark_pool_worker() -> None:
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def usable_cores() -> int:
    """The cores a ``fork_pool`` made here would use; 1 where it makes none.

    That is the affinity mask's size (``os.sched_getaffinity``), or 1 where
    fork or the mask is unavailable, or inside a ``fork_pool``'s own worker,
    so that no pool nests inside another.
    """
    import multiprocessing

    if (_IN_POOL_WORKER or not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return len(os.sched_getaffinity(0))


def fork_pool(tasks: int, spare: int = 0):
    """A process pool for ``tasks`` tasks, or None where they should run in this process.

    The pool has one worker per task, but at most ``spare`` more than the
    ``usable_cores``; there is no pool where only one is usable. Its workers
    are forked: a spawned or forkserver worker would re-import numpy and
    gasnorm, which costs more than half of one restart.
    """
    cores = usable_cores()
    if cores < 2:
        return None
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(min(tasks, cores + spare), initializer=_mark_pool_worker,
                               mp_context=multiprocessing.get_context("fork"))


def _run_restarts(tasks: list[tuple]) -> list[tuple]:
    """``_nelder_mead(*task)`` for every task, in task order.

    The tasks run in a ``fork_pool``, one worker per usable core and at
    most one per task. With one task or one usable core, where fork is
    unavailable, and inside a ``fork_pool``'s worker (such as an
    experiment's fit), they run in this process, so no pool nests inside
    another.
    """
    pool = fork_pool(len(tasks)) if len(tasks) > 1 else None
    if pool is None:
        return list(map(_nelder_mead, *zip(*tasks)))
    with pool:
        return list(pool.map(_nelder_mead, *zip(*tasks)))


def fit(ys, config: FitConfig) -> FitResult:
    """Maximize the penalized objective for one feature's training series.

    The initial state is pinned to the training-set unconditional mean
    and (floored) variance. Restarts perturb the initial point by up to
    +/-50% multiplicatively and run in parallel worker processes, one per
    usable core, or in this process inside a ``fork_pool``'s worker (``_run_restarts``);
    the returned objective never falls below the one at the unperturbed
    initialization.
    """
    ys = one_series(ys)
    if ys.size < 10:
        raise ValidationError(f"need at least 10 observations to fit, got {ys.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(ys))
        var = float(np.var(ys))
    if not np.isfinite(var):
        raise ValidationError(f"training variance must be finite, got {var}")
    var = max(var, VARIANCE_FLOOR)

    fit_nu = config.fit_nu
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

    args = (template, fit_nu, ys)
    results = _run_restarts([(_negative, s, lo, hi, config.max_iters, args) for s in starts])

    # the initial point was not reached by an optimizer, so it has not converged
    best = (init_objective, x0, 0, False)
    for x, fun, nit, _, success in results:
        if np.isfinite(fun) and -fun > best[0]:
            best = (-fun, x, nit, success)

    objective, x, iterations, converged = best
    evaluations = 1 + sum(nfev for _, _, _, nfev, _ in results)
    return FitResult(
        _to_params(x, template, fit_nu), objective, iterations, converged, evaluations
    )


def fit_frame(frame: SeriesFrame, config: FitConfig) -> dict[str, FitResult]:
    """Independent per-feature fits; one error names every feature that failed, and why."""
    results: dict[str, FitResult] = {}
    errors: dict[str, Exception] = {}
    for name in frame.feature_names:
        try:
            results[name] = fit(frame.feature(name), config)
        except (ValidationError, ArithmeticError) as exc:
            errors[name] = exc
    if errors:
        reasons = "; ".join(f"{name}: {exc}" for name, exc in errors.items())
        invalid = all(isinstance(exc, ValidationError) for exc in errors.values())
        error = ValidationError if invalid else FitError
        raise error(f"{len(errors)} of {frame.n_features} features failed to fit: {reasons}")
    return results

