"""Static parameter estimation for the score-driven filter.

The objective trades the prediction-error-decomposition log-likelihood
against an information-weighted penalty on how far each update step
moved the state, weighted gamma vs (1 - gamma). It is maximized per
feature with a bounded Nelder-Mead simplex search and multiplicative
multi-start, which copes with the non-smoothness near the stability
boundary without needing gradients. The restarts are independent
searches, and a pool of worker processes runs them in parallel; an
experiment's cells share that pool (``fork_pool``).

The simplex search is this module's own transcription of scipy's, so the
package needs no scipy at run time; the tests hold it to scipy's results
bit for bit.
"""

from __future__ import annotations

import os
import signal
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Annotated

import numpy as np

from .errors import FitError, Range, ValidationError, check_fields
from .filtering import GAMMA, VARIANCE_FLOOR, Family, GasParams, check_nu, filter_series
from .series import SeriesFrame, one_series


@dataclass(frozen=True)
class FitConfig:
    gamma: Annotated[float, GAMMA] = 0.5
    family: Family = Family.STUDENT_T
    max_iters: Annotated[int, Range(1)] = 400
    restarts: Annotated[int, Range(1)] = 3
    fit_nu: bool = False
    nu: float = 100.0

    def __post_init__(self):
        check_fields(self)
        check_nu(self.family, self.nu)
        if self.fit_nu and self.family is Family.GAUSSIAN:
            raise ValidationError("fit_nu needs the student_t family: a gaussian fit has no nu")

    @property
    def searches(self) -> int:
        """The restart searches a fit runs: none at gamma 0, where the objective is
        identically 0, so no move can beat the initial point."""
        return self.restarts if self.gamma > 0 else 0


@dataclass(frozen=True)
class FitResult:
    params: GasParams
    objective: float
    iterations: Annotated[int, Range(0)]
    converged: bool
    # objective evaluations: the initial point plus every restart's
    evaluations: Annotated[int, Range(1)]

    def __post_init__(self):
        check_fields(self)


def penalized_objective(params: GasParams, ys) -> float:
    """gamma-weighted log-likelihood minus (1-gamma)/2 times the step penalty.

    The filter runs its objective pass: it keeps no per-step predictions.
    """
    trace = filter_series(params, ys, priors=False)
    return params.gamma * trace.loglik - 0.5 * (1.0 - params.gamma) * trace.penalty


_PARAM_ORDER = ("alpha_mu", "alpha_sigma", "beta_mu", "beta_sigma", "omega_mu", "omega_sigma")


def _default_bounds(mean: float, var: float, names: tuple[str, ...]) -> np.ndarray:
    """The box the search moves in: rows of lower and upper bounds, one column per name."""
    w = 10.0 * abs(mean) + 1.0
    bounds = {
        "alpha_mu": (0.0, 2.0),
        "alpha_sigma": (0.0, 2.0),
        "beta_mu": (0.0, 0.999),
        "beta_sigma": (0.0, 0.999),
        "omega_mu": (-w, w),
        "omega_sigma": (0.0, 10.0 * var + 1.0),
        "nu": (2.1, 1000.0),
    }
    return np.array([bounds[n] for n in names]).T


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


def _to_params(x: np.ndarray, template: GasParams, names: tuple[str, ...]) -> GasParams:
    return replace(template, **dict(zip(names, x)))


def _negative(x: np.ndarray, template: GasParams, names: tuple[str, ...], ys: np.ndarray) -> float:
    try:
        return -penalized_objective(_to_params(x, template, names), ys)
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


# the OpenBLAS thread setters, by the names numpy's bundled builds export
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_", "openblas_set_num_threads")


def _init_worker(set_blas_threads, shutdown_blas_threads, prctl, parent: int) -> None:
    """A pool worker's initializer: one BLAS thread, and on Linux death with ``parent``.

    Each core already runs a worker, so a second BLAS thread per worker
    only competes with the others. The pin still leaves OpenBLAS one idle
    server thread, which spins for about 0.13 s of CPU; the shutdown ends
    it, and one BLAS thread needs none. Without a setter the worker keeps
    the library's default; without ``prctl`` it may outlive ``parent``.
    """
    if set_blas_threads is not None:
        set_blas_threads(1)
        if shutdown_blas_threads is not None:
            shutdown_blas_threads()
    if prctl is not None:
        prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG: the kernel kills the worker
        if os.getppid() != parent:  # the parent exited before the call above
            os._exit(1)


@contextmanager
def fork_pool(tasks: int):
    """A process pool for ``tasks`` independent tasks, or None where they run in this process.

    The pool has one worker per usable core (``os.sched_getaffinity``, which
    only platforms with fork have), but at most one per task. There is none
    for fewer than two tasks or with one usable core; then nothing is
    imported. Its workers are forked: a spawned or forkserver worker would
    re-import numpy and gasnorm, which costs more than half of one restart.
    A worker runs a restart search or an experiment cell, and neither starts
    a pool, so no pool starts inside another. Each worker sets OpenBLAS to
    one thread, where numpy's library exports a setter, then shuts down its
    idle server thread, where the library exports ``blas_thread_shutdown_``.
    On exit the tasks not yet begun are cancelled. On Linux the kernel also
    kills every worker when this process ends, even by a signal that runs
    no ``finally``. It does so when the thread that forked the worker ends:
    the one that first submits, which outlives the pool.
    """
    workers = min(tasks, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1)
    if workers < 2:
        yield None
        return
    import ctypes
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # numpy's compiled core, which links its BLAS
    numpy_lib = ctypes.CDLL(sys.modules["numpy._core._multiarray_umath"].__file__)
    set_blas_threads = next((getattr(numpy_lib, name) for name in _BLAS_THREAD_SETTERS
                             if hasattr(numpy_lib, name)), None)
    shutdown_blas_threads = getattr(numpy_lib, "blas_thread_shutdown_", None)
    if shutdown_blas_threads is not None:
        shutdown_blas_threads.argtypes, shutdown_blas_threads.restype = [], ctypes.c_int
    prctl = ctypes.CDLL(None).prctl if sys.platform.startswith("linux") else None
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker,
                               initargs=(set_blas_threads, shutdown_blas_threads, prctl,
                                         os.getpid()))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def start_fit(ys, config: FitConfig, pool=None) -> tuple:
    """Check one feature's training series, evaluate the initial point and begin the restarts.

    The initial state is pinned to the training-set unconditional mean and
    (floored) variance. Restarts perturb the initial point by up to +/-50%
    multiplicatively, with factors drawn from seed 0. Each restart's search is submitted to ``pool``, a
    ``fork_pool``; with no pool it runs in this process when ``fit`` asks for
    its result. The searched names, ``_PARAM_ORDER`` plus ``nu`` under
    ``fit_nu``, are the search space: the box, the initial point and each
    point's params follow them; every other field keeps the template's.
    Returns the template params, the names, the initial point, the objective
    there, and per restart a call that returns its ``_nelder_mead`` result.
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

    names = _PARAM_ORDER + ("nu",) if config.fit_nu else _PARAM_ORDER
    lo, hi = _default_bounds(mean, var, names)

    template = _initial_params(config, mean, var)
    x0 = np.array([getattr(template, n) for n in names])
    x0 = np.clip(x0, lo, hi)

    init_objective = -_negative(x0, template, names, ys)
    if not np.isfinite(init_objective):
        raise FitError("objective is non-finite at the initialization point")

    rng = np.random.default_rng(0)
    starts = [x0 if i == 0 else np.clip(x0 * rng.uniform(0.5, 1.5, size=x0.shape), lo, hi)
              for i in range(config.searches)]
    tasks = [(_negative, s, lo, hi, config.max_iters, (template, names, ys)) for s in starts]
    searches = [partial(_nelder_mead, *task) if pool is None
                else pool.submit(_nelder_mead, *task).result for task in tasks]
    return template, names, x0, init_objective, searches


def fit(ys, config: FitConfig, started: tuple | None = None) -> FitResult:
    """Maximize the penalized objective for one feature's training series.

    ``started`` is ``start_fit(ys, config, pool)`` from a caller that has
    already begun the searches; without it the fit begins its own, on a
    ``fork_pool`` of its own. The fit waits for every restart and keeps the
    best; the returned objective never falls below the one at the
    unperturbed initialization.
    """
    with fork_pool(0 if started else config.searches) as pool:
        template, names, x0, init_objective, searches = started or start_fit(ys, config, pool)
        results = [search() for search in searches]

    # the initial point was not reached by an optimizer, so it has not converged
    best = (init_objective, x0, 0, False)
    for x, fun, nit, _, success in results:
        if np.isfinite(fun) and -fun > best[0]:
            best = (-fun, x, nit, success)

    objective, x, iterations, converged = best
    evaluations = 1 + sum(nfev for _, _, _, nfev, _ in results)
    return FitResult(_to_params(x, template, names), objective, iterations, converged, evaluations)


def start_fits(frame: SeriesFrame, config: FitConfig, pool=None) -> dict:
    """``start_fit`` for every feature: its started fit, or the error that stopped it."""
    started: dict = {}
    for name in frame.feature_names:
        try:
            started[name] = start_fit(frame.feature(name), config, pool)
        except (ValidationError, ArithmeticError) as exc:
            started[name] = exc
    return started


def fit_frame(frame: SeriesFrame, config: FitConfig,
              started: dict | None = None) -> dict[str, FitResult]:
    """Independent per-feature fits; one error names every feature that failed, and why.

    ``started`` is ``start_fits(frame, config, pool)`` from a caller that has
    already begun the searches; without it every feature's searches begin
    on one ``fork_pool``.
    """
    results: dict[str, FitResult] = {}
    errors: dict[str, Exception] = {}
    with fork_pool(0 if started else frame.n_features * config.searches) as pool:
        for name, begun in (started or start_fits(frame, config, pool)).items():
            try:
                if isinstance(begun, Exception):
                    raise begun
                results[name] = fit(frame.feature(name), config, begun)
            except (ValidationError, ArithmeticError) as exc:
                errors[name] = exc
    if errors:
        reasons = "; ".join(f"{name}: {exc}" for name, exc in errors.items())
        invalid = all(isinstance(exc, ValidationError) for exc in errors.values())
        error = ValidationError if invalid else FitError
        raise error(f"{len(errors)} of {frame.n_features} features failed to fit: {reasons}")
    return results
