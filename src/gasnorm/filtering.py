"""Score-driven filtering of time-varying means and variances.

One filter tracks a single feature. At each observation the state moves
in the direction of the inverse-Fisher-scaled score (a natural gradient
step) damped by the normalization strength, then a linear prediction
step pulls it toward its unconditional level:

    theta_{t|t}   = theta_{t|t-1} + (g/(1-g)) * alpha * s_t
    theta_{t+1|t} = omega + beta * theta_{t|t}

with s_t the inverse-Fisher-scaled score and g in [0, 1). The step is
written once, in ``filter_series``. g = 0 freezes the score term
entirely, which reduces the filter to a deterministic affine recursion
(static normalization).

The loop runs on Python floats (``GasParams`` fields, and ``ys`` read
one at a time through a memoryview): numpy-scalar arithmetic gives the
same IEEE-754 results at about twice the cost per step. Each caller
says which outputs it reads. The fit's objective pass sums the
log-likelihood and penalty and keeps no per-step values. Normalization's
priors pass appends each prediction theta_{t|t-1} to an ``array("d")``
buffer, 8 bytes a value, which becomes an array without a copy at the
end, and computes no log-density. theta_{t|t} is never kept.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import NumericalError, Range, ValidationError, check_fields
from .series import one_series

VARIANCE_FLOOR = 1e-8
_LOG_2PI = math.log(2.0 * math.pi)


class Family(enum.Enum):
    GAUSSIAN = "gaussian"
    STUDENT_T = "student_t"


GAMMA = Range(0, 1, high_open=True)  # the normalization strength g
_BETA = Range(-1, 1, low_open=True, high_open=True)  # a stationary prediction step


def check_nu(family: Family, nu: float) -> None:
    """Student's t needs nu > 2 for its variance to exist; a Gaussian has no nu."""
    if family is Family.STUDENT_T and not nu > 2:
        raise ValidationError(f"nu must exceed 2 for the student_t family, got {nu}")


@dataclass(frozen=True)
class GasParams:
    """Static filter parameters for one feature."""

    alpha_mu: Annotated[float, Range(0)] = 0.05
    alpha_sigma: Annotated[float, Range(0)] = 0.05
    beta_mu: Annotated[float, _BETA] = 0.95
    beta_sigma: Annotated[float, _BETA] = 0.95
    omega_mu: float = 0.0
    omega_sigma: float = 0.05
    nu: float = 100.0
    gamma: Annotated[float, GAMMA] = 0.5
    mu0: float = 0.0
    sigma2_0: Annotated[float, Range(0, low_open=True)] = 1.0
    family: Family = Family.STUDENT_T

    def __post_init__(self):
        # stores Python floats: the filter loop is about twice as fast on them as on np.float64
        check_fields(self)
        check_nu(self.family, self.nu)

    @property
    def gamma_ratio(self) -> float:
        return self.gamma / (1.0 - self.gamma)


@dataclass(frozen=True)
class FilterTrace:
    """Per-timestep filter output for one feature.

    ``mu_prior``/``sigma2_prior`` hold theta_{t|t-1}, the prediction
    available *before* observing y_t (what leak-free normalization
    uses); ``mu_next``/``sigma2_next`` are theta_{T+1|T}. ``loglik``
    accumulates log p(y_t | theta_{t|t-1}) over the prediction-error
    decomposition, ``penalty`` the FIM-weighted squared update steps.
    A pass that did not compute an output holds None for it. ``steps``
    is the number of observations filtered, and the trace's length.
    """

    mu_prior: np.ndarray | None
    sigma2_prior: np.ndarray | None
    mu_next: float
    sigma2_next: float
    loglik: float | None
    penalty: float | None
    steps: int

    def __len__(self) -> int:
        return self.steps


def filter_series(params: GasParams, ys, *, likelihood: bool = True,
                  priors: bool = True) -> FilterTrace:
    """Run the filter over a full series; compute the outputs the caller reads.

    ``likelihood`` accumulates ``loglik`` and ``penalty``, ``priors`` keeps
    ``mu_prior`` and ``sigma2_prior``; an output not computed is None. The
    next state is always returned. Raises NumericalError naming the first
    timestep whose state (or log-likelihood) is non-finite.

    The objective pass (``priors=False``) checks once, after the loop, and
    names no timestep. It raises in the same cases: a non-finite state makes
    the next log-likelihood term non-finite, and every term is bounded above
    (s2 >= VARIANCE_FLOOR), so a non-finite sum stays non-finite. A pass
    without the likelihood checks only the state, so a log-likelihood that
    overflows on a finite state does not stop it.
    """
    ys = one_series(ys)
    if ys.size == 0:
        raise ValidationError("cannot filter an empty series")
    if not np.all(np.isfinite(ys)):
        raise ValidationError("series contains non-finite values")
    nu, omega_mu, beta_mu = params.nu, params.omega_mu, params.beta_mu
    omega_sigma, beta_sigma = params.omega_sigma, params.beta_sigma
    floor = VARIANCE_FLOOR
    mu_prior, s2_prior = array("d"), array("d")
    # loop invariants, each grouped as in the step's formulas, so hoisting them changes no bit
    push_mu_prior, push_s2_prior = mu_prior.append, s2_prior.append
    log, log1p, isfinite = math.log, math.log1p, math.isfinite
    gaussian = params.family is Family.GAUSSIAN
    check_each = priors or not likelihood
    step_mu = params.gamma_ratio * params.alpha_mu
    step_s2 = params.gamma_ratio * params.alpha_sigma
    neg_half_log_2pi = -0.5 * _LOG_2PI
    nu1 = nu + 1.0
    half_nu1 = 0.5 * nu1
    nu3 = nu + 3.0
    two_nu3 = 2.0 * nu3
    loglik = 0.0
    penalty = 0.0
    mu = params.mu0
    s2 = max(params.sigma2_0, floor)
    lgam = 0.0
    if not gaussian:
        # constant part of the Student's t log-density
        lgam = (
            math.lgamma(0.5 * nu1)
            - math.lgamma(0.5 * nu)
            - 0.5 * math.log(math.pi * nu)
        )
    for t, y in enumerate(memoryview(ys)):
        r = y - mu
        if gaussian:
            # inverse-FIM-scaled (natural gradient) scores
            scaled_mu = r
            scaled_s2 = r * r - s2
            if likelihood:
                loglik += neg_half_log_2pi - 0.5 * log(s2) - 0.5 * r * r / s2
                fim_mu = 1.0 / s2
                fim_s2 = 0.5 / (s2 * s2)
        else:
            z2 = r * r / (nu * s2)
            # scalings nu*s2/(nu+1) and 2*s2^2: proportional to the inverse FIM
            scaled_mu = r / (1.0 + z2)
            scaled_s2 = nu1 * r * r / (nu + r * r / s2) - s2
            if likelihood:
                loglik += lgam - 0.5 * log(s2) - half_nu1 * log1p(z2)
                fim_mu = nu1 / (nu3 * s2)
                fim_s2 = nu / (two_nu3 * s2 * s2)
        m_f = mu + step_mu * scaled_mu
        v_f = s2 + step_s2 * scaled_s2
        if v_f < floor:
            v_f = floor
        if likelihood:
            d_mu = m_f - mu
            d_s2 = v_f - s2
            penalty += fim_mu * d_mu * d_mu + fim_s2 * d_s2 * d_s2
        if priors:
            push_mu_prior(mu)
            push_s2_prior(s2)
        mu = omega_mu + beta_mu * m_f
        s2 = omega_sigma + beta_sigma * v_f
        if s2 < floor:
            s2 = floor
        if check_each and not (isfinite(mu) and isfinite(s2) and isfinite(loglik)):
            raise NumericalError(f"filter state became non-finite at timestep {t}")
    if not (isfinite(mu) and isfinite(s2) and isfinite(loglik)):
        raise NumericalError("filter state became non-finite")
    return FilterTrace(
        np.frombuffer(mu_prior) if priors else None,
        np.frombuffer(s2_prior) if priors else None,
        mu, s2, loglik if likelihood else None, penalty if likelihood else None, ys.size,
    )


def forecast_statistics(
    params: GasParams, mu_next, sigma2_next, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """``horizon`` predictions of (mu, sigma2), starting at the one given.

    ``mu_next`` and ``sigma2_next`` are arrays of one shape S, one entry
    per filter run, each a run's theta_{T+1|T}. Returns (mu, sigma2), each
    of shape (*S, horizon): step 0 is the input, and each later step
    applies theta <- omega + beta*theta. Every step's variance is floored.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be at least 1, got {horizon}")
    mu = [np.asarray(mu_next, dtype=np.float64)]
    s2 = [np.maximum(np.asarray(sigma2_next, dtype=np.float64), VARIANCE_FLOOR)]
    for _ in range(1, horizon):
        mu.append(params.omega_mu + params.beta_mu * mu[-1])
        s2.append(np.maximum(params.omega_sigma + params.beta_sigma * s2[-1], VARIANCE_FLOOR))
    return np.stack(mu, axis=-1), np.stack(s2, axis=-1)
