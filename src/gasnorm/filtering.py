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
same IEEE-754 results at about twice the cost per step. It appends each
prediction theta_{t|t-1} to an ``array("d")`` buffer, 8 bytes a value,
which becomes an array without a copy at the end; theta_{t|t} is not kept.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, check_fields

VARIANCE_FLOOR = 1e-8
_LOG_2PI = math.log(2.0 * math.pi)


class Family(enum.Enum):
    GAUSSIAN = "gaussian"
    STUDENT_T = "student_t"


@dataclass(frozen=True)
class GasParams:
    """Static filter parameters for one feature."""

    alpha_mu: float = 0.05
    alpha_sigma: float = 0.05
    beta_mu: float = 0.95
    beta_sigma: float = 0.95
    omega_mu: float = 0.0
    omega_sigma: float = 0.05
    nu: float = 100.0
    gamma: float = 0.5
    mu0: float = 0.0
    sigma2_0: float = 1.0
    family: Family = Family.STUDENT_T

    def __post_init__(self):
        # stores Python floats: the filter loop is about twice as fast on them as on np.float64
        check_fields(self)
        if self.alpha_mu < 0 or self.alpha_sigma < 0:
            raise ValidationError("learning rates alpha must be non-negative")
        if abs(self.beta_mu) >= 1 or abs(self.beta_sigma) >= 1:
            raise ValidationError("mean-reversion beta must lie in (-1, 1)")
        if not 0.0 <= self.gamma < 1.0:
            raise ValidationError("gamma must lie in [0, 1)")
        if self.sigma2_0 <= 0:
            raise ValidationError("sigma2_0 must be positive")
        if self.family is Family.STUDENT_T and self.nu <= 2:
            raise ValidationError("nu must exceed 2 for the Student's t family")

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
    """

    mu_prior: np.ndarray
    sigma2_prior: np.ndarray
    mu_next: float
    sigma2_next: float
    loglik: float
    penalty: float

    def __len__(self) -> int:
        return self.mu_prior.shape[0]


def filter_series(params: GasParams, ys) -> FilterTrace:
    """Run the filter over a full series, accumulating the log-likelihood.

    Raises NumericalError naming the first timestep whose state is non-finite.
    """
    ys = np.ascontiguousarray(ys, dtype=np.float64).ravel()
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
            loglik += neg_half_log_2pi - 0.5 * log(s2) - 0.5 * r * r / s2
            # inverse-FIM-scaled (natural gradient) scores
            scaled_mu = r
            scaled_s2 = r * r - s2
            fim_mu = 1.0 / s2
            fim_s2 = 0.5 / (s2 * s2)
        else:
            z2 = r * r / (nu * s2)
            loglik += lgam - 0.5 * log(s2) - half_nu1 * log1p(z2)
            # scalings nu*s2/(nu+1) and 2*s2^2: proportional to the inverse FIM
            scaled_mu = r / (1.0 + z2)
            scaled_s2 = nu1 * r * r / (nu + r * r / s2) - s2
            fim_mu = nu1 / (nu3 * s2)
            fim_s2 = nu / (two_nu3 * s2 * s2)
        m_f = mu + step_mu * scaled_mu
        v_f = s2 + step_s2 * scaled_s2
        if v_f < floor:
            v_f = floor
        d_mu = m_f - mu
        d_s2 = v_f - s2
        penalty += fim_mu * d_mu * d_mu + fim_s2 * d_s2 * d_s2
        push_mu_prior(mu)
        push_s2_prior(s2)
        mu = omega_mu + beta_mu * m_f
        s2 = omega_sigma + beta_sigma * v_f
        if s2 < floor:
            s2 = floor
        if not (isfinite(mu) and isfinite(s2) and isfinite(loglik)):
            raise NumericalError(f"filter state became non-finite at timestep {t}")
    return FilterTrace(np.frombuffer(mu_prior), np.frombuffer(s2_prior), mu, s2, loglik, penalty)


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
        raise ValidationError("horizon must be at least 1")
    mu = [np.asarray(mu_next, dtype=np.float64)]
    s2 = [np.maximum(np.asarray(sigma2_next, dtype=np.float64), VARIANCE_FLOOR)]
    for _ in range(1, horizon):
        mu.append(params.omega_mu + params.beta_mu * mu[-1])
        s2.append(np.maximum(params.omega_sigma + params.beta_sigma * s2[-1], VARIANCE_FLOOR))
    return np.stack(mu, axis=-1), np.stack(s2, axis=-1)
