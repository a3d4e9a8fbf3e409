"""Score-driven filtering of time-varying means and variances.

One filter tracks a single feature. At each observation the state moves
in the direction of the inverse-Fisher-scaled score (a natural gradient
step) damped by the normalization strength, then a linear prediction
step pulls it toward its unconditional level:

    theta_{t|t}   = theta_{t|t-1} + (g/(1-g)) * alpha * s_t
    theta_{t+1|t} = omega + beta * theta_{t|t}

with s_t the inverse-Fisher-scaled score and g in [0, 1). The step is
written once, in ``_recursions.filter_recursion``. g = 0 freezes the
score term entirely, which reduces the filter to a deterministic affine
recursion (static normalization).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._recursions import GAUSSIAN, STUDENT_T, filter_recursion
from .errors import NumericalError, ValidationError, check_fields

VARIANCE_FLOOR = 1e-8


class Family(enum.Enum):
    GAUSSIAN = "gaussian"
    STUDENT_T = "student_t"

    @property
    def code(self) -> int:
        return GAUSSIAN if self is Family.GAUSSIAN else STUDENT_T


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
    uses); ``mu_filt``/``sigma2_filt`` hold theta_{t|t}. ``loglik``
    accumulates log p(y_t | theta_{t|t-1}) over the prediction-error
    decomposition, ``penalty`` the FIM-weighted squared update steps.
    """

    mu_prior: np.ndarray
    sigma2_prior: np.ndarray
    mu_filt: np.ndarray
    sigma2_filt: np.ndarray
    loglik: float
    penalty: float

    def __len__(self) -> int:
        return self.mu_prior.shape[0]


def filter_series(params: GasParams, ys) -> FilterTrace:
    """Run the filter over a full series, accumulating the log-likelihood."""
    ys = np.ascontiguousarray(ys, dtype=np.float64).ravel()
    if ys.size == 0:
        raise ValidationError("cannot filter an empty series")
    if not np.all(np.isfinite(ys)):
        raise ValidationError("series contains non-finite values")
    mu_p, s2_p, mu_f, s2_f, loglik, penalty, status = filter_recursion(
        ys,
        params.family.code,
        params.alpha_mu,
        params.alpha_sigma,
        params.beta_mu,
        params.beta_sigma,
        params.omega_mu,
        params.omega_sigma,
        params.nu,
        params.gamma_ratio,
        params.mu0,
        max(params.sigma2_0, VARIANCE_FLOOR),
        VARIANCE_FLOOR,
    )
    if status >= 0:
        raise NumericalError(f"filter state became non-finite at timestep {status}")
    return FilterTrace(mu_p, s2_p, mu_f, s2_f, float(loglik), float(penalty))


def forecast_statistics(
    params: GasParams, mu_filt, sigma2_filt, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """h-step iterate of theta <- omega + beta*theta from the last filtered values.

    ``mu_filt`` and ``sigma2_filt`` are arrays of one shape S, one entry
    per filter run. Returns (mu, sigma2), each of shape (*S, horizon);
    step 0 is theta_{T+1|T}, the prediction made from the filtered value.
    """
    if horizon < 1:
        raise ValidationError("horizon must be at least 1")
    mu = np.asarray(mu_filt, dtype=np.float64)
    s2 = np.asarray(sigma2_filt, dtype=np.float64)
    out_mu, out_s2 = np.empty((*mu.shape, horizon)), np.empty((*s2.shape, horizon))
    for j in range(horizon):
        mu = params.omega_mu + params.beta_mu * mu
        s2 = np.maximum(params.omega_sigma + params.beta_sigma * s2, VARIANCE_FLOOR)
        out_mu[..., j], out_s2[..., j] = mu, s2
    return out_mu, out_s2
