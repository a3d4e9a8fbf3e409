"""The score-driven filter step: the only place it is written.

Each step is a natural-gradient update of the prior state followed by
the linear prediction step; ``filtering.filter_series`` runs every
filter through ``filter_recursion``.

The loop runs on Python floats (``ys.tolist()``, ``GasParams`` fields)
and fills lists that become arrays once at the end: numpy-scalar
arithmetic gives the same IEEE-754 results at about twice the cost per step.

Family codes: 0 = Gaussian, 1 = Student's t.
The kernel returns a status: -1 on success, otherwise the index of the
first timestep at which the state became non-finite.
"""

import math

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)

GAUSSIAN = 0
STUDENT_T = 1

# the kernel is plain Python; run records read this flag
NUMBA_ACTIVE = False


def filter_recursion(
    ys,
    family,
    alpha_mu,
    alpha_sigma,
    beta_mu,
    beta_sigma,
    omega_mu,
    omega_sigma,
    nu,
    gamma_ratio,
    mu0,
    sigma2_0,
    floor,
):
    """Run the full filter over ``ys``.

    gamma_ratio is gamma / (1 - gamma). Returns prior predictions
    (theta_{t|t-1}), filtered states (theta_{t|t}), the accumulated
    conditional log-likelihood, the accumulated FIM-weighted squared
    update steps, and a status code.
    """
    mu_prior, s2_prior, mu_filt, s2_filt = [], [], [], []
    loglik = 0.0
    penalty = 0.0
    mu = mu0
    s2 = sigma2_0 if sigma2_0 > floor else floor
    lgam = 0.0
    if family == STUDENT_T:
        # constant part of the Student's t log-density
        lgam = (
            math.lgamma(0.5 * (nu + 1.0))
            - math.lgamma(0.5 * nu)
            - 0.5 * math.log(math.pi * nu)
        )
    status = -1
    for t, y in enumerate(ys.tolist()):
        r = y - mu
        if family == GAUSSIAN:
            loglik += -0.5 * _LOG_2PI - 0.5 * math.log(s2) - 0.5 * r * r / s2
            # inverse-FIM-scaled (natural gradient) scores
            scaled_mu = r
            scaled_s2 = r * r - s2
            fim_mu = 1.0 / s2
            fim_s2 = 0.5 / (s2 * s2)
        else:
            z2 = r * r / (nu * s2)
            loglik += lgam - 0.5 * math.log(s2) - 0.5 * (nu + 1.0) * math.log1p(z2)
            # scalings nu*s2/(nu+1) and 2*s2^2: proportional to the inverse FIM
            scaled_mu = r / (1.0 + z2)
            scaled_s2 = (nu + 1.0) * r * r / (nu + r * r / s2) - s2
            fim_mu = (nu + 1.0) / ((nu + 3.0) * s2)
            fim_s2 = nu / (2.0 * (nu + 3.0) * s2 * s2)
        m_f = mu + gamma_ratio * alpha_mu * scaled_mu
        v_f = s2 + gamma_ratio * alpha_sigma * scaled_s2
        if v_f < floor:
            v_f = floor
        d_mu = m_f - mu
        d_s2 = v_f - s2
        penalty += fim_mu * d_mu * d_mu + fim_s2 * d_s2 * d_s2
        mu_prior.append(mu)
        s2_prior.append(s2)
        mu_filt.append(m_f)
        s2_filt.append(v_f)
        mu = omega_mu + beta_mu * m_f
        s2 = omega_sigma + beta_sigma * v_f
        if s2 < floor:
            s2 = floor
        if not (math.isfinite(mu) and math.isfinite(s2) and math.isfinite(loglik)):
            status = t
            break
    arrays = [np.array(v) for v in (mu_prior, s2_prior, mu_filt, s2_filt)]
    return (*arrays, loglik, penalty, status)

