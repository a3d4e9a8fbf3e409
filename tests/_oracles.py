"""Independent brute-force oracles, written before and apart from the library.

These deliberately re-derive everything from the density definitions
(scipy.stats for log-densities, plain formula transcriptions for the
scores, the Fisher information and the score steps) and never call into
gasnorm's filter path; they take only its enum and error types.
"""

import csv
import io
import math

import numpy as np
from scipy import stats

from gasnorm.errors import ValidationError
from gasnorm.filtering import Family

FLOOR = 1e-8


def naive_filter(
    ys,
    family,
    alpha_mu,
    alpha_sigma,
    beta_mu,
    beta_sigma,
    omega_mu,
    omega_sigma,
    nu,
    gamma,
    mu0,
    sigma2_0,
):
    """Step-by-step scalar recursion; returns priors, filtered, loglik, penalty."""
    g = gamma / (1.0 - gamma)
    mu = mu0
    s2 = max(sigma2_0, FLOOR)
    prior, filt = [], []
    loglik = 0.0
    penalty = 0.0
    for y in ys:
        prior.append((mu, s2))
        r = y - mu
        if family == "gaussian":
            loglik += stats.norm.logpdf(y, loc=mu, scale=math.sqrt(s2))
            step_mu = g * alpha_mu * r
            step_s2 = g * alpha_sigma * (r * r - s2)
            fim_mu = 1.0 / s2
            fim_s2 = 1.0 / (2.0 * s2 * s2)
        else:
            loglik += stats.t.logpdf(y, df=nu, loc=mu, scale=math.sqrt(s2))
            step_mu = g * alpha_mu * (r / (1.0 + r * r / (nu * s2)))
            step_s2 = g * alpha_sigma * ((nu + 1.0) * r * r / (nu + r * r / s2) - s2)
            fim_mu = (nu + 1.0) / ((nu + 3.0) * s2)
            fim_s2 = nu / (2.0 * (nu + 3.0) * s2 * s2)
        mu_f = mu + step_mu
        s2_f = max(s2 + step_s2, FLOOR)
        penalty += fim_mu * (mu_f - mu) ** 2 + fim_s2 * (s2_f - s2) ** 2
        filt.append((mu_f, s2_f))
        mu = omega_mu + beta_mu * mu_f
        s2 = max(omega_sigma + beta_sigma * s2_f, FLOOR)
    return np.array(prior), np.array(filt), loglik, penalty


def score_and_fim(
    family: Family, y: float, mu: float, sigma2: float, nu: float = 100.0
) -> tuple[float, float, float, float]:
    """Scores of the conditional log-density and the diagonal Fisher information.

    Returns (score_mu, score_sigma2, fim_mu, fim_sigma2) evaluated at
    (mu, sigma2). Cross terms of the FIM are zero for both families, so
    the diagonal is the whole matrix.
    """
    if sigma2 <= 0:
        raise ValidationError(f"sigma2 must be positive, got {sigma2}")
    r = y - mu
    if family is Family.GAUSSIAN:
        score_mu = r / sigma2
        score_s2 = 0.5 * (r * r / sigma2**2 - 1.0 / sigma2)
        return score_mu, score_s2, 1.0 / sigma2, 0.5 / sigma2**2
    if nu <= 2:
        raise ValidationError(f"nu must exceed 2, got {nu}")
    score_mu = (nu + 1.0) * r / (nu * sigma2 + r * r)
    score_s2 = 0.5 * ((nu + 1.0) * r * r / (nu * sigma2**2 + sigma2 * r * r) - 1.0 / sigma2)
    fim_mu = (nu + 1.0) / ((nu + 3.0) * sigma2)
    fim_s2 = nu / (2.0 * (nu + 3.0) * sigma2**2)
    return score_mu, score_s2, fim_mu, fim_s2


def fd_scores(family, y, mu, sigma2, nu, h=1e-6):
    """Central finite differences of the conditional log-density."""

    def logpdf(m, s2):
        if family == "gaussian":
            return stats.norm.logpdf(y, loc=m, scale=math.sqrt(s2))
        return stats.t.logpdf(y, df=nu, loc=m, scale=math.sqrt(s2))

    h_mu = h * max(1.0, abs(mu))
    h_s2 = h * max(1.0, abs(sigma2))
    d_mu = (logpdf(mu + h_mu, sigma2) - logpdf(mu - h_mu, sigma2)) / (2.0 * h_mu)
    d_s2 = (logpdf(mu, sigma2 + h_s2) - logpdf(mu, sigma2 - h_s2)) / (2.0 * h_s2)
    return d_mu, d_s2


def ar_values(spec):
    """``gen_ar``'s recursion on numpy arrays and numpy scalars."""
    rng = np.random.default_rng(spec.seed)
    eps = rng.normal(0.0, spec.noise_std, size=spec.length)
    coeffs = np.asarray(spec.ar_coeffs)
    t = np.arange(spec.length)
    deterministic = spec.season_amplitude * np.sin(2.0 * np.pi * t / spec.season_period)
    deterministic = deterministic + spec.trend_slope * t
    x = np.zeros(spec.length)
    for i in range(spec.length):
        ar = 0.0
        for j in range(min(coeffs.size, i)):
            ar += coeffs[j] * x[i - 1 - j]
        x[i] = ar + eps[i] + deterministic[i]
    return x[:, None]


def rk4_lorenz_step(state, dt, sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    """One classic Runge-Kutta step on a numpy state, written out longhand.

    Its operations are grouped as ``gen_lorenz``'s, so the two agree bit for bit.
    """

    def f(s):
        x, y, z = s
        return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])

    s = np.asarray(state, dtype=float)
    k1 = f(s)
    k2 = f(s + 0.5 * dt * k1)
    k3 = f(s + 0.5 * dt * k2)
    k4 = f(s + dt * k3)
    return s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def lorenz_states(spec):
    """``gen_lorenz`` on numpy arrays, one ``rk4_lorenz_step`` per step."""
    states = np.empty((spec.steps, 3))
    state = np.asarray(spec.initial, dtype=np.float64)
    for i in range(spec.steps):
        state = rk4_lorenz_step(state, spec.dt, spec.sigma, spec.rho, spec.beta)
        states[i] = state
    if spec.noise_std is None:
        noise_std = 0.005 * states.std(axis=0)
    else:
        noise_std = np.full(3, float(spec.noise_std))
    if np.any(noise_std > 0):
        rng = np.random.default_rng(spec.seed)
        states = states + rng.normal(0.0, 1.0, size=states.shape) * noise_std
    return states


def _quoted(cells) -> str:
    """The cells as one CSV row, without its line ending, quoted by the csv module."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(cells)  # quotes \r as well as \n
    return out.getvalue()[:-2]


def write_csv_per_value(values, names, path):
    """A CSV file written one ``format(v, ".17g")`` at a time: header, then rows."""
    with open(path, "w", newline="\n") as fh:
        fh.write(_quoted(names) + "\n")
        for row in values:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def save_batch_csvs_per_value(batch, stem):
    """The two CSV files of ``save_batch``, one value and one stats row at a time."""
    stem = str(stem)
    names = batch.feature_names
    write_csv_per_value(batch.normalized_context, names, stem + "_normalized.csv")
    with open(stem + "_stats.csv", "w", newline="\n") as fh:
        fh.write("phase,step,feature,mu,scale\n")
        for phase, mu, scale in (
            ("context", batch.context_mu, batch.context_scale),
            ("horizon", batch.horizon_mu, batch.horizon_scale),
        ):
            for t in range(mu.shape[0]):
                for j, name in enumerate(names):
                    fh.write(
                        f"{phase},{t},{_quoted([name])},{mu[t, j]:.17g},{scale[t, j]:.17g}\n"
                    )
