"""End-to-end acceptance checks.

Each test is one pass/fail gate with its tolerance stated inline. Run with
`python3 -m pytest tests/test_acceptance.py -v` to get one line per gate.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from _helpers import add_quadratic_trend, report_row
from _oracles import fd_scores, naive_filter, score_and_fim
from gasnorm import (
    Activation,
    ArSpec,
    ExperimentSpec,
    Family,
    FitConfig,
    GasParams,
    LorenzSpec,
    MlpSpec,
    SeriesFrame,
    SplitSpec,
    fit,
    gen_ar,
    gen_lorenz,
    mase,
    predict,
    run_experiment,
    train,
    write_csv,
)
from gasnorm.filtering import filter_series
from gasnorm.fitting import _initial_params, penalized_objective
from gasnorm.normalization import (
    NormalizerKind,
    NormalizerSpec,
    normalize,
)
from gasnorm.series import windows


def test_analytic_scores_match_finite_differences():
    """Score formulas agree with central differences of the log density.

    1000 random draws (500 per family), mixed abs/rel tolerance 1e-6.
    """
    rng = np.random.default_rng(0)
    worst = 0.0
    for family in ("gaussian", "t"):
        for _ in range(500):
            mu = rng.uniform(-5.0, 5.0)
            sigma2 = rng.uniform(0.1, 10.0)
            nu = rng.uniform(3.0, 50.0)
            y = mu + rng.uniform(0.3, 3.0) * np.sqrt(sigma2) * rng.choice([-1.0, 1.0])
            fam = Family.GAUSSIAN if family == "gaussian" else Family.STUDENT_T
            s_mu, s_s2, _, _ = score_and_fim(fam, y, mu, sigma2, nu)
            f_mu, f_s2 = fd_scores(family, y, mu, sigma2, nu)
            for a, f in ((s_mu, f_mu), (s_s2, f_s2)):
                worst = max(worst, abs(a - f) / max(1.0, abs(f)))
    assert worst < 1e-6


def test_heavy_tail_filter_approaches_gaussian_at_huge_dof():
    """Degrees of freedom 1e6 reproduce the Gaussian path within 1e-3."""
    frame = gen_ar(ArSpec(length=1000, ar_coeffs=(0.8,), noise_std=1.0, seed=1))
    ys = frame.values[:, 0]
    common = dict(alpha_mu=0.1, alpha_sigma=0.05, beta_mu=0.95, beta_sigma=0.95,
                  omega_mu=0.0, omega_sigma=0.05, gamma=0.5,
                  mu0=0.0, sigma2_0=1.0)
    tr_g = filter_series(GasParams(family=Family.GAUSSIAN, nu=100.0, **common), ys)
    tr_t = filter_series(GasParams(family=Family.STUDENT_T, nu=1e6, **common), ys)
    diff = max(
        np.max(np.abs(tr_g.mu_prior - tr_t.mu_prior)),
        np.max(np.abs(tr_g.sigma2_prior - tr_t.sigma2_prior)),
        abs(tr_g.mu_next - tr_t.mu_next),
        abs(tr_g.sigma2_next - tr_t.sigma2_next),
    )
    assert diff < 1e-3


def test_zero_strength_filter_reduces_to_static_normalization():
    """gamma=0 with initial statistics pinned at the training moments
    matches global mean/variance normalization elementwise to 1e-12."""
    rng = np.random.default_rng(2)
    for _ in range(10):
        values = rng.normal(loc=rng.uniform(-3, 3), scale=rng.uniform(0.5, 4),
                            size=(rng.integers(20, 200), 2))
        m = values.mean(axis=0)
        v = values.var(axis=0)
        params = {}
        names = ("a", "b")
        for j, name in enumerate(names):
            beta = 0.9
            params[name] = GasParams(
                alpha_mu=0.3, alpha_sigma=0.3, beta_mu=beta, beta_sigma=beta,
                omega_mu=(1.0 - beta) * m[j], omega_sigma=(1.0 - beta) * v[j],
                nu=100.0, gamma=0.0, mu0=m[j], sigma2_0=v[j],
                family=Family.GAUSSIAN,
            )
        gas = normalize(
            NormalizerSpec(NormalizerKind.GAS_NORM, gas_params=params), values, 3, names
        )
        stats = {n: (m[j], v[j]) for j, n in enumerate(names)}
        glob = normalize(
            NormalizerSpec(NormalizerKind.GLOBAL_NORM, global_stats=stats),
            values, 3, names,
        )
        np.testing.assert_allclose(
            gas.normalized_context, glob.normalized_context, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(gas.horizon_mu, glob.horizon_mu, atol=1e-12)
        np.testing.assert_allclose(gas.horizon_scale, glob.horizon_scale, atol=1e-12)


def test_fitted_objective_never_below_initialization():
    """On 20 seeded trending autoregressive series the optimizer keeps or
    improves the penalized objective in 20 of 20 cases."""
    wins = 0
    for seed in range(20):
        frame = gen_ar(ArSpec(length=150, ar_coeffs=(0.7,), noise_std=1.0,
                              trend_slope=0.03, seed=seed))
        ys = frame.values[:, 0]
        config = FitConfig(gamma=0.5, family=Family.GAUSSIAN, restarts=1, max_iters=120)
        result = fit(ys, config)
        init = _initial_params(config, float(np.mean(ys)), float(np.var(ys)))
        wins += result.objective >= penalized_objective(init, ys) - 1e-12
    assert wins == 20


def test_adaptive_normalization_beats_static_on_trending_data():
    """Identical residual forecaster, 5 seeds: score-driven normalization at
    the validation-selected strength yields strictly lower mean test MASE
    than global normalization."""
    spec = ExperimentSpec(
        dataset=ArSpec(length=900, ar_coeffs=(0.7,), noise_std=1.0,
                       trend_slope=0.05, seed=0),
        normalizers=("gas_norm", "global_norm"),
        forecaster=MlpSpec((32,), "relu", learning_rate=1e-4, epochs=20,
                           batch_size=32),
        split=SplitSpec(0.6, 0.2, context_length=20, horizon=4),
        gammas=(0.0, 0.1, 0.5, 0.9),
        seeds=(0, 1, 2, 3, 4),
        fit_restarts=2,
        fit_max_iters=200,
        stride=2,
    )
    report = run_experiment(spec)
    selected = report_row(report, "gas_norm_selected")
    static = report_row(report, "global_norm")
    assert selected.error is None and static.error is None
    assert selected.mase_mean < static.mase_mean


def test_adaptive_variance_beats_static_on_a_variance_break(tmp_path):
    """AR(1), phi 0.7, whose noise std steps from 1 to 4 halfway: gas_norm at
    gamma 0.9 beats global_norm and local_norm in mean test MASE over 5
    seeds, each by at least two combined standard errors. The mean never
    moves, so only the filter's variance half can earn the gap. (Measured:
    3.31 +/- 0.08 against 3.97 +/- 0.06 and 4.13 +/- 0.12.)"""
    t = np.arange(900)
    eps = np.random.default_rng(0).normal(size=900) * np.where(t < 450, 1.0, 4.0)
    ys = np.empty(900)
    ys[0] = eps[0]
    for i in range(1, 900):
        ys[i] = 0.7 * ys[i - 1] + eps[i]
    path = tmp_path / "variance_break.csv"
    write_csv(SeriesFrame(ys[:, None], ["y"]), path)
    spec = ExperimentSpec(
        dataset=str(path),
        normalizers=("gas_norm", "global_norm", "local_norm"),
        forecaster=MlpSpec((32,), "relu", learning_rate=1e-4, epochs=20),
        split=SplitSpec(0.6, 0.2, context_length=20, horizon=4),
        gammas=(0.9,),
        seeds=(0, 1, 2, 3, 4),
        family=Family.STUDENT_T,
        nu=100.0,
    )
    report = run_experiment(spec)
    adaptive = report_row(report, "gas_norm", 0.9)
    assert adaptive.error is None and adaptive.n_seeds == 5
    for name in ("global_norm", "local_norm"):
        static = report_row(report, name)
        assert static.error is None and static.n_seeds == 5
        gap = static.mase_mean - adaptive.mase_mean
        assert gap >= 2.0 * np.hypot(static.mase_stderr, adaptive.mase_stderr)


def _lorenz_pairs(frame, train_frac):
    """(contexts, targets) stacks: 10-step contexts, the third step ahead as target."""
    values = frame.values
    cut = int(train_frac * len(values))
    m = values[:cut].mean(axis=0)
    s = values[:cut].std(axis=0)
    std = SeriesFrame((values - m) / s, frame.feature_names)
    win = windows(std, 10, 3, stride=3)
    return win[:, :10], win[:, -1:]


def _pair_mse(model, pairs):
    contexts, targets = pairs
    per_window = np.mean((predict(model, contexts) - targets) ** 2, axis=(1, 2))
    return float(np.mean(per_window))


def _two_models(train_pairs, seed):
    relu = train(MlpSpec((64, 64), Activation.RELU, learning_rate=3e-3,
                         epochs=60, batch_size=32, seed=seed), *train_pairs)
    linear = train(MlpSpec((64, 64), Activation.IDENTITY, learning_rate=3e-3,
                           epochs=60, batch_size=32, seed=seed), *train_pairs)
    return relu, linear


def _rows(pairs, start, stop=None):
    return tuple(a[start:stop] for a in pairs)


def test_input_shift_flips_nonlinear_advantage():
    """The ReLU net beats the linear net on held-out chaotic data
    (MSE ratio < 1) but loses once inputs and targets are shifted by three
    training standard deviations (ratio > 1), for at least 4 of 5 seeds."""
    pairs = _lorenz_pairs(gen_lorenz(LorenzSpec(steps=3000, dt=0.02, seed=0)), 0.7)
    n = len(pairs[0])
    tr, te = _rows(pairs, 0, int(0.7 * n)), _rows(pairs, int(0.7 * n))
    shifted = (te[0] + 3.0, te[1] + 3.0)
    good = 0
    for seed in range(5):
        relu, linear = _two_models(tr, seed)
        unshifted_ratio = _pair_mse(relu, te) / _pair_mse(linear, te)
        shifted_ratio = _pair_mse(relu, shifted) / _pair_mse(linear, shifted)
        good += unshifted_ratio < 1.0 and shifted_ratio > 1.0
    assert good >= 4


def test_linear_model_extrapolates_quadratic_trend_better():
    """With a quadratic trend added, the linear net's MSE beyond the
    training range is below the ReLU net's for at least 4 of 5 seeds."""
    frame = add_quadratic_trend(gen_lorenz(LorenzSpec(steps=3000, dt=0.02, seed=0)),
                                1e-5)
    pairs = _lorenz_pairs(frame, 0.6)
    n = len(pairs[0])
    tr, extrap = _rows(pairs, 0, int(0.6 * n)), _rows(pairs, int(0.8 * n))
    good = 0
    for seed in range(5):
        relu, linear = _two_models(tr, seed)
        good += _pair_mse(linear, extrap) < _pair_mse(relu, extrap)
    assert good >= 4


def test_heavy_tails_shrink_the_outlier_response():
    """For a 10 sigma observation the one-step mean update under a
    heavy-tailed density (20 degrees of freedom) is strictly smaller in
    magnitude than the Gaussian update, across 100 random parameter draws."""
    rng = np.random.default_rng(4)
    for _ in range(100):
        mu = rng.uniform(-5.0, 5.0)
        sigma2 = rng.uniform(0.1, 10.0)
        y = mu + 10.0 * np.sqrt(sigma2)
        common = dict(
            alpha_mu=rng.uniform(0.01, 1.0), alpha_sigma=rng.uniform(0.01, 1.0),
            beta_mu=0.95, beta_sigma=0.95, omega_mu=0.0, omega_sigma=0.01,
            gamma=rng.uniform(0.05, 0.95), mu0=mu, sigma2_0=sigma2,
        )
        # one step from the prior (mu, sigma2) set as mu0 and sigma2_0; each next
        # prediction differs from the gamma = 0 one, omega + beta * mu, by beta times the update
        g = filter_series(GasParams(family=Family.GAUSSIAN, nu=100.0, **common), [y])
        t = filter_series(GasParams(family=Family.STUDENT_T, nu=20.0, **common), [y])
        no_update = 0.0 + 0.95 * mu
        assert abs(t.mu_next - no_update) < abs(g.mu_next - no_update)


def test_tracking_error_shrinks_with_normalization_strength():
    """After a level shift, the cumulative gap between the predicted mean and
    the new level is non-increasing in the strength parameter."""
    ys = np.concatenate([np.zeros(100), np.full(100, 5.0)])
    errors = []
    for gamma in (0.0, 0.1, 0.5, 0.9):
        params = GasParams(
            alpha_mu=0.05, alpha_sigma=0.0, beta_mu=0.999, beta_sigma=0.999,
            omega_mu=0.0, omega_sigma=0.001, nu=100.0, gamma=gamma,
            mu0=0.0, sigma2_0=1.0, family=Family.GAUSSIAN,
        )
        trace = filter_series(params, ys)
        errors.append(float(np.sum(np.abs(5.0 - trace.mu_prior[100:]))))
    assert all(a >= b for a, b in zip(errors, errors[1:]))


def test_filter_matches_independent_recursion():
    """50 random short series agree with a separately written step-by-step
    recursion to 1e-12 on every stored quantity."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 11))
        ys = rng.normal(scale=2.0, size=n)
        family = rng.choice(["gaussian", "t"])
        kwargs = dict(
            alpha_mu=rng.uniform(0.0, 0.5), alpha_sigma=rng.uniform(0.0, 0.5),
            beta_mu=rng.uniform(0.5, 0.999), beta_sigma=rng.uniform(0.5, 0.999),
            omega_mu=rng.uniform(-1, 1), omega_sigma=rng.uniform(0.01, 1.0),
            nu=rng.uniform(3.0, 50.0), gamma=rng.uniform(0.0, 0.9),
            mu0=rng.uniform(-1, 1), sigma2_0=rng.uniform(0.1, 4.0),
        )
        fam = Family.GAUSSIAN if family == "gaussian" else Family.STUDENT_T
        trace = filter_series(GasParams(family=fam, **kwargs), ys)
        prior, filt, loglik, penalty = naive_filter(ys, family, **kwargs)
        np.testing.assert_allclose(trace.mu_prior, prior[:, 0], atol=1e-12)
        np.testing.assert_allclose(trace.sigma2_prior, prior[:, 1], atol=1e-12)
        mu_next = kwargs["omega_mu"] + kwargs["beta_mu"] * filt[-1, 0]
        sigma2_next = max(kwargs["omega_sigma"] + kwargs["beta_sigma"] * filt[-1, 1], 1e-8)
        assert trace.mu_next == pytest.approx(mu_next, abs=1e-12)
        assert trace.sigma2_next == pytest.approx(sigma2_next, abs=1e-12)
        assert trace.loglik == pytest.approx(loglik, abs=1e-10)
        assert trace.penalty == pytest.approx(penalty, abs=1e-10)


def test_integrator_global_convergence_is_fourth_order():
    """Halving the step size four times against a tight-tolerance adaptive
    reference gives a log-log error slope in [3.7, 4.3]."""
    horizon = 0.25

    def rhs(_, s):
        x, y, z = s
        return [10.0 * (y - x), x * (28.0 - z) - y, x * y - 8.0 / 3.0 * z]

    ref = solve_ivp(rhs, (0.0, horizon), [1.0, 1.0, 1.0],
                    rtol=1e-12, atol=1e-12).y[:, -1]
    dts = (0.025, 0.0125, 0.00625, 0.003125)
    errs = []
    for dt in dts:
        frame = gen_lorenz(LorenzSpec(dt=dt, steps=round(horizon / dt),
                                      noise_std=0.0))
        errs.append(np.linalg.norm(frame.values[-1] - ref))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 3.7 < slope < 4.3


def test_scaled_error_hand_case_is_exact():
    """Train [1,2,3], actual [4,5], forecast [3,3], lag 1: MASE is 1.5."""
    out = mase([[4.0], [5.0]], [[3.0], [3.0]], [[1.0], [2.0], [3.0]], m=1)
    assert out[0] == 1.5
