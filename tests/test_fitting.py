import json
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import gasnorm.fitting as fitting_mod
from _helpers import fresh_interpreter

from gasnorm import (
    ArSpec,
    Family,
    FitConfig,
    GasParams,
    SeriesFrame,
    fit,
    fit_frame,
    filter_series,
    gen_ar,
    penalized_objective,
)
from gasnorm.errors import FitError, NumericalError, ValidationError, from_keys, to_json
from gasnorm.fitting import _PARAM_ORDER, FitResult, _default_bounds, _initial_params, _negative


def iid_normal(n=200, seed=0):
    return np.random.default_rng(seed).normal(size=n)


class TestPenalizedObjective:
    def test_gamma_zero_is_zero(self):
        # gamma = 0 removes the score step, so every penalty term vanishes too
        p = GasParams(family=Family.GAUSSIAN, gamma=0.0, beta_mu=0.9, beta_sigma=0.9)
        assert penalized_objective(p, iid_normal()) == 0.0

    def test_pinned_params_give_weighted_loglik(self):
        ys = iid_normal(300, seed=1)
        gamma = 0.6
        p = GasParams(
            family=Family.GAUSSIAN, gamma=gamma, alpha_mu=0.0, alpha_sigma=0.0,
            beta_mu=0.0, beta_sigma=0.0, omega_mu=0.0, omega_sigma=1.0,
            mu0=0.0, sigma2_0=1.0,
        )
        expected = gamma * stats.norm.logpdf(ys).sum()
        assert penalized_objective(p, ys) == pytest.approx(expected, rel=1e-12)

    def test_length_one_series(self):
        p = GasParams(family=Family.GAUSSIAN, gamma=0.5, mu0=0.0, sigma2_0=1.0)
        obj = penalized_objective(p, [0.7])
        trace = filter_series(p, [0.7])
        assert obj == pytest.approx(0.5 * trace.loglik - 0.25 * trace.penalty)


@pytest.fixture
def objective_calls(monkeypatch):
    """Counts the objective evaluations made in this process (workers keep their own)."""
    calls = []

    def counted(params, ys):
        calls.append(1)
        return penalized_objective(params, ys)

    monkeypatch.setattr(fitting_mod, "penalized_objective", counted)
    return calls


class TestFit:
    def test_objective_never_below_initialization(self):
        for seed in range(5):
            ys = gen_ar(ArSpec(length=150, trend_slope=0.05, seed=seed)).values[:, 0]
            config = FitConfig(gamma=0.5, family=Family.GAUSSIAN, seed=seed,
                               restarts=2, max_iters=150)
            result = fit(ys, config)
            mean, var = float(np.mean(ys)), max(float(np.var(ys)), 1e-8)
            init = penalized_objective(_initial_params(config, mean, var), ys)
            assert result.objective >= init - 1e-12

    def test_deterministic(self):
        ys = iid_normal(120, seed=3)
        config = FitConfig(gamma=0.3, family=Family.STUDENT_T, nu=20.0,
                           restarts=3, seed=11, max_iters=100)
        assert fit(ys, config) == fit(ys, config)

    def test_trend_tracking_beats_static(self):
        t = np.arange(300, dtype=float)
        ys = 0.1 * t + np.random.default_rng(0).normal(scale=0.1, size=300)
        config = FitConfig(gamma=0.5, family=Family.GAUSSIAN, restarts=2, max_iters=300)
        fitted = fit(ys, config)
        static = replace(fitted.params, gamma=0.0)
        err_fit = np.mean(np.abs(filter_series(fitted.params, ys).mu_prior - ys))
        err_static = np.mean(np.abs(filter_series(static, ys).mu_prior - ys))
        assert err_fit < err_static

    def test_bounds_respected(self):
        ys = iid_normal(100, seed=4) * 5.0 + 2.0
        config = FitConfig(gamma=0.7, family=Family.GAUSSIAN, restarts=3, max_iters=200)
        result = fit(ys, config)
        bounds = _default_bounds(float(np.mean(ys)), float(np.var(ys)))
        for name in ("alpha_mu", "alpha_sigma", "beta_mu", "beta_sigma",
                     "omega_mu", "omega_sigma"):
            lo, hi = bounds[name]
            assert lo <= getattr(result.params, name) <= hi

    def test_theta0_pinned_to_training_moments(self):
        ys = iid_normal(100, seed=6) * 3.0 + 1.0
        result = fit(ys, FitConfig(family=Family.GAUSSIAN, restarts=1, max_iters=50))
        assert result.params.mu0 == pytest.approx(np.mean(ys))
        assert result.params.sigma2_0 == pytest.approx(np.var(ys))

    def test_fit_nu(self):
        rng = np.random.default_rng(7)
        ys = rng.standard_t(df=4, size=400)
        config = FitConfig(gamma=0.4, family=Family.STUDENT_T, fit_nu=True,
                           restarts=2, max_iters=300)
        result = fit(ys, config)
        assert 2.1 <= result.params.nu <= 1000.0

    def test_gamma_zero_fit_does_not_report_convergence(self):
        # gamma = 0 makes the objective identically 0: no restart improves on the start
        config = FitConfig(gamma=0.0, family=Family.GAUSSIAN, restarts=2, max_iters=50)
        result = fit(iid_normal(), config)
        assert result.converged is False
        assert result.iterations == 0

    def test_gamma_zero_returns_clipped_initial_point_in_one_evaluation(self, monkeypatch):
        evaluated = []

        def counted(params, ys):
            evaluated.append(params)
            return penalized_objective(params, ys)

        monkeypatch.setattr(fitting_mod, "penalized_objective", counted)
        ys = iid_normal(150, seed=4) * 2.0 + 1.0
        # nu = 5000 lies above its box (2.1, 1000), so the start is clipped to 1000
        config = FitConfig(gamma=0.0, restarts=3, fit_nu=True, nu=5000.0)
        result = fit(ys, config)
        start = _initial_params(config, float(np.mean(ys)), float(np.var(ys)))
        expected = replace(start, nu=1000.0)
        assert evaluated == [expected]
        assert result.params == expected
        assert result.objective == 0.0
        assert (result.iterations, result.converged, result.evaluations) == (0, False, 1)

    def test_evaluations_count_every_objective_call(self, monkeypatch, objective_calls):
        # one usable core: every restart runs in this process, where calls are counted
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        config = FitConfig(gamma=0.5, family=Family.GAUSSIAN, restarts=3, max_iters=60)
        result = fit(iid_normal(120, seed=8), config)
        assert result.evaluations == len(objective_calls) > 1

    def test_worker_processes_give_the_in_process_result(self, monkeypatch, objective_calls):
        ys = gen_ar(ArSpec(length=150, trend_slope=0.05, seed=2)).values[:, 0]
        config = FitConfig(gamma=0.4, family=Family.STUDENT_T, nu=20.0,
                           restarts=3, seed=5, max_iters=120)
        results, parent_calls = [], []
        for cores in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
            objective_calls.clear()
            results.append(fit(ys, config))
            parent_calls.append(len(objective_calls))
        assert results[0] == results[1]
        # with two cores the restarts ran in workers: only the initial point ran here
        assert parent_calls == [results[0].evaluations, 1]

    def test_too_short_errors(self):
        with pytest.raises(ValidationError):
            fit(np.ones(5), FitConfig())

    @pytest.mark.filterwarnings("error")
    def test_overflowing_variance_is_invalid_input(self):
        ys = iid_normal(50)
        ys[20] = 1e200
        with pytest.raises(ValidationError, match="training variance must be finite, got inf"):
            fit(ys, FitConfig(family=Family.GAUSSIAN))

    def test_an_objective_that_raises_reads_as_infinitely_bad(self):
        ys = iid_normal(50)
        template = _initial_params(FitConfig(family=Family.GAUSSIAN), 0.0, 1.0)
        x = np.array([getattr(template, n) for n in _PARAM_ORDER])
        # GasParams rejects beta_mu = 1
        outside = x.copy()
        outside[_PARAM_ORDER.index("beta_mu")] = 1.0
        assert _negative(outside, template, False, ys) == np.inf
        # a 1e200 spike overflows the filter state
        spiked = ys.copy()
        spiked[20] = 1e200
        assert _negative(x, template, False, spiked) == np.inf

    def test_a_start_whose_filter_blows_up_is_a_fit_error(self):
        # at gamma = 0.99 the start moves the mean by 4.95 residuals a step: the state overflows
        config = FitConfig(gamma=0.99, family=Family.GAUSSIAN, restarts=1)
        with pytest.raises(FitError, match="^objective is non-finite at the initialization point$"):
            fit(iid_normal(300), config)

    def test_the_optimizer_is_loaded_before_the_restarts_fork(self):
        # a fresh interpreter: this one loaded scipy.optimize with scipy.stats
        out = fresh_interpreter(
            """
            import sys
            import numpy as np
            import gasnorm.fitting as fitting
            from gasnorm import Family, FitConfig

            run_restarts = fitting._run_restarts
            loaded = []

            def wrapper(tasks):
                loaded.append("scipy.optimize" in sys.modules)
                return run_restarts(tasks)

            fitting._run_restarts = wrapper
            before = "scipy.optimize" in sys.modules
            ys = np.random.default_rng(0).normal(size=60)
            fitting.fit(ys, FitConfig(gamma=0.5, family=Family.GAUSSIAN, restarts=1, max_iters=20))
            print(before, loaded)
            """
        )
        assert out.split() == ["False", "[True]"]


class TestFitFrame:
    def test_two_features_keyed_by_name(self):
        frame = SeriesFrame(np.random.default_rng(0).normal(size=(80, 2)), ["a", "b"])
        results = fit_frame(frame, FitConfig(family=Family.GAUSSIAN, restarts=1, max_iters=60))
        assert set(results) == {"a", "b"}

    def test_constant_feature_isolated(self):
        rng = np.random.default_rng(1)
        values = np.column_stack([np.full(80, 3.0), rng.normal(size=80)])
        frame = SeriesFrame(values, ["const", "noise"])
        results = fit_frame(frame, FitConfig(family=Family.GAUSSIAN, restarts=1, max_iters=60))
        assert "noise" in results and "const" in results
        assert results["const"].params.sigma2_0 == pytest.approx(1e-8)

    def test_duplicated_columns_identical_results(self):
        col = np.random.default_rng(2).normal(size=90)
        frame = SeriesFrame(np.column_stack([col, col]), ["x", "y"])
        results = fit_frame(frame, FitConfig(family=Family.GAUSSIAN, restarts=2, max_iters=80))
        assert results["x"].params == results["y"].params
        assert results["x"].objective == results["y"].objective

    def test_column_permutation_permutes_results(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(80, 2)) * np.array([1.0, 4.0])
        config = FitConfig(family=Family.GAUSSIAN, restarts=1, max_iters=60)
        r1 = fit_frame(SeriesFrame(values, ["a", "b"]), config)
        r2 = fit_frame(SeriesFrame(values[:, ::-1].copy(), ["b", "a"]), config)
        assert r1["a"] == r2["a"]
        assert r1["b"] == r2["b"]

    def test_every_feature_invalid_is_invalid_input(self):
        frame = SeriesFrame(np.ones((5, 2)), ["a", "b"])
        with pytest.raises(ValidationError, match="at least 10 observations") as info:
            fit_frame(frame, FitConfig(family=Family.GAUSSIAN, restarts=1, max_iters=10))
        assert "a: " in str(info.value) and "b: " in str(info.value)

    def test_a_failed_feature_is_warned_about_and_the_rest_fit(self):
        values = np.random.default_rng(5).normal(size=(60, 2))
        values[30, 1] = 1e200
        frame = SeriesFrame(values, ["a", "b"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = fit_frame(frame, FitConfig(family=Family.GAUSSIAN, restarts=1,
                                                 max_iters=20))
        assert list(results) == ["a"]
        assert [str(w.message) for w in caught] == [
            "feature 'b' failed to fit: training variance must be finite, got inf"
        ]
        assert caught[0].category is UserWarning

    def test_a_numerical_failure_makes_it_a_fit_error(self, monkeypatch):
        def fail(ys, config):
            if ys[0] > 0:
                raise NumericalError("filter diverged")
            raise ValidationError("too short")

        monkeypatch.setattr(fitting_mod, "fit", fail)
        frame = SeriesFrame(np.array([[1.0, -1.0]] * 20), ["a", "b"])
        with pytest.raises(FitError, match="a: filter diverged; b: too short"):
            fit_frame(frame, FitConfig())

    def test_serialization_round_trip(self):
        frame = SeriesFrame(np.random.default_rng(4).normal(size=(60, 1)), ["v"])
        results = fit_frame(frame, FitConfig(family=Family.STUDENT_T, nu=20.0,
                                             restarts=1, max_iters=40))
        doc = json.loads(json.dumps(to_json(results)))
        back = {name: from_keys(FitResult, r, name) for name, r in doc.items()}
        assert back == results
