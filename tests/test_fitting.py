import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import Bounds, minimize

import gasnorm.fitting as fitting_mod
from _helpers import fresh_interpreter, gasnorm_env, record_pools

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
from gasnorm.fitting import (
    _PARAM_ORDER,
    FitResult,
    _default_bounds,
    _initial_params,
    _negative,
    _nelder_mead,
    start_fit,
)


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
            config = FitConfig(gamma=0.5, family=Family.GAUSSIAN, restarts=2, max_iters=150)
            result = fit(ys, config)
            mean, var = float(np.mean(ys)), max(float(np.var(ys)), 1e-8)
            init = penalized_objective(_initial_params(config, mean, var), ys)
            assert result.objective >= init - 1e-12

    def test_deterministic(self):
        ys = iid_normal(120, seed=3)
        config = FitConfig(gamma=0.3, family=Family.STUDENT_T, nu=20.0,
                           restarts=3, max_iters=100)
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

    def test_without_a_pool_a_search_runs_when_the_fit_asks_for_it(self, objective_calls):
        ys = iid_normal(120, seed=8)
        config = FitConfig(gamma=0.5, family=Family.GAUSSIAN, restarts=3, max_iters=60)
        started = start_fit(ys, config)
        assert len(objective_calls) == 1  # the initial point
        result = fit(ys, config, started)
        assert result.evaluations == len(objective_calls) > 1
        assert result == fit(ys, config)

    def test_worker_processes_give_the_in_process_result(self, monkeypatch, objective_calls):
        ys = gen_ar(ArSpec(length=150, trend_slope=0.05, seed=2)).values[:, 0]
        config = FitConfig(gamma=0.4, family=Family.STUDENT_T, nu=20.0,
                           restarts=3, max_iters=120)
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

    def test_more_than_one_series_is_named_by_its_shape(self):
        # three series, not one series of 180 values
        ys = np.random.default_rng(0).normal(size=(60, 3))
        with pytest.raises(ValidationError, match=re.escape("got shape (60, 3)")):
            fit(ys, FitConfig())
        with pytest.raises(ValidationError, match=re.escape("got shape (60, 3)")):
            penalized_objective(GasParams(), ys)

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
        # the training variance is finite, but the variance score at the spike overflows,
        # even with the start's alpha capped for this gamma
        ys = np.zeros(300)
        ys[150] = 1e154
        config = FitConfig(gamma=0.99, family=Family.STUDENT_T, restarts=1)
        with pytest.raises(FitError, match="^objective is non-finite at the initialization point$"):
            fit(ys, config)

    @pytest.mark.parametrize("gamma", [0.99, 0.995])
    def test_a_gamma_near_one_starts_within_one_score_step(self, gamma):
        # an uncapped alpha = 0.05 would move the mean by 0.05 * gamma/(1-gamma) >= 4.95 a step
        ys = gen_ar(ArSpec(length=300, seed=0)).values[:, 0]
        start = _initial_params(FitConfig(gamma=gamma), float(np.mean(ys)), float(np.var(ys)))
        assert start.gamma_ratio * start.alpha_mu == pytest.approx(1.0)
        result = fit(ys, FitConfig(gamma=gamma, restarts=1, max_iters=50))
        assert np.isfinite(result.objective)

    def test_no_fit_loads_scipy(self):
        # a fresh interpreter: this one loaded scipy for the test oracles
        out = fresh_interpreter(
            """
            import os, sys
            import numpy as np
            from gasnorm import (ArSpec, ExperimentSpec, Family, FitConfig, MlpSpec, SplitSpec,
                                 fit, run_experiment)

            ys = np.random.default_rng(0).normal(size=60)
            fit(ys, FitConfig(gamma=0.5, family=Family.GAUSSIAN, restarts=2, max_iters=20))
            # with two usable cores the restarts ran in the process pool
            pooled = "concurrent.futures.process" in sys.modules
            print(pooled or len(os.sched_getaffinity(0)) < 2)
            spec = ExperimentSpec(
                dataset=ArSpec(length=120, seed=0),
                normalizers=("gas_norm",),
                forecaster=MlpSpec((4,), epochs=1),
                split=SplitSpec(0.6, 0.2, context_length=10, horizon=2),
                gammas=(0.5,),
                fit_max_iters=20,
            )
            assert run_experiment(spec).rows[0].error is None
            print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
            """
        )
        assert out.split("\n") == ["True", "[]", ""]

    def test_fitting_nu_needs_the_student_t_family(self):
        with pytest.raises(ValidationError, match="fit_nu needs the student_t family"):
            FitConfig(family="gaussian", fit_nu=True)

    def test_a_restart_seed_is_refused(self):
        # the perturbed starts always come from seed 0, so a seed given is not ignored
        with pytest.raises(TypeError, match="'seed'"):
            FitConfig(seed=1)


def _scipy_nelder_mead(func, x0, lo, hi, max_iters, args):
    """``_nelder_mead``'s contract, run by scipy: the oracle it is held to."""
    res = minimize(func, x0, args=args, method="Nelder-Mead", bounds=Bounds(lo, hi),
                   options={"maxiter": max_iters, "xatol": 1e-6, "fatol": 1e-8})
    return res.x, res.fun, res.nit, res.nfev, res.success


def _test_objective(x, center, scale, cut, plateau):
    """A scaled quadratic bowl, rounded into plateaus (ties) if ``plateau``; inf past ``cut``."""
    if x.sum() > cut:
        return np.inf
    value = float(np.sum(scale * (x - center) ** 2))
    return round(value, 1) if plateau else value


@st.composite
def _boxed_problems(draw):
    n = draw(st.integers(1, 7))  # 7: the six filter parameters and nu
    coords = st.floats(-10.0, 10.0, allow_subnormal=False)
    lo = np.array(draw(st.lists(st.one_of(st.just(0.0), coords), min_size=n, max_size=n)))
    width = np.array(draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n)))
    hi = lo + width
    # 0 and 1 put a coordinate on its lower or upper bound; the upper bound reflects
    at = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                                min_size=n, max_size=n)))
    x0 = np.where(at == 1.0, hi, lo + at * width)
    center = np.array(draw(st.lists(coords, min_size=n, max_size=n)))
    scale = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    # a cut below the box makes the whole box inf
    cut = draw(st.one_of(st.just(np.inf), st.floats(-70.0, 140.0)))
    args = (center, scale, cut, draw(st.booleans()))
    return x0, lo, hi, draw(st.integers(1, 150)), args


class TestNelderMead:
    @given(problem=_boxed_problems())
    @settings(max_examples=150, deadline=None)
    def test_matches_scipy_bit_for_bit(self, problem):
        x0, lo, hi, max_iters, args = problem
        with np.errstate(invalid="ignore"):  # inf - inf in the fatol test, on both sides
            ours = _nelder_mead(_test_objective, x0, lo, hi, max_iters, args)
            theirs = _scipy_nelder_mead(_test_objective, x0, lo, hi, max_iters, args)
        assert np.array_equal(ours[0], theirs[0])
        assert ours[1:] == theirs[1:]

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
    def test_the_reference_fit_is_scipys(self, monkeypatch, gamma):
        # README's experiment: the first 540 steps train, 2 restarts of at most 300 iterations
        ys = gen_ar(ArSpec(length=900, ar_coeffs=(0.7,), trend_slope=0.05, seed=0)).values
        config = FitConfig(gamma=gamma, restarts=2, max_iters=300)
        ours = fit(ys[:540, 0], config)
        monkeypatch.setattr(fitting_mod, "_nelder_mead", _scipy_nelder_mead)
        assert fit(ys[:540, 0], config) == ours


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

    def test_every_features_searches_share_one_pool(self, monkeypatch):
        frame = SeriesFrame(np.random.default_rng(6).normal(size=(80, 3)), ["a", "b", "c"])
        config = FitConfig(family=Family.GAUSSIAN, restarts=2, max_iters=40)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        in_process = fit_frame(frame, config)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pools = record_pools(monkeypatch)
        assert fit_frame(frame, config) == in_process
        assert pools == [[2] + ["_nelder_mead"] * 6]

    def test_every_feature_invalid_is_invalid_input(self):
        frame = SeriesFrame(np.ones((5, 2)), ["a", "b"])
        with pytest.raises(ValidationError, match="at least 10 observations") as info:
            fit_frame(frame, FitConfig(family=Family.GAUSSIAN, restarts=1, max_iters=10))
        assert "a: " in str(info.value) and "b: " in str(info.value)

    def test_one_failed_feature_fails_the_frame_and_is_named(self):
        values = np.random.default_rng(5).normal(size=(60, 2))
        values[30, 1] = 1e200
        frame = SeriesFrame(values, ["a", "b"])
        message = "1 of 2 features failed to fit: b: training variance must be finite, got inf"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            fit_frame(frame, FitConfig(family=Family.GAUSSIAN, restarts=1, max_iters=20))

    def test_a_numerical_failure_makes_it_a_fit_error(self, monkeypatch):
        def fail(ys, config, started=None):
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


def _children(pid: int) -> list[int]:
    """The processes whose parent is ``pid``, from Linux's /proc."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid:
            found.append(int(entry))
    return found


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc") or not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs Linux's /proc and two usable cores for a pool")
def test_a_fit_killed_by_a_signal_leaves_no_running_worker():
    # a signal runs no finally, so only the kernel can end the pool's workers
    code = ("import numpy as np; from gasnorm import FitConfig, fit;"
            " fit(np.random.default_rng(0).normal(size=20000), FitConfig(restarts=2))")
    parent = subprocess.Popen([sys.executable, "-c", code], env=gasnorm_env())
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2:
            assert parent.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
            workers = _children(parent.pid)
        parent.send_signal(signal.SIGTERM)
        parent.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _running(pid)]
    finally:
        parent.kill()
        parent.wait()
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
