import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import traced_peak
from _oracles import fd_scores, naive_filter, score_and_fim
from gasnorm import (
    VARIANCE_FLOOR,
    Family,
    FitConfig,
    GasParams,
    filter_series,
    forecast_statistics,
)
from gasnorm.errors import NumericalError, ValidationError, from_keys, to_json


def gaussian_params(**kw):
    base = dict(
        family=Family.GAUSSIAN, gamma=0.5, alpha_mu=0.1, alpha_sigma=0.1,
        beta_mu=0.9, beta_sigma=0.9, omega_mu=0.0, omega_sigma=0.1,
        mu0=0.0, sigma2_0=1.0,
    )
    base.update(kw)
    return GasParams(**base)


class TestScoreAndFim:
    def test_gaussian_zero_residual(self):
        s_mu, s_s2, _, _ = score_and_fim(Family.GAUSSIAN, 3.0, 3.0, 2.0)
        assert s_mu == 0.0
        assert s_s2 == pytest.approx(-1.0 / (2.0 * 2.0))

    def test_gaussian_hand_case(self):
        s_mu, s_s2, f_mu, f_s2 = score_and_fim(Family.GAUSSIAN, 2.0, 0.0, 1.0)
        assert (s_mu, s_s2, f_mu, f_s2) == (2.0, 1.5, 1.0, 0.5)

    def test_student_t_large_nu_matches_gaussian(self):
        t = score_and_fim(Family.STUDENT_T, 2.0, 0.0, 1.0, nu=1e6)
        g = score_and_fim(Family.GAUSSIAN, 2.0, 0.0, 1.0)
        np.testing.assert_allclose(t[:2], g[:2], atol=1e-4)

    def test_invalid_sigma2(self):
        with pytest.raises(ValidationError):
            score_and_fim(Family.GAUSSIAN, 1.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            score_and_fim(Family.STUDENT_T, 1.0, 0.0, -1.0, nu=5.0)

    def test_scores_match_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            y = rng.uniform(-10, 10)
            mu = rng.uniform(-10, 10)
            s2 = 10.0 ** rng.uniform(-2, 2)
            nu = rng.uniform(3, 100)
            for family, tag in ((Family.GAUSSIAN, "gaussian"), (Family.STUDENT_T, "t")):
                a_mu, a_s2, _, _ = score_and_fim(family, y, mu, s2, nu)
                n_mu, n_s2 = fd_scores(tag, y, mu, s2, nu)
                for a, n in ((a_mu, n_mu), (a_s2, n_s2)):
                    denom = max(abs(a), abs(n), 1e-3)
                    assert abs(a - n) / denom < 1e-6

    @given(
        s2=st.floats(1e-4, 1e4),
        nu=st.floats(2.01, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_fim_positive(self, s2, nu):
        _, _, f_mu_g, f_s2_g = score_and_fim(Family.GAUSSIAN, 0.0, 0.0, s2)
        _, _, f_mu_t, f_s2_t = score_and_fim(Family.STUDENT_T, 0.0, 0.0, s2, nu)
        assert f_mu_g > 0 and f_s2_g > 0 and f_mu_t > 0 and f_s2_t > 0


class TestUpdate:
    """One observation step from the prior (mu0, sigma2_0)."""

    def test_gaussian_mean_hand_case(self):
        p = gaussian_params(beta_mu=0.99, omega_mu=0.0)
        # gamma/(1-gamma) = 1 at gamma = 0.5, scaled mean score is y - mu
        # the update moves mu to 0.2, and the prediction step scales it by beta
        trace = filter_series(p, [2.0])
        assert trace.mu_next == pytest.approx(0.99 * 0.2, abs=1e-15)

    def test_gaussian_variance_hand_case(self):
        # the update moves sigma2 to 1 + 0.1 * (4 - 1), then omega + beta * that
        trace = filter_series(gaussian_params(), [2.0])
        assert trace.sigma2_next == pytest.approx(0.1 + 0.9 * (1.0 + 0.1 * (4.0 - 1.0)), abs=1e-15)

    def test_gamma_zero_keeps_prediction(self):
        p = gaussian_params(gamma=0.0)
        # no update: the next prediction is the affine step from the initial state
        trace = filter_series(p, [123.4])
        assert trace.mu_next == p.omega_mu + p.beta_mu * p.mu0
        assert trace.sigma2_next == p.omega_sigma + p.beta_sigma * p.sigma2_0

    def test_prediction_step_applied(self):
        p = gaussian_params(beta_mu=0.5, omega_mu=1.0)
        # the second step's prior is the prediction made from the first updated value, 0.2
        trace = filter_series(p, [2.0, 0.0])
        assert trace.mu_prior[1] == pytest.approx(1.0 + 0.5 * 0.2)
        # and it is the next prediction of the one-step series
        assert filter_series(p, [2.0]).mu_next == trace.mu_prior[1]

    def test_non_finite_observation(self):
        with pytest.raises(ValidationError):
            filter_series(gaussian_params(), [np.nan])


class TestFilterSeries:
    def test_constant_series_fixed_point(self):
        c = 4.2
        p = gaussian_params(mu0=c, omega_mu=c * 0.1, beta_mu=0.9)
        # omega = (1 - beta) * c keeps the prediction at c
        p = GasParams(**{**to_json(p), "omega_mu": (1 - 0.9) * c})
        trace = filter_series(p, np.full(50, c))
        np.testing.assert_allclose(trace.mu_prior, c, atol=1e-12)

    def test_single_observation(self):
        trace = filter_series(gaussian_params(), [1.0])
        assert len(trace) == 1

    def test_three_step_matches_oracle(self):
        p = gaussian_params()
        trace = filter_series(p, [1.0, 2.0, 3.0])
        prior, filt, loglik, penalty = naive_filter(
            [1.0, 2.0, 3.0], "gaussian", 0.1, 0.1, 0.9, 0.9, 0.0, 0.1,
            p.nu, 0.5, 0.0, 1.0,
        )
        np.testing.assert_allclose(trace.mu_prior, prior[:, 0], atol=1e-13)
        assert trace.mu_next == pytest.approx(0.0 + 0.9 * filt[-1, 0], abs=1e-13)
        assert trace.sigma2_next == pytest.approx(max(0.1 + 0.9 * filt[-1, 1], 1e-8), abs=1e-13)
        assert trace.loglik == pytest.approx(loglik, abs=1e-11)
        assert trace.penalty == pytest.approx(penalty, abs=1e-11)

    def test_oracle_equivalence_random_short_series(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = rng.integers(1, 11)
            ys = rng.normal(scale=2.0, size=n)
            family = rng.choice(["gaussian", "student_t"])
            kw = dict(
                alpha_mu=rng.uniform(0, 0.5), alpha_sigma=rng.uniform(0, 0.5),
                beta_mu=rng.uniform(0, 0.99), beta_sigma=rng.uniform(0, 0.99),
                omega_mu=rng.uniform(-1, 1), omega_sigma=rng.uniform(0.01, 1),
                nu=rng.uniform(3, 50), gamma=rng.uniform(0, 0.9),
                mu0=rng.uniform(-1, 1), sigma2_0=rng.uniform(0.1, 2),
            )
            p = GasParams(family=Family(family), **kw)
            trace = filter_series(p, ys)
            prior, filt, loglik, penalty = naive_filter(
                ys, "gaussian" if family == "gaussian" else "t",
                kw["alpha_mu"], kw["alpha_sigma"], kw["beta_mu"], kw["beta_sigma"],
                kw["omega_mu"], kw["omega_sigma"], kw["nu"], kw["gamma"],
                kw["mu0"], kw["sigma2_0"],
            )
            np.testing.assert_allclose(trace.mu_prior, prior[:, 0], atol=1e-12)
            np.testing.assert_allclose(trace.sigma2_prior, prior[:, 1], atol=1e-12)
            mu_next = kw["omega_mu"] + kw["beta_mu"] * filt[-1, 0]
            sigma2_next = max(kw["omega_sigma"] + kw["beta_sigma"] * filt[-1, 1], 1e-8)
            assert trace.mu_next == pytest.approx(mu_next, abs=1e-12)
            assert trace.sigma2_next == pytest.approx(sigma2_next, abs=1e-12)
            assert trace.loglik == pytest.approx(loglik, abs=1e-10)

    @given(
        ys=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=30),
        family=st.sampled_from(list(Family)),
        alpha=st.floats(0.0, 0.5),
        beta=st.floats(0.0, 0.99),
        gamma=st.floats(0.0, 0.9),
        nu=st.floats(2.5, 50.0),
        mu0=st.floats(-2.0, 2.0),
        sigma2_0=st.floats(0.05, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_numpy_scalar_params_give_bit_identical_traces(
        self, ys, family, alpha, beta, gamma, nu, mu0, sigma2_0
    ):
        kw = dict(
            alpha_mu=alpha, alpha_sigma=0.5 * alpha, beta_mu=beta, beta_sigma=beta,
            omega_mu=0.1, omega_sigma=0.2, nu=nu, gamma=gamma, mu0=mu0, sigma2_0=sigma2_0,
        )
        plain = filter_series(GasParams(family=family, **kw), ys)
        as_numpy = {k: np.float64(v) for k, v in kw.items()}
        from_numpy = filter_series(GasParams(family=family, **as_numpy), np.array(ys))
        def bits(trace):
            values = (trace.mu_prior, trace.sigma2_prior, trace.mu_next, trace.sigma2_next,
                      trace.loglik, trace.penalty)
            return [np.asarray(v).tobytes() for v in values]

        assert bits(from_numpy) == bits(plain)
        prior, filt, loglik, penalty = naive_filter(
            ys, "gaussian" if family is Family.GAUSSIAN else "t", **kw
        )
        np.testing.assert_allclose(plain.mu_prior, prior[:, 0], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(plain.sigma2_prior, prior[:, 1], rtol=1e-10, atol=1e-12)
        mu_next = 0.1 + beta * filt[-1, 0]
        sigma2_next = max(0.2 + beta * filt[-1, 1], 1e-8)
        assert plain.mu_next == pytest.approx(mu_next, rel=1e-10, abs=1e-12)
        assert plain.sigma2_next == pytest.approx(sigma2_next, rel=1e-10, abs=1e-12)
        assert plain.loglik == pytest.approx(loglik, rel=1e-10, abs=1e-9)
        assert plain.penalty == pytest.approx(penalty, rel=1e-10, abs=1e-9)

    def test_limit_equivalence_student_t_to_gaussian(self):
        rng = np.random.default_rng(1)
        ys = np.clip(rng.normal(scale=3.0, size=1000), -10, 10)
        kw = dict(gamma=0.5, alpha_mu=0.2, alpha_sigma=0.2, beta_mu=0.95,
                  beta_sigma=0.95, omega_mu=0.0, omega_sigma=0.3, mu0=0.0, sigma2_0=1.0)
        t_trace = filter_series(GasParams(family=Family.STUDENT_T, nu=1e6, **kw), ys)
        g_trace = filter_series(GasParams(family=Family.GAUSSIAN, **kw), ys)
        assert abs(t_trace.mu_next - g_trace.mu_next) < 1e-3
        assert abs(t_trace.sigma2_next - g_trace.sigma2_next) < 1e-3

    def test_gamma_zero_is_observation_free(self):
        p = gaussian_params(gamma=0.0, beta_mu=0.8, omega_mu=0.5)
        ys1 = np.random.default_rng(0).normal(size=100)
        ys2 = np.random.default_rng(1).normal(size=100) * 5.0
        t1 = filter_series(p, ys1)
        t2 = filter_series(p, ys2)
        np.testing.assert_allclose(t1.mu_prior, t2.mu_prior, atol=1e-12)
        # equals the affine recursion from theta_0
        mu = p.mu0
        for t in range(100):
            assert abs(t1.mu_prior[t] - mu) < 1e-12
            mu = p.omega_mu + p.beta_mu * mu

    def test_variance_floor_everywhere(self):
        for sigma2_0 in (1.0, 1e-12):
            p = gaussian_params(alpha_sigma=1.9, omega_sigma=0.0, beta_sigma=0.0,
                                sigma2_0=sigma2_0)
            trace = filter_series(p, np.zeros(200))
            assert trace.sigma2_next >= VARIANCE_FLOOR
            assert np.all(trace.sigma2_prior >= VARIANCE_FLOOR)
        # an initial variance below the floor starts the filter at the floor
        assert trace.sigma2_prior[0] == VARIANCE_FLOOR

    # float.hex of loglik, penalty, mu_next and sigma2_next: any change to the
    # step's arithmetic, or to how its expressions are grouped, shows here
    @pytest.mark.parametrize(
        "family, expected",
        [
            (Family.GAUSSIAN, ("-0x1.6afac31aab123p+8", "0x1.a333260a89245p+5",
                               "-0x1.5cb9c1f0e0bd9p+2", "0x1.70e2f32ea7544p-2")),
            (Family.STUDENT_T, ("-0x1.9efa52b973065p+8", "0x1.0634f0480ddcbp+5",
                                "-0x1.5cb24913fd64dp+2", "0x1.799a022dcb612p-2")),
        ],
    )
    def test_pinned_bits(self, family, expected):
        ys = np.cumsum(np.random.default_rng(16).normal(size=500)) * 0.3
        p = GasParams(family=family, alpha_mu=0.2, alpha_sigma=0.1, beta_mu=0.97,
                      beta_sigma=0.9, omega_mu=0.02, omega_sigma=0.1, nu=6.0, gamma=0.7,
                      mu0=0.5, sigma2_0=2.0)
        trace = filter_series(p, ys)
        got = (trace.loglik, trace.penalty, trace.mu_next, trace.sigma2_next)
        assert tuple(float(v).hex() for v in got) == expected

    def test_empty_series_errors(self):
        with pytest.raises(ValidationError):
            filter_series(gaussian_params(), [])

    @pytest.mark.parametrize("shape", [(5, 2), (5, 1, 1), (2, 3, 4), ()])
    def test_more_than_one_series_is_named_by_its_shape(self, shape):
        # a (T, k) array is k series, not one series of T*k steps
        with pytest.raises(ValidationError, match=re.escape(f"got shape {shape}")):
            filter_series(gaussian_params(), np.ones(shape))

    def test_a_column_is_its_series(self):
        ys = np.random.default_rng(4).normal(size=30)
        p = gaussian_params()
        want = filter_series(p, ys)
        for column in (ys[:, None], np.stack([ys, ys], axis=1)[:, :1]):
            got = filter_series(p, column)
            assert np.array_equal(got.mu_prior, want.mu_prior)
            assert (got.loglik, got.penalty) == (want.loglik, want.penalty)

    @pytest.mark.parametrize("family", list(Family))
    def test_holds_under_three_times_its_trace_bytes(self, family):
        # a list of boxed floats per output took about 5x
        ys = np.cumsum(np.random.default_rng(19).normal(size=20_000)) * 0.1
        trace, peak = traced_peak(filter_series, GasParams(family=family, gamma=0.5), ys)
        assert peak < 3 * (trace.mu_prior.nbytes + trace.sigma2_prior.nbytes)

    @pytest.mark.parametrize("family", list(Family))
    def test_state_blow_up_names_its_timestep(self, family):
        # 1e200 squared overflows the log-likelihood at the step that sees it
        with pytest.raises(NumericalError, match="non-finite at timestep 1$"):
            filter_series(GasParams(family=family, gamma=0.5), [0.0, 1e200, 0.0])


class TestForecastStatistics:
    def test_beta_zero_collapses_to_omega(self):
        p = gaussian_params(beta_mu=0.0, omega_mu=3.0)
        mu, _ = forecast_statistics(p, p.mu0, p.sigma2_0, 5)
        # step 0 is the prediction given, every later step omega
        assert mu[0] == p.mu0
        np.testing.assert_allclose(mu[1:], 3.0)

    def test_hand_iteration(self):
        p = gaussian_params(beta_mu=0.5, omega_mu=0.0)
        mu, sigma2 = forecast_statistics(p, 4.0, 1.0, 3)
        assert (mu[0], sigma2[0]) == (4.0, 1.0)
        np.testing.assert_allclose(mu, [4.0, 2.0, 1.0])

    def test_step_zero_variance_is_floored(self):
        _, sigma2 = forecast_statistics(gaussian_params(), 0.0, 1e-12, 2)
        assert sigma2[0] == VARIANCE_FLOOR

    def test_fixed_point_convergence(self):
        p = gaussian_params(beta_mu=0.7, omega_mu=0.6, beta_sigma=0.5, omega_sigma=1.0)
        mu, sigma2 = forecast_statistics(p, p.mu0, p.sigma2_0, 200)
        assert mu[-1] == pytest.approx(0.6 / 0.3, abs=1e-9)
        assert sigma2[-1] == pytest.approx(1.0 / 0.5, abs=1e-9)

    def test_invalid_horizon(self):
        p = gaussian_params()
        with pytest.raises(ValidationError):
            forecast_statistics(p, p.mu0, p.sigma2_0, 0)

    def test_stack_equals_one_call_per_entry(self):
        p = gaussian_params(beta_mu=0.8, omega_mu=0.3, beta_sigma=0.6, omega_sigma=-0.5)
        rng = np.random.default_rng(3)
        mu_next, s2_next = rng.normal(size=(2, 3)), rng.uniform(0.01, 2.0, size=(2, 3))
        mu, sigma2 = forecast_statistics(p, mu_next, s2_next, 4)
        assert mu.shape == sigma2.shape == (2, 3, 4)
        for i in np.ndindex(2, 3):
            one_mu, one_s2 = forecast_statistics(p, float(mu_next[i]), float(s2_next[i]), 4)
            assert mu[i].tobytes() == one_mu.tobytes()
            assert sigma2[i].tobytes() == one_s2.tobytes()
        # a negative omega_sigma drives the variance to the floor
        assert sigma2.min() == VARIANCE_FLOOR


class TestGasParams:
    def test_json_round_trip(self):
        p = GasParams(alpha_mu=0.3, nu=20.0, family=Family.STUDENT_T, gamma=0.25)
        assert from_keys(GasParams, to_json(p), "params") == p
        assert to_json(p)["family"] == "student_t"

    def test_numpy_scalars_are_held_as_floats(self):
        values = dict(alpha_mu=0.1, alpha_sigma=0.2, beta_mu=0.9, beta_sigma=0.8,
                      omega_mu=0.05, omega_sigma=0.1, nu=10.0, gamma=0.3, mu0=1.5,
                      sigma2_0=2.0)
        p = GasParams(**{k: np.float64(v) for k, v in values.items()})
        for f in fields(GasParams):
            if f.name != "family":
                assert type(getattr(p, f.name)) is float
        assert p == GasParams(**values)
        # an integer in a float field is held as a float, and an int field holds a Python int
        q = GasParams(mu0=np.int64(2), nu=np.int64(10))
        assert type(q.mu0) is float and type(q.nu) is float
        assert q == GasParams(mu0=2.0, nu=10.0)
        config = FitConfig(restarts=np.int64(3), max_iters=np.uint8(7))
        assert type(config.restarts) is int and type(config.max_iters) is int

    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha_mu=-0.1),
            dict(beta_mu=1.0),
            dict(beta_sigma=-1.5),
            dict(gamma=1.0),
            dict(gamma=-0.1),
            dict(sigma2_0=0.0),
            dict(family=Family.STUDENT_T, nu=2.0),
            dict(alpha_mu=np.nan),
            dict(beta_sigma=np.nan),
            dict(omega_sigma=-np.inf),
            dict(mu0=np.nan),
            dict(sigma2_0=np.inf),
            dict(nu=np.inf),
            dict(family=Family.GAUSSIAN, nu=np.nan),
            dict(alpha_mu="0.1"),
        ],
    )
    def test_invariants_rejected(self, kw):
        with pytest.raises(ValidationError):
            GasParams(**kw)
