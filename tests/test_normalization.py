import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _helpers import frames
from _oracles import naive_filter, save_batch_csvs_per_value
from gasnorm import (
    Family,
    GasParams,
    NormalizerKind,
    NormalizerSpec,
    denormalize,
    normalize,
)
from gasnorm.errors import ValidationError
from gasnorm.normalization import NormalizedBatch, save_batch
from gasnorm.series import SeriesFrame, windows


LOCAL = NormalizerSpec(NormalizerKind.LOCAL_NORM)
MEAN_SCALING = NormalizerSpec(NormalizerKind.MEAN_SCALING)


def gas_spec(params):
    return NormalizerSpec(NormalizerKind.GAS_NORM, gas_params=params)


def global_spec(stats):
    return NormalizerSpec(NormalizerKind.GLOBAL_NORM, global_stats=stats)


def static_params(mean, var, gamma=0.0, family=Family.GAUSSIAN, **kw):
    """Parameters whose affine recursion has its fixed point at (mean, var)."""
    beta = kw.pop("beta", 0.9)
    return GasParams(
        family=family, gamma=gamma, alpha_mu=kw.pop("alpha_mu", 0.1),
        alpha_sigma=kw.pop("alpha_sigma", 0.1),
        beta_mu=beta, beta_sigma=beta,
        omega_mu=(1 - beta) * mean, omega_sigma=(1 - beta) * var,
        mu0=mean, sigma2_0=var, **kw,
    )


class TestGasNormalize:
    def test_gamma_zero_equals_global(self):
        rng = np.random.default_rng(0)
        ctx = rng.normal(loc=5.0, scale=2.0, size=(60, 2))
        stats = {f"f{j}": (float(ctx[:, j].mean()), float(ctx[:, j].var())) for j in range(2)}
        params = {
            f"f{j}": static_params(*stats[f"f{j}"], gamma=0.0) for j in range(2)
        }
        gas = normalize(gas_spec(params), ctx, 4)
        glob = normalize(global_spec(stats), ctx, 4)
        np.testing.assert_allclose(gas.normalized_context, glob.normalized_context, atol=1e-12)
        np.testing.assert_allclose(gas.horizon_mu, glob.horizon_mu, atol=1e-12)
        np.testing.assert_allclose(gas.horizon_scale, glob.horizon_scale, atol=1e-12)

    def test_constant_context_at_mu0_is_zero(self):
        c = 2.5
        ctx = np.full((20, 1), c)
        batch = normalize(gas_spec({"f0": static_params(c, 1.0, gamma=0.5)}), ctx, 2)
        np.testing.assert_allclose(batch.normalized_context, 0.0, atol=1e-12)

    def test_matches_oracle_recursion(self):
        ys = np.array([0.3, -1.2, 0.8, 2.0, -0.5])
        p = GasParams(family=Family.STUDENT_T, nu=20.0, gamma=0.4, alpha_mu=0.2,
                      alpha_sigma=0.15, beta_mu=0.9, beta_sigma=0.85,
                      omega_mu=0.05, omega_sigma=0.1, mu0=0.0, sigma2_0=1.0)
        batch = normalize(gas_spec({"f0": p}), ys[:, None], 1)
        prior, _, _, _ = naive_filter(
            ys, "t", 0.2, 0.15, 0.9, 0.85, 0.05, 0.1, 20.0, 0.4, 0.0, 1.0
        )
        expected = (ys - prior[:, 0]) / np.sqrt(np.maximum(prior[:, 1], 1e-8))
        np.testing.assert_allclose(batch.normalized_context[:, 0], expected, atol=1e-12)

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.STUDENT_T])
    def test_horizon_continues_oracle_filtered_values(self, family):
        p = GasParams(family=family, nu=20.0, gamma=0.4, alpha_mu=0.2,
                      alpha_sigma=0.15, beta_mu=0.9, beta_sigma=0.85,
                      omega_mu=0.05, omega_sigma=0.1, mu0=0.0, sigma2_0=1.0)
        stack = np.random.default_rng(8).normal(scale=2.0, size=(6, 5, 1))
        batch = normalize(gas_spec({"f0": p}), stack, 3)
        tag = "gaussian" if family is Family.GAUSSIAN else "t"
        for w, ys in enumerate(stack[:, :, 0]):
            _, filt, _, _ = naive_filter(
                ys, tag, 0.2, 0.15, 0.9, 0.85, 0.05, 0.1, 20.0, 0.4, 0.0, 1.0
            )
            mu, s2 = filt[-1]
            for j in range(3):
                mu = 0.05 + 0.9 * mu
                s2 = max(0.1 + 0.85 * s2, 1e-8)
                assert batch.horizon_mu[w, j, 0] == pytest.approx(mu, abs=1e-12)
                assert batch.horizon_scale[w, j, 0] == pytest.approx(np.sqrt(s2), abs=1e-12)

    @given(
        data=st.data(),
        family=st.sampled_from(list(Family)),
        gamma=st.floats(0.0, 0.9),
        stack=st.sampled_from([(), (3,), (2, 2)]),
        length=st.integers(1, 12),
        horizon=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_horizon_starts_at_the_next_context_statistic(
        self, data, family, gamma, stack, length, horizon
    ):
        # horizon step 0 of a window is, bit for bit, what the context path gives the
        # step after it, for a single window and for stacks of them
        ys = data.draw(
            hnp.arrays(np.float64, (*stack, length + 1, 2), elements=st.floats(-20.0, 20.0))
        )
        params = {
            f"f{j}": GasParams(family=family, nu=5.0, gamma=gamma, alpha_mu=0.3,
                               alpha_sigma=0.2, beta_mu=0.9, beta_sigma=0.8, omega_mu=0.1,
                               omega_sigma=0.05, mu0=0.5 * j, sigma2_0=1.0 + j)
            for j in range(2)
        }
        head = normalize(gas_spec(params), ys[..., :length, :], horizon)
        full = normalize(gas_spec(params), ys, 1)
        assert head.horizon_mu[..., 0, :].tobytes() == full.context_mu[..., length, :].tobytes()
        assert (head.horizon_scale[..., 0, :].tobytes()
                == full.context_scale[..., length, :].tobytes())

    def test_missing_params_errors(self):
        with pytest.raises(ValidationError, match="f1"):
            normalize(gas_spec({"f0": static_params(1.0, 1.0)}), np.ones((5, 2)), 1)

    def test_no_lookahead_prefix_property(self):
        rng = np.random.default_rng(2)
        ctx = rng.normal(size=(40, 1))
        p = static_params(0.0, 1.0, gamma=0.6)
        full = normalize(gas_spec({"f0": p}), ctx, 1)
        prefix = normalize(gas_spec({"f0": p}), ctx[:25], 1)
        np.testing.assert_allclose(
            full.normalized_context[:25], prefix.normalized_context, atol=1e-14
        )

    def test_strength_monotone_level_shift_tracking(self):
        level = 5.0
        ys = np.concatenate([np.zeros(100), np.full(200, level)])
        errors = []
        for gamma in (0.0, 0.1, 0.5, 0.9):
            p = GasParams(family=Family.GAUSSIAN, gamma=gamma, alpha_mu=0.1,
                          alpha_sigma=0.1, beta_mu=0.999, beta_sigma=0.999,
                          omega_mu=0.0, omega_sigma=0.0, mu0=0.0, sigma2_0=1.0)
            batch = normalize(gas_spec({"f0": p}), ys[:, None], 1)
            errors.append(np.sum(np.abs(batch.context_mu[100:, 0] - level)))
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))

    def test_outlier_moves_student_t_less_than_gaussian(self):
        ys = np.zeros(50)
        ys[30] = 10.0  # 10 sigma for sigma2 = 1
        kw = dict(gamma=0.5, alpha_mu=0.1, alpha_sigma=0.1, beta_mu=0.95,
                  beta_sigma=0.95, omega_mu=0.0, omega_sigma=0.05,
                  mu0=0.0, sigma2_0=1.0)
        t_spec = gas_spec({"f0": GasParams(family=Family.STUDENT_T, nu=20.0, **kw)})
        g_spec = gas_spec({"f0": GasParams(family=Family.GAUSSIAN, **kw)})
        t_batch = normalize(t_spec, ys[:, None], 1)
        g_batch = normalize(g_spec, ys[:, None], 1)
        d_t = abs(t_batch.context_mu[31, 0] - t_batch.context_mu[30, 0])
        d_g = abs(g_batch.context_mu[31, 0] - g_batch.context_mu[30, 0])
        assert d_t < d_g


class TestLocalNormalize:
    def test_hand_case_population_variance(self):
        batch = normalize(LOCAL, np.array([[0.0], [2.0]]), 2)
        assert batch.context_mu[0, 0] == 1.0
        assert batch.context_scale[0, 0] == 1.0
        np.testing.assert_allclose(batch.normalized_context[:, 0], [-1.0, 1.0])

    def test_idempotent_on_standardized_data(self):
        rng = np.random.default_rng(3)
        ctx = rng.normal(size=(500, 1))
        ctx = (ctx - ctx.mean()) / ctx.std()
        batch = normalize(LOCAL, ctx, 1)
        np.testing.assert_allclose(batch.normalized_context, ctx, atol=1e-10)

    def test_outlier_shifts_local_more_than_gas(self):
        rng = np.random.default_rng(4)
        clean = rng.normal(size=25)
        spiked = clean.copy()
        spiked[12] += 10.0 * clean.std()
        p = GasParams(family=Family.STUDENT_T, nu=20.0, gamma=0.5, alpha_mu=0.05,
                      alpha_sigma=0.05, beta_mu=0.95, beta_sigma=0.95,
                      omega_mu=0.0, omega_sigma=0.05, mu0=0.0, sigma2_0=1.0)
        d_local = abs(
            normalize(LOCAL, spiked[:, None], 1).context_mu[0, 0]
            - normalize(LOCAL, clean[:, None], 1).context_mu[0, 0]
        )
        gas_clean = normalize(gas_spec({"f0": p}), clean[:, None], 1)
        gas_spiked = normalize(gas_spec({"f0": p}), spiked[:, None], 1)
        d_gas = abs(gas_spiked.context_mu[13, 0] - gas_clean.context_mu[13, 0])
        assert d_local > d_gas

    def test_short_context_errors(self):
        with pytest.raises(ValidationError):
            normalize(LOCAL, np.ones((1, 1)), 1)


class TestGlobalNormalize:
    def test_identity_stats(self):
        ctx = np.random.default_rng(5).normal(size=(30, 1))
        batch = normalize(global_spec({"f0": (0.0, 1.0)}), ctx, 2)
        np.testing.assert_allclose(batch.normalized_context, ctx, atol=1e-15)

    def test_round_trip(self):
        ctx = np.random.default_rng(6).normal(loc=3.0, scale=2.0, size=(10, 1))
        batch = normalize(global_spec({"f0": (3.0, 4.0)}), ctx, 10)
        back = denormalize(batch.normalized_context, batch)
        np.testing.assert_allclose(back, ctx, atol=1e-12)

    def test_training_moments_standardize(self):
        T = 20000
        data = np.random.default_rng(7).normal(loc=5.0, scale=2.0, size=(T, 1))
        stats = {"f0": (float(data.mean()), float(data.var()))}
        batch = normalize(global_spec(stats), data, 1)
        tol = 3.0 / np.sqrt(T)
        assert abs(batch.normalized_context.mean()) < tol
        assert abs(batch.normalized_context.var() - 1.0) < tol

    def test_missing_stats_errors(self):
        with pytest.raises(ValidationError):
            normalize(global_spec({"other": (0.0, 1.0)}), np.ones((5, 1)), 1)


class TestMeanScale:
    def test_constant_context(self):
        batch = normalize(MEAN_SCALING, np.full((8, 1), 4.0), 2)
        np.testing.assert_allclose(batch.normalized_context, 1.0)

    def test_hand_case(self):
        batch = normalize(MEAN_SCALING, np.array([[1.0], [3.0]]), 1)
        assert batch.horizon_scale[0, 0] == 2.0
        np.testing.assert_allclose(batch.normalized_context[:, 0], [0.5, 1.5])

    def test_zero_mean_fallback(self):
        ctx = np.array([[1.0], [-1.0]])
        batch = normalize(MEAN_SCALING, ctx, 1)
        assert batch.fallback[0]
        np.testing.assert_allclose(batch.normalized_context, ctx)

    def test_mu_channel_zero(self):
        batch = normalize(MEAN_SCALING, np.array([[2.0], [4.0]]), 3)
        assert np.all(batch.context_mu == 0.0)
        assert np.all(batch.horizon_mu == 0.0)

    def test_negative_mean_round_trip(self):
        ctx = np.array([[-1.0], [-3.0]])
        batch = normalize(MEAN_SCALING, ctx, 2)
        residual = np.array([[1.5], [0.5]])
        np.testing.assert_allclose(denormalize(residual, batch), -2.0 * residual)


class TestDenormalize:
    def test_zero_residual_gives_mu_path(self):
        ctx = np.random.default_rng(8).normal(size=(30, 1))
        p = static_params(0.0, 1.0, gamma=0.5)
        batch = normalize(gas_spec({"f0": p}), ctx, 5)
        out = denormalize(np.zeros((5, 1)), batch)
        np.testing.assert_allclose(out, batch.horizon_mu)

    def test_beta_zero_omega_seven(self):
        p = GasParams(family=Family.GAUSSIAN, gamma=0.5, beta_mu=0.0, omega_mu=7.0,
                      alpha_mu=0.1, alpha_sigma=0.1, beta_sigma=0.9,
                      omega_sigma=0.1, mu0=0.0, sigma2_0=1.0)
        batch = normalize(gas_spec({"f0": p}), np.random.default_rng(9).normal(size=(10, 1)), 4)
        out = denormalize(np.zeros((4, 1)), batch)
        np.testing.assert_allclose(out, 7.0)

    def test_shape_mismatch_errors(self):
        batch = normalize(LOCAL, np.ones((5, 2)) + np.arange(5)[:, None], 3)
        with pytest.raises(ValidationError):
            denormalize(np.zeros((2, 2)), batch)

    def test_affine_consistency_all_normalizers(self):
        rng = np.random.default_rng(10)
        ctx = rng.normal(loc=2.0, size=(20, 2))
        residual = rng.normal(size=(3, 2))
        stats = {"f0": (2.0, 1.5), "f1": (1.0, 0.5)}
        params = {n: static_params(*stats[n], gamma=0.3) for n in stats}
        specs = [
            NormalizerSpec(NormalizerKind.GAS_NORM, gas_params=params),
            NormalizerSpec(NormalizerKind.GLOBAL_NORM, global_stats=stats),
            NormalizerSpec(NormalizerKind.LOCAL_NORM),
            NormalizerSpec(NormalizerKind.MEAN_SCALING),
        ]
        for spec in specs:
            batch = normalize(spec, ctx, 3, ["f0", "f1"])
            out = denormalize(residual, batch)
            np.testing.assert_allclose(
                out, batch.horizon_mu + batch.horizon_scale * residual, atol=1e-12
            )
            assert batch.normalized_context.shape == ctx.shape
            assert out.shape == (3, 2)


class TestNormalizerSpec:
    def test_gas_requires_params(self):
        with pytest.raises(ValidationError):
            NormalizerSpec(NormalizerKind.GAS_NORM)
        with pytest.raises(ValidationError):
            NormalizerSpec(NormalizerKind.LOCAL_NORM, gas_params={})

    def test_global_requires_stats(self):
        with pytest.raises(ValidationError):
            NormalizerSpec(NormalizerKind.GLOBAL_NORM)


@pytest.mark.parametrize("horizon", [0, -1])
@pytest.mark.parametrize("kind", list(NormalizerKind))
def test_horizon_below_one_rejected(kind, horizon):
    spec = NormalizerSpec(
        kind,
        gas_params={"f0": static_params(3.0, 2.0)} if kind is NormalizerKind.GAS_NORM else None,
        global_stats={"f0": (3.0, 2.0)} if kind is NormalizerKind.GLOBAL_NORM else None,
    )
    with pytest.raises(ValidationError, match="horizon"):
        normalize(spec, np.arange(1.0, 6.0), horizon)


@pytest.mark.parametrize(
    "context, names, message",
    [(np.empty((0, 1)), None, "non-empty"), (np.array([[1.0], [np.nan]]), None, "non-finite"),
     (np.ones((4, 2)), ["a"], "feature_names")],
)
@pytest.mark.parametrize("spec", [LOCAL, MEAN_SCALING], ids=["local", "mean_scaling"])
def test_bad_context_rejected(spec, context, names, message):
    with pytest.raises(ValidationError, match=message):
        normalize(spec, context, 1, names)


BATCH_ARRAYS = ("normalized_context", "context_mu", "context_scale", "horizon_mu",
                "horizon_scale")


@given(
    kind=st.sampled_from(list(NormalizerKind)),
    k=st.sampled_from([1, 3]),
    l=st.integers(2, 64),
    h=st.integers(1, 5),
    n_windows=st.integers(1, 6),
    stride=st.integers(1, 3),
    zero_mean=st.booleans(),
    family=st.sampled_from(list(Family)),
    gamma=st.sampled_from([0.0, 0.3, 0.9]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_stack_is_bit_identical_to_each_window_alone(
    kind, k, l, h, n_windows, stride, zero_mean, family, gamma, seed
):
    rng = np.random.default_rng(seed)
    n = (n_windows - 1) * stride + l + h
    values = rng.normal(loc=rng.uniform(-3, 3), scale=rng.uniform(0.5, 3), size=(n, k))
    if zero_mean:
        # the first context sums to exactly 0, so mean scaling falls back to scale 1
        pattern = np.repeat(np.arange(1.0, l // 2 + 1), 2) * np.tile([1.0, -1.0], l // 2)
        values[:l] = np.append(pattern, [0.0] * (l % 2))[:, None]
    names = [f"f{j}" for j in range(k)]
    spec = NormalizerSpec(
        kind,
        gas_params={n_: static_params(0.5, 2.0, gamma=gamma, family=family, nu=8.0)
                    for n_ in names} if kind is NormalizerKind.GAS_NORM else None,
        global_stats={n_: (0.5, 2.0) for n_ in names}
        if kind is NormalizerKind.GLOBAL_NORM else None,
    )
    # the stack is the pipeline's: contexts sliced out of the windows array
    stack = normalize(spec, windows(SeriesFrame(values), l, h, stride)[:, :l], h, names)
    residual = rng.normal(size=stack.horizon_mu.shape)
    stacked_forecast = denormalize(residual, stack)
    for i in range(n_windows):
        alone = normalize(spec, values[i * stride : i * stride + l], h, names)
        for name in BATCH_ARRAYS:
            assert np.array_equal(getattr(stack, name)[i], getattr(alone, name)), name
        if kind is NormalizerKind.MEAN_SCALING:
            assert np.array_equal(stack.fallback[i], alone.fallback)
        assert np.array_equal(stacked_forecast[i], denormalize(residual[i], alone))
    assert stack.horizon == h
    if zero_mean and kind is NormalizerKind.MEAN_SCALING:
        assert stack.fallback[0].all()


def test_save_batch_files(tmp_path):
    ctx = np.random.default_rng(11).normal(size=(6, 2))
    batch = normalize(LOCAL, ctx, 2, ["a", "b"])
    stem = tmp_path / "out"
    save_batch(batch, stem)
    assert (tmp_path / "out_normalized.csv").exists()
    stats_lines = (tmp_path / "out_stats.csv").read_text().strip().splitlines()
    assert stats_lines[0] == "phase,step,feature,mu,scale"
    assert len(stats_lines) == 1 + (6 + 2) * 2
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["normalizer"] == "local_norm"
    assert doc["horizon"] == 2


@settings(max_examples=40, deadline=None)
@given(frames(), st.sampled_from([1, 16, 4097]))
def test_save_batch_csvs_match_per_value_oracle(frame, horizon):
    v = frame.values
    h = np.resize(v[::-1], (horizon, frame.n_features))
    batch = NormalizedBatch(
        v, np.roll(v, 1), v[::-1], h, -h, NormalizerKind.GLOBAL_NORM, frame.feature_names
    )
    with tempfile.TemporaryDirectory() as tmp:
        save_batch(batch, Path(tmp) / "new")
        save_batch_csvs_per_value(batch, Path(tmp) / "ref")
        for suffix in ("_normalized.csv", "_stats.csv"):
            new = (Path(tmp) / f"new{suffix}").read_bytes()
            assert new == (Path(tmp) / f"ref{suffix}").read_bytes()


def test_save_batch_rejects_a_stack(tmp_path):
    batch = normalize(LOCAL, np.random.default_rng(12).normal(size=(3, 6, 2)), 2)
    with pytest.raises(ValidationError, match="stack"):
        save_batch(batch, tmp_path / "out")
    assert not list(tmp_path.iterdir())
