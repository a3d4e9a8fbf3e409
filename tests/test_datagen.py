import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import add_quadratic_trend, affine_map, inject_outlier
from _oracles import ar_values, lorenz_states, rk4_lorenz_step
from gasnorm import ArSpec, LorenzSpec, SeriesFrame, gen_ar, gen_lorenz, load_csv
from gasnorm.cli import experiment_spec_from_dict, main
from gasnorm.datagen import ar_is_stable, rk4_step
from gasnorm.errors import NumericalError, ValidationError
from gasnorm.evaluation import load_dataset


class TestGenAr:
    def test_pure_noise_moments(self):
        T = 40000
        frame = gen_ar(ArSpec(length=T, ar_coeffs=(), noise_std=2.0, seed=0))
        assert abs(frame.values.std() - 2.0) / 2.0 < 3.0 / np.sqrt(T)
        assert abs(frame.values.mean()) < 3.0 * 2.0 / np.sqrt(T)

    def test_slope_only_is_line(self):
        frame = gen_ar(ArSpec(length=50, ar_coeffs=(), noise_std=1e-300,
                              trend_slope=0.5, seed=0))
        np.testing.assert_allclose(frame.values[:, 0], 0.5 * np.arange(50), atol=1e-290)

    def test_sinusoid_only(self):
        frame = gen_ar(ArSpec(length=24, ar_coeffs=(), noise_std=1e-300,
                              season_amplitude=2.0, season_period=12, seed=0))
        t = np.arange(24)
        np.testing.assert_allclose(
            frame.values[:, 0], 2.0 * np.sin(2 * np.pi * t / 12), atol=1e-290
        )

    def test_unstable_coeffs_rejected_when_demanded(self):
        with pytest.raises(ValidationError):
            gen_ar(ArSpec(length=50, ar_coeffs=(1.2,), require_stable=True))
        assert ar_is_stable((0.5, 0.3))
        assert not ar_is_stable((1.2,))
        assert ar_is_stable(())

    def test_seeded_determinism(self):
        spec = ArSpec(length=100, seed=9)
        np.testing.assert_array_equal(gen_ar(spec).values, gen_ar(spec).values)

    @pytest.mark.parametrize(
        "spec",
        [
            ArSpec(length=900, ar_coeffs=(0.7,), trend_slope=0.05),
            ArSpec(length=500, ar_coeffs=(0.5, -0.2, 0.1), season_amplitude=1.5, seed=3),
            ArSpec(length=50, ar_coeffs=(), seed=2),
        ],
    )
    def test_matches_numpy_recursion_bit_for_bit(self, spec):
        assert gen_ar(spec).values.tobytes() == ar_values(spec).tobytes()


class TestGenLorenz:
    def test_z_axis_invariant_manifold(self):
        spec = LorenzSpec(steps=100, initial=(0.0, 0.0, 5.0), noise_std=0.0)
        frame = gen_lorenz(spec)
        np.testing.assert_allclose(frame.values[:, 0], 0.0, atol=1e-14)
        np.testing.assert_allclose(frame.values[:, 1], 0.0, atol=1e-14)
        # z decays as dz/dt = -beta z
        assert frame.values[-1, 2] < 5.0
        assert np.all(np.diff(frame.values[:, 2]) < 0)

    def test_single_step_matches_oracle(self):
        frame = gen_lorenz(LorenzSpec(steps=1, dt=0.01, noise_std=0.0))
        expected = rk4_lorenz_step((1.0, 1.0, 1.0), 0.01)
        np.testing.assert_allclose(frame.values[0], expected, atol=1e-12)

    def test_local_truncation_order(self):
        # one dt step vs two dt/2 steps from the same state: ratio ~ 2^5
        def step(state, dt):
            return rk4_step(*state, dt, 10.0, 28.0, 8.0 / 3.0)

        state = (1.0, 1.0, 1.0)
        errs = []
        for dt in (0.02, 0.01):
            full = step(state, dt)
            half = step(step(state, dt / 2), dt / 2)
            errs.append(np.linalg.norm(np.subtract(full, half)))
        ratio = errs[0] / errs[1]
        assert 20.0 < ratio < 45.0

    def test_default_noise_is_half_percent_of_std(self):
        clean = gen_lorenz(LorenzSpec(steps=2000, noise_std=0.0))
        noisy = gen_lorenz(LorenzSpec(steps=2000, seed=1))
        resid = noisy.values - clean.values
        expected = 0.005 * clean.values.std(axis=0)
        np.testing.assert_allclose(resid.std(axis=0), expected, rtol=0.15)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValidationError):
            LorenzSpec(dt=0.1)

    @pytest.mark.parametrize(
        "spec",
        [
            LorenzSpec(steps=1500),
            LorenzSpec(steps=1500, noise_std=0.0),
            LorenzSpec(steps=1500, dt=0.05, noise_std=0.3, seed=4),
            LorenzSpec(steps=1500, sigma=12.5, rho=31.0, beta=2.5, initial=(3, -2, 7), seed=2),
        ],
    )
    def test_trajectory_matches_numpy_integrator_bit_for_bit(self, spec):
        assert gen_lorenz(spec).values.tobytes() == lorenz_states(spec).tobytes()

    @pytest.mark.filterwarnings("error")
    def test_divergence_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="integration diverged at step 0"):
            gen_lorenz(LorenzSpec(steps=10, initial=(1e200,) * 3))


class TestAffineMap:
    def test_identity(self):
        frame = gen_ar(ArSpec(length=20, seed=0))
        np.testing.assert_array_equal(affine_map(frame, 0.0, 1.0).values, frame.values)

    def test_standardize_composition(self):
        frame = gen_ar(ArSpec(length=500, seed=1))
        m, s = frame.values.mean(), frame.values.std()
        out = affine_map(frame, -m / s, 1.0 / s)
        assert abs(out.values.mean()) < 1e-10
        assert abs(out.values.std() - 1.0) < 1e-10

    def test_hand_case(self):
        frame = SeriesFrame(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(affine_map(frame, 2.0, 3.0).values[:, 0], [5.0, 8.0])

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValidationError):
            affine_map(gen_ar(ArSpec(length=10, seed=0)), 0.0, 0.0)

    @given(
        s1=st.floats(-3, 3), c1=st.floats(0.1, 3), s2=st.floats(-3, 3), c2=st.floats(0.1, 3)
    )
    @settings(max_examples=30, deadline=None)
    def test_composition(self, s1, c1, s2, c2):
        frame = SeriesFrame(np.linspace(-1, 1, 11))
        twice = affine_map(affine_map(frame, s1, c1), s2, c2)
        once = affine_map(frame, c2 * s1 + s2, c2 * c1)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)


class TestQuadraticTrend:
    def test_zero_coeff_identity(self):
        frame = gen_ar(ArSpec(length=15, seed=0))
        np.testing.assert_array_equal(add_quadratic_trend(frame, 0.0).values, frame.values)

    def test_on_zeros(self):
        frame = SeriesFrame(np.zeros(5))
        np.testing.assert_array_equal(
            add_quadratic_trend(frame, 1.0).values[:, 0], [0, 1, 4, 9, 16]
        )

    def test_last_element_on_lorenz(self):
        frame = gen_lorenz(LorenzSpec(steps=100, noise_std=0.0))
        out = add_quadratic_trend(frame, 1e-4)
        assert out.values[99, 0] == pytest.approx(frame.values[99, 0] + 1e-4 * 99**2)


class TestInjectOutlier:
    def test_zero_magnitude_identity(self):
        frame = gen_ar(ArSpec(length=30, seed=0))
        np.testing.assert_array_equal(inject_outlier(frame, 5, 0, 0.0).values, frame.values)

    def test_locality(self):
        frame = gen_ar(ArSpec(length=100, seed=1))
        out = inject_outlier(frame, 50, 0, 10.0)
        diff = out.values - frame.values
        assert np.count_nonzero(diff) == 1
        assert diff[50, 0] == pytest.approx(10.0 * frame.values[:, 0].std())

    def test_out_of_range_errors(self):
        frame = gen_ar(ArSpec(length=10, seed=0))
        with pytest.raises(ValidationError):
            inject_outlier(frame, 10, 0, 1.0)
        with pytest.raises(ValidationError):
            inject_outlier(frame, 0, 1, 1.0)


def test_sidecar_round_trip(tmp_path):
    """The gen sidecar is a gen config that rewrites its CSV byte for byte, and a dataset block."""
    split = {"train_fraction": 0.6, "context_length": 4, "horizon": 1}
    for kind, flags in (("ar", ["--length", "40", "--seed", "3", "--trend-slope", "0.1"]),
                        ("lorenz", ["--steps", "40", "--seed", "2"])):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen", kind, *flags, "--output-dir", str(tmp_path)]) == 0
            assert main(["gen", "--config", str(tmp_path / f"{kind}.json"),
                         "--output-dir", str(tmp_path / "regen")]) == 0
        csv_bytes = (tmp_path / f"{kind}.csv").read_bytes()
        assert (tmp_path / "regen" / f"{kind}.csv").read_bytes() == csv_bytes
        doc = json.loads((tmp_path / f"{kind}.json").read_text())
        assert doc["kind"] == kind and "generator" not in doc
        spec = experiment_spec_from_dict({"dataset": doc, "split": split})
        frame, dataset_id = load_dataset(spec.dataset)
        written = load_csv(tmp_path / f"{kind}.csv")
        assert dataset_id == kind and frame.feature_names == written.feature_names
        np.testing.assert_array_equal(frame.values, written.values)
