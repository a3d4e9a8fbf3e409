import contextlib
import csv
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasnorm import (
    ArSpec,
    EvalReport,
    ExperimentSpec,
    LorenzSpec,
    MlpSpec,
    SeriesFrame,
    SplitSpec,
    emit_report,
    gen_ar,
    mase,
    run_experiment,
    select_gamma,
    to_json,
    write_csv,
)
from _helpers import record_pools, report_row

import gasnorm.evaluation as evaluation_mod
import gasnorm.fitting as fitting_mod
from gasnorm.errors import FitError, NumericalError, ValidationError, write_json
from gasnorm.evaluation import ReportRow, load_dataset
from gasnorm.series import split, windows


class TestMase:
    def test_perfect_forecast_is_zero(self):
        actual = np.arange(10.0).reshape(5, 2)
        train = np.random.default_rng(0).normal(size=(20, 2))
        np.testing.assert_array_equal(mase(actual, actual, train), [0.0, 0.0])

    def test_hand_case(self):
        out = mase([[4.0], [5.0]], [[3.0], [3.0]], [[1.0], [2.0], [3.0]], m=1)
        assert out[0] == pytest.approx(1.5)

    @pytest.mark.parametrize("train", [[1.0, 2.0, 3.0], [1.0, 2.0]])
    def test_one_dimensional_arrays_are_one_feature(self, train):
        out = mase([4.0, 5.0], [3.0, 3.0], train)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(1.5)

    def test_naive_on_train_is_one(self):
        train = np.random.default_rng(1).normal(size=(50, 1)).cumsum(axis=0)
        actual = train[1:]
        naive = train[:-1]
        assert mase(actual, naive, train, m=1)[0] == pytest.approx(1.0)

    def test_seasonal_m(self):
        # denominator with m=2: mean |train[t] - train[t-2]| = mean(2, 2, 4, 2) = 2.5
        train = np.array([1.0, 2.0, 3.0, 4.0, 7.0, 6.0])[:, None]
        out = mase([[1.5]], [[1.0]], train, m=2)
        assert out[0] == pytest.approx(0.5 / 2.5)

    def test_zero_denominator_names_feature(self):
        with pytest.raises(ValidationError, match="feature index 0"):
            mase([[1.0]], [[0.0]], np.ones((10, 1)), m=1)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            mase(np.ones((2, 1)), np.ones((3, 1)), np.random.default_rng(0).normal(size=(5, 1)))

    @given(c=st.floats(1e-3, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(2)
        actual = rng.normal(size=(6, 2))
        forecast = rng.normal(size=(6, 2))
        train = rng.normal(size=(30, 2))
        base = mase(actual, forecast, train)
        scaled = mase(c * actual, c * forecast, c * train)
        np.testing.assert_allclose(scaled, base, rtol=1e-12)


class TestSelectGamma:
    def test_argmin(self):
        assert select_gamma({0.0: 1.0, 0.5: 0.8}) == 0.5

    def test_tie_breaks_small(self):
        assert select_gamma({0.0: 1.0, 0.1: 1.0}) == 0.0

    def test_singleton(self):
        assert select_gamma({0.3: 2.0}) == 0.3

    def test_nan_ranks_last_in_either_order(self):
        assert select_gamma({0.1: math.nan, 0.5: 1.0}) == 0.5
        assert select_gamma({0.5: 1.0, 0.1: math.nan}) == 0.5
        # two NaN objects, which no comparison orders
        assert select_gamma({0.5: float("nan"), 0.1: float("nan")}) == 0.1

    def test_empty_errors(self):
        with pytest.raises(ValidationError):
            select_gamma({})


# on a 400-step Lorenz series, mean scaling's training diverges; the other baselines' does not
DIVERGING_MEAN_SCALING = dict(
    dataset=LorenzSpec(steps=400),
    forecaster=MlpSpec((8,), "relu", learning_rate=1e-2, epochs=5, batch_size=16),
    split=SplitSpec(0.6, 0.2, context_length=48, horizon=2),
)


def tiny_spec(**kw):
    base = dict(
        dataset=ArSpec(length=260, ar_coeffs=(0.7,), noise_std=1.0,
                       trend_slope=0.05, seed=0),
        normalizers=("gas_norm", "global_norm", "local_norm", "mean_scaling"),
        forecaster=MlpSpec((8,), "relu", learning_rate=1e-4, epochs=5, batch_size=16),
        split=SplitSpec(0.6, 0.2, context_length=10, horizon=2),
        gammas=(0.0, 0.5),
        seeds=(0,),
        fit_restarts=1,
        fit_max_iters=60,
        stride=2,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_a_gaussian_experiment_leaves_nu_unchecked():
    # a gaussian filter reads no nu; the student_t check is in test_range_checks
    assert tiny_spec(family="gaussian", nu=2.0).nu == 2.0


class TestRunExperiment:
    def test_report_structure(self):
        report = run_experiment(tiny_spec())
        normalizers = {r.normalizer for r in report.rows}
        assert {"gas_norm", "global_norm", "local_norm", "mean_scaling",
                "gas_norm_selected"} <= normalizers
        gas_rows = [r for r in report.rows if r.normalizer == "gas_norm"]
        assert {r.gamma for r in gas_rows} == {0.0, 0.5}
        for r in report.rows:
            assert r.n_seeds == len(r.per_seed)
            if r.per_seed:
                assert r.mase_mean == pytest.approx(np.mean(r.per_seed))

    def test_determinism(self):
        r1 = run_experiment(tiny_spec())
        r2 = run_experiment(tiny_spec())
        assert r1 == r2

    def test_duplicate_normalizers_collapse(self):
        spec = tiny_spec(normalizers=("local_norm", "local_norm"))
        report = run_experiment(spec)
        rows = [r for r in report.rows if r.normalizer == "local_norm"]
        assert len(rows) == 1

    def test_single_cell(self):
        spec = tiny_spec(normalizers=("local_norm",))
        report = run_experiment(spec)
        assert len(report.rows) == 1
        assert report.rows[0].n_seeds == 1

    def test_multi_seed_run_matches_single_seed_runs(self):
        spec = dict(normalizers=("gas_norm", "local_norm"), gammas=(0.0, 0.5))
        both = run_experiment(tiny_spec(seeds=(0, 1), **spec))
        alone = [run_experiment(tiny_spec(seeds=(s,), **spec)) for s in (0, 1)]
        for row in both.rows:
            # the selected row's gamma is the modal choice, which may differ per run
            gamma = None if row.normalizer == "gas_norm_selected" else row.gamma
            singles = tuple(report_row(r, row.normalizer, gamma).per_seed[0] for r in alone)
            assert row.per_seed == singles

    @pytest.mark.parametrize("val_fraction", [0.0, 0.04],
                             ids=["no_val_split", "val_split_shorter_than_a_window"])
    def test_without_validation_windows_each_seed_selects_the_smallest_gamma(self, val_fraction):
        spec = tiny_spec(normalizers=("gas_norm",), gammas=(0.5, 0.0, 0.9), seeds=(0, 1),
                         split=SplitSpec(0.6, val_fraction, context_length=10, horizon=2))
        _, val_f, _ = split(load_dataset(spec.dataset)[0], spec.split)
        assert len(val_f) < spec.split.context_length + spec.split.horizon
        report = run_experiment(spec)
        # no seed has a validation MASE, so every gamma ties and the smallest wins
        selected = report_row(report, "gas_norm_selected")
        assert selected.gamma == 0.0
        assert selected.per_seed == report_row(report, "gas_norm", 0.0).per_seed
        assert selected.n_seeds == 2

    def test_normalize_calls_do_not_depend_on_seed_count(self, monkeypatch):
        # one usable core: no pool, so every call is counted in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        calls = []
        real = evaluation_mod.normalize

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation_mod, "normalize", counted)
        counts = []
        for seeds in ((0,), (0, 1, 2)):
            calls.clear()
            run_experiment(tiny_spec(normalizers=("gas_norm", "local_norm"), seeds=seeds))
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[0] == counts[1]

    def test_baselines_score_no_validation_windows(self, monkeypatch):
        # one usable core: no pool, so every call is recorded in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        predicted, val_given = [], []
        real_predict, real_train = evaluation_mod.predict, evaluation_mod.train

        def counted_predict(model, contexts):
            predicted.append(len(contexts))
            return real_predict(model, contexts)

        def recorded_train(spec, contexts, targets, val=None):
            val_given.append(val is not None)
            return real_train(spec, contexts, targets, val)

        monkeypatch.setattr(evaluation_mod, "predict", counted_predict)
        monkeypatch.setattr(evaluation_mod, "train", recorded_train)
        spec = tiny_spec(normalizers=("global_norm", "local_norm"), seeds=(0, 1))
        run_experiment(spec)
        _, _, test_f = split(load_dataset(spec.dataset)[0], spec.split)
        test_windows = windows(test_f, spec.split.context_length, spec.split.horizon,
                               spec.stride)
        # one predict per (normalizer, seed), over every test window at once;
        # validation only stops training
        assert predicted == [len(test_windows)] * (2 * 2)
        assert val_given == [True] * 4

    def test_failed_gas_norm_fit_is_its_cells_error(self):
        # 9 training steps: too few to fit the filter, enough for the baselines
        spec = tiny_spec(
            dataset=ArSpec(length=20, seed=0),
            normalizers=("gas_norm", "global_norm", "local_norm"),
            split=SplitSpec(0.45, context_length=3, horizon=1),
        )
        report = run_experiment(spec)
        for gamma in spec.gammas:
            row = report_row(report, "gas_norm", gamma)
            assert row.n_seeds == 0
            assert "need at least 10 observations" in row.error
        for name in ("global_norm", "local_norm"):
            assert report_row(report, name).n_seeds == 1
            assert report_row(report, name).error is None
        assert "gas_norm_selected" not in {r.normalizer for r in report.rows}

    @pytest.mark.parametrize("m", [156, 500])
    def test_seasonality_not_below_the_training_length_raises_before_any_fit(
        self, monkeypatch, m
    ):
        def no_fit(*args):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(evaluation_mod, "fit_frame", no_fit)
        # 260 steps at train_fraction 0.6 train on 156
        with pytest.raises(ValidationError, match=f"mase_seasonality {m} must be below"
                           " the training length 156"):
            run_experiment(tiny_spec(mase_seasonality=m))

    def test_a_test_split_shorter_than_one_window_raises_before_any_fit(self, monkeypatch):
        def no_fit(*args):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(evaluation_mod, "fit_frame", no_fit)
        # 260 steps split 156 / 98 / 6: the test split is shorter than 10 + 2
        with pytest.raises(ValidationError, match="context_length \\+ horizon = 12 exceeds"
                           " test length 6"):
            run_experiment(tiny_spec(split=SplitSpec(0.6, 0.38, context_length=10, horizon=2)))

    def test_a_feature_that_fails_to_fit_names_its_reason_in_the_cell(self, tmp_path):
        values = np.random.default_rng(0).normal(size=(260, 2)).cumsum(axis=0)
        values[50, 1] = 1e154  # finite variance, but a non-finite objective at gamma 0.99
        path = tmp_path / "spike.csv"
        write_csv(SeriesFrame(values, ["a", "b"]), path)
        spec = tiny_spec(dataset=str(path), normalizers=("gas_norm",), gammas=(0.99,))
        row = report_row(run_experiment(spec), "gas_norm", 0.99)
        assert row.n_seeds == 0
        assert row.error == (
            "1 of 2 features failed to fit: b: objective is non-finite at the initialization point"
        )

    def test_csv_dataset_scores_as_its_generator(self, tmp_path):
        spec = tiny_spec(seeds=(0, 1))
        path = tmp_path / "series.csv"
        write_csv(gen_ar(spec.dataset), path)
        from_csv = run_experiment(tiny_spec(dataset=str(path), seeds=(0, 1)))
        generated = run_experiment(spec)
        assert {r.dataset for r in from_csv.rows} == {"series"}
        assert [r.per_seed for r in from_csv.rows] == [r.per_seed for r in generated.rows]

    def test_lorenz_dataset(self):
        spec = tiny_spec(dataset=LorenzSpec(steps=200), normalizers=("local_norm",))
        (row,) = run_experiment(spec).rows
        assert (row.dataset, row.n_seeds, row.error) == ("lorenz", 1, None)
        assert np.isfinite(row.mase_mean)

    def test_partly_failed_seeds_keep_their_error(self, monkeypatch):
        real = evaluation_mod.train

        def fails_seed_one(spec, *args):
            if spec.seed == 1:
                raise NumericalError("training loss became non-finite at epoch 0")
            return real(spec, *args)

        monkeypatch.setattr(evaluation_mod, "train", fails_seed_one)
        spec = tiny_spec(normalizers=("local_norm",), seeds=(0, 1, 2))
        row = report_row(run_experiment(spec), "local_norm")
        assert row.n_seeds == 2 and len(row.per_seed) == 2
        assert row.error == "training loss became non-finite at epoch 0"

    def test_non_finite_training_loss_is_the_cells_error(self):
        forecaster = MlpSpec((8,), "identity", learning_rate=1e6, epochs=20, batch_size=16)
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_experiment(tiny_spec(normalizers=("local_norm",), forecaster=forecaster))
        (row,) = report.rows
        assert row.n_seeds == 0 and np.isnan(row.mase_mean)
        assert "training loss became non-finite" in row.error

    def test_normalize_failure_is_the_cells_error(self):
        # local_norm needs two context steps; global_norm takes one
        split_spec = SplitSpec(0.6, 0.2, context_length=1, horizon=2)
        report = run_experiment(
            tiny_spec(normalizers=("global_norm", "local_norm"), split=split_spec)
        )
        assert report_row(report, "global_norm").n_seeds == 1
        row = report_row(report, "local_norm")
        assert row.n_seeds == 0
        assert row.error == "local normalization needs a context of length >= 2"

    def test_rows_with_scores_come_first_then_scoreless_then_selected(self, monkeypatch):
        # mean_scaling fails in train, local_norm in normalize, gas_norm's fit at gamma 0.5
        real_fit, real_normalize, real_train = (
            evaluation_mod.fit_frame, evaluation_mod.normalize, evaluation_mod.train
        )
        normalizing = []

        def fit_fails_at_half(frame, config, started=None):
            if config.gamma == 0.5:
                raise FitError("objective is non-finite at the initialization point")
            return real_fit(frame, config, started)

        def normalize_fails_local(nspec, *args):
            if nspec.kind.value == "local_norm":
                raise ValidationError("local normalization failed")
            normalizing.append(nspec.kind.value)
            return real_normalize(nspec, *args)

        def train_fails_mean_scaling(*args):
            if normalizing[-1] == "mean_scaling":
                raise NumericalError("training loss became non-finite at epoch 0")
            return real_train(*args)

        monkeypatch.setattr(evaluation_mod, "fit_frame", fit_fails_at_half)
        monkeypatch.setattr(evaluation_mod, "normalize", normalize_fails_local)
        monkeypatch.setattr(evaluation_mod, "train", train_fails_mean_scaling)
        spec = tiny_spec(
            normalizers=("mean_scaling", "local_norm", "global_norm", "gas_norm"),
            gammas=(0.5, 0.0),
            seeds=(0, 1),
        )
        rows = run_experiment(spec).rows
        assert [(r.normalizer, r.gamma, r.n_seeds) for r in rows] == [
            ("global_norm", None, 2),
            ("gas_norm", 0.0, 2),
            ("mean_scaling", None, 0),
            ("local_norm", None, 0),
            ("gas_norm", 0.5, 0),
            ("gas_norm_selected", 0.0, 2),
        ]
        assert [r.error for r in rows[2:5]] == [
            "training loss became non-finite at epoch 0",
            "local normalization failed",
            "objective is non-finite at the initialization point",
        ]

    def test_stderr_over_seeds(self):
        spec = tiny_spec(normalizers=("local_norm",), seeds=(0, 1, 2))
        row = report_row(run_experiment(spec), "local_norm")
        vals = np.asarray(row.per_seed)
        assert row.mase_stderr == pytest.approx(vals.std(ddof=1) / np.sqrt(3))


class TestExperimentPool:
    """Every (gamma, feature, restart) search and every cell runs on one pool, where
    cores allow; a gamma > 0 cell starts once its fits are collected."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """Whether each ``fork_pool`` call of the experiment made a pool."""
        made = []

        @contextlib.contextmanager
        def recorded(searches):
            with fitting_mod.fork_pool(searches) as pool:
                made.append(pool is not None)
                yield pool

        monkeypatch.setattr(evaluation_mod, "fork_pool", recorded)
        return made

    def reports(self, monkeypatch, tmp_path, spec) -> list[list[bytes]]:
        """report.json and report.csv with one usable core (no pool), then with two."""
        files = []
        for cores in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
            csv_path, json_path = emit_report(run_experiment(spec), tmp_path / f"{len(cores)}")
            files.append([Path(p).read_bytes() for p in (json_path, csv_path)])
        return files

    @pytest.mark.parametrize("normalizers, kwargs, errors", [
        (("gas_norm", "global_norm", "local_norm", "mean_scaling"), {}, None),
        (("global_norm", "local_norm", "mean_scaling", "gas_norm"), {}, None),
        # mean scaling's training diverges in a worker
        (("global_norm", "local_norm", "mean_scaling"), DIVERGING_MEAN_SCALING,
         {"global_norm": None, "local_norm": None,
          "mean_scaling": "training loss became non-finite at epoch 2"}),
        # local_norm needs two context steps, so its normalize raises in a worker
        (("global_norm", "local_norm"),
         dict(split=SplitSpec(0.6, 0.2, context_length=1, horizon=2)),
         {"global_norm": None, "local_norm": "local normalization needs a context of length >= 2"}),
    ], ids=["normalizers0", "normalizers1", "training_diverges", "normalize_fails"])
    def test_the_report_is_the_same_with_and_without_the_pool(
        self, monkeypatch, tmp_path, pools, normalizers, kwargs, errors
    ):
        spec = tiny_spec(normalizers=normalizers, gammas=(0.5, 0.0, 0.9), seeds=(0, 1), **kwargs)
        one_core, two_cores = self.reports(monkeypatch, tmp_path, spec)
        assert pools == [False, True]
        assert one_core == two_cores
        if errors is not None:
            rows = json.loads(two_cores[0])["rows"]
            assert {row["normalizer"]: row["error"] for row in rows} == errors

    def test_a_fit_that_fails_is_the_same_cell_error_with_the_pool(
        self, monkeypatch, tmp_path, pools
    ):
        # the training variance is finite, but the objective at the start is not
        ys = np.zeros(300)
        ys[150] = 1e154
        path = tmp_path / "spike.csv"
        write_csv(SeriesFrame(ys, ["y"]), path)
        spec = tiny_spec(dataset=str(path), normalizers=("gas_norm",), gammas=(0.99,),
                         fit_restarts=2)
        one_core, two_cores = self.reports(monkeypatch, tmp_path, spec)
        assert pools == [False, True]
        assert one_core == two_cores
        (row,) = json.loads(two_cores[0])["rows"]
        assert row["error"] == (
            "1 of 1 features failed to fit: y: objective is non-finite at the initialization point"
        )

    def test_a_config_without_a_search_starts_no_pool(self, monkeypatch, pools):
        # gas_norm at gamma 0 alone: one cell and no search make one task
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        run_experiment(tiny_spec(normalizers=("gas_norm",), gammas=(0.0,)))
        assert pools == [False]

    def test_three_baseline_cells_start_a_pool(self, monkeypatch, pools):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        run_experiment(tiny_spec(normalizers=("global_norm", "local_norm", "mean_scaling")))
        assert pools == [True]

    def test_one_fits_restarts_run_on_a_two_worker_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pools = record_pools(monkeypatch)
        run_experiment(tiny_spec(normalizers=("gas_norm",), gammas=(0.5,), fit_restarts=2,
                                 fit_max_iters=5))
        # the cell is submitted once its fit is collected
        assert pools == [[2, "_nelder_mead", "_nelder_mead", "_evaluate_normalizer"]]

    def test_the_pool_has_one_worker_per_search_up_to_the_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pools = record_pools(monkeypatch)
        made = []
        for searches in (0, 1, 2, 3, 40):
            with fitting_mod.fork_pool(searches) as pool:
                made.append(pool is not None)
        assert made == [False, False, True, True, True]
        assert pools == [[2], [2], [2]]

    def test_every_fits_counts_reach_the_caller(self, monkeypatch):
        real = evaluation_mod.fit_frame
        returned = {}

        def recorded(frame, config, started=None):
            results = real(frame, config, started)
            returned[len(os.sched_getaffinity(0)), config.gamma] = results
            return results

        monkeypatch.setattr(evaluation_mod, "fit_frame", recorded)
        spec = tiny_spec(normalizers=("gas_norm",), gammas=(0.0, 0.5, 0.9), fit_restarts=2)
        for cores in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
            run_experiment(spec)
        for gamma in (0.5, 0.9):
            assert returned[2, gamma] == returned[1, gamma]
            assert all(result.evaluations > 1 for result in returned[2, gamma].values())


class TestReportIo:
    def make_report(self):
        return EvalReport(
            (
                ReportRow("ar", "gas_norm", 0.5, 1.25, 0.1, 3, (1.2, 1.3, 1.25)),
                ReportRow("ar", "global_norm", None, 2.0, 0.2, 3, (1.9, 2.1, 2.0)),
            )
        )

    def test_round_trip(self, tmp_path):
        report = self.make_report()
        _, json_path = emit_report(report, tmp_path / "report")
        with open(json_path) as fh:
            assert json.load(fh) == to_json(report)

    def test_a_failed_cell_is_strict_json_null_and_csv_nan(self, tmp_path):
        failed = ReportRow("ar", "mean_scaling", None, math.nan, math.nan, 0, (), "diverged")
        csv_path, json_path = emit_report(EvalReport((failed,)), tmp_path / "report")

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        row = json.loads(Path(json_path).read_text(), parse_constant=refuse)["rows"][0]
        assert (row["mase_mean"], row["mase_stderr"], row["error"]) == (None, None, "diverged")
        assert Path(csv_path).read_text().splitlines()[1] == "ar,mean_scaling,,nan,nan,0"

    def test_every_non_finite_float_is_written_as_null(self, tmp_path):
        values = {"python": [math.nan, -math.inf, 1.5], "numpy": np.float64(math.inf),
                  "array": np.array([[1.0, np.nan], [np.inf, 2.0]]), "int": 3}
        expected = {"python": [None, None, 1.5], "numpy": None,
                    "array": [[1.0, None], [None, 2.0]], "int": 3}
        assert to_json(values) == expected
        write_json(values, tmp_path / "values.json")
        assert json.loads((tmp_path / "values.json").read_text()) == expected

    def test_csv_shape(self, tmp_path):
        csv_path, _ = emit_report(self.make_report(), tmp_path / "report")
        lines = open(csv_path).read().strip().splitlines()
        assert lines[0] == "dataset,normalizer,gamma,mase_mean,mase_stderr,n_seeds"
        assert len(lines) == 3
        assert lines[2].startswith("ar,global_norm,,")

    def test_empty_report_header_only(self, tmp_path):
        csv_path, _ = emit_report(EvalReport(()), tmp_path / "report")
        lines = open(csv_path).read().strip().splitlines()
        assert len(lines) == 1

    def test_a_dataset_name_holding_a_comma_is_quoted(self, tmp_path):
        path = tmp_path / "a,b.csv"
        write_csv(gen_ar(tiny_spec().dataset), path)
        report = run_experiment(tiny_spec(dataset=str(path), normalizers=("local_norm",)))
        csv_path, _ = emit_report(report, tmp_path / "report")
        with open(csv_path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(header) == 6 and rows
        for row in rows:
            assert len(row) == 6 and row[0] == "a,b"
