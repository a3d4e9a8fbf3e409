import codecs
import contextlib
import csv
import io
import json
import os
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasnorm import (
    ExperimentSpec,
    FitConfig,
    FitResult,
    GasParams,
    MlpSpec,
    SeriesFrame,
    SplitSpec,
    TrainedModel,
    fit_frame,
    load_csv,
    mase,
    predict,
    to_json,
    train,
    write_csv,
)
from _helpers import fresh_interpreter
from gasnorm.normalization import NormalizerKind, NormalizerSpec, denormalize, normalize
from gasnorm.cli import experiment_spec_from_dict, main
from gasnorm.datagen import ArSpec, LorenzSpec


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_ar_writes_csv_and_sidecar(self, tmp_path, capsys):
        code, out, _ = run(
            ["gen", "ar", "--length", "50", "--seed", "3",
             "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        csv_path = out.strip()
        assert os.path.exists(csv_path)
        frame = load_csv(csv_path)
        assert frame.values.shape == (50, 1)
        sidecar = json.loads((tmp_path / "ar.json").read_text())
        assert sidecar["seed"] == 3

    def test_lorenz(self, tmp_path, capsys):
        code, out, _ = run(
            ["gen", "lorenz", "--steps", "30", "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert load_csv(out.strip()).values.shape == (30, 3)

    def test_unknown_kind_exits_one(self, tmp_path, capsys):
        code, _, err = run(["gen", "--output-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("kind", ["bogus", ["ar"], {"ar": 1}])
    def test_config_kind_outside_the_generators_exits_one(self, tmp_path, capsys, kind):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"kind": kind}))
        code, _, err = run(["gen", "--config", str(cfg), "--output-dir", str(tmp_path)], capsys)
        assert code == 1
        assert err.startswith("error: unknown generator kind") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_diverging_lorenz_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"kind": "lorenz", "steps": 10, "initial": [1e200] * 3}))
        code, out, err = run(
            ["gen", "--config", str(cfg), "--output-dir", str(tmp_path / "out")], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "numerical failure: integration diverged at step 0\n"

    def test_lorenz_reads_noise_std(self, tmp_path, capsys):
        written = {}
        for name, extra in (("default", []), ("noisy", ["--noise-std", "5"])):
            out_dir = tmp_path / name
            code, out, _ = run(
                ["gen", "lorenz", "--steps", "30", "--output-dir", str(out_dir), *extra],
                capsys,
            )
            assert code == 0
            written[name] = open(out.strip()).read()
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"kind": "lorenz", "steps": 30, "noise_std": 5}))
        code, out, _ = run(
            ["gen", "--config", str(cfg), "--output-dir", str(tmp_path / "config")], capsys
        )
        assert code == 0
        assert written["noisy"] != written["default"]
        assert written["noisy"] == open(out.strip()).read()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["lorenz", "--length", "50"], "--length"),
            (["lorenz", "--trend-slope", "0.1"], "--trend-slope"),
            (["ar", "--dt", "0.02"], "--dt"),
            (["ar", "--steps", "10"], "--steps"),
        ],
    )
    def test_flag_of_the_other_kind_exits_one(self, tmp_path, capsys, argv, flag):
        code, _, err = run(["gen", *argv, "--output-dir", str(tmp_path)], capsys)
        assert code == 1
        assert flag in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--length", "999"], "--length is also set by"),
            (["--seed", "1", "--length", "5", "--noise-std", "2"], "--seed, --length are also set by"),
        ],
        ids=["one_flag", "two_flags"],
    )
    def test_flag_the_config_also_sets_exits_one(self, tmp_path, capsys, flags, named):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"kind": "ar", "length": 17, "seed": 0}))
        out_dir = tmp_path / "out"
        code, out, err = run(
            ["gen", "ar", "--config", str(cfg), *flags, "--output-dir", str(out_dir)], capsys
        )
        assert code == 1
        assert out == ""
        assert f"{named} {cfg}" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("kind", ["ar", "lorenz"])
    def test_kind_given_twice_must_agree(self, tmp_path, capsys, kind):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"kind": "lorenz", "seed": 3}))
        out_dir = tmp_path / "out"
        code, out, err = run(
            ["gen", kind, "--config", str(cfg), "--output-dir", str(out_dir)], capsys
        )
        if kind == "lorenz":
            assert code == 0
            assert json.loads((out_dir / "lorenz.json").read_text())["seed"] == 3
        else:
            assert code == 1
            assert out == ""
            assert err == f"error: kind ar is also set by {cfg}, as 'lorenz'\n"
            assert not out_dir.exists()


@pytest.fixture
def small_csv(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(loc=5.0, scale=2.0, size=120).cumsum() * 0.05 + 3.0
    path = tmp_path / "data.csv"
    write_csv(SeriesFrame(values, ("y",)), path)
    return str(path)


def model_inputs(data_csv, horizon):
    """An MLP spec plus random training stacks that fit the whole of ``data_csv`` as context."""
    frame = load_csv(data_csv)
    rng = np.random.default_rng(1)
    contexts = rng.normal(size=(6, *frame.values.shape))
    targets = rng.normal(size=(6, horizon, frame.n_features))
    return MlpSpec((4,), epochs=2, seed=0), contexts, targets


def write_model(tmp_path, data_csv, horizon, edit=None):
    """Write ``to_json`` of a trained model, after ``edit`` changes its document."""
    doc = to_json(train(*model_inputs(data_csv, horizon)))
    if edit:
        edit(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestFitNormalizeForecast:
    def test_pipeline(self, tmp_path, small_csv, capsys):
        code, out, _ = run(
            ["fit", small_csv, "--gamma", "0.3", "--dist", "gaussian",
             "--restarts", "1", "--max-iters", "80",
             "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        params_path = out.strip()
        doc = json.loads(open(params_path).read())
        assert "y" in doc
        assert doc["y"]["params"]["gamma"] == 0.3

        code, out, _ = run(
            ["normalize", small_csv, "--normalizer", "gas_norm",
             "--params", params_path, "--horizon", "4",
             "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        norm_path = out.strip()
        assert load_csv(norm_path).values.shape == (120, 1)
        stats = open(str(tmp_path / "batch_stats.csv")).read().splitlines()
        assert stats[0] == "phase,step,feature,mu,scale"
        assert sum(1 for line in stats if line.startswith("horizon,")) == 4

        code, out, _ = run(
            ["forecast", small_csv, "--normalizer", "gas_norm",
             "--params", params_path, "--horizon", "4",
             "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        fc = load_csv(out.strip())
        assert fc.values.shape == (4, 1)
        assert np.all(np.isfinite(fc.values))

    def test_fit_without_flags_writes_the_fit_config_defaults(self, tmp_path, small_csv, capsys):
        code, out, _ = run(["fit", small_csv, "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        expected = to_json(fit_frame(load_csv(small_csv), FitConfig()))
        assert open(out.strip()).read() == json.dumps(expected, indent=2)

    def test_forecast_with_a_model(self, tmp_path, small_csv, capsys):
        model_path = write_model(tmp_path, small_csv, horizon=4)
        code, out, _ = run(
            ["forecast", small_csv, "--normalizer", "local_norm", "--model", model_path,
             "--horizon", "4", "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        model = train(*model_inputs(small_csv, horizon=4))
        batch = normalize(NormalizerSpec(NormalizerKind.LOCAL_NORM), load_csv(small_csv).values, 4)
        expected = denormalize(predict(model, batch.normalized_context), batch)
        np.testing.assert_array_equal(load_csv(out.strip()).values, expected)

    def test_local_norm_needs_no_params(self, tmp_path, small_csv, capsys):
        code, out, _ = run(
            ["normalize", small_csv, "--normalizer", "local_norm",
             "--horizon", "2", "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        normalized = load_csv(out.strip()).values
        assert abs(normalized.mean()) < 1e-10

    def test_global_norm_uses_the_file_moments(self, tmp_path, small_csv, capsys):
        code, out, _ = run(
            ["normalize", small_csv, "--normalizer", "global_norm",
             "--horizon", "2", "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        y = load_csv(small_csv).feature("y")
        expected = (y - y.mean()) / np.sqrt(y.var())
        np.testing.assert_array_equal(load_csv(out.strip()).feature("y"), expected)
        sidecar = json.loads((tmp_path / "batch.json").read_text())
        assert sidecar["normalizer"] == "global_norm"

    def test_gas_norm_without_params_exits_one(self, tmp_path, small_csv, capsys):
        code, _, err = run(
            ["normalize", small_csv, "--output-dir", str(tmp_path)], capsys
        )
        assert code == 1
        assert "params" in err

    @pytest.mark.parametrize("command", ["normalize", "forecast"])
    @pytest.mark.parametrize("normalizer", ["global_norm", "local_norm", "mean_scaling"])
    def test_params_with_a_normalizer_that_does_not_read_them_exits_one(
        self, tmp_path, small_csv, capsys, command, normalizer
    ):
        out_dir = tmp_path / "out"
        code, out, err = run(
            [command, small_csv, "--normalizer", normalizer,
             "--params", str(tmp_path / "missing.json"), "--output-dir", str(out_dir)],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {normalizer} does not read --params\n"
        assert not out_dir.exists()

    def test_normalized_output_with_quoted_names_reads_back(self, tmp_path, capsys):
        path = tmp_path / "quoted.csv"
        path.write_text('"a,b",c%d\n1,2\n3,5\n4,4\n')
        code, out, _ = run(
            ["normalize", str(path), "--normalizer", "local_norm",
             "--output-dir", str(tmp_path / "once")],
            capsys,
        )
        assert code == 0
        first = out.strip()
        assert open(first).readline() == '"a,b",c%d\n'
        stats = open(str(tmp_path / "once" / "batch_stats.csv")).read().splitlines()
        assert stats[1].startswith('context,0,"a,b",') and stats[2].startswith("context,0,c%d,")
        code, out, _ = run(
            ["normalize", first, "--normalizer", "local_norm",
             "--output-dir", str(tmp_path / "twice")],
            capsys,
        )
        assert code == 0
        assert load_csv(out.strip()).feature_names == ["a,b", "c%d"]

    def test_bad_csv_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("y\n1.0\nnot-a-number\n")
        code, _, err = run(["fit", str(bad), "--output-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "error:" in err


class TestEval:
    def test_prints_mase(self, tmp_path, capsys):
        write_csv(SeriesFrame(np.array([4.0, 5.0]), ("y",)), tmp_path / "actual.csv")
        write_csv(SeriesFrame(np.array([3.0, 3.0]), ("y",)), tmp_path / "forecast.csv")
        write_csv(SeriesFrame(np.array([1.0, 2.0, 3.0]), ("y",)), tmp_path / "train.csv")
        code, out, _ = run(
            ["eval", "--actual", str(tmp_path / "actual.csv"),
             "--forecast", str(tmp_path / "forecast.csv"),
             "--train", str(tmp_path / "train.csv")],
            capsys,
        )
        assert code == 0
        name, value = out.strip().split(",")
        assert name == "y"
        assert float(value) == pytest.approx(1.5)

    @pytest.mark.parametrize(
        "role, names",
        [("forecast", ["y", "x"]), ("train", ["x"]), ("train", ["x", "y", "z"])],
        ids=["forecast_columns_swapped", "train_of_one_column", "train_of_three_columns"],
    )
    def test_features_unlike_the_actual_exit_one(self, tmp_path, capsys, role, names):
        paths = {r: tmp_path / f"{r}.csv" for r in ("actual", "forecast", "train")}
        values = np.arange(12.0).reshape(4, 3) ** 2
        for r, path in paths.items():
            cols = names if r == role else ["x", "y"]
            write_csv(SeriesFrame(values[:, : len(cols)], cols), path)
        code, out, err = run(["eval", *(f"--{r}={p}" for r, p in paths.items())], capsys)
        assert code == 1
        assert out == ""
        assert err == (
            f"error: {paths[role]} has features {names}, but {paths['actual']} has ['x', 'y']\n"
        )

    def test_names_are_quoted(self, tmp_path, capsys):
        for name, values in (("actual", [4.0, 5.0]), ("forecast", [3.0, 3.0]),
                             ("train", [1.0, 2.0, 3.0])):
            write_csv(SeriesFrame(np.array(values), ("a,b",)), tmp_path / f"{name}.csv")
        code, out, _ = run(
            ["eval", "--actual", str(tmp_path / "actual.csv"),
             "--forecast", str(tmp_path / "forecast.csv"),
             "--train", str(tmp_path / "train.csv")],
            capsys,
        )
        assert code == 0
        assert list(csv.reader(out.splitlines())) == [["a,b", "1.5"]]

    def test_constant_train_exits_one(self, tmp_path, capsys):
        write_csv(SeriesFrame(np.array([4.0]), ("y",)), tmp_path / "actual.csv")
        write_csv(SeriesFrame(np.array([3.0]), ("y",)), tmp_path / "forecast.csv")
        write_csv(SeriesFrame(np.ones(5), ("y",)), tmp_path / "train.csv")
        code, _, _ = run(
            ["eval", "--actual", str(tmp_path / "actual.csv"),
             "--forecast", str(tmp_path / "forecast.csv"),
             "--train", str(tmp_path / "train.csv")],
            capsys,
        )
        assert code == 1


class TestExperiment:
    def config_doc(self):
        return {
            "dataset": {"kind": "ar", "length": 220, "ar_coeffs": [0.7],
                        "trend_slope": 0.05, "seed": 0},
            "normalizers": ["gas_norm", "local_norm"],
            "forecaster": {"layer_widths": [8], "activation": "relu",
                           "learning_rate": 1e-4, "epochs": 3, "batch_size": 16},
            "split": {"train_fraction": 0.6, "val_fraction": 0.2,
                      "context_length": 10, "horizon": 2},
            "gammas": [0.0, 0.5],
            "seeds": [0],
            "fit_restarts": 1,
            "fit_max_iters": 50,
            "stride": 3,
        }

    def test_runs_and_emits_report(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(self.config_doc()))
        code, out, _ = run(
            ["experiment", "--config", str(cfg), "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        csv_path, json_path = out.strip().splitlines()
        lines = open(csv_path).read().strip().splitlines()
        assert lines[0].startswith("dataset,normalizer,gamma")
        assert len(lines) > 1
        doc = json.loads(open(json_path).read())
        assert {"gas_norm", "local_norm"} <= {r["normalizer"] for r in doc["rows"]}

    def test_a_report_directory_does_not_redirect_the_report(self, tmp_path, capsys):
        # --output-dir names the report's directory, whatever already lies inside it
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(self.config_doc()))
        (tmp_path / "out" / "report").mkdir(parents=True)
        code, out, _ = run(
            ["experiment", "--config", str(cfg), "--output-dir", str(tmp_path / "out")], capsys
        )
        assert code == 0
        stem = tmp_path / "out" / "report"
        assert out.splitlines() == [f"{stem}.csv", f"{stem}.json"]
        assert sorted(os.listdir(tmp_path / "out")) == ["report", "report.csv", "report.json"]
        assert os.listdir(tmp_path / "out" / "report") == []

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code, _, _ = run(["experiment", "--output-dir", str(tmp_path)], capsys)
        assert code == 1

    def test_spec_from_dict_kinds(self, tmp_path):
        doc = self.config_doc()
        spec = experiment_spec_from_dict(doc)
        assert isinstance(spec.dataset, ArSpec)
        doc["dataset"] = {"kind": "lorenz", "steps": 50}
        assert isinstance(experiment_spec_from_dict(doc).dataset, LorenzSpec)
        doc["dataset"] = {"kind": "csv", "path": str(tmp_path / "x.csv")}
        assert experiment_spec_from_dict(doc).dataset == str(tmp_path / "x.csv")


class TestInvalidInputExitsOne:
    """Bad flags, files and parameters exit 1 with a message, never a traceback."""

    def test_flag_the_subcommand_does_not_read(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{}")
        code, _, err = run(["experiment", "--config", str(cfg), "--gamma", "0.3"], capsys)
        assert code == 1
        assert "--gamma" in err

    def test_eval_rejects_dist(self, tmp_path, capsys):
        code, _, err = run(
            ["eval", "--actual", "a.csv", "--forecast", "f.csv", "--train", "t.csv",
             "--dist", "gaussian"],
            capsys,
        )
        assert code == 1
        assert "--dist" in err

    def test_bad_choice(self, small_csv, capsys):
        code, _, err = run(["normalize", small_csv, "--normalizer", "bogus"], capsys)
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize("stem", ["", "sub/batch", "sub/"])
    def test_a_stem_that_is_no_file_name(self, small_csv, tmp_path, capsys, stem):
        out = tmp_path / "out"
        code, _, err = run(["normalize", small_csv, "--normalizer", "local_norm",
                            "--stem", stem, "--output-dir", str(out)], capsys)
        assert code == 1
        assert f"--stem must be a file name without a directory, got {stem!r}" in err
        assert not out.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        code, _, err = run(["fit", missing, "--output-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "missing.csv" in err

    def test_config_not_json(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        code, _, err = run(["experiment", "--config", str(cfg)], capsys)
        assert code == 1
        assert "not valid JSON" in err

    @pytest.mark.parametrize(
        "content, message",
        [(b"\xff\xfe{}", "can't decode byte 0xff"), (b"[" * 100_000, "recursion")],
    )
    def test_config_unreadable_as_json(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(content)
        code, _, err = run(["experiment", "--config", str(cfg)], capsys)
        assert code == 1
        assert err.startswith(f"error: {cfg}: not valid JSON") and err.count("\n") == 1
        assert message in err

    def test_params_with_unknown_key(self, tmp_path, small_csv, capsys):
        params = to_json(GasParams(family="gaussian"))
        doc = {"y": {"params": {**params, "bogus": 1.0}, "objective": 0.0,
                     "iterations": 0, "converged": False, "evaluations": 1}}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            ["normalize", small_csv, "--params", str(path), "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"y\n" + b"1" * 200_000 + b"\n", "field larger than field limit"),
            (b"\xff\xfey\n1\n", "can't decode byte 0xff"),
        ],
    )
    def test_unreadable_csv(self, tmp_path, capsys, content, message):
        path = tmp_path / "unreadable.csv"
        path.write_bytes(content)
        code, _, err = run(
            ["normalize", str(path), "--normalizer", "local_norm",
             "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "edit, named",
        [
            # the flat layout, with the spec's fields beside the weights
            (lambda doc: doc.update(doc.pop("spec")), "'spec'"),
            (lambda doc: doc["spec"].update(activation="bogus"), "bogus"),
            (lambda doc: doc["weights"][0].pop(), "do not chain"),
            (lambda doc: doc.update(input_shape=[120]), "input_shape"),
            (lambda doc: doc.update(weights=5), "model"),
            (lambda doc: doc.update(input_shape=[20]), "input_shape must be a list of 2"),
            (lambda doc: doc.update(output_shape=[4, 0]), "output_shape must be positive"),
            (lambda doc: doc.update(weights="ab"), "weights"),
            (lambda doc: doc.update(biases={}), "biases"),
            (lambda doc: doc.update(train_loss_curve=True), "train_loss_curve"),
            (lambda doc: doc.update(spec=3), "spec"),
        ],
    )
    def test_bad_model_file(self, tmp_path, small_csv, capsys, edit, named):
        model_path = write_model(tmp_path, small_csv, horizon=4, edit=edit)
        code, out, err = run(
            ["forecast", small_csv, "--normalizer", "local_norm", "--model", model_path,
             "--horizon", "4", "--output-dir", str(tmp_path / "out")],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: model {model_path}") and err.count("\n") == 1
        assert named in err

    def test_fit_on_too_few_rows(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        write_csv(SeriesFrame(np.arange(5.0), ("y",)), path)
        code, _, err = run(["fit", str(path), "--output-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "at least 10 observations" in err

    @pytest.mark.parametrize(
        "header, message",
        [
            ("1.5,2", "header cell 0 is a number ('1.5')"),
            ("x,x", "duplicate 'x' feature name in column 1"),
            ("x,", "empty feature name in column 1"),
        ],
    )
    def test_fit_on_a_bad_header(self, tmp_path, capsys, header, message):
        rng = np.random.default_rng(5)
        rows = "".join(f"{a},{b}\n" for a, b in (rng.normal(size=(30, 2)) * [1, 100]).tolist())
        path = tmp_path / "bad_header.csv"
        path.write_text(f"{header}\n{rows}")
        code, _, err = run(["fit", str(path), "--output-dir", str(tmp_path)], capsys)
        assert code == 1
        assert message in err
        assert not (tmp_path / "params.json").exists()

    @pytest.mark.parametrize("key", ["dataset", "split"])
    def test_experiment_config_missing_key(self, tmp_path, capsys, key):
        doc = TestExperiment().config_doc()
        del doc[key]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(["experiment", "--config", str(cfg)], capsys)
        assert code == 1
        assert repr(key) in err

    def test_params_entry_missing_params(self, tmp_path, small_csv, capsys):
        doc = {"y": {"objective": 0.0, "iterations": 0, "converged": False, "evaluations": 1}}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            ["normalize", small_csv, "--params", str(path), "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "'params'" in err

    @pytest.mark.parametrize(
        "key, value",
        [("objective", "abc"), ("converged", "no"), ("evaluations", None), ("iterations", 2.5),
         ("converged", 1), ("objective", None), ("params", []), ("iterations", -3),
         ("evaluations", 0)],
    )
    def test_params_entry_value_of_wrong_type(self, tmp_path, small_csv, capsys, key, value):
        doc = {"y": {"params": to_json(GasParams(family="gaussian")), "objective": 0.0,
                     "iterations": 0, "converged": False, "evaluations": 1, key: value}}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            ["normalize", small_csv, "--params", str(path), "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert err.startswith(f"error: {path} feature 'y'") and err.count("\n") == 1
        assert key in err

    def test_params_entry_without_evaluations(self, tmp_path, small_csv, capsys):
        # params files written before the evaluation count was recorded
        params = to_json(GasParams(family="gaussian"))
        doc = {"y": {"params": params, "objective": 0.0, "iterations": 0, "converged": False}}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            ["normalize", small_csv, "--params", str(path), "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "'evaluations'" in err

    def test_experiment_config_with_unknown_key(self, tmp_path, capsys):
        doc = TestExperiment().config_doc()
        doc["gamma"] = [0.9]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(["experiment", "--config", str(cfg)], capsys)
        assert code == 1
        assert "'gamma'" in err

    def test_gen_config_value_of_wrong_type(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"kind": "ar", "length": "abc"}))
        out_dir = tmp_path / "out"
        code, _, err = run(["gen", "--config", str(cfg), "--output-dir", str(out_dir)], capsys)
        assert code == 1
        assert "gen ar config" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("ar", "length", 50.5),
            ("ar", "seed", 1.5),
            ("ar", "seed", -1),
            ("ar", "trend_slope", "0"),
            ("ar", "require_stable", 1),
            ("lorenz", "initial", [1, 2]),
            ("lorenz", "initial", [1, 2, "3"]),
            ("lorenz", "steps", True),
            ("lorenz", "noise_std", "0.1"),
            ("lorenz", "seed", -1),
        ],
    )
    def test_gen_config_bad_value(self, tmp_path, capsys, kind, key, value):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"kind": kind, key: value}))
        out_dir = tmp_path / "out"
        code, _, err = run(["gen", "--config", str(cfg), "--output-dir", str(out_dir)], capsys)
        assert code == 1
        assert err.startswith(f"error: gen {kind} config: {key} ") and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [["gen", "ar", "--seed", "-1"], ["gen", "lorenz", "--seed", "-1"]],
    )
    def test_negative_seed(self, tmp_path, capsys, argv):
        out_dir = tmp_path / "out"
        code, _, err = run([*argv, "--output-dir", str(out_dir)], capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seed must be" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("setting", ["--seed", "fit_seed"])
    def test_a_removed_restart_seed_is_refused(self, tmp_path, small_csv, capsys, setting):
        # the restart seed is gone: a run that sets it exits 1, not ignoring it
        if setting == "--seed":
            argv = ["fit", small_csv, "--seed", "1"]
        else:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({**TestExperiment().config_doc(), "fit_seed": 0}))
            argv = ["experiment", "--config", str(cfg)]
        out_dir = tmp_path / "out"
        code, out, err = run([*argv, "--output-dir", str(out_dir)], capsys)
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1].startswith("error: ") and setting in err
        assert not out_dir.exists()

    def test_fit_nu_with_the_gaussian_family(self, tmp_path, small_csv, capsys):
        # a gaussian filter has no nu to fit, so the flag is refused, not ignored
        out_dir = tmp_path / "out"
        code, _, err = run(["fit", small_csv, "--dist", "gaussian", "--fit-nu",
                            "--output-dir", str(out_dir)], capsys)
        assert code == 1
        assert err == "error: fit_nu needs the student_t family: a gaussian fit has no nu\n"
        assert not out_dir.exists()

    def test_split_value_of_wrong_type(self, tmp_path, capsys):
        doc = TestExperiment().config_doc()
        doc["split"]["context_length"] = "20"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(["experiment", "--config", str(cfg)], capsys)
        assert code == 1
        assert "split" in err

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("normalizers", ["bogus_norm"], "bogus_norm"),
            ("normalizers", "gas_norm", "normalizers"),
            ("family", "cauchy", "cauchy"),
            ("forecaster", {"activation": "bogus"}, "forecaster"),
            ("seeds", "abc", "seeds"),
            ("gammas", ["a"], "gammas"),
            ("stride", "2", "stride"),
            ("stride", 2.5, "stride"),
            ("mase_seasonality", "1", "mase_seasonality"),
            ("fit_restarts", "2", "fit_restarts"),
            ("mase_seasonality", 0, "mase_seasonality"),
            ("nu", "abc", "nu"),
            ("seeds", [1.5, 1.9], "seeds"),
            ("seeds", ["2"], "seeds"),
            ("gammas", ["0.5"], "gammas"),
            ("seeds", [-1], "seeds"),
            ("seeds", [], "seeds"),
            ("forecaster", {"batch_size": 8.5}, "batch_size"),
            ("forecaster", {"epochs": 2.5}, "epochs"),
            ("forecaster", {"layer_widths": [4.7]}, "layer_widths"),
            ("forecaster", {"activation": 1}, "activation"),
            ("forecaster", {"seed": -1}, "seed"),
            ("forecaster", "abc", "forecaster"),
            ("split", {"train_fraction": 0.6, "context_length": 10, "horizon": 2.0}, "horizon"),
            ("split", {"train_fraction": 0.6, "context_length": 10, "horizon": True}, "horizon"),
            ("dataset", {"kind": "ar", "season_period": 12.5}, "season_period"),
            ("dataset", {"kind": "ar", "ar_coeffs": ["0.5"]}, "ar_coeffs"),
            ("dataset", {"kind": "ar", "ar_coeffs": [True]}, "ar_coeffs"),
            ("dataset", {"kind": "ar", "require_stable": "no"}, "require_stable"),
            ("dataset", {"kind": "csv", "path": None}, "csv dataset path"),
            ("dataset", {"kind": "csv", "path": ["a"]}, "csv dataset path"),
            ("dataset", {"kind": "csv", "path": 5}, "csv dataset path"),
            ("dataset", {"kind": "csv", "path": ""}, "csv dataset path"),
            ("dataset", "abc", "dataset"),
            ("dataset", {"kind": "bogus", "path": "x.csv"}, "'bogus'"),
            ("dataset", {"kind": ["csv"]}, "dataset kind"),
            ("forecaster", {"seed": 3}, "seeds"),
            ("nu", 2, "nu"),
            ("normalizers", [], "normalizers must be non-empty"),
            ("gammas", [], "gammas must be non-empty when gas_norm runs"),
            # the config's 220 steps train on 132
            ("mase_seasonality", 132, "mase_seasonality"),
            ("mase_seasonality", 500, "mase_seasonality"),
        ],
    )
    def test_experiment_config_value_out_of_range(self, tmp_path, capsys, key, value, named):
        doc = TestExperiment().config_doc()
        doc[key] = value
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(
            ["experiment", "--config", str(cfg), "--output-dir", str(tmp_path / "out")], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("kind", ["ar", "lorenz", "csv"])
    def test_dataset_with_unknown_key(self, tmp_path, capsys, kind):
        doc = TestExperiment().config_doc()
        doc["dataset"] = {"kind": kind, "bogus": 1}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(["experiment", "--config", str(cfg)], capsys)
        assert code == 1
        assert "bogus" in err


def test_numerical_failure_exits_two(tmp_path, capsys, monkeypatch):
    import gasnorm.cli as cli_mod
    from gasnorm.errors import NumericalError

    rng = np.random.default_rng(0)
    path = tmp_path / "d.csv"
    write_csv(SeriesFrame(rng.normal(size=30), ("y",)), path)

    def boom(*a, **k):
        raise NumericalError("filter diverged at timestep 7")

    monkeypatch.setattr(cli_mod, "fit_frame", boom)
    code, _, err = run(["fit", str(path), "--output-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "numerical failure" in err


def test_a_run_without_a_fit_loads_neither_the_optimizer_nor_a_process_pool():
    out = fresh_interpreter(
        """
        import sys
        from dataclasses import replace
        import gasnorm.cli
        from gasnorm import ArSpec, ExperimentSpec, MlpSpec, SplitSpec, run_experiment

        spec = ExperimentSpec(
            dataset=ArSpec(length=120, seed=0),
            normalizers=("global_norm", "local_norm", "mean_scaling"),
            forecaster=MlpSpec((4,), epochs=1),
            split=SplitSpec(0.6, 0.2, context_length=10, horizon=2),
        )
        run_experiment(spec)
        # gamma 0 needs no search, so gas_norm at gamma 0 alone fits in this process
        run_experiment(replace(spec, normalizers=("gas_norm",), gammas=(0.0,)))
        loaded = {"scipy.optimize", "concurrent.futures.process", "multiprocessing"}
        print(sorted(loaded & set(sys.modules)))
        """
    )
    assert out == "[]\n"


# a locale whose preferred encoding is ASCII, with Python's UTF-8 overrides switched off
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def test_files_and_eval_output_are_utf8_whatever_the_locale(tmp_path):
    probe = fresh_interpreter("import locale; print(locale.getpreferredencoding(False))",
                              env=ASCII_LOCALE)
    if codecs.lookup(probe.strip()).name == "utf-8":
        pytest.skip(f"the C locale reads as {probe.strip()} here")
    actual = [1.5, 2, 0.5, 3, 2.5, 1, 4, 3.5]
    # the code is ASCII: an ASCII locale could not decode it from the command line
    out = fresh_interpreter(
        r"""
        import os
        import sys
        from gasnorm import load_csv, write_csv
        from gasnorm.cli import main

        os.chdir(os.environ["WORKDIR"])
        NAME = "caf\u00e9"
        # a UTF-8 directory name as the ASCII locale passes it in argv: undecodable bytes
        # as lone surrogates, which the CLI must print back as the same bytes
        OUT = os.fsdecode(NAME.encode("utf-8"))
        assert OUT != NAME, OUT
        encodings = sys.stdout.encoding, sys.stderr.encoding

        def write(name, text):
            with open(name, "wb") as fh:
                fh.write(text.encode("utf-8"))

        write("train.csv", NAME + "\n" + "".join(f"{v}\n" for v in os.environ["ACTUAL"].split()))
        write("forecast.csv", NAME + "\n" + "2\n" * 8)
        frame = load_csv("train.csv")
        assert frame.feature_names == [NAME], frame.feature_names
        write_csv(frame, "copy.csv")
        assert open("copy.csv", "rb").read() == open("train.csv", "rb").read()
        # by hand, so the name is stored as raw UTF-8 bytes, not as a JSON escape
        write("params.json", '{"%s": {"params": {"gamma": 0.5}, "objective": -1.0, '
                             '"iterations": 0, "converged": false, "evaluations": 1}}' % NAME)
        argv = ["normalize", "copy.csv", "--params", "params.json", "--output-dir", OUT]
        assert main(argv) == 0
        for name in ("batch_normalized.csv", "batch_stats.csv"):
            assert NAME.encode("utf-8") in open(os.path.join(OUT, name), "rb").read()
        assert main(["eval", "--actual", "train.csv", "--forecast", "forecast.csv",
                     "--train", "copy.csv"]) == 0
        sys.stdout.flush()
        os.dup2(1, 2)  # from here on stderr joins stdout, so the test reads both
        # 8 steps are too few to fit: the error names the feature
        assert main(["fit", "train.csv", "--output-dir", OUT]) == 1
        # main hands the streams back with the encodings it found
        assert (sys.stdout.encoding, sys.stderr.encoding) == encodings
        """,
        env={**ASCII_LOCALE, "WORKDIR": str(tmp_path), "ACTUAL": " ".join(map(str, actual))},
    )
    want = mase(np.array(actual)[:, None], np.full((8, 1), 2.0), np.array(actual)[:, None])
    assert out.splitlines() == [
        os.path.join("café", "batch_normalized.csv"),
        f"café,{want[0]:.17g}",
        "error: 1 of 1 features failed to fit: café: need at least 10 observations to fit, got 8",
    ]


@pytest.mark.parametrize("family", ["gaussian", "student_t"])
def test_filter_blow_up_exits_two(tmp_path, capsys, family):
    data = tmp_path / "d.csv"
    data.write_text("y\n0\n1e200\n0\n")
    params = tmp_path / "params.json"
    fitted = FitResult(GasParams(family=family, gamma=0.5), 0.0, 0, False, 1)
    params.write_text(json.dumps({"y": to_json(fitted)}))
    code, out, err = run(
        ["normalize", str(data), "--params", str(params), "--output-dir", str(tmp_path / "out")],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == "numerical failure: filter state became non-finite at timestep 1\n"


@pytest.mark.filterwarnings("error")
def test_normalizer_overflow_exits_two_naming_the_file(tmp_path, capsys):
    data = tmp_path / "d.csv"
    # mean scaling divides by the window mean, 1e-8 here, which sends 1e301 past the float range
    data.write_text("y\n1e301\n-1e301\n3e-8\n")
    out_dir = tmp_path / "out"
    argv = ["normalize", str(data), "--normalizer", "mean_scaling", "--output-dir", str(out_dir)]
    # numpy's default error state: an overflow warning would raise here, as an error
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    path = out_dir / "batch_normalized.csv"
    assert err == f"numerical failure: {path}: mean_scaling made the context non-finite\n"
    assert not path.exists()


def _json_kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    return {int: "int", float: "float", str: "string", list: "list", dict: "object"}[type(value)]


JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=4),
    "list": st.lists(st.integers() | st.text(max_size=2), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
# kinds a valid file may also hold in a field: a float field takes an integer, and
# noise_std = null selects the default noise
ALSO_VALID = {"float": {"int"}, "null": {"int", "float"}}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One valid document per input file kind, with the files and argv that read them."""
    d = tmp_path_factory.mktemp("valid")
    data = str(d / "data.csv")
    write_csv(SeriesFrame(np.random.default_rng(0).normal(size=40).cumsum(), ("y",)), data)
    params = {"y": {"params": to_json(GasParams(family="gaussian")), "objective": 0.0,
                    "iterations": 0, "converged": False, "evaluations": 1}}
    experiment = to_json(experiment_spec_from_dict(TestExperiment().config_doc()))
    experiment["dataset"]["kind"] = "ar"
    out = str(d / "out")
    return {
        "params": (params, ["normalize", data, "--params", "FILE", "--output-dir", out]),
        "model": (to_json(train(*model_inputs(data, horizon=2))),
                  ["forecast", data, "--normalizer", "local_norm", "--model", "FILE",
                   "--horizon", "2", "--output-dir", out]),
        "gen ar": ({"kind": "ar", **to_json(ArSpec())}, ["gen", "--config", "FILE",
                                                          "--output-dir", out]),
        "gen lorenz": ({"kind": "lorenz", **to_json(LorenzSpec())},
                       ["gen", "--config", "FILE", "--output-dir", out]),
        "experiment": (experiment, ["experiment", "--config", "FILE", "--output-dir", out]),
    }, d


# class: (file kind, keys from the document's root to the object of its fields, section named)
READ_FROM = {
    GasParams: ("params", ["y", "params"], "FILE feature 'y' params"),
    FitResult: ("params", ["y"], "FILE feature 'y'"),
    MlpSpec: ("model", ["spec"], "model FILE spec"),
    TrainedModel: ("model", [], "model FILE"),
    ArSpec: ("gen ar", [], "gen ar config"),
    LorenzSpec: ("gen lorenz", [], "gen lorenz config"),
    SplitSpec: ("experiment", ["split"], "experiment config split"),
    ExperimentSpec: ("experiment", [], "experiment config"),
}


@pytest.mark.parametrize("cls", list(READ_FROM), ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_field_of_another_json_type_exits_one(valid_files, cls, data):
    """Any one field of another JSON type exits 1, naming the field and the file or section."""
    files, d = valid_files
    file_kind, keys, section = READ_FROM[cls]
    doc, argv = files[file_kind]
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in keys:
        target = target[key]
    name = data.draw(st.sampled_from([f.name for f in fields(cls)]), label="field")
    valid = _json_kind(target[name])
    kinds = sorted(set(JSON_VALUES) - {valid} - ALSO_VALID.get(valid, set()))
    target[name] = data.draw(st.sampled_from(kinds).flatmap(JSON_VALUES.get), label="value")
    path = d / "input.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path) if a == "FILE" else a for a in argv])
    out, err = out.getvalue(), err.getvalue()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(rf"\b{name}\b", err)
    assert section.replace("FILE", str(path)) in err
