"""Command line entry point.

Subcommands: gen, fit, normalize, forecast, eval, experiment.
Exit codes: 0 success, 1 invalid input (bad flags, files, parameters),
2 numerical failure. Each subcommand declares only the flags it reads.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .datagen import DATASET_KINDS, gen_ar, gen_lorenz, write_spec_sidecar
from .errors import NumericalError, ValidationError, check_keys, from_keys, read_json, write_json
from .evaluation import ExperimentSpec, emit_report, mase, run_experiment
from .filtering import Family, GasParams
from .fitting import FitConfig, FitResult, fit_frame
from .mlp import TrainedModel, predict
from .normalization import NormalizerKind, NormalizerSpec, denormalize, normalize, save_batch
from .series import SeriesFrame, SplitSpec, csv_line, load_csv, write_csv


class _Parser(argparse.ArgumentParser):
    """Usage errors are invalid input: exit 1, as exit 2 means numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


def _load_config(args) -> dict:
    return check_keys(read_json(args.config), args.config) if args.config else {}


def _out(args, name: str) -> str:
    os.makedirs(args.output_dir, exist_ok=True)
    return os.path.join(args.output_dir, name)


def _fields(cls) -> set[str]:
    return {f.name for f in fields(cls)}


_GEN_FIELDS = set().union(*map(_fields, DATASET_KINDS.values()))


def _cmd_gen(args) -> int:
    cfg = _load_config(args)
    kind = args.kind or cfg.get("kind")
    if cfg.get("kind", kind) != kind:
        raise ValidationError(f"kind {kind} is also set by {args.config}, as {cfg['kind']!r}")
    if kind not in list(DATASET_KINDS):  # a list, not the dict: the kind may be unhashable
        raise ValidationError(f"unknown generator kind {kind!r}")
    cls = DATASET_KINDS[kind]
    # spec flags default to None, so the ones given are the ones that are set
    flags = {k: v for k, v in vars(args).items() if k in _GEN_FIELDS and v is not None}
    foreign = ["--" + k.replace("_", "-") for k in flags if k not in _fields(cls)]
    if foreign:
        raise ValidationError(f"gen {kind} does not read {', '.join(foreign)}")
    config = {k: v for k, v in cfg.items() if k != "kind"}
    twice = ["--" + k.replace("_", "-") for k in flags if k in config]
    if twice:
        verb = "is" if len(twice) == 1 else "are"
        raise ValidationError(f"{', '.join(twice)} {verb} also set by {args.config}")
    spec = from_keys(cls, {**flags, **config}, f"gen {kind} config")
    # called by module-level name, where perfbench's tracer wraps the generators
    frame = gen_ar(spec) if kind == "ar" else gen_lorenz(spec)
    csv_path = _out(args, f"{kind}.csv")
    write_csv(frame, csv_path)
    write_spec_sidecar(spec, _out(args, f"{kind}.json"))
    print(csv_path)
    return 0


def _cmd_fit(args) -> int:
    frame = load_csv(args.data)
    config = FitConfig(**{k: v for k, v in vars(args).items() if k in _fields(FitConfig)})
    results = fit_frame(frame, config)
    path = _out(args, "params.json")
    write_json(results, path)
    print(path)
    return 0


def _load_params(path) -> dict[str, GasParams]:
    doc = check_keys(read_json(path), path)
    return {n: from_keys(FitResult, r, f"{path} feature {n!r}").params for n, r in doc.items()}


def _normalized(args):
    """The ``data`` CSV and its batch under ``--normalizer``: what normalize and forecast share."""
    gas = args.normalizer == NormalizerKind.GAS_NORM.value
    if gas and not args.params:
        raise ValidationError("gas_norm requires --params")
    if args.params and not gas:
        raise ValidationError(f"{args.normalizer} does not read --params")
    frame = load_csv(args.data)
    params = _load_params(args.params) if gas else None
    nspec = NormalizerSpec.for_frame(args.normalizer, frame, params)
    return frame, normalize(nspec, frame.values, args.horizon, frame.feature_names)


def _cmd_normalize(args) -> int:
    # the stem names files inside --output-dir
    if not args.stem or os.path.basename(args.stem) != args.stem:
        raise ValidationError(f"--stem must be a file name without a directory, got {args.stem!r}")
    _, batch = _normalized(args)
    stem = _out(args, args.stem)
    save_batch(batch, stem)
    print(stem + "_normalized.csv")
    return 0


def _cmd_forecast(args) -> int:
    frame, batch = _normalized(args)
    if args.model:
        model = from_keys(TrainedModel, read_json(args.model), f"model {args.model}")
        residual = predict(model, batch.normalized_context)
    else:
        # no residual model: the forecast is the filter's own statistics path
        residual = np.zeros_like(batch.horizon_mu)
    forecast = denormalize(residual, batch)
    path = _out(args, "forecast.csv")
    write_csv(SeriesFrame(forecast, frame.feature_names), path)
    print(path)
    return 0


def _cmd_eval(args) -> int:
    actual, forecast, train = map(load_csv, (args.actual, args.forecast, args.train))
    for path, frame in ((args.forecast, forecast), (args.train, train)):
        if frame.feature_names != actual.feature_names:
            theirs = f"{args.actual} has {actual.feature_names}"
            raise ValidationError(f"{path} has features {frame.feature_names}, but {theirs}")
    values = mase(actual.values, forecast.values, train.values, args.m)
    for name, v in zip(actual.feature_names, values):
        sys.stdout.write(csv_line([name, f"{v:.17g}"]))
    return 0


def experiment_spec_from_dict(doc: dict) -> ExperimentSpec:
    check_keys(doc, "experiment config", ("dataset", "split"), _fields(ExperimentSpec))
    ds = check_keys(doc["dataset"], "experiment config dataset")
    kind = ds.get("kind", "csv")
    if kind not in [*DATASET_KINDS, "csv"]:
        raise ValidationError(f"unknown dataset kind {kind!r}: expected ar, lorenz or csv")
    if kind == "csv":
        dataset = check_keys(ds, "csv dataset", ("path",), ("kind", "path"))["path"]
    else:
        values = {k: v for k, v in ds.items() if k != "kind"}
        dataset = from_keys(DATASET_KINDS[kind], values, f"{kind} dataset")
    split_spec = from_keys(
        SplitSpec, doc["split"], "experiment config split", ("context_length", "horizon")
    )
    values = {
        "normalizers": ["gas_norm", "global_norm"],
        "forecaster": {},
        **doc,
        "dataset": dataset,
        "split": split_spec,
    }
    return from_keys(ExperimentSpec, values, "experiment config")


def _cmd_experiment(args) -> int:
    spec = experiment_spec_from_dict(_load_config(args))
    report = run_experiment(spec)
    csv_path, json_path = emit_report(report, _out(args, "report"))
    print(csv_path)
    print(json_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gasnorm",
        description="Score-driven adaptive normalization for time series forecasting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="JSON config file; a flag may not set a field it also sets")
    p.add_argument("--output-dir", default=".")
    p.add_argument("kind", nargs="?", choices=list(DATASET_KINDS))
    p.add_argument("--length", type=int, help="ar only")
    p.add_argument("--ar-coeffs", type=float, nargs="*", help="ar only")
    p.add_argument("--noise-std", type=float)
    p.add_argument("--season-amplitude", type=float, help="ar only")
    p.add_argument("--season-period", type=int, help="ar only")
    p.add_argument("--trend-slope", type=float, help="ar only")
    p.add_argument("--dt", type=float, help="lorenz only")
    p.add_argument("--steps", type=int, help="lorenz only")
    p.set_defaults(func=_cmd_gen)

    # a flag left out is absent from args, so FitConfig's default applies
    p = sub.add_parser("fit", help="fit filter parameters per feature",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--output-dir", default=".")
    p.add_argument("--dist", dest="family", choices=[f.value for f in Family])
    p.add_argument("--nu", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("data", help="training CSV")
    p.add_argument("--restarts", type=int)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--fit-nu", action="store_true")
    p.set_defaults(func=_cmd_fit)

    # the flags that normalize and forecast share
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--output-dir", default=".")
    shared.add_argument("data", help="context CSV")
    shared.add_argument("--normalizer", default="gas_norm",
                        choices=[k.value for k in NormalizerKind])
    shared.add_argument("--params", help="fitted params JSON (gas_norm only)")
    shared.add_argument("--horizon", type=int, default=1)

    p = sub.add_parser("normalize", help="normalize a context CSV", parents=[shared])
    p.add_argument("--stem", default="batch")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("forecast", help="denormalized forecast from a context CSV",
                       parents=[shared])
    p.add_argument("--model", help="trained residual model JSON")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("eval", help="MASE between forecast files")
    p.add_argument("--actual", required=True)
    p.add_argument("--forecast", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("-m", type=int, default=1, help="seasonal naive lag")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("experiment", help="run a full normalizer comparison")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    # stdout and stderr are UTF-8 like every file the CLI writes, whatever the locale says,
    # until main returns. Each keeps its error handler: the locale's surrogateescape, say,
    # prints the bytes of an undecodable path argument as they came in.
    streams = {s: s.encoding for s in (sys.stdout, sys.stderr)
               if hasattr(s, "reconfigure") and s.encoding.lower() != "utf-8"}
    for stream in streams:
        stream.reconfigure(encoding="utf-8", errors=stream.errors)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    finally:
        for stream, encoding in streams.items():
            stream.reconfigure(encoding=encoding, errors=stream.errors)


if __name__ == "__main__":
    sys.exit(main())
