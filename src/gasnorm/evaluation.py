"""MASE metric and the normalizer-comparison experiment harness."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .datagen import ArSpec, LorenzSpec, dataset_kind, gen_ar, gen_lorenz
from .errors import ValidationError, check_at_least, check_fields, write_json
from .filtering import Family
from .fitting import FitConfig, fit_frame, fork_pool, start_fits
from .mlp import MlpSpec, predict, train
from .normalization import NormalizerKind, NormalizerSpec, denormalize, normalize
from .series import SeriesFrame, SplitSpec, as_columns, csv_line, load_csv, split, windows


def mase(actual, forecast, train, m: int = 1) -> np.ndarray:
    """Mean absolute scaled error per feature.

    Numerator: mean absolute forecast error. Denominator: in-sample mean
    absolute error of the m-step seasonal naive forecast on the training
    segment only. A 1-D array is one feature's series.
    """
    actual, forecast, train_v = map(as_columns, (actual, forecast, train))
    if actual.ndim != 2:
        raise ValidationError(f"actual must be 1-D or 2-D (time, feature), got ndim={actual.ndim}")
    if actual.shape != forecast.shape or train_v.shape[1:] != actual.shape[1:]:
        raise ValidationError(
            f"actual {actual.shape}, forecast {forecast.shape} and train {train_v.shape}"
            " must agree in shape, except in the train's length"
        )
    if m < 1:
        raise ValidationError("seasonality m must be positive")
    if train_v.shape[0] <= m:
        raise ValidationError(f"training length {train_v.shape[0]} must exceed m={m}")
    denom = np.mean(np.abs(train_v[m:] - train_v[:-m]), axis=0)
    zero = np.nonzero(denom == 0.0)[0]
    if zero.size:
        raise ValidationError(
            f"seasonal-naive denominator is zero for feature index {zero[0]}"
        )
    return np.mean(np.abs(actual - forecast), axis=0) / denom


def select_gamma(validation_mase: dict[float, float]) -> float:
    """Argmin of validation MASE; ties break toward smaller gamma, NaN ranks last."""
    if not validation_mase:
        raise ValidationError("empty validation map")
    # NaN ranks as (True, 0.0): no comparison orders NaN, so it would follow the dict's order
    ranks = [(math.isnan(v), 0.0 if math.isnan(v) else v, g) for g, v in validation_mase.items()]
    return min(ranks)[2]


@dataclass(frozen=True)
class ExperimentSpec:
    """One normalizer-comparison run: dataset x normalizers x gammas x seeds."""

    dataset: ArSpec | LorenzSpec | str
    normalizers: tuple[NormalizerKind, ...]
    forecaster: MlpSpec
    split: SplitSpec
    gammas: tuple[float, ...] = (0.0, 0.1, 0.5)
    seeds: tuple[int, ...] = (0,)
    mase_seasonality: int = 1
    family: Family = Family.STUDENT_T
    nu: float = 100.0
    fit_restarts: int = 2
    fit_max_iters: int = 300
    stride: int = 1

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.dataset, (ArSpec, LorenzSpec, str)) or self.dataset == "":
            raise ValidationError("dataset must be an ArSpec, a LorenzSpec or a csv dataset path"
                                  f" (a non-empty string), got {self.dataset!r}")
        if self.forecaster.seed != 0:
            raise ValidationError(f"forecaster.seed must stay 0, got {self.forecaster.seed}:"
                                  " each entry of seeds trains one forecaster with that seed")
        check_at_least(self, stride=1, mase_seasonality=1, fit_restarts=1, fit_max_iters=1)
        # duplicates are dropped: repeated entries would only repeat identical cells
        for name in ("normalizers", "gammas", "seeds"):
            object.__setattr__(self, name, tuple(dict.fromkeys(getattr(self, name))))
        if not self.seeds or min(self.seeds) < 0:
            raise ValidationError(f"seeds must be non-empty and non-negative, got {self.seeds}")
        # with no normalizer, or gas_norm without a gamma, no cell would run
        if not self.normalizers:
            raise ValidationError("normalizers must be non-empty, got ()")
        if NormalizerKind.GAS_NORM in self.normalizers and not self.gammas:
            raise ValidationError("gammas must be non-empty when gas_norm runs, got ()")
        if any(not 0.0 <= g < 1.0 for g in self.gammas):
            raise ValidationError("gammas must lie in [0, 1)")
        if self.family is Family.STUDENT_T and not self.nu > 2:
            raise ValidationError(f"nu must exceed 2 for the student_t family, got {self.nu}")


@dataclass(frozen=True)
class ReportRow:
    dataset: str
    normalizer: str
    gamma: float | None
    mase_mean: float
    mase_stderr: float
    n_seeds: int
    per_seed: tuple[float, ...] = ()
    error: str | None = None


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[ReportRow, ...]


def load_dataset(dataset) -> tuple[SeriesFrame, str]:
    """The dataset's frame and the id its report rows carry: its kind, or the CSV's stem."""
    if isinstance(dataset, str):
        return load_csv(dataset), os.path.splitext(os.path.basename(dataset))[0]
    kind = dataset_kind(dataset)
    # called by module-level name, where perfbench's tracer wraps the generators
    return (gen_ar(dataset) if kind == "ar" else gen_lorenz(dataset)), kind


def _normalized_segment(nspec: NormalizerSpec, win: np.ndarray, l: int, h: int, names):
    """(batch, residual targets, targets) of a segment's (W, l+h, k) windows, in one call."""
    batch = normalize(nspec, win[:, :l], h, names)
    return batch, (win[:, l:] - batch.horizon_mu) / batch.horizon_scale, win[:, l:]


def _segment_mase(model, segment, train_values, m: int) -> float:
    batch, _, targets = segment
    forecast = denormalize(predict(model, batch.normalized_context), batch)
    k = targets.shape[-1]
    per_feature = mase(targets.reshape(-1, k), forecast.reshape(-1, k), train_values, m)
    return float(np.mean(per_feature))


def _evaluate_normalizer(
    spec: ExperimentSpec, nspec: NormalizerSpec, segments, names, train_values
) -> tuple[dict[int, tuple[float | None, float]], str | None]:
    """Normalize each segment's windows once, then train and score a forecaster per seed.

    ``segments`` are the train, val (None if too short) and test windows.
    Normalization does not depend on the seed, so its errors propagate
    and fail every seed at once. Returns ``{seed: (val_mase, test_mase)}``
    for the seeds that trained, and the last training error message.
    Only gas_norm's gamma selection reads the validation MASE, so the
    other normalizers leave it None; their validation windows still
    drive early stopping.
    """
    l, h = spec.split.context_length, spec.split.horizon
    train_s, val_s, test_s = [
        None if win is None else _normalized_segment(nspec, win, l, h, names) for win in segments
    ]
    m = spec.mase_seasonality
    score_val = val_s is not None and nspec.kind is NormalizerKind.GAS_NORM
    scores: dict[int, tuple[float | None, float]] = {}
    error = None
    for seed in spec.seeds:
        try:
            model = train(
                replace(spec.forecaster, seed=seed),
                train_s[0].normalized_context,
                train_s[1],
                None if val_s is None else (val_s[0].normalized_context, val_s[1]),
            )
            val = _segment_mase(model, val_s, train_values, m) if score_val else None
            scores[seed] = (val, _segment_mase(model, test_s, train_values, m))
        except (ValidationError, ArithmeticError) as exc:
            error = str(exc)
    return scores, error


def run_experiment(spec: ExperimentSpec) -> EvalReport:
    """Fit, normalize, train and score every (normalizer, gamma, seed) cell.

    Each (normalizer, gamma) normalizes each segment's windows as one
    stack and trains one forecaster per seed on them. For the adaptive
    normalizer, gamma is selected per seed on validation MASE and an extra
    ``gas_norm_selected`` row reports the test MASE at each seed's
    selection. A failed fit, normalization or training is its cell's
    ``error``; the other cells still report. Rows come in config order,
    cells with scores first, then ``gas_norm_selected``. A
    ``mase_seasonality`` that is not below the training length would fail
    every cell, so it raises before any fit runs.

    Every (gamma, feature, restart) search starts on one ``fork_pool``
    before the first cell; the cells that need no search (the baselines and
    gamma 0) run while the pool searches, then each gamma > 0 cell collects
    its fits. With no pool each search runs when its cell asks for it. Either
    way the report is the same, bit for bit.
    """
    data, dataset_id = load_dataset(spec.dataset)
    train_f, val_f, test_f = split(data, spec.split)
    if spec.mase_seasonality >= len(train_f):
        raise ValidationError(f"mase_seasonality {spec.mase_seasonality} must be below"
                              f" the training length {len(train_f)}")
    l, h = spec.split.context_length, spec.split.horizon
    segments = (
        windows(train_f, l, h, spec.stride),
        windows(val_f, l, h, spec.stride) if len(val_f) >= l + h else None,
        windows(test_f, l, h, spec.stride),
    )

    cells = [(kind, gamma) for kind in spec.normalizers
             for gamma in (spec.gammas if kind is NormalizerKind.GAS_NORM else (None,))]
    configs = {gamma: FitConfig(gamma=gamma, family=spec.family, nu=spec.nu,
                                restarts=spec.fit_restarts, max_iters=spec.fit_max_iters)
               for _, gamma in cells if gamma is not None}
    searched = [gamma for gamma, config in configs.items() if config.searches]
    outcomes = {}
    with fork_pool(data.n_features * sum(c.searches for c in configs.values())) as pool:
        started = {gamma: start_fits(train_f, config, pool) for gamma, config in configs.items()}
        for kind, gamma in sorted(cells, key=lambda cell: cell[1] in searched):
            try:
                params = None
                if gamma is not None:
                    fits = fit_frame(train_f, configs[gamma], started[gamma])
                    params = {name: result.params for name, result in fits.items()}
                nspec = NormalizerSpec.for_frame(kind, train_f, params)
                outcomes[kind, gamma] = _evaluate_normalizer(
                    spec, nspec, segments, data.feature_names, train_f.values
                )
            except (ValidationError, ArithmeticError) as exc:
                outcomes[kind, gamma] = {}, str(exc)

    rows: list[ReportRow] = []
    gas_scores: dict[float, dict[int, tuple[float | None, float]]] = {}
    for kind, gamma in cells:
        scores, error = outcomes[kind, gamma]
        if gamma is not None:
            gas_scores[gamma] = scores
        tests = [test for _, test in scores.values()]
        rows.append(_aggregate(dataset_id, kind.value, gamma, tests, error))
    rows.sort(key=lambda r: r.n_seeds == 0)

    selected_tests: list[float] = []
    selected_gammas: list[float] = []
    for seed in spec.seeds:
        by_gamma = {g: s[seed] for g, s in gas_scores.items() if seed in s}
        if by_gamma:
            val_by_gamma = {g: val for g, (val, _) in by_gamma.items() if val is not None}
            chosen = select_gamma(val_by_gamma) if val_by_gamma else min(by_gamma)
            selected_gammas.append(chosen)
            selected_tests.append(by_gamma[chosen][1])
    if selected_tests:
        modal = max(set(selected_gammas), key=lambda g: (selected_gammas.count(g), -g))
        rows.append(_aggregate(dataset_id, "gas_norm_selected", modal, selected_tests))
    return EvalReport(tuple(rows))


def _aggregate(dataset: str, normalizer: str, gamma, values: list[float], error=None) -> ReportRow:
    if not values:
        return ReportRow(dataset, normalizer, gamma, math.nan, math.nan, 0, (), error)
    arr = np.asarray(values, dtype=np.float64)
    stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return ReportRow(
        dataset, normalizer, gamma, float(arr.mean()), stderr, arr.size, tuple(values), error
    )


def emit_report(report: EvalReport, path) -> tuple[str, str]:
    """Write ``<path>.csv`` (long format) and ``<path>.json`` (per-seed values)."""
    csv_path, json_path = f"{path}.csv", f"{path}.json"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("dataset,normalizer,gamma,mase_mean,mase_stderr,n_seeds\n")
        for r in report.rows:
            gamma = "" if r.gamma is None else format(r.gamma, "g")
            fh.write(csv_line([r.dataset, r.normalizer, gamma, f"{r.mase_mean:.17g}",
                               f"{r.mase_stderr:.17g}", r.n_seeds]))
    write_json(report, json_path)
    return csv_path, json_path

