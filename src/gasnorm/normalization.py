"""Normalize context windows, denormalize horizon forecasts.

Every normalizer is the same affine map: ``normalize`` sends each context
value y to (y - mu) / scale, and ``denormalize`` sends a forecast
residual e back to mu + scale * e over the horizon. The normalizers
differ only in where (mu, scale) come from: gas_norm's filter gives them
per step, local_norm, global_norm and mean scaling one pair per window.
A context is one (T, k) window or a (..., T, k) stack of them, each
normalized on its own. The adaptive normalizer uses the filter's one-step
predictions theta_{t|t-1}, never the filtered theta_{t|t}, so the value
at time t depends only on strictly earlier observations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError, check_fields, write_json
from .filtering import (
    VARIANCE_FLOOR,
    GasParams,
    filter_series,
    forecast_statistics,
)
from .series import SeriesFrame, as_columns, csv_line, write_csv, write_rows

_MEAN_SCALE_EPS = 1e-12


class NormalizerKind(enum.Enum):
    GAS_NORM = "gas_norm"
    GLOBAL_NORM = "global_norm"
    LOCAL_NORM = "local_norm"
    MEAN_SCALING = "mean_scaling"


@dataclass(frozen=True)
class NormalizerSpec:
    """Which normalizer to run, plus its fitted inputs.

    ``gas_params`` maps feature name -> GasParams and must be present
    exactly for GAS_NORM; ``global_stats`` holds per-feature training
    (mean, variance) pairs and must be present exactly for GLOBAL_NORM.
    """

    kind: NormalizerKind
    gas_params: dict[str, GasParams] | None = None
    global_stats: dict[str, tuple[float, float]] | None = None

    def __post_init__(self):
        check_fields(self)
        if (self.kind is NormalizerKind.GAS_NORM) != (self.gas_params is not None):
            raise ValidationError("gas_params must be given iff kind is gas_norm")
        if (self.kind is NormalizerKind.GLOBAL_NORM) != (self.global_stats is not None):
            raise ValidationError("global_stats must be given iff kind is global_norm")

    @classmethod
    def for_frame(cls, kind, frame: SeriesFrame, gas_params=None) -> NormalizerSpec:
        """The ``kind`` normalizer fitted on ``frame``: global_norm takes each feature's
        (mean, population variance) over it, gas_norm the given ``gas_params``."""
        kind = NormalizerKind(kind)
        moments = None
        if kind is NormalizerKind.GLOBAL_NORM:
            moments = {n: (float(np.mean(frame.feature(n))), float(np.var(frame.feature(n))))
                       for n in frame.feature_names}
        return cls(kind, gas_params, moments)


@dataclass(frozen=True)
class NormalizedBatch:
    """Normalized context plus the statistics to undo it on any horizon.

    ``context_mu``/``context_scale`` are the per-timestep affine
    statistics applied to the context, ``horizon_mu``/``horizon_scale``
    the forecast statistics for denormalization. ``scale`` is the signed
    multiplier of the affine map; for the distributional normalizers it
    equals sqrt(max(sigma2, floor)), for mean scaling it is the context
    mean itself. ``fallback`` flags features where a near-zero context
    mean forced mean scaling back to scale 1. For a stack of contexts
    every array gains the stack's leading axes.
    """

    normalized_context: np.ndarray
    context_mu: np.ndarray
    context_scale: np.ndarray
    horizon_mu: np.ndarray
    horizon_scale: np.ndarray
    normalizer_id: NormalizerKind
    feature_names: list[str] = field(default_factory=list)
    fallback: np.ndarray | None = None

    @property
    def horizon(self) -> int:
        return self.horizon_mu.shape[-2]


def _inputs(context, horizon: int, feature_names) -> tuple[np.ndarray, list[str]]:
    """The checks every normalizer shares: context, horizon and feature names."""
    ctx = as_columns(context)
    if ctx.ndim < 2 or ctx.size == 0:
        raise ValidationError("context must be a non-empty (..., time, feature) array")
    if not np.all(np.isfinite(ctx)):
        raise ValidationError("context contains non-finite values")
    if horizon < 1:
        raise ValidationError(f"horizon must be at least 1, got {horizon}")
    names = list(feature_names) if feature_names else [f"f{i}" for i in range(ctx.shape[-1])]
    if len(names) != ctx.shape[-1]:
        raise ValidationError("feature_names length does not match context width")
    return ctx, names


def _std(sigma2: np.ndarray) -> np.ndarray:
    """sqrt(max(sigma2, floor)), written over ``sigma2``, which every caller owns."""
    return np.sqrt(np.maximum(sigma2, VARIANCE_FLOOR, out=sigma2), out=sigma2)


def _steps(stat: np.ndarray, ctx: np.ndarray, steps: int) -> np.ndarray:
    """Per-window (..., k) statistics repeated over ``steps`` time steps, as a view."""
    return np.broadcast_to(stat[..., None, :], (*ctx.shape[:-2], steps, ctx.shape[-1]))


def _gas_statistics(params: dict[str, GasParams], ctx: np.ndarray, horizon: int, names):
    """Per-step context and horizon (mu, scale) of each feature's filter over each window.

    Each observation is normalized with the prediction made before it
    was seen; the horizon starts at the prediction after the window's
    last step. Every window restarts the filter from the fitted initial
    state. The filter runs its priors pass: it computes no likelihood.
    """
    missing = [n for n in names if n not in params]
    if missing:
        raise ValidationError(f"no fitted parameters for features {missing}")
    c_mu, c_s2 = np.empty(ctx.shape), np.empty(ctx.shape)
    h_shape = (*ctx.shape[:-2], horizon, ctx.shape[-1])
    h_mu, h_s2 = np.empty(h_shape), np.empty(h_shape)
    # the prediction after each window's last step, for one feature at a time
    next_mu, next_s2 = np.empty(ctx.shape[:-2]), np.empty(ctx.shape[:-2])
    for j, name in enumerate(names):
        for window in np.ndindex(ctx.shape[:-2]):
            at = (*window, slice(None), j)
            trace = filter_series(params[name], ctx[at], likelihood=False)
            c_mu[at], c_s2[at] = trace.mu_prior, trace.sigma2_prior
            next_mu[window], next_s2[window] = trace.mu_next, trace.sigma2_next
        h_mu[..., j], h_s2[..., j] = forecast_statistics(params[name], next_mu, next_s2, horizon)
    return c_mu, _std(c_s2), h_mu, _std(h_s2)


def _window_statistics(spec: NormalizerSpec, ctx: np.ndarray, names):
    """One (..., k) (mu, scale) per window, and mean scaling's fallback flags.

    local_norm takes the window's mean and population variance, global_norm
    the training moments. Mean scaling has mu = 0 and the window mean as
    scale, or scale 1 where that mean is within 1e-12 of zero (flagged).
    """
    if spec.kind is NormalizerKind.LOCAL_NORM:
        if ctx.shape[-2] < 2:
            raise ValidationError("local normalization needs a context of length >= 2")
        return ctx.mean(axis=-2), _std(ctx.var(axis=-2)), None
    if spec.kind is NormalizerKind.GLOBAL_NORM:
        missing = [n for n in names if n not in spec.global_stats]
        if missing:
            raise ValidationError(f"no global statistics for features {missing}")
        mu = np.array([spec.global_stats[n][0] for n in names])
        return mu, _std(np.array([spec.global_stats[n][1] for n in names])), None
    mean = ctx.mean(axis=-2)
    fallback = np.abs(mean) < _MEAN_SCALE_EPS
    return np.zeros(mean.shape), np.where(fallback, 1.0, mean), fallback


def normalize(spec: NormalizerSpec, context, horizon: int, feature_names=None) -> NormalizedBatch:
    """Map the context to (y - mu) / scale with the statistics of ``spec.kind``.

    gas_norm's statistics change at every step; the other normalizers'
    hold one (mu, scale) per window over the context and the horizon.
    """
    ctx, names = _inputs(context, horizon, feature_names)
    fallback = None
    if spec.kind is NormalizerKind.GAS_NORM:
        c_mu, c_scale, h_mu, h_scale = _gas_statistics(spec.gas_params, ctx, horizon, names)
    else:
        mu, scale, fallback = _window_statistics(spec, ctx, names)
        c_mu, c_scale = _steps(mu, ctx, ctx.shape[-2]), _steps(scale, ctx, ctx.shape[-2])
        h_mu, h_scale = _steps(mu, ctx, horizon), _steps(scale, ctx, horizon)
    normalized = np.subtract(ctx, c_mu)
    # an overflow is left as inf, for the caller to report: save_batch names it
    with np.errstate(over="ignore"):
        normalized /= c_scale
    return NormalizedBatch(normalized, c_mu, c_scale, h_mu, h_scale, spec.kind, names, fallback)


def denormalize(residual_forecast, batch: NormalizedBatch) -> np.ndarray:
    """Affine recombination y = mu + scale * e over the stored horizon stats."""
    e = np.asarray(residual_forecast, dtype=np.float64)
    if e.shape != batch.horizon_mu.shape:
        raise ValidationError(
            f"residual shape {e.shape} does not match horizon stats {batch.horizon_mu.shape}"
        )
    return batch.horizon_mu + batch.horizon_scale * e


def save_batch(batch: NormalizedBatch, stem) -> None:
    """Write the batch as two CSVs plus a JSON sidecar under ``stem``.

    Files: ``<stem>_normalized.csv`` (the normalized context),
    ``<stem>_stats.csv`` (long format: phase, step, feature, mu, scale),
    ``<stem>.json`` (normalizer id and shapes). A context that the
    normalizer overflowed to a non-finite value is a NumericalError.
    """
    if batch.normalized_context.ndim != 2:
        raise ValidationError("save_batch writes one (T, k) window, not a stack")
    names = batch.feature_names
    path = f"{stem}_normalized.csv"
    if not np.isfinite(batch.normalized_context).all():
        raise NumericalError(f"{path}: {batch.normalizer_id.value} made the context non-finite")
    # a view, so the frame's read-only flag stays off the batch's own array
    write_csv(SeriesFrame(batch.normalized_context.view(), names), path)
    with open(f"{stem}_stats.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("phase,step,feature,mu,scale\n")
        for phase, mu, scale in (
            ("context", batch.context_mu, batch.context_scale),
            ("horizon", batch.horizon_mu, batch.horizon_scale),
        ):
            cells = [[phase, "%d", n.replace("%", "%%"), "%.17g", "%.17g"] for n in names]
            step = np.broadcast_to(np.arange(len(mu))[:, None], mu.shape)
            write_rows(fh, "".join(map(csv_line, cells)), step, mu, scale)
    sidecar = {
        "normalizer": batch.normalizer_id,
        "feature_names": names,
        "context_length": batch.normalized_context.shape[0],
        "horizon": batch.horizon,
        "fallback": batch.fallback,
    }
    write_json(sidecar, f"{stem}.json")
