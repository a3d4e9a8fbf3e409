"""Per-layer spans and counters, installed around gasnorm from outside.

Every wrap site is the name a caller looks a function up by at call time,
for example ``gasnorm.evaluation.normalize`` or
``gasnorm.fitting.filter_series``, so the program itself is not edited.
Each span records its parent; a layer's self time is the time its spans
cover minus the part their direct children cover. Counters are taken at
the same sites from the call's arguments and result.

If a site no longer exists (a later change renamed or stopped importing
the function), its layer is reported as not observed rather than as 0.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# layers whose self time is a metric; filtering and mlp report their own splits
SELF_TIMED = ("datagen", "series", "fitting", "normalization", "evaluation", "cli")


@dataclass
class Span:
    site: str
    layer: str
    parent: int  # index of the enclosing span, -1 at top level
    start: float = 0.0
    end: float = 0.0


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - _union_length(kids)
        for span, kids in zip(spans, children)
    ]


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


@dataclass(frozen=True)
class Site:
    module: str
    attr: str
    layer: str
    hook: Callable | None = None  # (tracer, args, kwargs, result) -> None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _counter(key: str) -> Callable:
    def hook(tracer, args, kwargs, result):
        tracer.add(key)

    return hook


def _gen_steps(tracer, args, kwargs, result):
    tracer.add("datagen.steps", len(result))


def _csv_read(tracer, args, kwargs, result):
    tracer.add("series.csv_cells", result.values.size)


def _csv_write(tracer, args, kwargs, result):
    tracer.add("series.csv_cells", _arg(args, kwargs, 0, "frame").values.size)


def _windows(tracer, args, kwargs, result):
    tracer.add("series.windows", len(result))


def _normalize(tracer, args, kwargs, result):
    tracer.add("normalization.calls")
    key = tracer.normalize_key(
        _arg(args, kwargs, 0, "spec"),
        _arg(args, kwargs, 1, "context"),
        _arg(args, kwargs, 2, "horizon"),
    )
    if key in tracer.seen:
        tracer.add("normalization.repeats")
    else:
        tracer.seen.add(key)


def _filter(tracer, args, kwargs, result):
    tracer.add("filtering.calls")
    tracer.add("filtering.steps", len(result))


def _fit(tracer, args, kwargs, result):
    tracer.add("fitting.fits")
    tracer.add("fitting.iterations", result.iterations)
    tracer.add("fitting.converged", bool(result.converged))


def _train(tracer, args, kwargs, result):
    epochs = len(result.train_loss_curve)
    tracer.add("mlp.epochs", epochs)
    tracer.add("mlp.samples", epochs * len(_arg(args, kwargs, 1, "pairs")))


SITES = (
    Site("gasnorm.cli", "main", "cli", _counter("cli.calls")),
    Site("gasnorm.cli", "gen_ar", "datagen", _gen_steps),
    Site("gasnorm.cli", "gen_lorenz", "datagen", _gen_steps),
    Site("gasnorm.cli", "write_spec_sidecar", "datagen"),
    Site("gasnorm.cli", "load_csv", "series", _csv_read),
    Site("gasnorm.cli", "write_csv", "series", _csv_write),
    Site("gasnorm.cli", "fit_frame", "fitting"),
    Site("gasnorm.cli", "normalize", "normalization", _normalize),
    Site("gasnorm.cli", "denormalize", "normalization"),
    Site("gasnorm.cli", "save_batch", "normalization"),
    Site("gasnorm.cli", "predict", "mlp", _counter("mlp.predict_calls")),
    Site("gasnorm.cli", "mase", "evaluation"),
    Site("gasnorm.cli", "run_experiment", "evaluation"),
    Site("gasnorm.cli", "emit_report", "evaluation"),
    Site("gasnorm.evaluation", "gen_ar", "datagen", _gen_steps),
    Site("gasnorm.evaluation", "gen_lorenz", "datagen", _gen_steps),
    Site("gasnorm.evaluation", "load_csv", "series", _csv_read),
    Site("gasnorm.evaluation", "split", "series"),
    Site("gasnorm.evaluation", "windows", "series", _windows),
    Site("gasnorm.evaluation", "fit_frame", "fitting"),
    Site("gasnorm.evaluation", "normalize", "normalization", _normalize),
    Site("gasnorm.evaluation", "denormalize", "normalization"),
    Site("gasnorm.evaluation", "train", "mlp", _train),
    Site("gasnorm.evaluation", "predict", "mlp", _counter("mlp.predict_calls")),
    Site("gasnorm.evaluation", "mase", "evaluation"),
    Site("gasnorm.fitting", "fit", "fitting", _fit),
    Site("gasnorm.fitting", "penalized_objective", "fitting", _counter("fitting.objective_evals")),
    Site("gasnorm.fitting", "filter_series", "filtering", _filter),
    Site("gasnorm.normalization", "filter_series", "filtering", _filter),
    Site("gasnorm.normalization", "forecast_statistics", "filtering"),
)


class Tracer:
    """Installs the wrap sites; collects spans and counters for one pass at a time.

    Use as a context manager: sites are wrapped on entry and restored on
    exit. ``reset`` starts a new pass (a setup or one workload iteration).
    """

    def __init__(self, sites=SITES):
        self.sites = sites
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.seen: set = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._spec_keys: dict[int, tuple[object, str]] = {}

    def __enter__(self) -> "Tracer":
        self.missing = []
        for site in self.sites:
            try:
                module = importlib.import_module(site.module)
            except ImportError:
                module = None
            fn = getattr(module, site.attr, None)
            if not callable(fn):
                self.missing.append(site.name)
                continue
            self._saved.append((module, site.attr, fn))
            setattr(module, site.attr, self._wrap(site, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @property
    def unobserved_layers(self) -> set[str]:
        by_name = {s.name: s.layer for s in self.sites}
        return {by_name[name] for name in self.missing}

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.seen.clear()

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def normalize_key(self, spec, context, horizon) -> tuple:
        """Identity of a normalize call's inputs: same key, same result."""
        cached = self._spec_keys.get(id(spec))
        if cached is None or cached[0] is not spec:
            # the spec is kept alive so its id cannot be reused by another object
            cached = (spec, repr(spec))
            self._spec_keys[id(spec)] = cached
        ctx = np.ascontiguousarray(context, dtype=np.float64)
        digest = hashlib.blake2b(ctx.tobytes(), digest_size=16).digest()
        return cached[1], int(horizon), ctx.shape, digest

    def _wrap(self, site: Site, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(site.name, site.layer, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if site.hook is not None:
                site.hook(self, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict[str, float]:
        """Additive totals of the current pass: self time per layer, site time, counts."""
        out = dict(self.counts)
        for span, own in zip(self.spans, self_times(self.spans)):
            _accumulate(out, f"{span.layer}.self_s", own)
            _accumulate(out, f"{span.layer}.{span.site.rsplit('.', 1)[1]}_s", span.end - span.start)
            if span.layer == "filtering" and span.parent >= 0:
                caller = self.spans[span.parent].layer
                if caller == "fitting":
                    _accumulate(out, "filtering.fit_self_s", own)
                elif caller == "normalization":
                    _accumulate(out, "filtering.normalize_self_s", own)
        return out


def _accumulate(out: dict, key: str, value: float) -> None:
    out[key] = out.get(key, 0.0) + value


def merge(*summaries: dict[str, float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for summary in summaries:
        for key, value in summary.items():
            _accumulate(out, key, value)
    return out


def _ratio(num: float, den: float) -> float:
    # no work observed: report 0 rather than a division by zero
    return num / den if den else 0.0


def layer_metrics(raw: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the additive totals of ``summary``."""
    g = lambda key: float(raw.get(key, 0.0))  # noqa: E731
    metrics = {f"{layer}.self_s": g(f"{layer}.self_s") for layer in SELF_TIMED}
    metrics.update(
        {
            "fitting.fits": g("fitting.fits"),
            "fitting.objective_evals": g("fitting.objective_evals"),
            "fitting.evals_per_fit": _ratio(g("fitting.objective_evals"), g("fitting.fits")),
            "fitting.iterations": g("fitting.iterations"),
            "fitting.converged_frac": _ratio(g("fitting.converged"), g("fitting.fits")),
            "filtering.fit_self_s": g("filtering.fit_self_s"),
            "filtering.normalize_self_s": g("filtering.normalize_self_s"),
            "filtering.calls": g("filtering.calls"),
            "filtering.steps": g("filtering.steps"),
            "filtering.us_per_step": 1e6
            * _ratio(g("filtering.filter_series_s"), g("filtering.steps")),
            "normalization.calls": g("normalization.calls"),
            "normalization.us_per_call": 1e6
            * _ratio(g("normalization.normalize_s"), g("normalization.calls")),
            "normalization.repeat_frac": _ratio(
                g("normalization.repeats"), g("normalization.calls")
            ),
            "normalization.save_s": g("normalization.save_batch_s"),
            "mlp.train_s": g("mlp.train_s"),
            "mlp.epochs": g("mlp.epochs"),
            "mlp.samples_per_s": _ratio(g("mlp.samples"), g("mlp.train_s")),
            "mlp.predict_s": g("mlp.predict_s"),
            "mlp.predict_calls": g("mlp.predict_calls"),
            "series.csv_cells": g("series.csv_cells"),
            "series.windows": g("series.windows"),
            "cli.calls": g("cli.calls"),
            "datagen.steps": g("datagen.steps"),
        }
    )
    return metrics
