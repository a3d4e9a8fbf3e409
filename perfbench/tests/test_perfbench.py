"""Tests for the benchmark's own bookkeeping: self time, counters, failure accounting.

Run with: python3 -m pytest perfbench/tests
"""

import math

import numpy as np
import pytest

import gasnorm.evaluation
from gasnorm.normalization import NormalizerKind, NormalizerSpec
from tracing import Site, Span, Tracer, layer_metrics, self_times
from workloads import count_failed_cells, mase_drift


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", "cli", -1, 0.0, 10.0),
        Span("a", "series", 0, 1.0, 3.0),
        Span("b", "normalization", 0, 3.0, 6.0),  # back to back with a
        Span("b.child", "filtering", 2, 4.0, 5.0),  # nested under b, not under root
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", "cli", -1, 0.0, 10.0),
        Span("a", "series", 0, 1.0, 4.0),
        Span("b", "series", 0, 2.0, 5.0),
    ]
    assert self_times(spans)[0] == pytest.approx(6.0)


def test_repeat_frac_counts_identical_normalize_inputs():
    rng = np.random.default_rng(0)
    window, other = rng.normal(size=(20, 1)), rng.normal(size=(20, 1))
    with Tracer() as tracer:
        for _ in range(3):
            # a fresh spec object with the same content still repeats the call
            gasnorm.evaluation.normalize(NormalizerSpec(NormalizerKind.LOCAL_NORM), window, 4)
        gasnorm.evaluation.normalize(NormalizerSpec(NormalizerKind.LOCAL_NORM), window, 5)
        gasnorm.evaluation.normalize(NormalizerSpec(NormalizerKind.MEAN_SCALING), window, 4)
        gasnorm.evaluation.normalize(NormalizerSpec(NormalizerKind.LOCAL_NORM), other, 4)
    metrics = layer_metrics(tracer.summary())
    assert metrics["normalization.calls"] == 6
    assert metrics["normalization.repeat_frac"] == pytest.approx(2 / 6)


def test_tracer_restores_wrapped_functions():
    original = gasnorm.evaluation.normalize
    with Tracer():
        assert gasnorm.evaluation.normalize is not original
    assert gasnorm.evaluation.normalize is original


def test_missing_site_marks_its_layer_unobserved():
    sites = (
        Site("gasnorm.normalization", "no_such_function", "filtering"),
        Site("gasnorm.no_such_module", "normalize", "normalization"),
        Site("gasnorm.evaluation", "normalize", "normalization"),
    )
    with Tracer(sites) as tracer:
        pass
    assert tracer.missing == [
        "gasnorm.normalization.no_such_function",
        "gasnorm.no_such_module.normalize",
    ]
    assert tracer.unobserved_layers == {"filtering", "normalization"}


CONFIG = {
    "normalizers": ["gas_norm", "global_norm", "mean_scaling"],
    "gammas": [0.0, 0.5],
    "seeds": [0, 1, 2],
}


def _row(normalizer, gamma, per_seed, error=None):
    return {"normalizer": normalizer, "gamma": gamma, "per_seed": per_seed,
            "n_seeds": len(per_seed), "mase_mean": 1.0, "error": error}


def test_failure_accounting_counts_error_and_nan_cells():
    report = {"rows": [
        _row("gas_norm", 0.0, [1.0, 1.1, 1.2]),
        _row("gas_norm", 0.5, [1.0, math.nan, 2.0]),
        _row("global_norm", None, [1.5, 1.6, 1.7]),
        _row("mean_scaling", None, [], error="training loss became non-finite at epoch 0"),
        _row("gas_norm_selected", 0.0, [1.0, 1.1, 1.2]),
    ]}
    attempted, failed, problems = count_failed_cells(report, CONFIG)
    assert (attempted, failed, problems) == (12, 4, [])


def test_failure_accounting_flags_a_missing_row():
    report = {"rows": [
        _row("gas_norm", 0.0, [1.0, 1.1, 1.2]),
        _row("gas_norm", 0.5, [1.0, 1.1, 1.2]),
        _row("global_norm", None, [1.5, 1.6, 1.7]),
        _row("gas_norm_selected", 0.0, [1.0, 1.1, 1.2]),
    ]}
    attempted, failed, problems = count_failed_cells(report, CONFIG)
    assert (attempted, failed) == (12, 3)
    assert problems == ["no report row for ('mean_scaling', None)"]


def test_mase_drift():
    rows = [_row("global_norm", None, [1.5, 1.6]), _row("mean_scaling", None, [])]
    reference = [{"normalizer": r["normalizer"], "gamma": r["gamma"], "per_seed": r["per_seed"]}
                 for r in rows]
    assert mase_drift({"rows": rows}, reference) == 0.0
    moved = [_row("global_norm", None, [1.5, 1.65]), _row("mean_scaling", None, [])]
    assert mase_drift({"rows": moved}, reference) == pytest.approx(0.05)
    assert mase_drift({"rows": rows[:1]}, reference) == math.inf


def test_benchmark_json_declares_every_metric_the_benchmark_prints():
    import json
    import os

    import run

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    traced = set(layer_metrics({})) | {
        "evaluation.cells", "evaluation.failed_cells", "trace.overhead_s"
    }
    assert traced == set(run.PER_LAYER_UNITS)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
