"""The benchmark's workloads: inputs from a seed, the timed batch job, output checks.

Each workload is a closed loop with one client: one batch job runs start
to finish, then the next. The program is driven only through
``gasnorm.cli.main``, in-process, on the files ``setup`` writes.

The seed permutes the parts of the input that the answer must not depend
on: the order of normalizers and gammas in an experiment config, and the
column order of the CSVs in ``cli_stream``. The data themselves stay
those of the reference configs, so counts, failures and MASE values
repeat exactly across seeds and can be compared with
``reference_mase.json``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import traceback
from dataclasses import dataclass

from gasnorm import cli

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_mase.json")


@dataclass
class Outcome:
    """Checked result of one batch job."""

    attempted: int
    failed: int
    correct: bool
    mase_best: float  # lowest finite test MASE produced, nan if none
    cells: int = 0  # experiment cells attempted (0 outside experiments)
    drift: float | None = None  # max |per-seed MASE - reference|, experiments only
    problems: tuple[str, ...] = ()


def _call(argv: list[str]):
    """Run one CLI call; returns (exit code, stdout) or the exception it raised."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a crashed benchmark
        traceback.print_exc()
        return exc
    return code, out.getvalue()


def _finite_min(values) -> float:
    finite = [v for v in values if isinstance(v, (int, float)) and math.isfinite(v)]
    return min(finite) if finite else math.nan


def _expected_rows(config: dict) -> list[tuple[str, float | None]]:
    keys = []
    for name in config["normalizers"]:
        if name == "gas_norm":
            keys += [(name, float(g)) for g in config["gammas"]]
        else:
            keys.append((name, None))
    return keys


def count_failed_cells(report: dict, config: dict) -> tuple[int, int, list[str]]:
    """(cells attempted, cells failed, problems) for an experiment report.

    A cell is one (normalizer, gamma, seed). A cell fails when its row
    carries an error or lacks a finite per-seed MASE for it; the report
    drops the per-seed entries of failed cells, so failures are the
    expected seeds minus the finite per-seed values.
    """
    n_seeds = len(config["seeds"])
    expected = _expected_rows(config)
    rows = {(r["normalizer"], r["gamma"]): r for r in report["rows"]}
    failed, problems = 0, []
    for key in expected:
        row = rows.get(key)
        if row is None:
            problems.append(f"no report row for {key}")
            failed += n_seeds
            continue
        per_seed = row.get("per_seed") or []
        if len(per_seed) != row["n_seeds"] or len(per_seed) > n_seeds:
            problems.append(f"row {key}: n_seeds {row['n_seeds']} vs {len(per_seed)} values")
        finite = sum(1 for v in per_seed if v is not None and math.isfinite(v))
        failed += n_seeds - min(finite, n_seeds)
    if "gas_norm" in config["normalizers"] and not any(
        r["normalizer"] == "gas_norm_selected" for r in report["rows"]
    ):
        problems.append("no gas_norm_selected row")
    return len(expected) * n_seeds, failed, problems


def mase_drift(report: dict, reference: list[dict]) -> float:
    """Max absolute per-seed MASE difference from the reference rows.

    A row or seed present on one side only, or finite on one side only,
    counts as infinite drift; NaN on both sides counts as none.
    """
    rows = {(r["normalizer"], r["gamma"]): r.get("per_seed") or [] for r in report["rows"]}
    refs = {(r["normalizer"], r["gamma"]): r["per_seed"] for r in reference}
    worst = 0.0
    for key in rows.keys() | refs.keys():
        got, want = rows.get(key), refs.get(key)
        if got is None or want is None or len(got) != len(want):
            return math.inf
        for a, b in zip(got, want):
            a = math.nan if a is None else a
            b = math.nan if b is None else b
            if math.isnan(a) and math.isnan(b):
                continue
            worst = max(worst, abs(a - b)) if math.isfinite(a - b) else math.inf
    return worst


class ExperimentWorkload:
    """``gasnorm experiment`` on a fixed config; the seed orders its lists."""

    setup_repeats = 5

    def __init__(self, name: str, config: dict):
        self.name = name
        self.config = config

    def setup(self, workdir: str, seed: int) -> None:
        rng = random.Random(seed)
        config = json.loads(json.dumps(self.config))
        for key in ("normalizers", "gammas"):
            if key in config:
                rng.shuffle(config[key])
        os.makedirs(workdir, exist_ok=True)
        with open(os.path.join(workdir, "config.json"), "w") as fh:
            json.dump(config, fh)

    def run(self, workdir: str):
        return _call(
            [
                "experiment",
                "--config", os.path.join(workdir, "config.json"),
                "--output-dir", os.path.join(workdir, "out"),
            ]
        )

    def clear_outputs(self, workdir: str) -> None:
        for name in ("report.json", "report.csv"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(workdir, "out", name))

    def check(self, workdir: str, result) -> Outcome:
        with open(os.path.join(workdir, "config.json")) as fh:
            config = json.load(fh)
        cells = len(config["seeds"]) * len(_expected_rows(config))
        if isinstance(result, Exception) or result[0] != 0:
            why = f"experiment ended with {result!r}"
            return Outcome(cells, cells, False, math.nan, cells, None, (why,))
        with open(os.path.join(workdir, "out", "report.json")) as fh:
            report = json.load(fh)
        attempted, failed, problems = count_failed_cells(report, config)
        best = _finite_min(r["mase_mean"] for r in report["rows"])
        reference = load_reference().get(self.name)
        drift = None if reference is None else mase_drift(report, reference)
        return Outcome(
            attempted, failed, not problems, best, attempted, drift, tuple(problems)
        )


LORENZ_STEPS = 60_016
CONTEXT_ROWS = 60_000
TRAIN_ROWS = 1_000
STREAM_HORIZON = LORENZ_STEPS - CONTEXT_ROWS


class CliStreamWorkload:
    """normalize, forecast and eval on one long Lorenz stream, through the CLI."""

    name = "cli_stream"
    setup_repeats = 3

    def setup(self, workdir: str, seed: int) -> None:
        os.makedirs(workdir, exist_ok=True)
        self._ok(
            _call(["gen", "lorenz", "--steps", str(LORENZ_STEPS), "--dt", "0.01",
                   "--seed", "0", "--output-dir", workdir])
        )
        with open(os.path.join(workdir, "lorenz.csv")) as fh:
            lines = fh.read().splitlines()
        order = list(range(len(lines[0].split(","))))
        random.Random(seed).shuffle(order)
        lines = [",".join(line.split(",")[i] for i in order) for line in lines]
        header, rows = lines[0], lines[1:]
        for name, part in (
            ("context.csv", rows[:CONTEXT_ROWS]),
            ("actual.csv", rows[CONTEXT_ROWS:]),
            ("train.csv", rows[:TRAIN_ROWS]),
        ):
            with open(os.path.join(workdir, name), "w") as fh:
                fh.write("\n".join([header, *part]) + "\n")
        self._ok(
            _call(["fit", os.path.join(workdir, "train.csv"), "--dist", "gaussian",
                   "--gamma", "0.5", "--restarts", "1", "--max-iters", "200",
                   "--output-dir", workdir])
        )

    @staticmethod
    def _ok(result) -> None:
        if isinstance(result, Exception) or result[0] != 0:
            raise RuntimeError(f"cli_stream setup call failed: {result!r}")

    def _argvs(self, workdir: str) -> list[list[str]]:
        p = lambda name: os.path.join(workdir, name)  # noqa: E731
        params = p("params.json")
        horizon = str(STREAM_HORIZON)
        return [
            ["normalize", p("context.csv"), "--normalizer", "gas_norm", "--params", params,
             "--horizon", horizon, "--output-dir", p("out")],
            ["forecast", p("context.csv"), "--params", params, "--horizon", horizon,
             "--output-dir", p("out")],
            ["eval", "--actual", p("actual.csv"), "--forecast", p("out/forecast.csv"),
             "--train", p("train.csv")],
        ]

    def run(self, workdir: str):
        return [_call(argv) for argv in self._argvs(workdir)]

    def clear_outputs(self, workdir: str) -> None:
        for name in ("forecast.csv", "batch_normalized.csv", "batch_stats.csv", "batch.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(workdir, "out", name))

    def check(self, workdir: str, results) -> Outcome:
        problems = []
        failed = 0
        for argv, result in zip(self._argvs(workdir), results):
            if isinstance(result, Exception) or result[0] != 0:
                failed += 1
                problems.append(f"{argv[0]} ended with {result!r}")
        with open(os.path.join(workdir, "actual.csv")) as fh:
            names = fh.readline().strip().split(",")
        try:
            with open(os.path.join(workdir, "out", "forecast.csv"), newline="") as fh:
                table = list(csv.reader(fh))
            values = [float(v) for row in table[1:] for v in row]
            shape_ok = (
                table[0] == names
                and len(table) - 1 == STREAM_HORIZON
                and all(len(row) == len(names) for row in table[1:])
                and all(math.isfinite(v) for v in values)
            )
        except (OSError, ValueError, IndexError):
            shape_ok = False
        if not shape_ok:
            problems.append(f"forecast.csv is not {STREAM_HORIZON} x {len(names)} and finite")
        scores = []
        if not isinstance(results[-1], Exception):
            for line in results[-1][1].splitlines():
                name, _, value = line.partition(",")
                with contextlib.suppress(ValueError):
                    scores.append(float(value))
        if len(scores) != len(names) or not all(math.isfinite(s) for s in scores):
            problems.append(f"eval printed {scores!r}, expected {len(names)} finite MASE values")
        return Outcome(len(results), failed, not problems, _finite_min(scores),
                       problems=tuple(problems))


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


WORKLOADS = {
    w.name: w
    for w in (
        ExperimentWorkload(
            # the README/ROADMAP reference run: fit, normalize and train all matter
            "experiment_ar",
            {
                "dataset": {"kind": "ar", "length": 900, "ar_coeffs": [0.7],
                            "trend_slope": 0.05, "seed": 0},
                "normalizers": ["gas_norm", "global_norm", "local_norm", "mean_scaling"],
                "forecaster": {"layer_widths": [32], "activation": "relu",
                               "learning_rate": 0.0001, "epochs": 20},
                "split": {"train_fraction": 0.6, "val_fraction": 0.2,
                          "context_length": 20, "horizon": 4},
                "gammas": [0.0, 0.1, 0.5, 0.9],
                "seeds": [0, 1, 2, 3, 4],
                "family": "student_t",
                "nu": 100.0,
            },
        ),
        ExperimentWorkload(
            # baselines only: no filter or fit runs, so filter and fit changes must not move it
            "experiment_lorenz_base",
            {
                "dataset": {"kind": "lorenz", "steps": 5000, "dt": 0.01, "seed": 0},
                "normalizers": ["global_norm", "local_norm", "mean_scaling"],
                "forecaster": {"layer_widths": [64, 64], "activation": "relu",
                               "learning_rate": 0.001, "epochs": 20},
                "split": {"train_fraction": 0.6, "val_fraction": 0.2,
                          "context_length": 48, "horizon": 8},
                "seeds": [0, 1, 2, 3, 4],
            },
        ),
        # one long Gaussian lane per feature, plus CSV parsing and writing
        CliStreamWorkload(),
    )
}
