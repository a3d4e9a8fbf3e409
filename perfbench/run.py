"""Layered benchmark for the gasnorm pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload experiment_ar --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb, ok_frac, mase_best); ``--trace 1`` wraps gasnorm's public
functions from outside and prints the per-layer metrics. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. Workloads and metric meanings are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy
import scipy

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("experiment_ar", "experiment_lorenz_base", "cli_stream")
SETUP_TIMEOUT_S = 150
# at least this many batch jobs (traced and untraced pairs with --trace 1) per run,
# so the median rejects one slow job
MIN_ITERATIONS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "mase_best": "MASE",
}
PER_LAYER_UNITS = {
    "fitting.self_s": "s",
    "fitting.fits": "count",
    "fitting.objective_evals": "count",
    "fitting.evals_per_fit": "evals/fit",
    "fitting.iterations": "count",
    "fitting.converged_frac": "ratio",
    "filtering.fit_self_s": "s",
    "normalization.self_s": "s",
    "normalization.calls": "count",
    "normalization.us_per_call": "us/call",
    "normalization.repeat_frac": "ratio",
    "filtering.normalize_self_s": "s",
    "filtering.calls": "count",
    "filtering.steps": "count",
    "filtering.us_per_step": "us/step",
    "mlp.train_s": "s",
    "mlp.epochs": "count",
    "mlp.samples_per_s": "samples/s",
    "mlp.predict_s": "s",
    "mlp.predict_calls": "count",
    "series.self_s": "s",
    "series.csv_cells": "count",
    "series.windows": "count",
    "normalization.save_s": "s",
    "cli.self_s": "s",
    "cli.calls": "count",
    "datagen.self_s": "s",
    "datagen.steps": "count",
    "evaluation.self_s": "s",
    "evaluation.cells": "count",
    "evaluation.failed_cells": "count",
    "trace.overhead_s": "s",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-into", metavar="DIR", help=argparse.SUPPRESS
    )  # internal: one timed set-up in a fresh interpreter
    return parser.parse_args(argv)


def _timed_setup(workload, seed: int, workdir: str) -> float:
    """Interpreter start, imports and input generation in a fresh process, in seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-into", workdir,
           "--workload", workload.name, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up of {workload.name} failed with exit code {proc.returncode}")
    return ready - start


def _iteration(workload, workdir: str):
    """One batch job: (checked outcome, wall seconds, process CPU seconds)."""
    workload.clear_outputs(workdir)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    result = workload.run(workdir)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return workload.check(workdir, result), wall, cpu


def _finite_or_none(value: float):
    return value if value is not None and math.isfinite(value) else None


def _end_to_end(workload, seed: int, seconds: float, workdir: str):
    setups = []
    for i in range(workload.setup_repeats):
        inputs = os.path.join(workdir, f"inputs{i}")
        setups.append(_timed_setup(workload, seed, inputs))
        if i:
            shutil.rmtree(os.path.join(workdir, f"inputs{i - 1}"))
    outcomes, walls, cpus = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        outcome, wall, cpu = _iteration(workload, inputs)
        outcomes.append(outcome)
        walls.append(wall)
        cpus.append(cpu)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
        "mase_best": _finite_or_none(statistics.median(o.mase_best for o in outcomes)),
    }
    samples = {"iterations": len(walls), "setups": len(setups),
               "wall_s": walls, "cpu_s": cpus, "setup_s": setups}
    return outcomes, metrics, samples


def _per_layer(workload, seed: int, seconds: float, workdir: str):
    inputs = os.path.join(workdir, "inputs")
    tracer = tracing.Tracer()
    with tracer:
        workload.setup(inputs, seed)
    setup_raw = tracer.summary()
    outcomes, passes, plain, traced = [], [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        plain.append(_iteration(workload, inputs)[1])
        tracer.reset()
        with tracer:
            outcome, wall, _ = _iteration(workload, inputs)
        traced.append(wall)
        outcomes.append(outcome)
        layer = tracing.layer_metrics(tracing.merge(setup_raw, tracer.summary()))
        layer["evaluation.cells"] = float(outcome.cells)
        layer["evaluation.failed_cells"] = float(outcome.failed if outcome.cells else 0)
        passes.append(layer)
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    for layer in tracer.unobserved_layers:
        # a wrap site is gone: its layer is not observed, which is not the same as 0
        for name in [n for n in metrics if n.startswith(layer + ".")]:
            del metrics[name]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    samples = {"iterations": len(traced), "untraced_wall_s": plain, "traced_wall_s": traced,
               "missing_sites": tracer.missing,
               "unobserved_layers": sorted(tracer.unobserved_layers)}
    return outcomes, metrics, samples


def _git(*args) -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_threads() -> int | None:
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def run_record(args) -> dict:
    """What the numbers depend on, so runs from different environments are not mixed."""
    from gasnorm import _recursions

    sources = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "gasnorm", "*.py"))):
        with open(path, "rb") as fh:
            sources.update(fh.read())
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": sources.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_active": bool(_recursions.NUMBA_ACTIVE),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gasnorm", "__init__.py")):
        print(f"error: no gasnorm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # imports gasnorm, so only once src/ is on the path

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_into:
        workload.setup(args.setup_into, args.seed)
        print("ready", flush=True)
        return 0

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        measure = _per_layer if args.trace else _end_to_end
        outcomes, metrics, samples = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    drifts = [o.drift for o in outcomes if o.drift is not None]
    print("run_record " + json.dumps(run_record(args)))
    print("samples " + json.dumps(samples))
    for problem in sorted({p for o in outcomes for p in o.problems}):
        print(f"check failed: {problem}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    if drifts:
        print(f"mase_drift_max {max(drifts):.3g} (per-seed MASE vs reference_mase.json)")
    for name, value in metrics.items():
        print(f"{name:28s} {value!s:>22} {units[name]}")
    result = {
        "correct": all(o.correct for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
