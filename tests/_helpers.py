"""Data transforms and checks that only the tests use.

They build inputs for the shift, outlier and trend tests, check the
MLP's backprop, read CSV text, draw frames for the CSV writer tests,
measure the memory a call allocates, record the process pools a run
makes, read numpy's OpenBLAS thread count and exports, find a report's
row and run code in a fresh interpreter; the pipeline itself needs none
of them.
"""

import concurrent.futures
import ctypes
import io
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
from hypothesis import strategies as st

import gasnorm
from gasnorm import Activation, EvalReport, MlpSpec, SeriesFrame, TrainedModel
from gasnorm.errors import ValidationError
from gasnorm.fitting import _BLAS_THREAD_SETTERS
from gasnorm.mlp import _backward, _layers, _loss, init_layers
from gasnorm.series import _BLOCK_ROWS, _parse_csv


def loads_csv(text: str) -> SeriesFrame:
    """``load_csv`` on a string instead of a file."""
    return _parse_csv(io.StringIO(text), "<string>")


def _is_number(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


# feature names that survive a load: no surrounding blanks, not a number
NAMES = st.text(alphabet='ab%,"\r\n 1', min_size=1, max_size=5).filter(
    lambda s: s == s.strip() and not _is_number(s)
)
ROW_COUNTS = st.sampled_from(
    [1, 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]
)
EXTREMES = [5e-324, -5e-324, -0.0, 0.0, 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def frames(draw):
    """Frames of any finite float64 values, 1-4 named features, rows across the block size."""
    k = draw(st.integers(1, 4))
    n = draw(st.one_of(ROW_COUNTS, st.integers(1, 40)))
    pool = draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64)
    )
    values = np.resize(np.array(pool + EXTREMES[: draw(st.integers(0, 6))]), (n, k))
    return SeriesFrame(values, draw(st.lists(NAMES, min_size=k, max_size=k, unique=True)))


def traced_peak(fn, *args):
    """``fn(*args)``'s result and the most bytes it held at once, numpy buffers included."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def record_pools(monkeypatch) -> list[list]:
    """Per process pool made from here on: its worker count, then each submitted task's name."""
    pools = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            self.record = [workers]
            pools.append(self.record)
            super().__init__(workers, **kwargs)

        def submit(self, fn, *args, **kwargs):
            self.record.append(fn.__name__)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    return pools


def blas_threads() -> int | None:
    """The thread count numpy's OpenBLAS reports, or None where no getter resolves."""
    lib = ctypes.CDLL(sys.modules["numpy._core._multiarray_umath"].__file__)
    for name in _BLAS_THREAD_SETTERS:
        getter = getattr(lib, name.replace("_set_", "_get_"), None)
        if getter is not None:
            return int(getter())
    return None


def blas_shutdown_exported() -> bool:
    """Whether numpy's OpenBLAS exports the call that ends its server threads."""
    lib = ctypes.CDLL(sys.modules["numpy._core._multiarray_umath"].__file__)
    return hasattr(lib, "blas_thread_shutdown_")


def report_row(report: EvalReport, normalizer: str, gamma: float | None = None):
    """The report's first row for ``normalizer`` (and ``gamma``, if given)."""
    for r in report.rows:
        if r.normalizer == normalizer and (gamma is None or r.gamma == gamma):
            return r
    raise LookupError(f"no row for normalizer {normalizer!r}, gamma {gamma}")


def gasnorm_env(env=None) -> dict:
    """This process's environment plus ``env``, with a PYTHONPATH that finds this gasnorm."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gasnorm.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, **(env or {}), "PYTHONPATH": path}


def fresh_interpreter(code: str, env=None) -> str:
    """Stdout of ``code`` run in a new Python process that imports this gasnorm.

    ``env`` adds to (or overrides) this process's environment variables;
    the child's stdout is decoded as UTF-8.
    """
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, encoding="utf-8", env=gasnorm_env(env), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def difference(frame: SeriesFrame, order: int = 1) -> SeriesFrame:
    """x_t - x_{t-order}; output is ``order`` steps shorter."""
    if order < 1:
        raise ValidationError("order must be a positive integer")
    if order >= len(frame):
        raise ValidationError(f"order {order} >= series length {len(frame)}")
    return SeriesFrame(frame.values[order:] - frame.values[:-order], frame.feature_names)


def affine_map(frame: SeriesFrame, shift, scale) -> SeriesFrame:
    """x -> scale * x + shift, elementwise per feature."""
    shift = np.broadcast_to(np.asarray(shift, dtype=np.float64), (frame.n_features,))
    scale = np.broadcast_to(np.asarray(scale, dtype=np.float64), (frame.n_features,))
    if np.any(scale <= 0):
        raise ValidationError("scale must be positive")
    return SeriesFrame(frame.values * scale + shift, frame.feature_names)


def add_quadratic_trend(frame: SeriesFrame, coeff: float) -> SeriesFrame:
    """x_t -> x_t + coeff * t^2 on every feature."""
    t = np.arange(len(frame), dtype=np.float64)
    return SeriesFrame(frame.values + coeff * t[:, None] ** 2, frame.feature_names)


def inject_outlier(
    frame: SeriesFrame, t: int, feature: int, magnitude_in_sigmas: float
) -> SeriesFrame:
    """Add magnitude * (feature std) at a single point."""
    if not 0 <= t < len(frame) or not 0 <= feature < frame.n_features:
        raise ValidationError(
            f"index (t={t}, feature={feature}) out of range for shape {frame.values.shape}"
        )
    values = frame.values.copy()
    values[t, feature] += magnitude_in_sigmas * values[:, feature].std()
    return SeriesFrame(values, frame.feature_names)


def collapse_linear(model: TrainedModel) -> tuple[np.ndarray, np.ndarray]:
    """Fold an identity-activation network into a single (W, b) affine map."""
    if model.spec.activation is not Activation.IDENTITY:
        raise ValidationError("only identity-activation networks collapse to affine maps")
    W = model.weights[0]
    b = model.biases[0].copy()
    for w_i, b_i in zip(model.weights[1:], model.biases[1:]):
        b = b @ w_i + b_i
        W = W @ w_i
    return W, b


def gradient_check(spec: MlpSpec, sample, step: float = 1e-6) -> float:
    """Max relative error of analytic vs central finite-difference gradients."""
    context, target = sample
    X = np.atleast_2d(np.asarray(context, dtype=np.float64)).ravel()[None, :]
    Y = np.atleast_2d(np.asarray(target, dtype=np.float64)).ravel()[None, :]
    rng = np.random.default_rng(spec.seed)
    weights, biases = init_layers(spec, X.shape[1], Y.shape[1], rng)

    acts = [X, *_layers(weights, biases, spec.activation, X)]
    grads_w, grads_b = _backward(weights, spec.activation, acts, Y)

    def loss() -> float:
        return _loss(weights, biases, spec.activation, X, Y)

    worst = 0.0
    for params, grads in ((weights, grads_w), (biases, grads_b)):
        for p, g in zip(params, grads):
            flat = p.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up = loss()
                flat[idx] = orig - step
                down = loss()
                flat[idx] = orig
                numeric = (up - down) / (2.0 * step)
                analytic = g.ravel()[idx]
                denom = max(abs(numeric), abs(analytic), 1e-8)
                worst = max(worst, abs(numeric - analytic) / denom)
    return worst
