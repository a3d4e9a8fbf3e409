"""Small numpy MLP residual forecaster with hand-rolled backprop.

Consumes normalized context windows (each flattened) and emits the
horizon residuals that denormalization recombines with the filter's
forecast. Windows come stacked: contexts (W, L, k), targets (W, h, k).
With identity activations the whole network collapses to one affine
map, which is the linear baseline used in the shift experiments.

One forward pass, ``_layers``, serves the SGD step, the loss passes and
``predict``. The SGD step keeps every layer's output for backprop, which
needs no pre-activations; the loss passes and ``predict`` keep only the
latest layer.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import NumericalError, Range, ValidationError, check_fields
from .series import as_columns


class Activation(enum.Enum):
    IDENTITY = "identity"
    RELU = "relu"


@dataclass(frozen=True)
class MlpSpec:
    """Architecture and training schedule; widths are the hidden layers."""

    layer_widths: Annotated[tuple[int, ...], Range(1)] = (64, 64)
    activation: Activation = Activation.RELU
    learning_rate: Annotated[float, Range(0, low_open=True)] = 0.01
    epochs: Annotated[int, Range(1)] = 100
    batch_size: Annotated[int, Range(1)] = 32
    seed: Annotated[int, Range(0)] = 0

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class TrainedModel:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    spec: MlpSpec
    train_loss_curve: tuple[float, ...]
    input_shape: Annotated[tuple[int, int], Range(1)]
    output_shape: Annotated[tuple[int, int], Range(1)]

    def __post_init__(self):
        check_fields(self)
        for name in ("weights", "biases"):
            try:
                object.__setattr__(self, name, [np.asarray(a, float) for a in getattr(self, name)])
            except (TypeError, ValueError):
                raise ValidationError(f"{name} must be a list of numeric arrays") from None
        # the layers map the flattened input window, through each hidden width, to the output
        n_in, n_out = math.prod(self.input_shape), math.prod(self.output_shape)
        widths = [n_in, *self.spec.layer_widths, n_out]
        want = [((a, b), (b,)) for a, b in zip(widths, widths[1:])]
        got = [(w.shape, b.shape) for w, b in zip(self.weights, self.biases)]
        if got != want or len(self.weights) != len(self.biases):
            raise ValidationError(f"weights and biases {got} do not chain widths {widths}")


def init_layers(
    spec: MlpSpec, n_in: int, n_out: int, rng: np.random.Generator
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Glorot-uniform weights, zero biases."""
    widths = [n_in, *spec.layer_widths, n_out]
    weights, biases = [], []
    for a, b in zip(widths[:-1], widths[1:]):
        limit = np.sqrt(6.0 / (a + b))
        weights.append(rng.uniform(-limit, limit, size=(a, b)))
        biases.append(np.zeros(b))
    return weights, biases


def _layers(weights, biases, activation: Activation, x: np.ndarray):
    """Yields each layer's output in turn, the input's rows through every layer.

    The bias and ReLU are applied in place, ReLU on every layer but the
    last, so a caller that keeps only the latest output holds at most two
    layers at once.
    """
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        x = x @ w
        x += b
        if i < last and activation is Activation.RELU:
            np.maximum(x, 0.0, out=x)
        yield x


def _output(weights, biases, activation: Activation, x: np.ndarray) -> np.ndarray:
    """The network's output alone: each layer's input is dropped once the next is made."""
    for x in _layers(weights, biases, activation, x):
        pass
    return x


def _loss(weights, biases, activation: Activation, x: np.ndarray, targets: np.ndarray) -> float:
    """MSE over all entries of the network's outputs for the rows ``x``."""
    return float(np.mean((_output(weights, biases, activation, x) - targets) ** 2))


def _backward(weights, activation, acts, targets):
    """MSE gradients for every weight and bias; loss averages all entries.

    ``acts`` holds the input and each layer's output. A ReLU output is
    positive exactly where its pre-activation is, so it masks the gradient.
    """
    n = targets.size
    delta = 2.0 * (acts[-1] - targets) / n
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ weights[i].T
            if activation is Activation.RELU:
                delta = delta * (acts[i] > 0.0)
    return grads_w, grads_b


def _rows(contexts, targets) -> tuple[np.ndarray, np.ndarray]:
    """(W, L, k) contexts and (W, h, k) targets as C-ordered (W, L*k) and (W, h*k) rows."""
    X, Y = (np.ascontiguousarray(a, dtype=np.float64) for a in (contexts, targets))
    if X.ndim != 3 or Y.ndim != 3 or len(X) != len(Y) or not len(X):
        raise ValidationError(f"need (W, L, k) contexts, (W, h, k) targets: {X.shape}, {Y.shape}")
    return X.reshape(len(X), -1), Y.reshape(len(Y), -1)


PATIENCE = 10  # epochs without a validation improvement before training stops


def train(spec: MlpSpec, contexts, targets, val=None) -> TrainedModel:
    """Mini-batch SGD on MSE of (W, L, k) contexts to (W, h, k) targets; seeded.

    When ``val``, a (contexts, targets) pair, is supplied, training stops
    once validation MSE has not improved for ``PATIENCE`` consecutive
    epochs and the best-validation weights are returned; otherwise it
    runs the full epoch budget. ``val``'s windows must have the training
    windows' shapes, and every value must be finite.
    """
    X, Y = _rows(contexts, targets)
    shapes = np.shape(contexts)[1:], np.shape(targets)[1:]
    rng = np.random.default_rng(spec.seed)
    weights, biases = init_layers(spec, X.shape[1], Y.shape[1], rng)

    Xv = Yv = None
    if val is not None:
        Xv, Yv = _rows(*val)
        val_shapes = np.shape(val[0])[1:], np.shape(val[1])[1:]
        if val_shapes != shapes:
            raise ValidationError(f"val window shapes {val_shapes} differ from training {shapes}")
    for name, rows in (("contexts", X), ("targets", Y), ("val contexts", Xv), ("val targets", Yv)):
        if rows is not None and not np.isfinite(rows).all():
            raise ValidationError(f"{name} hold a non-finite value")
    best_val = np.inf
    best_snapshot = None
    stall = 0

    losses = []
    n = X.shape[0]
    # a diverging run overflows before its loss turns non-finite; that check raises instead
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(spec.epochs):
            order = rng.permutation(n)
            for start in range(0, n, spec.batch_size):
                idx = order[start : start + spec.batch_size]
                x = X[idx]
                acts = [x, *_layers(weights, biases, spec.activation, x)]
                grads_w, grads_b = _backward(weights, spec.activation, acts, Y[idx])
                for i in range(len(weights)):
                    weights[i] -= spec.learning_rate * grads_w[i]
                    biases[i] -= spec.learning_rate * grads_b[i]
            loss = _loss(weights, biases, spec.activation, X, Y)
            if not np.isfinite(loss):
                raise NumericalError(f"training loss became non-finite at epoch {epoch}")
            losses.append(loss)
            if Xv is not None:
                val_loss = _loss(weights, biases, spec.activation, Xv, Yv)
                if val_loss < best_val:
                    best_val = val_loss
                    best_snapshot = ([w.copy() for w in weights], [b.copy() for b in biases])
                    stall = 0
                else:
                    stall += 1
                    if stall >= PATIENCE:
                        break
    if best_snapshot is not None:
        weights, biases = best_snapshot
    return TrainedModel(weights, biases, spec, losses, *shapes)


def predict(model: TrainedModel, context) -> np.ndarray:
    """Feedforward evaluation: an (L, k) window gives (h, k), a (W, L, k) stack (W, h, k)."""
    ctx = as_columns(context)
    single = ctx.shape == model.input_shape
    stack = ctx[None] if single else ctx
    if stack.shape[1:] != model.input_shape:
        raise ValidationError(
            f"context shape {ctx.shape} does not match model input {model.input_shape}"
        )
    # Each window is its own (1, n) row: a (W, n) @ (n, m) product goes through
    # gemm, whose sums differ from the one-row product in the last bits, while
    # a (W, 1, n) stack runs the one-row product per window, bit for bit.
    rows = stack.reshape(len(stack), 1, -1)
    out = _output(model.weights, model.biases, model.spec.activation, rows)
    out = out.reshape(len(stack), *model.output_shape)
    return out[0] if single else out
