"""Small numpy MLP residual forecaster with hand-rolled backprop.

Consumes normalized context windows (each flattened) and emits the
horizon residuals that denormalization recombines with the filter's
forecast. Windows come stacked: contexts (W, L, k), targets (W, h, k).
With identity activations the whole network collapses to one affine
map, which is the linear baseline used in the shift experiments.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, check_at_least, check_fields
from .series import as_columns


class Activation(enum.Enum):
    IDENTITY = "identity"
    RELU = "relu"


@dataclass(frozen=True)
class MlpSpec:
    """Architecture and training schedule; widths are the hidden layers."""

    layer_widths: tuple[int, ...] = (64, 64)
    activation: Activation = Activation.RELU
    learning_rate: float = 0.01
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if min((*self.layer_widths, self.learning_rate, self.epochs, self.batch_size)) <= 0:
            raise ValidationError("layer_widths, learning_rate, epochs, batch_size must be > 0")
        check_at_least(self, seed=0)


@dataclass(frozen=True)
class TrainedModel:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    spec: MlpSpec
    train_loss_curve: tuple[float, ...]
    input_shape: tuple[int, int]
    output_shape: tuple[int, int]

    def __post_init__(self):
        check_fields(self)
        for name in ("weights", "biases"):
            try:
                object.__setattr__(self, name, [np.asarray(a, float) for a in getattr(self, name)])
            except (TypeError, ValueError):
                raise ValidationError(f"{name} must be a list of numeric arrays") from None
        if min(self.input_shape + self.output_shape) < 1:
            raise ValidationError("input_shape and output_shape must be positive")
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


def _forward(weights, biases, activation: Activation, x: np.ndarray):
    """Returns layer inputs (activations) and pre-activations for backprop."""
    acts = [x]
    pre = []
    h = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        pre.append(z)
        if i < last and activation is Activation.RELU:
            h = np.maximum(z, 0.0)
        else:
            h = z
        acts.append(h)
    return acts, pre


def _backward(weights, activation, acts, pre, targets):
    """MSE gradients for every weight and bias; loss averages all entries."""
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
                delta = delta * (pre[i - 1] > 0.0)
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
    runs the full epoch budget.
    """
    X, Y = _rows(contexts, targets)
    rng = np.random.default_rng(spec.seed)
    weights, biases = init_layers(spec, X.shape[1], Y.shape[1], rng)

    Xv = Yv = None
    if val is not None:
        Xv, Yv = _rows(*val)
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
                acts, pre = _forward(weights, biases, spec.activation, X[idx])
                grads_w, grads_b = _backward(weights, spec.activation, acts, pre, Y[idx])
                for i in range(len(weights)):
                    weights[i] -= spec.learning_rate * grads_w[i]
                    biases[i] -= spec.learning_rate * grads_b[i]
            acts, _ = _forward(weights, biases, spec.activation, X)
            loss = float(np.mean((acts[-1] - Y) ** 2))
            if not np.isfinite(loss):
                raise NumericalError(f"training loss became non-finite at epoch {epoch}")
            losses.append(loss)
            if Xv is not None:
                acts_v, _ = _forward(weights, biases, spec.activation, Xv)
                val_loss = float(np.mean((acts_v[-1] - Yv) ** 2))
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
    return TrainedModel(
        weights, biases, spec, losses, np.shape(contexts)[1:], np.shape(targets)[1:]
    )


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
    acts, _ = _forward(model.weights, model.biases, model.spec.activation, rows)
    out = acts[-1].reshape(len(stack), *model.output_shape)
    return out[0] if single else out
