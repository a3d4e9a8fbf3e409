import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from _helpers import collapse_linear, gradient_check
from gasnorm import Activation, MlpSpec, TrainedModel, predict, train
from gasnorm.errors import NumericalError, ValidationError, from_keys, to_json
from gasnorm.mlp import PATIENCE, init_layers


def linear_pairs(n=200, l=4, k=2, h=2, seed=0):
    """(contexts, targets) stacks of shapes (n, l, k) and (n, h, k)."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(l * k, h * k))
    contexts, targets = [], []
    for _ in range(n):
        ctx = rng.normal(size=(l, k))
        contexts.append(ctx)
        targets.append((ctx.ravel() @ A).reshape(h, k))
    return np.stack(contexts), np.stack(targets)


class TestTrain:
    def test_identity_fits_linear_map(self):
        pairs = linear_pairs()
        spec = MlpSpec((16,), Activation.IDENTITY, learning_rate=0.05,
                       epochs=300, batch_size=32, seed=0)
        model = train(spec, *pairs)
        assert model.train_loss_curve[-1] < 1e-6

    def test_zero_targets_descend(self):
        rng = np.random.default_rng(1)
        contexts = np.stack([rng.normal(size=(3, 1)) for _ in range(50)])
        spec = MlpSpec((8,), Activation.RELU, learning_rate=0.05, epochs=40, seed=1)
        model = train(spec, contexts, np.zeros((50, 1, 1)))
        assert model.train_loss_curve[-1] <= model.train_loss_curve[0]

    def test_determinism(self):
        pairs = linear_pairs(n=60, seed=2)
        spec = MlpSpec((8, 8), Activation.RELU, epochs=10, seed=5)
        m1 = train(spec, *pairs)
        m2 = train(spec, *pairs)
        for w1, w2 in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_loss_curve_length_equals_epochs(self):
        model = train(MlpSpec((4,), epochs=7, seed=0), *linear_pairs(n=20))
        assert len(model.train_loss_curve) == 7

    def test_early_stopping_restores_best(self):
        pairs = linear_pairs(n=80, seed=3)
        val = linear_pairs(n=20, seed=4)
        spec = MlpSpec((8,), Activation.IDENTITY, learning_rate=0.05, epochs=500, seed=0)
        model = train(spec, *pairs, val=val)
        epochs = len(model.train_loss_curve)
        assert epochs < 500
        # the best epoch is the last before PATIENCE epochs without improvement
        best = train(replace(spec, epochs=epochs - PATIENCE), *pairs)
        for got, want in zip(model.weights + model.biases, best.weights + best.biases):
            np.testing.assert_array_equal(got, want)

    def test_empty_pairs_error(self):
        with pytest.raises(ValidationError):
            train(MlpSpec(), np.empty((0, 4, 2)), np.empty((0, 2, 2)))

    def test_divergence_is_a_numerical_error_without_warnings(self):
        pairs = linear_pairs(n=40, seed=6)
        spec = MlpSpec((8,), Activation.RELU, learning_rate=1e6, epochs=50, seed=0)
        with warnings.catch_warnings():
            # a numpy RuntimeWarning raised as an error would replace the NumericalError
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="training loss became non-finite at epoch"):
                train(spec, *pairs, val=linear_pairs(n=10, seed=7))


class TestPredict:
    def test_zero_weights_give_zero(self):
        model = train(MlpSpec((4,), epochs=1, seed=0), *linear_pairs(n=10))
        zeroed = TrainedModel(
            [np.zeros_like(w) for w in model.weights],
            [np.zeros_like(b) for b in model.biases],
            model.spec, model.train_loss_curve, model.input_shape, model.output_shape,
        )
        out = predict(zeroed, np.random.default_rng(0).normal(size=model.input_shape))
        np.testing.assert_array_equal(out, 0.0)

    def test_single_identity_layer_is_matrix_product(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(6, 2))
        model = TrainedModel(
            [W], [np.zeros(2)],
            MlpSpec((), Activation.IDENTITY, epochs=1),
            np.zeros(1), (3, 2), (1, 2),
        )
        ctx = rng.normal(size=(3, 2))
        np.testing.assert_allclose(
            predict(model, ctx), (ctx.ravel() @ W).reshape(1, 2), atol=1e-15
        )

    def test_hand_computed_affine(self):
        W = np.array([[0.5], [-1.0]])
        b = np.array([0.25])
        model = TrainedModel(
            [W], [b], MlpSpec((), Activation.IDENTITY, epochs=1),
            np.zeros(1), (2, 1), (1, 1),
        )
        out = predict(model, np.array([[2.0], [3.0]]))
        assert out[0, 0] == pytest.approx(2.0 * 0.5 + 3.0 * -1.0 + 0.25)

    @pytest.mark.parametrize(
        "weights, biases",
        [
            ([np.zeros((5, 2))], [np.zeros(2)]),  # 5 inputs for a (3, 2) window
            ([np.zeros((6, 2))], [np.zeros(3)]),
            ([np.zeros((6, 2))], []),
            ([np.zeros((6, 2)), np.zeros((2, 2))], [np.zeros(2), np.zeros(2)]),
        ],
    )
    def test_layers_that_do_not_chain_are_rejected(self, weights, biases):
        spec = MlpSpec((), Activation.IDENTITY, epochs=1)
        with pytest.raises(ValidationError, match="do not chain"):
            TrainedModel(weights, biases, spec, np.zeros(1), (3, 2), (1, 2))

    def test_shape_mismatch_errors(self):
        model = train(MlpSpec((4,), epochs=1, seed=0), *linear_pairs(n=10))
        with pytest.raises(ValidationError):
            predict(model, np.ones((2, 2)))

    def test_one_dimensional_context_is_one_feature(self):
        x = np.random.default_rng(0).normal(size=(8, 28, 1))
        model = train(MlpSpec((4,), epochs=2), x[:, :20], x[:, 20:])
        ctx = np.random.default_rng(1).normal(size=20)
        assert np.array_equal(predict(model, ctx), predict(model, ctx[:, None]))
        for ctx in (np.zeros(()), np.zeros((1, 1, 20, 1))):
            with pytest.raises(ValidationError, match=re.escape(f"context shape {ctx.shape} ")):
                predict(model, ctx)


def test_stacked_predict_equals_each_window_bit_for_bit():
    # the widths and window of the Lorenz benchmark, where a single (W, n) @ (n, m)
    # product differs from the one-row products in the last bits
    rng = np.random.default_rng(8)
    spec = MlpSpec((64, 64), Activation.RELU, seed=0)
    weights, biases = init_layers(spec, 48 * 3, 8 * 3, rng)
    biases = [rng.normal(size=b.shape) for b in biases]
    model = TrainedModel(weights, biases, spec, np.zeros(1), (48, 3), (8, 3))
    stack = rng.normal(size=(200, 48, 3))
    out = predict(model, stack)
    assert out.shape == (200, 8, 3)
    for i, ctx in enumerate(stack):
        assert np.array_equal(out[i], predict(model, ctx))


class TestGradientCheck:
    def test_identity_net(self):
        rng = np.random.default_rng(0)
        sample = (rng.normal(size=(4, 2)), rng.normal(size=(2, 2)))
        spec = MlpSpec((8, 8), Activation.IDENTITY, seed=0)
        # linear net: truncation error is exactly zero, only roundoff remains
        assert gradient_check(spec, sample, step=1e-4) < 1e-8

    def test_relu_net(self):
        rng = np.random.default_rng(1)
        sample = (rng.normal(size=(4, 2)), rng.normal(size=(2, 2)))
        spec = MlpSpec((8, 8), Activation.RELU, seed=1)
        assert gradient_check(spec, sample) < 1e-5

    def test_degenerate_1_1_1_closed_form(self):
        # y_hat = w2 * (w1 * x + b1) + b2; dL/dw1 = 2 (y_hat - y) w2 x
        spec = MlpSpec((1,), Activation.IDENTITY, seed=3)
        x, y = 1.5, -0.5
        rng = np.random.default_rng(3)
        weights, biases = init_layers(spec, 1, 1, rng)
        w1, w2 = weights[0][0, 0], weights[1][0, 0]
        b1, b2 = biases[0][0], biases[1][0]
        y_hat = w2 * (w1 * x + b1) + b2
        expected = 2.0 * (y_hat - y) * w2 * x
        from gasnorm.mlp import _backward, _forward

        acts, pre = _forward(weights, biases, spec.activation, np.array([[x]]))
        grads_w, _ = _backward(weights, spec.activation, acts, pre, np.array([[y]]))
        assert grads_w[0][0, 0] == pytest.approx(expected, rel=1e-12)
        assert gradient_check(spec, (np.array([[x]]), np.array([[y]]))) < 1e-8


def test_identity_network_collapses_to_affine():
    pairs = linear_pairs(n=30, seed=5)
    spec = MlpSpec((8, 8), Activation.IDENTITY, epochs=3, seed=4)
    model = train(spec, *pairs)
    W, b = collapse_linear(model)
    rng = np.random.default_rng(6)
    for _ in range(10):
        ctx = rng.normal(size=model.input_shape)
        np.testing.assert_allclose(
            predict(model, ctx).ravel(), ctx.ravel() @ W + b, atol=1e-10
        )


def test_serialization_round_trip():
    model = train(MlpSpec((4,), epochs=2, seed=0), *linear_pairs(n=10))
    back = from_keys(TrainedModel, json.loads(json.dumps(to_json(model))), "model")
    ctx = np.random.default_rng(7).normal(size=model.input_shape)
    np.testing.assert_array_equal(predict(model, ctx), predict(back, ctx))
