import hashlib
import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import collapse_linear, gradient_check, traced_peak
from _oracles import mlp_backward, mlp_forward
import gasnorm.mlp as mlp_mod
from gasnorm import Activation, MlpSpec, TrainedModel, predict, train
from gasnorm.errors import NumericalError, ValidationError, from_keys, to_json
from gasnorm.mlp import PATIENCE, _backward, _layers, _output, init_layers


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

    @pytest.mark.parametrize(
        "val_contexts, val_targets",
        [((5, 3, 2), (5, 2, 2)), ((5, 4, 2), (5, 1, 2)), ((5, 4, 2), (5, 2, 1))],
        ids=["context_length", "horizon", "targets_width"],
    )
    def test_val_windows_of_another_shape_are_rejected_before_training(
        self, monkeypatch, val_contexts, val_targets
    ):
        rng = np.random.default_rng(0)
        contexts, targets = rng.normal(size=(20, 4, 2)), rng.normal(size=(20, 2, 2))
        val = (rng.normal(size=val_contexts), rng.normal(size=val_targets))
        # no epoch runs: the check comes before the first forward pass
        monkeypatch.setattr(mlp_mod, "_layers", None)
        with pytest.raises(ValidationError) as info:
            train(MlpSpec((4,), epochs=2), contexts, targets, val=val)
        message = str(info.value)
        assert str((val_contexts[1:], val_targets[1:])) in message
        assert str(((4, 2), (2, 2))) in message

    @pytest.mark.parametrize("where", ["contexts", "targets", "val contexts", "val targets"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_are_rejected(self, where, bad):
        contexts, targets = linear_pairs(n=20, seed=1)
        val_contexts, val_targets = linear_pairs(n=10, seed=2)
        arrays = {"contexts": contexts, "targets": targets,
                  "val contexts": val_contexts, "val targets": val_targets}
        arrays[where][3, 1, 0] = bad
        with pytest.raises(ValidationError, match=f"^{where} hold a non-finite value$"):
            train(MlpSpec((4,), epochs=50), contexts, targets,
                  val=(val_contexts, val_targets))

    def test_divergence_is_a_numerical_error_without_warnings(self):
        pairs = linear_pairs(n=40, seed=6)
        spec = MlpSpec((8,), Activation.RELU, learning_rate=1e6, epochs=50, seed=0)
        with warnings.catch_warnings():
            # a numpy RuntimeWarning raised as an error would replace the NumericalError
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="training loss became non-finite at epoch"):
                train(spec, *pairs, val=linear_pairs(n=10, seed=7))

    @pytest.mark.parametrize(
        "with_val, epochs, digest",
        [
            (False, 40, "43b00d8c01e7d76b993ec82a63ecf061015108557f40916433f9d014a926b4cc"),
            (True, 19, "aa1cf47d8b21c04938ba7d8ae4a4652e4a2a8bfded6664a147d266e8bd70e1eb"),
        ],
        ids=["full_budget", "early_stop"],
    )
    def test_pinned_bits(self, with_val, epochs, digest):
        # sha256 of the weights, biases and loss curve, so that a refactor keeps
        # training bit for bit; recorded with numpy 2.4 and OpenBLAS 0.3.31 on
        # x86-64, whose kernels fix the last bits of each product
        rng = np.random.default_rng(123)
        contexts, targets = rng.normal(size=(300, 6, 2)), rng.normal(size=(300, 2, 2))
        val = (rng.normal(size=(80, 6, 2)), rng.normal(size=(80, 2, 2)))
        spec = MlpSpec((16, 16), Activation.RELU, learning_rate=0.05, epochs=40, batch_size=16)
        model = train(spec, contexts, targets, val if with_val else None)
        assert len(model.train_loss_curve) == epochs
        h = hashlib.sha256()
        for a in (*model.weights, *model.biases, np.array(model.train_loss_curve)):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == digest


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


@given(
    widths=st.lists(st.integers(1, 40), max_size=2),
    activation=st.sampled_from(list(Activation)),
    rows=st.integers(1, 300),
    n_in=st.integers(1, 60),
    n_out=st.integers(1, 12),
    stacked=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_output_only_forward_is_forward_bit_for_bit(
    widths, activation, rows, n_in, n_out, stacked, seed
):
    rng = np.random.default_rng(seed)
    weights, biases = init_layers(MlpSpec(tuple(widths)), n_in, n_out, rng)
    biases = [rng.normal(size=b.shape) for b in biases]
    # predict's (W, 1, n) stacks as well as train's (W, n) rows
    x = rng.normal(size=(rows, 1, n_in) if stacked else (rows, n_in))
    acts, _ = mlp_forward(weights, biases, activation, x)
    layers = list(_layers(weights, biases, activation, x))
    assert len(layers) == len(acts) - 1
    assert all(np.array_equal(got, want) for got, want in zip(layers, acts[1:]))
    assert np.array_equal(_output(weights, biases, activation, x), acts[-1])


@given(
    widths=st.lists(st.integers(1, 12), max_size=2),
    activation=st.sampled_from(list(Activation)),
    rows=st.integers(1, 40),
    n_in=st.integers(1, 12),
    n_out=st.integers(1, 4),
    zeros=st.lists(st.tuples(st.integers(0, 11), st.sampled_from([0.0, -0.0])), max_size=6),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_backward_is_the_pre_activation_masked_reference_bit_for_bit(
    widths, activation, rows, n_in, n_out, zeros, seed
):
    rng = np.random.default_rng(seed)
    weights, biases = init_layers(MlpSpec(tuple(widths)), n_in, n_out, rng)
    biases = [rng.normal(size=b.shape) for b in biases]
    # a hidden unit with a zero weight column and a signed zero bias has
    # pre-activations of exactly 0.0 or -0.0, where the ReLU mask is decided
    for i, (unit, zero) in enumerate(zeros if widths else ()):
        layer = i % len(widths)
        weights[layer][:, unit % widths[layer]] = 0.0
        biases[layer][unit % widths[layer]] = zero
    x, y = rng.normal(size=(rows, n_in)), rng.normal(size=(rows, n_out))
    grads = _backward(weights, activation, [x, *_layers(weights, biases, activation, x)], y)
    want = mlp_backward(weights, activation, *mlp_forward(weights, biases, activation, x), y)
    for got_layers, want_layers in zip(grads, want):
        assert all(np.array_equal(g, w) for g, w in zip(got_layers, want_layers))


@pytest.mark.parametrize("with_val", [False, True])
def test_an_epoch_holds_at_most_two_layers_of_all_rows(with_val):
    # the loss passes over all W rows keep no activations for backprop
    rng = np.random.default_rng(9)
    w = 4000
    contexts, targets = rng.normal(size=(w, 4, 2)), rng.normal(size=(w, 1, 2))
    val = (contexts, targets) if with_val else None
    _, peak = traced_peak(train, MlpSpec((64, 64), epochs=1), contexts, targets, val)
    layer = w * 64 * 8
    # the quarter covers the (W, 2) outputs, their loss temporaries and the shuffle order
    assert peak < 2 * layer + layer // 4


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
        acts = [np.array([[x]]), *_layers(weights, biases, spec.activation, np.array([[x]]))]
        grads_w, _ = _backward(weights, spec.activation, acts, np.array([[y]]))
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
