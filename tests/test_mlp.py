import io
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from test_arrayfile import traced_peak, with_declared_shape
from test_labels import grouped_task
from ultratts import acoustic, mlp
from ultratts.errors import ArgumentError, DataError, FormatError, TrainingDiverged

SRC = Path(__file__).resolve().parents[1] / "src"


def gradients(model, x, y):
    """Every layer's gradients, as ``backward`` hands them over, and the loss;
    the net is left as it was."""
    grads_w, grads_b = [None] * len(model.weights), [None] * len(model.biases)

    def keep(layer, grad_w, grad_b):
        grads_w[layer], grads_b[layer] = grad_w, grad_b

    loss = mlp.backward(model, x, y, keep)
    return grads_w, grads_b, loss


def finite_difference_check(model, x, y, eps=1e-5):
    """Worst guarded relative error between backprop and central differences."""
    grads_w, grads_b, _ = gradients(model, x, y)
    worst = 0.0
    for arrays, grads in ((model.weights, grads_w), (model.biases, grads_b)):
        for arr, grad in zip(arrays, grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                orig = arr[i]
                arr[i] = orig + eps
                plus = gradients(model, x, y)[2]
                arr[i] = orig - eps
                minus = gradients(model, x, y)[2]
                arr[i] = orig
                fd = (plus - minus) / (2.0 * eps)
                rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-4)
                worst = max(worst, rel)
    return worst


class TestInit:
    def test_same_seed_bit_identical(self):
        a = mlp.init_model(10, seed=42, hidden_sizes=(16, 16), output_dim=7)
        b = mlp.init_model(10, seed=42, hidden_sizes=(16, 16), output_dim=7)
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_biases_start_at_zero(self):
        model = mlp.init_model(5, seed=0, hidden_sizes=(8,), output_dim=3)
        assert all(not b.any() for b in model.biases)

    def test_large_layer_weight_mean_within_three_sigma(self):
        model = mlp.init_model(1024, seed=1, hidden_sizes=(1024,), output_dim=4)
        w = model.weights[0]
        limit = np.sqrt(6.0 / (1024 + 1024))
        sigma_mean = (limit / np.sqrt(3.0)) / np.sqrt(w.size)
        assert abs(w.mean()) < 3.0 * sigma_mean

    def test_default_architecture(self):
        model = mlp.init_model(532, seed=0)
        assert model.layer_sizes == (532, 1024, 1024, 1024, 1024, 1024, 1024, 199)

    def test_bad_input_dim_rejected(self):
        with pytest.raises(ArgumentError):
            mlp.init_model(0, seed=0)

    def test_float32_net_is_the_float64_net_cast(self):
        wide = mlp.init_model(10, seed=42, hidden_sizes=(16, 16), output_dim=7)
        narrow = mlp.init_model(10, seed=42, hidden_sizes=(16, 16), output_dim=7, dtype=np.float32)
        assert (wide.dtype, narrow.dtype) == (np.float64, np.float32)
        for a, b in zip(wide.weights + wide.biases, narrow.weights + narrow.biases):
            assert b.dtype == np.float32
            assert b.tobytes() == a.astype(np.float32).tobytes()


class TestForward:
    def test_zero_network_outputs_zero(self):
        model = mlp.init_model(4, seed=0, hidden_sizes=(6,), output_dim=2)
        for w in model.weights:
            w[:] = 0.0
        assert not mlp.forward(model, np.ones((3, 4))).any()

    def test_single_unit_tanh_at_zero(self):
        model = mlp.MlpModel(
            layer_sizes=(1, 1, 1),
            weights=[np.array([[1.0]]), np.array([[1.0]])],
            biases=[np.zeros(1), np.zeros(1)],
        )
        assert mlp.forward(model, np.zeros((1, 1)))[0, 0] == 0.0

    def test_matches_hand_rolled_oracle(self):
        rng = np.random.default_rng(9)
        model = mlp.init_model(3, seed=5, hidden_sizes=(4,), output_dim=2)
        x = rng.normal(size=(6, 3))
        by_hand = np.tanh(x @ model.weights[0] + model.biases[0])
        by_hand = by_hand @ model.weights[1] + model.biases[1]
        assert np.allclose(mlp.forward(model, x), by_hand, atol=1e-10)

    def test_width_mismatch_rejected(self):
        model = mlp.init_model(3, seed=0, hidden_sizes=(4,), output_dim=2)
        with pytest.raises(ArgumentError):
            mlp.forward(model, np.zeros((2, 5)))


class TestBackward:
    def test_zero_gradients_at_loss_minimum(self):
        model = mlp.init_model(4, seed=3, hidden_sizes=(5,), output_dim=2)
        x = np.random.default_rng(0).normal(size=(8, 4))
        y = mlp.forward(model, x)
        grads_w, grads_b, value = gradients(model, x, y)
        assert value == 0.0
        assert all(np.allclose(g, 0.0) for g in grads_w + grads_b)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(1)
        model = mlp.init_model(5, seed=7, hidden_sizes=(8,), output_dim=3)
        x = rng.normal(size=(6, 5))
        y = rng.normal(size=(6, 3))
        assert finite_difference_check(model, x, y) < 1e-4

    def test_duplicated_batch_leaves_gradients_unchanged(self):
        rng = np.random.default_rng(2)
        model = mlp.init_model(4, seed=8, hidden_sizes=(6,), output_dim=2)
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=(5, 2))
        gw1, gb1, _ = gradients(model, x, y)
        gw2, gb2, _ = gradients(model, np.vstack([x, x]), np.vstack([y, y]))
        for a, b in zip(gw1 + gb1, gw2 + gb2):
            assert np.allclose(a, b, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        model = mlp.init_model(4, seed=0, hidden_sizes=(6,), output_dim=2)
        with pytest.raises(ArgumentError):
            gradients(model, np.zeros((3, 4)), np.zeros((3, 5)))


def reference_forward(model, x):
    """The net's output and its layer inputs, one new array per step."""
    activations = [x]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        activations.append(np.tanh(activations[-1] @ w + b))
    return activations[-1] @ model.weights[-1] + model.biases[-1], activations


def reference_backward(model, x, y):
    """Backprop written out of place, one new array per step, in the model's dtype."""
    pred, activations = reference_forward(model, x)
    diff = pred - y
    loss = float(0.5 * np.sum(diff * diff, dtype=np.float64) / diff.shape[0])
    delta = diff / diff.shape[0]
    grads_w, grads_b = [None] * len(model.weights), [None] * len(model.biases)
    for layer in reversed(range(len(model.weights))):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (1.0 - activations[layer] ** 2)
    return grads_w, grads_b, loss


class TestInPlaceBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_out_of_place_formula_bit_for_bit(self, dtype):
        rng = np.random.default_rng(11)
        model = mlp.init_model(13, seed=6, hidden_sizes=(24, 17, 9), output_dim=5, dtype=dtype)
        for b in model.biases:
            b[:] = rng.normal(size=b.shape)
        x = rng.normal(size=(33, 13)).astype(dtype)
        y = rng.normal(size=(33, 5)).astype(dtype)
        grads_w, grads_b, loss = gradients(model, x, y)
        ref_w, ref_b, ref_loss = reference_backward(model, x, y)
        assert loss == ref_loss
        for got, want in zip(grads_w + grads_b, ref_w + ref_b):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()
        assert mlp.forward(model, x).tobytes() == reference_forward(model, x)[0].tobytes()

    def test_leaves_batch_and_targets_untouched(self):
        rng = np.random.default_rng(12)
        model = mlp.init_model(6, seed=2, hidden_sizes=(8, 8), output_dim=3, dtype=np.float32)
        x = rng.normal(size=(10, 6)).astype(np.float32)
        y = rng.normal(size=(10, 3)).astype(np.float32)
        x_before, y_before = x.copy(), y.copy()
        mlp.backward(model, x, y, mlp.sgd_update(model, 0.1))
        assert x.tobytes() == x_before.tobytes()
        assert y.tobytes() == y_before.tobytes()


class TestPerLayerStep:
    def test_apply_gets_each_layer_once_output_layer_first(self):
        rng = np.random.default_rng(13)
        model = mlp.init_model(5, seed=4, hidden_sizes=(7, 6, 8), output_dim=3)
        steps = []
        mlp.backward(
            model, rng.normal(size=(9, 5)), rng.normal(size=(9, 3)),
            lambda layer, grad_w, grad_b: steps.append((layer, grad_w.shape, grad_b.shape)),
        )
        sizes = model.layer_sizes
        assert steps == [(i, (sizes[i], sizes[i + 1]), (sizes[i + 1],)) for i in (3, 2, 1, 0)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("gathered", [False, True], ids=["dense", "gathered"])
    def test_train_steps_equal_the_whole_net_update(self, dtype, gathered):
        # one epoch of 700 rows in batches of 64 takes 11 steps
        rows, dense, y = grouped_task(seed=7)
        schedule = mlp.TrainingSchedule(
            max_epochs=1, warmup_epochs=0, base_lr=0.1, batch_size=64, seed=3,
        )
        model = mlp.init_model(7, seed=8, hidden_sizes=(9, 6), output_dim=4, dtype=dtype)
        expect = model.copy()
        # train's batch order; every layer's gradients taken before any is applied
        x, t = dense.astype(dtype), y.astype(dtype)
        lr = schedule.learning_rate(1)
        order = np.random.default_rng(schedule.seed).permutation(len(x))
        loss_sum = 0.0
        for start in range(0, order.size, schedule.batch_size):
            idx = order[start : start + schedule.batch_size]
            grads_w, grads_b, loss = reference_backward(expect, x[idx], t[idx])
            loss_sum += loss * idx.size
            for w, b, gw, gb in zip(expect.weights, expect.biases, grads_w, grads_b):
                gw *= lr
                w -= gw
                gb *= lr
                b -= gb

        train_x = rows if gathered else dense
        best, history = mlp.train(model, (train_x, y), (dense[-100:], y[-100:]), schedule)
        assert history[0].train_mse == 2.0 * loss_sum / (order.size * model.output_dim)
        for got, kept, want in zip(
            model.weights + model.biases, best.weights + best.biases, expect.weights + expect.biases
        ):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == kept.tobytes() == want.tobytes()

    def test_non_finite_loss_leaves_the_net_untouched(self):
        # an output bias near the float32 maximum overflows the squared residual
        model = mlp.init_model(5, seed=3, hidden_sizes=(8, 8), output_dim=3, dtype=np.float32)
        model.biases[-1][:] = 3e38
        before = [a.copy() for a in model.weights + model.biases]
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 5)).astype(np.float32)
        y = rng.normal(size=(6, 3)).astype(np.float32)
        steps = []
        assert mlp.backward(model, x, y, lambda *step: steps.append(step)) == np.inf
        assert steps == []
        assert mlp.backward(model, x, y, mlp.sgd_update(model, 0.1)) == np.inf
        schedule = mlp.TrainingSchedule(max_epochs=2, warmup_epochs=1, batch_size=2, seed=0)
        with pytest.raises(TrainingDiverged, match="the training loss went non-finite at epoch 1$"):
            mlp.train(model, (x, y), (x, y), schedule)
        for after, was in zip(model.weights + model.biases, before):
            assert after.tobytes() == was.tobytes()


def _float32_twin():
    """Criterion 3's 5-8-8-3 net in float32, and the same weights in float64."""
    narrow = mlp.init_model(5, seed=1, hidden_sizes=(8, 8), output_dim=3, dtype=np.float32)
    wide = mlp.MlpModel(
        narrow.layer_sizes,
        [w.astype(np.float64) for w in narrow.weights],
        [b.astype(np.float64) for b in narrow.biases],
    )
    return narrow, wide


class TestFloat32:
    # Every gradient entry of the 5-8-8-3 net on a 6-row batch passes through
    # under 50 dependent float32 roundings (dot products of length 5, 8 and 8
    # forward, 3 and 8 backward, the 6-row batch sum, tanh and its derivative,
    # the residual and the 1/batch scaling), each within eps/2: about 25 eps of
    # the summed absolute terms. Those sums exceed the largest entry of a
    # gradient array by at most fan-in x batch = 8 x 6 when the terms cancel,
    # so each array may differ from float64 by 25 x 48 eps (1.4e-4) of its
    # largest entry.
    grad_rtol = 25 * 48 * np.finfo(np.float32).eps

    def test_gradients_match_the_float64_path(self):
        narrow, wide = _float32_twin()
        rng = np.random.default_rng(0)
        # float32-representable data, so both paths see the same numbers
        x = rng.normal(size=(6, 5)).astype(np.float32).astype(np.float64)
        y = rng.normal(size=(6, 3)).astype(np.float32).astype(np.float64)
        grads_w32, grads_b32, loss32 = gradients(narrow, x, y)
        grads_w64, grads_b64, loss64 = gradients(wide, x, y)
        for g32, g64 in zip(grads_w32 + grads_b32, grads_w64 + grads_b64):
            assert g32.dtype == np.float32
            assert np.abs(g32 - g64).max() <= self.grad_rtol * np.abs(g64).max()
        assert loss32 == pytest.approx(loss64, rel=self.grad_rtol)

    def test_float64_data_does_not_promote_backward(self):
        narrow, _ = _float32_twin()
        rng = np.random.default_rng(1)
        grads_w, grads_b, _ = gradients(narrow, rng.normal(size=(4, 5)), rng.normal(size=(4, 3)))
        assert {g.dtype for g in grads_w + grads_b} == {np.dtype(np.float32)}
        assert mlp.forward(narrow, rng.normal(size=(4, 5))).dtype == np.float32

    @pytest.mark.parametrize("gathered", [False, True], ids=["dense", "gathered"])
    def test_float64_data_does_not_promote_train(self, gathered, monkeypatch):
        rows, dense, y = grouped_task()
        assert (rows.table.dtype, dense.dtype, y.dtype) == (np.float64,) * 3
        # train casts its data once, so every batch reaches backward, and every
        # gradient the update, in float32
        seen = set()
        backward = mlp.backward

        def recording_backward(model, batch, targets, apply):
            seen.update((batch.dtype, targets.dtype))

            def recording_apply(layer, grad_w, grad_b):
                seen.update((grad_w.dtype, grad_b.dtype))
                apply(layer, grad_w, grad_b)

            return backward(model, batch, targets, recording_apply)

        monkeypatch.setattr(mlp, "backward", recording_backward)
        schedule = mlp.TrainingSchedule(
            max_epochs=3, warmup_epochs=1, base_lr=0.1, decay=0.9, batch_size=64, seed=2,
        )
        model = mlp.init_model(7, seed=3, hidden_sizes=(8, 8), output_dim=4, dtype=np.float32)
        train_x = rows if gathered else dense
        best, _ = mlp.train(model, (train_x, y), (dense[-100:], y[-100:]), schedule)
        assert seen == {np.dtype(np.float32)}
        assert {a.dtype for a in best.weights + best.biases} == {np.dtype(np.float32)}

    def test_train_is_bit_reproducible(self):
        rows, dense, y = grouped_task(seed=4)
        schedule = mlp.TrainingSchedule(
            max_epochs=5, warmup_epochs=2, base_lr=0.1, decay=0.9, batch_size=64, seed=6,
        )
        results = [
            mlp.train(
                mlp.init_model(7, seed=5, hidden_sizes=(8, 8), output_dim=4, dtype=np.float32),
                (rows, y), (dense[-100:], y[-100:]), schedule,
            )
            for _ in range(2)
        ]
        (best_a, history_a), (best_b, history_b) = results
        assert history_a == history_b
        for a, b in zip(best_a.weights + best_a.biases, best_b.weights + best_b.biases):
            assert a.tobytes() == b.tobytes()


def linear_task(n=800, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 6))
    mapping = rng.normal(size=(6, 4))
    y = x @ mapping + 0.01 * rng.normal(size=(n, 4))
    return (x[: n // 2], y[: n // 2]), (x[n // 2 :], y[n // 2 :])


class TestTrain:
    schedule = mlp.TrainingSchedule(
        max_epochs=20, warmup_epochs=5, base_lr=0.1, decay=0.9, batch_size=64,
        patience=4, seed=3,
    )

    def test_learns_linear_task(self):
        train_set, valid_set = linear_task()
        model = mlp.init_model(6, seed=1, hidden_sizes=(16,), output_dim=4)
        epoch0 = mlp.mse(mlp.forward(model, valid_set[0]), valid_set[1])
        best, history = mlp.train(model, train_set, valid_set, self.schedule)
        assert history[-1].epoch <= self.schedule.max_epochs
        final = mlp.mse(mlp.forward(best, valid_set[0]), valid_set[1])
        assert final < 0.1 * epoch0
        assert np.isfinite(mlp.mse(mlp.forward(best, train_set[0]), train_set[1]))

    def test_returned_model_has_min_validation_mse(self):
        train_set, valid_set = linear_task(seed=5)
        model = mlp.init_model(6, seed=2, hidden_sizes=(8,), output_dim=4)
        best, history = mlp.train(model, train_set, valid_set, self.schedule)
        recomputed = mlp.mse(mlp.forward(best, valid_set[0]), valid_set[1])
        assert recomputed == min(h.valid_mse for h in history)

    def test_bit_reproducible_history(self):
        train_set, valid_set = linear_task(seed=6)
        h1 = mlp.train(
            mlp.init_model(6, 4, hidden_sizes=(8,), output_dim=4),
            train_set, valid_set, self.schedule,
        )[1]
        h2 = mlp.train(
            mlp.init_model(6, 4, hidden_sizes=(8,), output_dim=4),
            train_set, valid_set, self.schedule,
        )[1]
        assert [h.valid_mse for h in h1] == [h.valid_mse for h in h2]
        assert [h.train_mse for h in h1] == [h.train_mse for h in h2]

    def test_train_mse_weights_batches_by_rows(self):
        # 800 rows in batches of 256 leave a 32-row last batch; at this
        # learning rate the weights cannot move, so the epoch's training MSE
        # is the MSE of the initial model over every training row
        train_set, valid_set = linear_task(n=1600, seed=8)
        model = mlp.init_model(6, seed=4, hidden_sizes=(8,), output_dim=4)
        expect = mlp.mse(mlp.forward(model, train_set[0]), train_set[1])
        schedule = mlp.TrainingSchedule(
            max_epochs=2, warmup_epochs=1, base_lr=1e-300, batch_size=256, seed=0,
        )
        history = mlp.train(model, train_set, valid_set, schedule)[1]
        assert history[0].train_mse == pytest.approx(expect, rel=1e-12)

    def test_schedule_defaults_match_experiment_constants(self):
        schedule = mlp.TrainingSchedule()
        assert schedule.max_epochs == 25
        assert schedule.warmup_epochs == 10
        assert schedule.base_lr == 0.002
        assert schedule.batch_size == 256

    def test_learning_rate_schedule(self):
        schedule = mlp.TrainingSchedule(seed=0)
        assert schedule.learning_rate(1) == 0.002
        assert schedule.learning_rate(10) == 0.002
        assert schedule.learning_rate(11) == pytest.approx(0.001)
        assert schedule.learning_rate(12) == pytest.approx(0.0005)

    def test_divergence_raises(self):
        # float64 keeps three epochs finite at a validation MSE near 1e92 before
        # the loss overflows; float32 overflows within the first epoch
        train_set, valid_set = linear_task(seed=7)
        schedule = mlp.TrainingSchedule(
            max_epochs=10, warmup_epochs=2, base_lr=1e6, decay=1.0,
            batch_size=64, patience=3, seed=0,
        )
        for dtype in (np.float64, np.float32):
            model = mlp.init_model(6, seed=3, hidden_sizes=(8,), output_dim=4, dtype=dtype)
            with pytest.raises(TrainingDiverged):
                mlp.train(model, train_set, valid_set, schedule)

    def test_overflowing_loss_keeps_the_best_finite_epoch(self, monkeypatch):
        # 400 training rows in batches of 64 make 7 batches per epoch; the
        # loss overflows from the first batch of epoch 4 on
        train_set, valid_set = linear_task(seed=5)
        backward = mlp.backward
        calls = []

        def overflowing_backward(model, batch, targets, apply):
            calls.append(batch)
            if len(calls) > 3 * 7:
                return np.inf  # an overflowed batch takes no gradient
            return backward(model, batch, targets, apply)

        monkeypatch.setattr(mlp, "backward", overflowing_backward)
        model = mlp.init_model(6, seed=2, hidden_sizes=(8,), output_dim=4)
        best, history = mlp.train(model, train_set, valid_set, self.schedule)
        assert [h.epoch for h in history] == [1, 2, 3]
        assert len(calls) == 3 * 7 + 1
        recomputed = mlp.mse(mlp.forward(best, valid_set[0]), valid_set[1])
        assert recomputed == min(h.valid_mse for h in history)

    def test_finite_divergence_raises(self):
        # at a rate of 1e-300 the net keeps its initial weights, whose output
        # biases of 100 score more than 10x worse than predicting zero
        train_set, valid_set = linear_task(seed=9)
        schedule = mlp.TrainingSchedule(max_epochs=2, warmup_epochs=1, base_lr=1e-300, seed=0)
        model = mlp.init_model(6, seed=4, hidden_sizes=(8,), output_dim=4)
        model.biases[-1][:] = 100.0
        with pytest.raises(TrainingDiverged, match="predicting zero"):
            mlp.train(model, train_set, valid_set, schedule)

    def test_overflowing_training_loss_is_named(self, monkeypatch):
        monkeypatch.setattr(mlp, "backward", lambda model, batch, targets, apply: np.inf)
        train_set, valid_set = linear_task(seed=5)
        model = mlp.init_model(6, seed=2, hidden_sizes=(8,), output_dim=4)
        with pytest.raises(TrainingDiverged, match="the training loss went non-finite at epoch 1$"):
            mlp.train(model, train_set, valid_set, self.schedule)

    def test_non_finite_validation_mse_is_named(self):
        # an infinite dev input makes the validation MSE NaN while every
        # training batch stays finite
        train_set, (valid_x, valid_y) = linear_task(seed=5)
        valid_x = valid_x.copy()
        valid_x[0] = np.inf
        model = mlp.init_model(6, seed=2, hidden_sizes=(8,), output_dim=4)
        with pytest.raises(TrainingDiverged, match="the validation MSE went non-finite at epoch 1$"):
            mlp.train(model, train_set, (valid_x, valid_y), self.schedule)

    def test_empty_sets_rejected(self):
        model = mlp.init_model(6, seed=0, hidden_sizes=(8,), output_dim=4)
        empty = (np.zeros((0, 6)), np.zeros((0, 4)))
        full = (np.zeros((4, 6)), np.zeros((4, 4)))
        with pytest.raises(DataError):
            mlp.train(model, empty, full, self.schedule)
        with pytest.raises(DataError):
            mlp.train(model, full, empty, self.schedule)


class TestOnBest:
    schedule = mlp.TrainingSchedule(
        max_epochs=12, warmup_epochs=2, base_lr=0.05, decay=0.9, batch_size=64,
        patience=4, seed=3,
    )

    def keep_every_call(self, model, valid_set):
        """An ``on_best``, and the list where it records, per call, whether it
        was handed the training net, that net's validation score and a copy
        of its parameters."""
        calls = []

        def on_best(net):
            calls.append((
                net is model,
                mlp.mse(mlp.forward(net, valid_set[0]), valid_set[1]),
                [a.copy() for a in net.weights + net.biases],
            ))

        return calls, on_best

    def test_called_at_each_improving_epoch_within_the_bar(self, monkeypatch):
        train_set, (valid_x, valid_y) = linear_task(seed=5)
        _, history = mlp.train(
            mlp.init_model(6, seed=2, hidden_sizes=(8,), output_dim=4),
            train_set, (valid_x, valid_y), self.schedule,
        )
        improving = [h.valid_mse for i, h in enumerate(history)
                     if h.valid_mse < min([np.inf] + [g.valid_mse for g in history[:i]])]
        # a bar between the first and the best epoch's scores: the first
        # improving epochs lie above it and are never handed over
        bar = (improving[0] + improving[-1]) / 2
        zero_mse = mlp.mse(np.zeros_like(valid_y), valid_y)
        monkeypatch.setattr(mlp, "DIVERGENCE_FACTOR", bar / zero_mse)
        within = [v for v in improving if v <= bar]
        assert 2 <= len(within) < len(improving)

        default_model = mlp.init_model(6, seed=2, hidden_sizes=(8,), output_dim=4)
        best, default_history = mlp.train(
            default_model, train_set, (valid_x, valid_y), self.schedule
        )
        model = mlp.init_model(6, seed=2, hidden_sizes=(8,), output_dim=4)
        calls, on_best = self.keep_every_call(model, (valid_x, valid_y))
        kept, own_history = mlp.train(
            model, train_set, (valid_x, valid_y), self.schedule, on_best=on_best
        )
        assert kept is None
        assert own_history == default_history == history
        assert [is_model for is_model, _, _ in calls] == [True] * len(within)
        assert [score for _, score, _ in calls] == within
        # the default keeper holds what the last call was handed
        for default, last in zip(best.weights + best.biases, calls[-1][2]):
            assert default.tobytes() == last.tobytes()

    def test_no_epoch_above_the_bar_is_handed_over(self, monkeypatch):
        monkeypatch.setattr(mlp, "DIVERGENCE_FACTOR", 1e-9)
        train_set, valid_set = linear_task(seed=5)
        model = mlp.init_model(6, seed=2, hidden_sizes=(8,), output_dim=4)
        calls = []
        with pytest.raises(TrainingDiverged, match="predicting zero"):
            mlp.train(model, train_set, valid_set, self.schedule, on_best=calls.append)
        assert calls == []

    def test_a_caller_keeper_allocates_no_snapshot(self, monkeypatch):
        def no_copy(model):
            raise AssertionError("a snapshot of the net was taken")

        monkeypatch.setattr(mlp.MlpModel, "copy", no_copy)
        train_set, valid_set = linear_task(seed=5)
        model = mlp.init_model(6, seed=2, hidden_sizes=(8,), output_dim=4)
        calls = []
        kept, history = mlp.train(model, train_set, valid_set, self.schedule, on_best=calls.append)
        assert kept is None and calls and len(history) > 1


def use_cpus(monkeypatch, n):
    """Make ``mlp`` see ``n`` CPUs in the process's affinity set, and return a
    list that records each product it splits."""
    monkeypatch.setattr(mlp, "_split_cpus", lambda: n)
    splits = []
    pool = mlp._pool
    monkeypatch.setattr(mlp, "_pool", lambda: splits.append(1) or pool())
    return splits


# (rows, inner, columns): paper-net's layer products (1005 inputs, 1024 units,
# 199 outputs, batches of 256 and 240 rows), a product just under, at and just
# above the split threshold, odd column counts, and products too narrow for
# two 64-column panels and just wide enough
SPLIT_SHAPES = [
    (256, 1005, 1024), (256, 1024, 1024), (256, 1024, 199), (240, 1024, 1024),
    (240, 1024, 199), (1005, 256, 1024), (1024, 256, 199), (256, 199, 1024),
    (240, 199, 1024), (256, 512, 255), (256, 512, 256), (256, 512, 257),
    (512, 256, 1001), (300, 700, 333), (512, 1024, 65), (512, 1024, 127),
    (512, 1024, 129),
]


class TestSplitProduct:
    @pytest.mark.parametrize("env, one_thread", [
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "2"}, False),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "x"}, False),
    ])
    def test_cpus_are_the_affinity_set_only_under_one_blas_thread(self, monkeypatch, env, one_thread):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        expect = len(os.sched_getaffinity(0)) if one_thread else 1
        assert mlp._split_cpus() == expect

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    @pytest.mark.parametrize("layout", ["plain", "a transposed", "b transposed"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_plain_product_bit_for_bit(self, monkeypatch, cpus, layout, dtype):
        splits = use_cpus(monkeypatch, cpus)
        rng = np.random.default_rng(cpus)
        for m, k, n in SPLIT_SHAPES:
            a = rng.normal(size=(m, k)).astype(dtype)
            b = rng.normal(size=(k, n)).astype(dtype)
            # a transposed operand is a view of a C-ordered matrix, as h.T
            # and W.T are in the backward pass
            if layout == "a transposed":
                a = np.ascontiguousarray(a.T).T
            elif layout == "b transposed":
                b = np.ascontiguousarray(b.T).T
            assert mlp._matmul(a, b).tobytes() == (a @ b).tobytes(), (m, k, n)
        # float32 products at or above the threshold and two panels wide
        # split; float64 never does
        large = sum(2 * m * k * n >= mlp.SPLIT_MIN_FLOP and n >= 128 for m, k, n in SPLIT_SHAPES)
        assert len(splits) == (large if dtype == np.float32 else 0)

    def test_small_product_and_one_cpu_take_the_plain_path(self, monkeypatch):
        a, b = np.ones((256, 512), np.float32), np.ones((512, 256), np.float32)
        splits = use_cpus(monkeypatch, 1)
        mlp._matmul(a, b[:, :255])
        mlp._matmul(a, b)
        assert splits == []
        splits = use_cpus(monkeypatch, 2)
        mlp._matmul(a, b[:, :255])
        assert splits == []
        mlp._matmul(a, b)
        assert splits == [1]

    def test_blocks_follow_the_callers_error_handling(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        a = np.full((256, 512), 1e30, np.float32)
        with np.errstate(over="ignore"):
            assert np.isposinf(mlp._matmul(a, a.T)).all()
        with pytest.raises(RuntimeWarning, match="overflow"):
            mlp._matmul(a, a.T)

    def test_a_busy_pool_thread_holds_up_no_product(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        release = threading.Event()
        # a pool thread kept busy until the product has returned
        busy = mlp._pool().submit(release.wait, 60)
        rng = np.random.default_rng(5)
        a = rng.normal(size=(256, 512)).astype(np.float32)
        b = rng.normal(size=(512, 1024)).astype(np.float32)
        products = []
        caller = threading.Thread(target=lambda: products.append(mlp._matmul(a, b)))
        caller.start()
        caller.join(60)
        try:
            assert not caller.is_alive() and not busy.done()
            assert products[0].tobytes() == (a @ b).tobytes()
        finally:
            release.set()
        assert busy.result(timeout=60) is True

    def test_more_threads_than_cores_write_every_block_once(self, monkeypatch):
        # eight blocks of 128 columns, threads switched as often as possible
        use_cpus(monkeypatch, 8)
        rng = np.random.default_rng(6)
        a = rng.normal(size=(256, 1024)).astype(np.float32)
        b = rng.normal(size=(1024, 1024)).astype(np.float32)
        expect = (a @ b).tobytes()
        products = []

        def run():
            for _ in range(20):
                products.append(mlp._matmul(a, b).tobytes() == expect)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=run)
            caller.start()
            caller.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert products == [True] * 20

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_training_on_several_cpus_equals_one_cpu_byte_for_byte(self, monkeypatch, cpus):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1.0, 1.0, size=(600, 300))
        y = np.tanh(x[:, :30] @ rng.normal(size=(30, acoustic.target_width())))
        schedule = mlp.TrainingSchedule(
            max_epochs=2, warmup_epochs=1, base_lr=0.01, batch_size=256, seed=1
        )

        def run(n):
            splits = use_cpus(monkeypatch, n)
            model = mlp.init_model(300, seed=2, hidden_sizes=(512, 512), dtype=np.float32)
            best, history = mlp.train(model, (x[:500], y[:500]), (x[500:], y[500:]), schedule)
            return best, history, len(splits)

        one, one_history, one_splits = run(1)
        many, many_history, many_splits = run(cpus)
        # the products of the 512-unit layers split
        assert one_splits == 0 and many_splits > 0
        assert many_history == one_history
        for a, b in zip(one.weights + one.biases, many.weights + many.biases):
            assert a.tobytes() == b.tobytes()


LAZY_POOL_SCRIPT = """
import sys, threading
import numpy as np
import ultratts.cli
from ultratts import mlp
model = mlp.init_model(20, seed=0, hidden_sizes=(64, 64), dtype=np.float32)
mlp.forward(model, np.zeros((256, 20)))
print("concurrent.futures" in sys.modules, "queue" in sys.modules, threading.active_count())
"""


def test_importing_and_a_small_net_start_no_thread():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", LAZY_POOL_SCRIPT], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "1"]


class TestTrainingMemory:
    def test_peak_stays_under_three_nets(self):
        # the net (2.6 MB of float32 weights) dominates everything else that
        # training holds: the snapshot, one layer's gradients and the small batches
        model = mlp.init_model(32, seed=0, hidden_sizes=(512,) * 3, output_dim=199, dtype=np.float32)
        net_bytes = sum(a.nbytes for a in model.weights + model.biases)
        rng = np.random.default_rng(3)
        train_set = (rng.normal(size=(256, 32)).astype(np.float32),
                     rng.normal(size=(256, 199)).astype(np.float32))
        valid_set = (rng.normal(size=(64, 32)).astype(np.float32), rng.normal(size=(64, 199)))
        schedule = mlp.TrainingSchedule(
            max_epochs=4, warmup_epochs=1, base_lr=0.01, batch_size=64, patience=5, seed=1,
        )
        (_, history), peak = traced_peak(mlp.train, model, train_set, valid_set, schedule)
        assert len(history) == schedule.max_epochs
        assert peak < 3 * net_bytes

    def test_step_holds_one_layers_gradients(self):
        # five equal 512-wide layers: the whole net's gradients are 5.3 MB of
        # float32, one layer's 1.05 MB, and the batch's activations 0.33 MB
        width, n_layers, batch = 512, 5, 32
        model = mlp.init_model(
            width, seed=0, hidden_sizes=(width,) * (n_layers - 1), output_dim=width,
            dtype=np.float32,
        )
        rng = np.random.default_rng(4)
        x = rng.normal(size=(batch, width)).astype(np.float32)
        y = rng.normal(size=(batch, width)).astype(np.float32)
        row_bytes = batch * width * 4
        layer_bytes = (width * width + width) * 4
        loss, peak = traced_peak(mlp.backward, model, x, y, mlp.sgd_update(model, 1e-3))
        assert np.isfinite(loss)
        # slack: the residual's square and a delta being formed from the last one
        assert peak < n_layers * row_bytes + layer_bytes + 2 * row_bytes

    def test_best_is_a_separate_copy_of_the_best_epoch(self, monkeypatch):
        # validation targets that oppose the training mapping get worse as the
        # net learns, so the best epoch is an early one and the net moves on
        train_set, (valid_x, valid_y) = linear_task(seed=3)
        train_set = tuple(a.astype(np.float32) for a in train_set)
        valid_set = (valid_x.astype(np.float32), -valid_y)
        given = [a.copy() for a in train_set + valid_set]
        at_validation = []
        forward = mlp.forward

        def recording_forward(model, batch):
            at_validation.append([a.copy() for a in model.weights + model.biases])
            return forward(model, batch)

        monkeypatch.setattr(mlp, "forward", recording_forward)
        model = mlp.init_model(6, seed=2, hidden_sizes=(8,), output_dim=4, dtype=np.float32)
        schedule = mlp.TrainingSchedule(
            max_epochs=6, warmup_epochs=1, base_lr=0.1, batch_size=64, patience=10, seed=4,
        )
        best, history = mlp.train(model, train_set, valid_set, schedule)
        best_epoch = min(history, key=lambda h: h.valid_mse).epoch
        assert best_epoch < history[-1].epoch
        trained = model.weights + model.biases
        for kept, seen, final in zip(best.weights + best.biases, at_validation[best_epoch - 1], trained):
            assert not np.shares_memory(kept, final)
            assert kept.tobytes() == seen.tobytes()
            assert kept.tobytes() != final.tobytes()
        for after, before in zip(train_set + valid_set, given):
            assert after.tobytes() == before.tobytes()


class TestPredictUtterance:
    def make_stats(self, seed=0):
        rng = np.random.default_rng(seed)
        targets = rng.normal(size=(300, acoustic.target_width()))
        targets[:, -1] = (rng.random(300) > 0.4).astype(float)
        return acoustic.fit_normalization(targets, "meanvar")

    def test_zero_network_predicts_training_mean(self):
        stats = self.make_stats()
        model = mlp.init_model(6, seed=0, hidden_sizes=(4,), output_dim=199)
        for w in model.weights:
            w[:] = 0.0
        by_variant = mlp.predict_utterance(model, np.zeros((3, 6)), stats)
        streams = by_variant["static"]
        cols = acoustic.split_target_columns()
        mean = stats.a
        assert np.allclose(streams.mgc, mean[cols["mgc"]][:60], atol=1e-9)
        assert np.allclose(streams.bap, mean[cols["bap"]][:5], atol=1e-9)

    def test_vuv_threshold(self):
        stats = self.make_stats(seed=1)
        model = mlp.init_model(2, seed=0, hidden_sizes=(3,), output_dim=199)
        for w in model.weights:
            w[:] = 0.0
        for target_vuv, expect in ((0.49, 0.0), (0.51, 1.0)):
            # bias the output layer so the denormalized vuv lands at target_vuv
            model.biases[-1][-1] = (target_vuv - stats.a[-1]) / (
                stats.b[-1] if stats.b[-1] > 0 else 1.0
            )
            for streams in mlp.predict_utterance(model, np.zeros((2, 2)), stats).values():
                vuv = streams.voiced
                assert np.all(vuv == expect)

    def test_static_variant_matches_hand_composition(self):
        rng = np.random.default_rng(3)
        stats = self.make_stats(seed=2)
        model = mlp.init_model(5, seed=9, hidden_sizes=(7,), output_dim=199)
        x = rng.normal(size=(3, 5))
        by_variant = mlp.predict_utterance(model, x, stats)
        streams = by_variant["static"]
        vuv = streams.voiced
        denorm = acoustic.invert_normalization(stats, mlp.forward(model, x))
        cols = acoustic.split_target_columns()
        assert np.allclose(streams.mgc, denorm[:, cols["mgc"]][:, :60], atol=1e-8)
        assert np.allclose(streams.bap, denorm[:, cols["bap"]][:, :5], atol=1e-8)
        expected_vuv = (denorm[:, -1] > 0.5).astype(float)
        assert np.array_equal(vuv, expected_vuv)
        voiced = vuv > 0
        assert np.allclose(
            streams.lf0[voiced], denorm[voiced][:, cols["lf0"]][:, 0], atol=1e-8
        )
        assert np.all(streams.lf0[~voiced] == acoustic.UNVOICED_LF0)

    def test_mlpg_variant_matches_blockwise_mlpg(self):
        rng = np.random.default_rng(4)
        stats = self.make_stats(seed=3)
        model = mlp.init_model(5, seed=10, hidden_sizes=(7,), output_dim=199)
        x = rng.normal(size=(4, 5))
        by_variant = mlp.predict_utterance(model, x, stats)
        assert tuple(by_variant) == mlp.VARIANTS
        streams = by_variant["mlpg"]
        denorm = acoustic.invert_normalization(stats, mlp.forward(model, x))
        vuv = denorm[:, -1] > 0.5
        cols = acoustic.split_target_columns()
        variances = np.where(stats.b > 0, stats.b**2, 1.0)
        expect = acoustic.mlpg(denorm[:, cols["mgc"]], variances[cols["mgc"]])
        assert np.allclose(streams.mgc, expect, atol=1e-10)
        expect = acoustic.mlpg(denorm[:, cols["bap"]], variances[cols["bap"]])
        assert np.allclose(streams.bap, expect, atol=1e-10)
        lf0 = acoustic.mlpg(denorm[:, cols["lf0"]], variances[cols["lf0"]]).ravel()
        assert np.array_equal(streams.lf0, np.where(vuv > 0, lf0, acoustic.UNVOICED_LF0))

    def test_wrong_stats_kind_rejected(self):
        minmax = acoustic.fit_normalization(np.random.default_rng(0).random((10, 199)), "minmax")
        model = mlp.init_model(2, seed=0, hidden_sizes=(3,), output_dim=199)
        with pytest.raises(ArgumentError):
            mlp.predict_utterance(model, np.zeros((1, 2)), minmax)


def _fitted_stats(model, seed=5):
    rng = np.random.default_rng(seed)
    return (
        acoustic.fit_normalization(rng.normal(size=(20, model.input_dim)), "minmax"),
        acoustic.fit_normalization(rng.normal(size=(20, model.output_dim)), "meanvar"),
    )


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        for dtype in (np.float32, np.float64):
            model = mlp.init_model(9, seed=12, hidden_sizes=(5, 4), output_dim=3, dtype=dtype)
            in_stats, out_stats = _fitted_stats(model)
            path = tmp_path / "model.bin"
            mlp.save_checkpoint(model, in_stats, out_stats, path)
            loaded, loaded_in, loaded_out = mlp.load_checkpoint(path)
            assert loaded.layer_sizes == model.layer_sizes
            for a, b in zip(loaded.weights + loaded.biases, model.weights + model.biases):
                assert a.dtype == dtype
                assert a.tobytes() == b.tobytes()
            for loaded_stats, stats in ((loaded_in, in_stats), (loaded_out, out_stats)):
                assert loaded_stats.kind == stats.kind
                assert loaded_stats.a.dtype == np.float64
                assert loaded_stats.a.tobytes() == stats.a.tobytes()
                assert loaded_stats.b.tobytes() == stats.b.tobytes()

    def test_file_holds_the_net_at_its_own_width(self, tmp_path):
        model = mlp.init_model(9, seed=12, hidden_sizes=(5,), output_dim=3, dtype=np.float32)
        path = tmp_path / "model.bin"
        in_stats, out_stats = _fitted_stats(model)
        mlp.save_checkpoint(model, in_stats, out_stats, path)
        records = _records(path.read_bytes())
        assert [(r.dtype, r.shape) for r in records] == [
            (np.int64, (3,)),
            (np.float32, (9, 5)), (np.float32, (5,)), (np.float32, (5, 3)), (np.float32, (3,)),
            (np.float64, (9,)), (np.float64, (9,)), (np.float64, (3,)), (np.float64, (3,)),
        ]
        assert records[0].tolist() == [9, 5, 3]
        for a, b in zip(records[1:], [model.weights[0], model.biases[0], model.weights[1],
                                      model.biases[1], in_stats.a, in_stats.b, out_stats.a,
                                      out_stats.b]):
            assert a.tobytes() == b.tobytes()
        # each record is its data after one 128-byte header
        n_net = 9 * 5 + 5 + 5 * 3 + 3
        n_stats = 2 * 9 + 2 * 3
        assert path.stat().st_size == 128 * 9 + 8 * 3 + 4 * n_net + 8 * n_stats

    def test_save_rejects_a_net_of_another_width(self, tmp_path):
        model = mlp.init_model(4, seed=0, hidden_sizes=(3,), output_dim=2, dtype=np.float16)
        with pytest.raises(ArgumentError, match="float16"):
            mlp.save_checkpoint(model, *_fitted_stats(model), tmp_path / "model.bin")

    def test_save_rejects_swapped_kinds(self, tmp_path):
        model = mlp.init_model(4, seed=0, hidden_sizes=(3,), output_dim=4)
        in_stats, out_stats = _fitted_stats(model)
        with pytest.raises(ArgumentError):
            mlp.save_checkpoint(model, out_stats, in_stats, tmp_path / "model.bin")

    @pytest.mark.parametrize("role", ["input", "output"])
    def test_save_rejects_mismatched_widths(self, tmp_path, role):
        model = mlp.init_model(4, seed=0, hidden_sizes=(3,), output_dim=2)
        in_stats, out_stats = _fitted_stats(model)
        wrong = _fitted_stats(mlp.init_model(5, seed=0, hidden_sizes=(3,), output_dim=3))
        stats = (wrong[0], out_stats) if role == "input" else (in_stats, wrong[1])
        with pytest.raises(ArgumentError):
            mlp.save_checkpoint(model, *stats, tmp_path / "model.bin")

    def test_version_1_checkpoint_is_format_error(self, tmp_path):
        # the earlier hand-rolled MLPC checkpoints: versions 1 and 2 held the
        # net in float64 without a width field, version 3 added it
        path = tmp_path / "model.bin"
        for version in (1, 2, 3):
            path.write_bytes(_mlpc_bytes(tmp_path, version))
            with pytest.raises(FormatError, match="model.bin"):
                mlp.load_checkpoint(path)


class TestCheckpointMemory:
    def saved(self, tmp_path):
        model = mlp.init_model(64, seed=3, hidden_sizes=(256, 256), output_dim=199, dtype=np.float32)
        path = tmp_path / "model.bin"
        mlp.save_checkpoint(model, *_fitted_stats(model), path)
        return model, path

    def test_load_reads_one_writable_copy(self, tmp_path):
        model, path = self.saved(tmp_path)
        (loaded, in_stats, out_stats), peak = traced_peak(mlp.load_checkpoint, path)
        assert peak <= 1.25 * path.stat().st_size
        arrays = loaded.weights + loaded.biases + [in_stats.a, in_stats.b, out_stats.a, out_stats.b]
        assert all(a.flags.writeable for a in arrays)
        for a, b in zip(loaded.weights + loaded.biases, model.weights + model.biases):
            assert a.tobytes() == b.tobytes()

    def test_oversized_layer_is_rejected_before_allocating(self, tmp_path):
        _, path = self.saved(tmp_path)
        data = path.read_bytes()
        # the middle layer's weights declare 2^40 outputs
        path.write_bytes(with_declared_shape(data, (256, 256), (256, 1 << 40)))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="declares"):
                mlp.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(data) / 10

    def test_header_declaring_more_sizes_than_the_file_holds(self, tmp_path):
        _, path = self.saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(with_declared_shape(data, (4,), (1 << 60,)))
        with pytest.raises(FormatError, match="declares"):
            mlp.load_checkpoint(path)


def _checkpoint_bytes(tmp_path):
    path = tmp_path / "model.bin"
    model = mlp.init_model(9, seed=12, hidden_sizes=(5,), output_dim=3)
    mlp.save_checkpoint(model, *_fitted_stats(model), path)
    return path.read_bytes()


def _records(data: bytes) -> list[np.ndarray]:
    """The ``.npy`` records of ``data``, read by numpy's own reader."""
    buffer = io.BytesIO(data)
    records = []
    while buffer.tell() < len(data):
        records.append(np.lib.format.read_array(buffer, allow_pickle=False))
    return records


def _npy(*arrays) -> bytes:
    """The arrays as ``.npy`` records, written by numpy's own writer."""
    buffer = io.BytesIO()
    for a in arrays:
        np.lib.format.write_array(buffer, a, allow_pickle=False)
    return buffer.getvalue()


def _mlpc_bytes(tmp_path, version):
    """A 9-5-3 float64 net and its stats in the hand-rolled MLPC layout: the
    magic, version, float width and layer count, then the layer sizes, the
    net and the stats."""
    sizes, *arrays = _records(_checkpoint_bytes(tmp_path))
    header = struct.pack("<4sIIQ", b"MLPC", version, 8, sizes.size)
    return header + struct.pack("<3Q", *sizes) + b"".join(a.tobytes() for a in arrays)


def _edited(data, edit):
    """The checkpoint ``data`` with its records passed through ``edit``."""
    return _npy(*edit(_records(data)))


# The first record, the 3 layer sizes, is a 128-byte header and 24 bytes of
# data: 3 bytes cut inside its magic, 20 and 40 inside its header.
@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: d[:3],
        lambda d: d[:20],
        lambda d: d[:40],
        lambda d: d[:140],
        lambda d: d[:-3],
        lambda d: d + b"x",
        lambda d: d + d[:152],
        lambda d: _edited(d, lambda r: [r[0][:0], *r[1:]]),
        lambda d: _edited(d, lambda r: [r[0][:1], *r[1:]]),
        lambda d: _edited(d, lambda r: [np.array([9, 0, 3]), *r[1:]]),
        lambda d: _edited(d, lambda r: [r[0].astype(np.float64), *r[1:]]),
        lambda d: _edited(d, lambda r: [r[0], *(a.astype(np.float16) for a in r[1:5]), *r[5:]]),
        lambda d: _edited(d, lambda r: [r[0], r[1].astype(np.float32), *r[2:]]),
        lambda d: _edited(d, lambda r: [*r[:5], *(a.astype(np.float32) for a in r[5:])]),
        lambda d: _edited(d, lambda r: [r[0], r[1].T.copy(), *r[2:]]),
        lambda d: _edited(d, lambda r: r[:-1]),
        lambda d: _edited(d, lambda r: [*r, r[-1]]),
    ],
    ids=["ckpt-3-bytes", "ckpt-20-bytes", "ckpt-40-bytes", "ckpt-inside-sizes", "ckpt-3-short",
         "ckpt-1-long", "ckpt-extra-sizes", "ckpt-0-layers", "ckpt-1-layer", "ckpt-zero-width",
         "ckpt-float-sizes", "ckpt-width-2", "ckpt-mixed-width", "ckpt-float32-stats",
         "ckpt-transposed-weights", "ckpt-missing-stat", "ckpt-extra-stat"],
)
def test_truncated_or_corrupt_train_artefact_is_format_error(tmp_path, corrupt):
    path = tmp_path / "corrupt.bin"
    path.write_bytes(corrupt(_checkpoint_bytes(tmp_path)))
    with pytest.raises(FormatError, match="corrupt.bin"):
        mlp.load_checkpoint(path)
