import struct

import numpy as np
import pytest

from ultratts import acoustic, mlp
from ultratts.errors import ArgumentError, DataError, FormatError, TrainingDiverged


def finite_difference_check(model, x, y, eps=1e-5):
    """Worst guarded relative error between backprop and central differences."""
    grads_w, grads_b, _ = mlp.backward(model, x, y)
    worst = 0.0
    for arrays, grads in ((model.weights, grads_w), (model.biases, grads_b)):
        for arr, grad in zip(arrays, grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                orig = arr[i]
                arr[i] = orig + eps
                plus = mlp.backward(model, x, y)[2]
                arr[i] = orig - eps
                minus = mlp.backward(model, x, y)[2]
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
        grads_w, grads_b, value = mlp.backward(model, x, y)
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
        gw1, gb1, _ = mlp.backward(model, x, y)
        gw2, gb2, _ = mlp.backward(model, np.vstack([x, x]), np.vstack([y, y]))
        for a, b in zip(gw1 + gb1, gw2 + gb2):
            assert np.allclose(a, b, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        model = mlp.init_model(4, seed=0, hidden_sizes=(6,), output_dim=2)
        with pytest.raises(ArgumentError):
            mlp.backward(model, np.zeros((3, 4)), np.zeros((3, 5)))


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
        train_set, valid_set = linear_task(seed=7)
        schedule = mlp.TrainingSchedule(
            max_epochs=10, warmup_epochs=2, base_lr=1e6, decay=1.0,
            batch_size=64, patience=3, seed=0,
        )
        model = mlp.init_model(6, seed=3, hidden_sizes=(8,), output_dim=4)
        with pytest.raises(TrainingDiverged):
            mlp.train(model, train_set, valid_set, schedule)

    def test_empty_sets_rejected(self):
        model = mlp.init_model(6, seed=0, hidden_sizes=(8,), output_dim=4)
        empty = (np.zeros((0, 6)), np.zeros((0, 4)))
        full = (np.zeros((4, 6)), np.zeros((4, 4)))
        with pytest.raises(DataError):
            mlp.train(model, empty, full, self.schedule)
        with pytest.raises(DataError):
            mlp.train(model, full, empty, self.schedule)


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
        by_variant, vuv = mlp.predict_utterance(model, np.zeros((3, 6)), stats)
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
            _, vuv = mlp.predict_utterance(model, np.zeros((2, 2)), stats)
            assert np.all(vuv == expect)

    def test_static_variant_matches_hand_composition(self):
        rng = np.random.default_rng(3)
        stats = self.make_stats(seed=2)
        model = mlp.init_model(5, seed=9, hidden_sizes=(7,), output_dim=199)
        x = rng.normal(size=(3, 5))
        by_variant, vuv = mlp.predict_utterance(model, x, stats)
        streams = by_variant["static"]
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
        by_variant, vuv = mlp.predict_utterance(model, x, stats)
        assert tuple(by_variant) == mlp.VARIANTS
        streams = by_variant["mlpg"]
        denorm = acoustic.invert_normalization(stats, mlp.forward(model, x))
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
        model = mlp.init_model(9, seed=12, hidden_sizes=(5, 4), output_dim=3)
        in_stats, out_stats = _fitted_stats(model)
        path = tmp_path / "model.bin"
        mlp.save_checkpoint(model, in_stats, out_stats, path)
        loaded, loaded_in, loaded_out = mlp.load_checkpoint(path)
        assert loaded.layer_sizes == model.layer_sizes
        for a, b in zip(loaded.weights + loaded.biases, model.weights + model.biases):
            assert a.tobytes() == b.tobytes()
        for loaded_stats, stats in ((loaded_in, in_stats), (loaded_out, out_stats)):
            assert loaded_stats.kind == stats.kind
            assert loaded_stats.a.tobytes() == stats.a.tobytes()
            assert loaded_stats.b.tobytes() == stats.b.tobytes()

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
        path = tmp_path / "model.bin"
        path.write_bytes(_with_version(_checkpoint_bytes(tmp_path), 1))
        with pytest.raises(FormatError):
            mlp.load_checkpoint(path)


def _checkpoint_bytes(tmp_path):
    path = tmp_path / "model.bin"
    model = mlp.init_model(9, seed=12, hidden_sizes=(5,), output_dim=3)
    mlp.save_checkpoint(model, *_fitted_stats(model), path)
    return path.read_bytes()


def _with_version(data, version):
    # the 4-byte version follows the 4-byte magic
    return data[:4] + struct.pack("<I", version) + data[8:]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: d[:3],
        lambda d: d[:20],
        lambda d: d[:40],
        lambda d: d[:-3],
        lambda d: d + b"x",
        lambda d: d[:8] + struct.pack("<Q", 0) + d[16:],
    ],
    ids=["ckpt-3-bytes", "ckpt-20-bytes", "ckpt-40-bytes", "ckpt-3-short", "ckpt-1-long",
         "ckpt-0-layers"],
)
def test_truncated_or_corrupt_train_artefact_is_format_error(tmp_path, corrupt):
    path = tmp_path / "corrupt.bin"
    path.write_bytes(corrupt(_checkpoint_bytes(tmp_path)))
    with pytest.raises(FormatError):
        mlp.load_checkpoint(path)
