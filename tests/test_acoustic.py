import math

import numpy as np
import pytest

from ultratts import acoustic
from ultratts.errors import ArgumentError, DataError, FormatError


class TestLoadStream:
    def test_480_bytes_width_60(self):
        m = acoustic.load_stream(bytes(480), 60)
        assert m.shape == (2, 60)

    def test_482_bytes_rejected(self):
        with pytest.raises(FormatError):
            acoustic.load_stream(bytes(482), 60)

    def test_save_load_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(7, 5)).astype(np.float32)
        path = tmp_path / "x.mgc"
        acoustic.save_stream(data, path)
        again = acoustic.load_stream(path.read_bytes(), 5)
        assert again.tobytes() == data.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39, -1e39])
    def test_save_refuses_values_float32_cannot_hold(self, tmp_path, bad):
        path = tmp_path / "x.mgc"
        with pytest.raises(DataError):
            acoustic.save_stream(np.array([[0.5, bad]]), path)
        assert not path.exists()

    def test_save_keeps_unvoiced_sentinel(self, tmp_path):
        lf0 = np.array([[acoustic.UNVOICED_LF0], [4.6]])
        path = tmp_path / "x.lf0"
        acoustic.save_stream(lf0, path)
        again = acoustic.load_stream(path.read_bytes(), 1)
        assert again.tobytes() == lf0.astype("<f4").tobytes()
        assert again[0, 0] < acoustic.VOICED_THRESHOLD


class TestInterpolateLf0:
    def test_all_voiced_unchanged(self):
        lf0 = np.log([100.0, 120.0, 140.0])
        cont, vuv = acoustic.interpolate_lf0(lf0)
        assert np.array_equal(cont, lf0)
        assert np.array_equal(vuv, np.ones(3))

    def test_gap_midpoint(self):
        lf0 = np.array([math.log(100), acoustic.UNVOICED_LF0, math.log(200)])
        cont, vuv = acoustic.interpolate_lf0(lf0)
        assert cont[1] == pytest.approx((math.log(100) + math.log(200)) / 2)
        assert np.array_equal(vuv, [1.0, 0.0, 1.0])

    def test_edges_take_nearest_voiced(self):
        u = acoustic.UNVOICED_LF0
        lf0 = np.array([u, u, 4.0, u, 5.0, u])
        cont, vuv = acoustic.interpolate_lf0(lf0)
        assert cont[0] == cont[1] == 4.0
        assert cont[5] == 5.0
        assert np.array_equal(vuv, [0, 0, 1, 0, 1, 0])

    def test_voiced_frames_pass_through_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 60))
            lf0 = rng.uniform(3.5, 6.0, n)
            mask = rng.random(n) < 0.4
            lf0[mask] = acoustic.UNVOICED_LF0
            cont, vuv = acoustic.interpolate_lf0(lf0)
            voiced = ~mask
            assert np.array_equal(cont[voiced], lf0[voiced])
            assert np.array_equal(vuv, voiced.astype(float))

    def test_all_unvoiced_filled_with_default(self):
        cont, vuv = acoustic.interpolate_lf0(np.full(4, acoustic.UNVOICED_LF0))
        assert np.allclose(cont, math.log(100.0))
        assert not vuv.any()

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            acoustic.interpolate_lf0(np.zeros(0))


class TestComputeDeltas:
    def test_constant_column_zero_dynamics(self):
        out = acoustic.compute_deltas(np.full((6, 2), 3.3))
        assert np.array_equal(out[:, 2:], np.zeros((6, 4)))

    def test_ramp_interior_values(self):
        out = acoustic.compute_deltas(np.arange(6.0)[:, None])
        assert np.array_equal(out[1:-1, 1], np.ones(4))  # delta
        assert np.array_equal(out[1:-1, 2], np.zeros(4))  # delta-delta
        assert out[0, 1] == out[-1, 1] == 0.5  # replicated boundary

    def test_length_one_degenerates_to_zero(self):
        out = acoustic.compute_deltas(np.array([[7.0]]))
        assert np.array_equal(out, [[7.0, 0.0, 0.0]])

    def test_reversal_flips_interior_delta_sign(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 3))
        fwd = acoustic.compute_deltas(x)
        rev = acoustic.compute_deltas(x[::-1])
        assert np.allclose(rev[1:-1, 3:6], -fwd[::-1][1:-1, 3:6])
        assert np.allclose(rev[1:-1, 6:9], fwd[::-1][1:-1, 6:9])


class TestNormalization:
    def test_minmax_maps_to_declared_range(self):
        data = np.array([[0.0], [10.0]])
        stats = acoustic.fit_normalization(data, "minmax")
        out = acoustic.apply_normalization(stats, data)
        assert np.allclose(out, [[0.01], [0.99]])

    def test_meanvar_standardizes(self):
        rng = np.random.default_rng(3)
        data = rng.normal(5.0, 2.0, size=(4000, 3))
        stats = acoustic.fit_normalization(data, "meanvar")
        out = acoustic.apply_normalization(stats, data)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_conventions(self):
        data = np.full((5, 1), 2.5)
        minmax = acoustic.fit_normalization(data, "minmax")
        assert np.all(acoustic.apply_normalization(minmax, data) == 0.5)
        assert np.all(acoustic.invert_normalization(minmax, np.full((5, 1), 0.5)) == 2.5)
        meanvar = acoustic.fit_normalization(data, "meanvar")
        assert np.all(acoustic.apply_normalization(meanvar, data) == 0.0)
        assert np.all(acoustic.invert_normalization(meanvar, np.zeros((5, 1))) == 2.5)

    @pytest.mark.parametrize("kind", ["minmax", "meanvar"])
    def test_invert_apply_identity(self, kind):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(50, 6)) * rng.uniform(0.5, 8.0, 6)
        stats = acoustic.fit_normalization(data, kind)
        back = acoustic.invert_normalization(stats, acoustic.apply_normalization(stats, data))
        assert np.allclose(back, data, atol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            acoustic.fit_normalization(np.zeros((0, 3)), "minmax")


def dense_windows(n):
    """Dense delta and delta-delta operators, boundary frames replicated."""
    w_d = np.zeros((n, n))
    w_dd = np.zeros((n, n))
    for t in range(n):
        lo, hi = max(t - 1, 0), min(t + 1, n - 1)
        w_d[t, lo] += -0.5
        w_d[t, hi] += 0.5
        w_dd[t, lo] += 1.0
        w_dd[t, t] += -2.0
        w_dd[t, hi] += 1.0
    return w_d, w_dd


def dense_mlpg(means, variances):
    """Dense normal-equation solve used as oracle."""
    n, total = means.shape
    width = total // 3
    windows = [np.eye(n), *dense_windows(n)]
    out = np.empty((n, width))
    for d in range(width):
        a = sum(1.0 / variances[s * width + d] * w.T @ w for s, w in enumerate(windows))
        b = sum(
            1.0 / variances[s * width + d] * w.T @ means[:, s * width + d]
            for s, w in enumerate(windows)
        )
        out[:, d] = np.linalg.solve(a, b)
    return out


class TestMlpg:
    def test_consistent_observations_reproduced(self):
        means = np.zeros((5, 3))
        means[:, 0] = 4.2
        out = acoustic.mlpg(means, np.ones(3))
        assert np.allclose(out, 4.2, atol=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 50])
    def test_matches_dense_oracle(self, n):
        rng = np.random.default_rng(n)
        width = 4
        means = rng.normal(size=(n, 3 * width))
        variances = rng.uniform(0.2, 3.0, 3 * width)
        out = acoustic.mlpg(means, variances)
        assert np.abs(out - dense_mlpg(means, variances)).max() < 1e-8

    def test_uniform_variance_scaling_invariant(self):
        rng = np.random.default_rng(6)
        means = rng.normal(size=(9, 6))
        variances = rng.uniform(0.5, 2.0, 6)
        a = acoustic.mlpg(means, variances)
        b = acoustic.mlpg(means, variances * 10.0)
        assert np.allclose(a, b, atol=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33])
    def test_normal_matrix_is_positive_definite(self, n):
        rng = np.random.default_rng(n + 100)
        variances = rng.uniform(0.2, 3.0, 3)
        w_d, w_dd = dense_windows(n)
        a = (
            np.eye(n) / variances[0]
            + w_d.T @ w_d / variances[1]
            + w_dd.T @ w_dd / variances[2]
        )
        np.linalg.cholesky(a)  # raises LinAlgError if not SPD

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ArgumentError):
            acoustic.mlpg(np.zeros((4, 3)), np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ArgumentError):
            acoustic.mlpg(np.zeros((4, 4)), np.ones(4))


class TestTargets:
    def test_width_and_vuv(self):
        rng = np.random.default_rng(7)
        n = 12
        lf0 = rng.uniform(4.0, 5.0, n)
        lf0[::3] = acoustic.UNVOICED_LF0
        streams = acoustic.AcousticStreams(
            mgc=rng.normal(size=(n, 60)), bap=rng.normal(size=(n, 5)), lf0=lf0
        )
        targets, vuv = acoustic.build_targets(streams)
        assert targets.shape == (n, 199)
        assert acoustic.target_width() == 199
        assert set(np.unique(targets[:, -1])) <= {0.0, 1.0}
        assert np.array_equal(targets[:, -1], vuv)

    def test_layout_slices_cover_everything(self):
        cols = acoustic.split_target_columns()
        covered = sorted(
            i for s in cols.values() for i in range(s.start, s.stop)
        )
        assert covered == list(range(199))

    def test_mismatched_stream_lengths_rejected(self):
        with pytest.raises(ArgumentError):
            acoustic.AcousticStreams(
                mgc=np.zeros((3, 60)), bap=np.zeros((2, 5)), lf0=np.zeros(3)
            )
