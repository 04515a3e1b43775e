import ast
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ultratts
from test_arrayfile import traced_peak
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

    def test_save_streams_read_streams_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        lf0 = np.where(rng.random(9) < 0.3, acoustic.UNVOICED_LF0, rng.normal(4.7, 0.2, 9))
        streams = acoustic.AcousticStreams(
            mgc=rng.normal(size=(9, acoustic.MGC_DIM)),
            bap=rng.normal(size=(9, acoustic.BAP_DIM)),
            lf0=lf0,
        )
        acoustic.save_streams(streams, tmp_path, "u1")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["u1.bap", "u1.lf0", "u1.mgc"]
        back = acoustic.read_streams(tmp_path, "u1")
        for name in ("mgc", "bap", "lf0"):
            expect = getattr(streams, name).astype(np.float32).astype(np.float64)
            assert getattr(back, name).tobytes() == expect.tobytes(), name
        assert acoustic.frame_count(tmp_path, "u1") == 9
        assert np.array_equal(back.voiced, streams.voiced)


class TestVoicing:
    def test_voiced_only_above_threshold(self):
        t = acoustic.VOICED_THRESHOLD
        lf0 = np.array([acoustic.UNVOICED_LF0, t, np.nextafter(t, 0.0), math.log(100.0)])
        streams = acoustic.AcousticStreams(mgc=np.zeros((4, 0)), bap=np.zeros((4, 0)), lf0=lf0)
        assert streams.voiced.tolist() == [False, False, True, True]
        assert np.array_equal(acoustic.interpolate_lf0(lf0)[1], streams.voiced)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_dynamics_apply_the_mlpg_window_operators(self, n):
        # the targets and the dense MLPG oracle share one pair of windows
        x = np.random.default_rng(n + 200).normal(size=(n, 3))
        w_d, w_dd = dense_windows(n)
        out = acoustic.compute_deltas(x)
        assert np.array_equal(out[:, :3], x)
        assert np.allclose(out[:, 3:6], w_d @ x, rtol=0, atol=1e-12)
        assert np.allclose(out[:, 6:], w_dd @ x, rtol=0, atol=1e-12)


class TestNormalization:
    def test_minmax_maps_to_declared_range(self):
        data = np.array([[0.0], [10.0]])
        stats = acoustic.fit_normalization(data, "minmax")
        out = acoustic.normalize_in_place(stats, data.copy())
        assert np.allclose(out, [[0.01], [0.99]])

    def test_meanvar_standardizes(self):
        rng = np.random.default_rng(3)
        data = rng.normal(5.0, 2.0, size=(4000, 3))
        stats = acoustic.fit_normalization(data, "meanvar")
        out = acoustic.normalize_in_place(stats, data.copy())
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_conventions(self):
        data = np.full((5, 1), 2.5)
        minmax = acoustic.fit_normalization(data, "minmax")
        assert np.all(acoustic.normalize_in_place(minmax, data.copy()) == 0.5)
        meanvar = acoustic.fit_normalization(data, "meanvar")
        assert np.all(acoustic.normalize_in_place(meanvar, data.copy()) == 0.0)
        assert np.all(acoustic.invert_normalization(meanvar, np.zeros((5, 1))) == 2.5)

    def test_invert_apply_identity(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(50, 6)) * rng.uniform(0.5, 8.0, 6)
        stats = acoustic.fit_normalization(data, "meanvar")
        back = acoustic.invert_normalization(stats, acoustic.normalize_in_place(stats, data.copy()))
        assert np.allclose(back, data, atol=1e-6)

    def test_invert_rejects_minmax_stats(self):
        stats = acoustic.fit_normalization(np.array([[0.0], [2.0]]), "minmax")
        with pytest.raises(ArgumentError, match="mean-variance"):
            acoustic.invert_normalization(stats, np.full((3, 1), 0.5))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            acoustic.fit_normalization(np.zeros((0, 3)), "minmax")

    @pytest.mark.parametrize(
        "shape, order",
        [((1, 5), "C"), ((7, 3), "C"), ((1000, 199), "C"), ((300, 1), "C"), ((500, 4), "F")],
        ids=["one-row", "small", "many-blocks", "one-column", "fortran"],
    )
    def test_meanvar_equals_numpy_mean_and_std_bytewise(self, shape, order):
        rng = np.random.default_rng(6)
        data = rng.normal(3.0, 40.0, size=shape) + rng.normal(size=shape[1]) * 1e3
        data = np.asarray(data, order=order)
        stats = acoustic.fit_normalization(data, "meanvar")
        assert stats.a.tobytes() == data.mean(axis=0).tobytes()
        assert stats.b.tobytes() == data.std(axis=0).tobytes()

    @pytest.mark.parametrize("kind", ["minmax", "meanvar"])
    def test_in_place_matches_the_formula_bit_for_bit(self, kind):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(40, 6)) * rng.uniform(0.5, 8.0, 6)
        data[:, 2] = 3.0
        stats = acoustic.fit_normalization(data, kind)
        const = stats.constant_columns
        if kind == "minmax":
            lo, hi = acoustic.MINMAX_LO, acoustic.MINMAX_HI
            expect = lo + (hi - lo) * (data - stats.a) / np.where(const, 1.0, stats.b - stats.a)
            expect[:, const] = 0.5
        else:
            expect = (data - stats.a) / np.where(const, 1.0, stats.b)
        copy = data.copy()
        assert acoustic.normalize_in_place(stats, copy) is copy
        assert copy.tobytes() == expect.tobytes()

    def test_in_place_needs_float64(self):
        stats = acoustic.fit_normalization(np.array([[0.0], [2.0]]), "minmax")
        with pytest.raises(ArgumentError, match="float64"):
            acoustic.normalize_in_place(stats, np.array([[1.0]], dtype=np.float32))


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 50, 401])
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_means_rejected(self, bad):
        means = np.zeros((6, 3))
        means[4, 2] = bad
        with pytest.raises(ArgumentError, match="means must be finite"):
            acoustic.mlpg(means, np.ones(3))

    def test_columns_solved_independently(self):
        # a stream's trajectory is the same bits alone or beside other streams
        rng = np.random.default_rng(8)
        widths = (4, 2, 1)
        blocks = [rng.normal(size=(40, 3 * w)) for w in widths]
        variances = [rng.uniform(0.2, 3.0, 3 * w) for w in widths]
        together = acoustic.mlpg(
            np.hstack([b[:, s * w : (s + 1) * w] for s in range(3) for b, w in zip(blocks, widths)]),
            np.concatenate([v[s * w : (s + 1) * w] for s in range(3) for v, w in zip(variances, widths)]),
        )
        alone = np.hstack([acoustic.mlpg(b, v) for b, v in zip(blocks, variances)])
        assert np.array_equal(together, alone)


class TestTargets:
    def test_width_and_vuv(self):
        rng = np.random.default_rng(7)
        n = 12
        lf0 = rng.uniform(4.0, 5.0, n)
        lf0[::3] = acoustic.UNVOICED_LF0
        streams = acoustic.AcousticStreams(
            mgc=rng.normal(size=(n, 60)), bap=rng.normal(size=(n, 5)), lf0=lf0
        )
        targets = acoustic.build_targets(streams)
        vuv = streams.voiced
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


def stacked_targets(cfg, ids):
    """The float64 targets of the utterances in ``cfg.acoustic_dir``, stacked in order."""
    return np.vstack([
        acoustic.build_targets(acoustic.read_streams(cfg.acoustic_dir, u))
        for u in ids
    ])


def write_utterances(directory, frame_counts, seed, edit=None):
    """Random ``.mgc/.bap/.lf0`` files of utterances ``u000``, ``u001``, ...
    with the given frame counts, every fourth frame unvoiced; ``edit(i,
    mgc, bap, lf0)`` may change utterance ``i``'s streams before they are
    written. Returns the ids."""
    rng = np.random.default_rng(seed)
    ids = []
    for i, n in enumerate(frame_counts):
        mgc = rng.normal(size=(n, acoustic.MGC_DIM)) * rng.uniform(0.1, 4.0, acoustic.MGC_DIM)
        bap = rng.uniform(-25.0, 0.0, size=(n, acoustic.BAP_DIM))
        lf0 = rng.uniform(4.0, 5.5, n)
        lf0[::4] = acoustic.UNVOICED_LF0
        if edit is not None:
            edit(i, mgc, bap, lf0)
        ids.append(f"u{i:03d}")
        acoustic.save_streams(acoustic.AcousticStreams(mgc=mgc, bap=bap, lf0=lf0), directory, ids[-1])
    return ids


class TestNormalizedTargets:
    @staticmethod
    def reference(directory, ids, dtype):
        """The float64 target matrix, its mean-variance statistics, and the
        matrix normalised under them and cast to ``dtype``."""
        matrix = stacked_targets(SimpleNamespace(acoustic_dir=directory), ids)
        stats = acoustic.fit_normalization(matrix, "meanvar")
        return matrix.copy(), stats, acoustic.normalize_in_place(stats, matrix).astype(dtype)

    @staticmethod
    def fixture(kind):
        """Frame counts and a stream edit for ``write_utterances``: the second
        utterance has no voiced frame, or is one frame long, or two columns
        are constant in every utterance."""
        if kind == "one-frame":
            return [40, 1, 25], None

        def edit(i, mgc, bap, lf0):
            if kind == "no-voiced-frame" and i == 1:
                lf0[:] = acoustic.UNVOICED_LF0
            elif kind == "constant-column":
                mgc[:, 3] = 1.5
                bap[:, 1] = -3.0

        return [40, 9, 25], edit

    @pytest.mark.parametrize("kind", ["no-voiced-frame", "one-frame", "constant-column"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equal_the_normalised_cast_target_matrix_bytewise(self, tmp_path, kind, dtype):
        counts, edit = self.fixture(kind)
        ids = write_utterances(tmp_path, counts, seed=len(kind), edit=edit)
        matrix, stats, expect = self.reference(tmp_path, ids, dtype)
        got = acoustic.target_stats(tmp_path, ids)
        targets = acoustic.normalized_targets(tmp_path, ids, got, dtype)
        assert (targets.dtype, targets.shape) == (expect.dtype, expect.shape)
        assert targets.tobytes() == expect.tobytes()
        assert got.kind == "meanvar"
        assert got.a.tobytes() == stats.a.tobytes()
        assert got.b.tobytes() == stats.b.tobytes()
        # each fixture reaches the case it names
        second = matrix[counts[0] : counts[0] + counts[1]]
        cols = acoustic.split_target_columns()
        if kind == "no-voiced-frame":
            assert not second[:, cols["vuv"]].any()
            assert np.all(second[:, cols["lf0"].start] == acoustic.ALL_UNVOICED_FILL)
        elif kind == "constant-column":
            mgc, bap = cols["mgc"].start, cols["bap"].start
            constant = [mgc + 3, mgc + 63, mgc + 123, bap + 1, bap + 6, bap + 11]
            assert np.flatnonzero(stats.constant_columns).tolist() == constant
            assert not targets[:, constant].any()
        else:
            assert len(second) == 1

    @staticmethod
    def traced_peaks(call, ids):
        """``tracemalloc`` peaks of ``call(ids[:20])`` and ``call(ids[:40])``,
        each after a warm-up call and with the stream files' names held, and
        the last call's result."""
        peaks = []
        for n in (20, 40):
            call(ids[:n])
            names = [f"{u}.{ext}" for u in ids[:n] for ext in ("mgc", "bap", "lf0")]
            result, peak = traced_peak(call, ids[:n], file_names=names)
            peaks.append(peak)
        return peaks, result

    def test_memory_grows_by_the_output_rows_alone(self, tmp_path):
        # a float64 matrix of the rows and its float32 cast would grow by 3x
        ids = write_utterances(tmp_path, [100] * 40, seed=5)
        stats = acoustic.target_stats(tmp_path, ids)
        peaks, targets = self.traced_peaks(
            lambda some: acoustic.normalized_targets(tmp_path, some, stats, np.float32), ids
        )
        added = targets.nbytes / 2
        assert peaks[1] - peaks[0] <= 1.25 * added

    def test_statistics_memory_does_not_grow_with_the_utterances(self, tmp_path):
        # a stacked float64 matrix of the rows would grow by 20 blocks
        ids = write_utterances(tmp_path, [100] * 40, seed=5)
        peaks, _ = self.traced_peaks(lambda some: acoustic.target_stats(tmp_path, some), ids)
        block = 100 * acoustic.target_width() * np.dtype(np.float64).itemsize
        assert peaks[1] - peaks[0] <= 1.25 * block

    def test_no_module_but_acoustic_builds_targets(self):
        """Every target the package uses comes from ``target_stats`` and
        ``normalized_targets``: no other module calls ``build_targets``."""
        offenders = []
        for source in sorted(Path(ultratts.__file__).parent.glob("*.py")):
            if source.name == "acoustic.py":
                continue
            for node in ast.walk(ast.parse(source.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                    if name == "build_targets":
                        offenders.append(f"{source.name}:{node.lineno}")
        assert offenders == []

    def test_build_targets_fills_a_row_block_of_a_caller_matrix(self):
        rng = np.random.default_rng(8)
        lf0 = rng.uniform(4.0, 5.0, 6)
        lf0[2] = acoustic.UNVOICED_LF0
        streams = acoustic.AcousticStreams(
            mgc=rng.normal(size=(6, 60)), bap=rng.normal(size=(6, 5)), lf0=lf0
        )
        block = np.full((10, 199), np.nan)
        out = acoustic.build_targets(streams, out=block[2:8])
        assert np.shares_memory(out, block)
        assert block[2:8].tobytes() == acoustic.build_targets(streams).tobytes()
        assert np.isnan(block[:2]).all() and np.isnan(block[8:]).all()
        with pytest.raises(ArgumentError, match="target block"):
            acoustic.build_targets(streams, out=block[:5])
        with pytest.raises(ArgumentError, match="target block"):
            acoustic.build_targets(streams, out=np.empty((6, 199), dtype=np.float32))
