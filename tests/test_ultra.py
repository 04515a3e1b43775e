import math
from pathlib import Path

import numpy as np
import pytest

from ultratts import ultra
from ultratts.errors import ArgumentError, DataError, FormatError, MetadataError

PARAM_TEXT = (
    "NumVectors=64\nPixPerVector=842\nFramesPerSec=81.5\nTimeInSecsOfFirstFrame=0.0\n"
)


def small_meta(n_vec=4, pix=6, fps=81.5, offset=0.0):
    return ultra.UltrasoundMetadata(n_vec, pix, fps, offset)


class TestMetadata:
    def test_parses_standard_sidecar(self):
        meta = ultra.parse_metadata(PARAM_TEXT)
        assert meta == ultra.UltrasoundMetadata(64, 842, 81.5, 0.0)

    def test_empty_document_names_missing_key(self):
        with pytest.raises(MetadataError, match="NumVectors missing"):
            ultra.parse_metadata("")

    def test_unparseable_number_reports_line(self):
        text = "NumVectors=64\nPixPerVector=squid\n"
        with pytest.raises(MetadataError, match="line 2"):
            ultra.parse_metadata(text)

    def test_unknown_keys_ignored(self):
        meta = ultra.parse_metadata(PARAM_TEXT + "Kind=Scanline\nZeroOffset=0\n")
        assert meta.num_vectors == 64

    def test_round_trip(self):
        meta = ultra.parse_metadata(PARAM_TEXT)
        assert ultra.parse_metadata(ultra.serialize_metadata(meta)) == meta

    def test_serialized_text_is_pinned(self):
        assert ultra.serialize_metadata(ultra.UltrasoundMetadata(64, 842, 81.5, 0.0)) == PARAM_TEXT
        assert ultra.serialize_metadata(ultra.UltrasoundMetadata(4, 6, 100 / 3, -0.125)) == (
            "NumVectors=4\nPixPerVector=6\nFramesPerSec=33.333333333333336\n"
            "TimeInSecsOfFirstFrame=-0.125\n"
        )

    def test_numpy_scalars_serialize_as_plain_numbers(self):
        meta = ultra.UltrasoundMetadata(np.int64(64), np.int64(842), np.float64(81.5), np.float64(0.0))
        assert ultra.serialize_metadata(meta) == PARAM_TEXT

    def test_invalid_values_rejected(self):
        with pytest.raises(MetadataError):
            ultra.UltrasoundMetadata(0, 842, 81.5, 0.0)
        with pytest.raises(MetadataError):
            ultra.UltrasoundMetadata(64, 842, 0.0, 0.0)
        with pytest.raises(MetadataError):
            ultra.UltrasoundMetadata(64, 842, 81.5, math.nan)

    @pytest.mark.parametrize("rate", ["inf", "nan"])
    def test_non_finite_frame_rate_rejected(self, rate):
        text = PARAM_TEXT.replace("FramesPerSec=81.5", f"FramesPerSec={rate}")
        with pytest.raises(MetadataError, match=f"FramesPerSec must be finite and > 0, got {rate}"):
            ultra.parse_metadata(text)


class TestLoadSequence:
    def test_zero_frames_content(self):
        meta = ultra.UltrasoundMetadata(64, 842, 81.5, 0.0)
        seq = ultra.load_sequence(bytes(2 * 64 * 842), meta)
        assert seq.n_frames == 2
        assert seq.frames.shape == (2, 64, 842)
        assert not seq.frames.any()

    def test_trailing_byte_rejected_with_remainder(self):
        meta = ultra.UltrasoundMetadata(64, 842, 81.5, 0.0)
        with pytest.raises(FormatError, match="remainder=1"):
            ultra.load_sequence(bytes(64 * 842 + 1), meta)

    def test_write_read_round_trip(self):
        rng = np.random.default_rng(0)
        meta = small_meta()
        data = rng.integers(0, 256, size=3 * meta.frame_size, dtype=np.uint8).tobytes()
        assert ultra.load_sequence(data, meta).frames.tobytes() == data


def reference_resize(img, out_rows, out_cols):
    """Direct per-pixel cubic-convolution evaluation (independent oracle)."""

    def kernel(x, a=-0.5):
        x = abs(x)
        if x <= 1.0:
            return (a + 2) * x**3 - (a + 3) * x**2 + 1
        if x < 2.0:
            return a * x**3 - 5 * a * x**2 + 8 * a * x - 4 * a
        return 0.0

    in_rows, in_cols = img.shape
    out = np.zeros((out_rows, out_cols))
    for r in range(out_rows):
        sr = (r + 0.5) * in_rows / out_rows - 0.5
        jr = math.floor(sr)
        tr = sr - jr
        for c in range(out_cols):
            sc = (c + 0.5) * in_cols / out_cols - 0.5
            jc = math.floor(sc)
            tc = sc - jc
            acc = 0.0
            for m in range(4):
                wy = kernel(tr - (m - 1))
                ry = min(max(jr + m - 1, 0), in_rows - 1)
                for k in range(4):
                    wx = kernel(tc - (k - 1))
                    rx = min(max(jc + k - 1, 0), in_cols - 1)
                    acc += wy * wx * img[ry, rx]
            out[r, c] = acc
    return out


def resize_one(img, out_rows, out_cols):
    """``resize_stack`` of a stack of one image."""
    return ultra.resize_stack(img[None], out_rows, out_cols)[0]


class TestResizeBicubic:
    def test_preserves_constants(self):
        out = resize_one(np.full((6, 9), 17.0), 13, 5)
        assert np.allclose(out, 17.0, atol=1e-9)

    def test_identity_dimensions(self):
        img = np.random.default_rng(1).uniform(0, 255, (7, 11))
        assert np.allclose(resize_one(img, 7, 11), img, atol=1e-9)

    def test_ramp_downsize_matches_direct_oracle(self):
        img = np.add.outer(np.arange(8.0), np.arange(8.0))
        out = resize_one(img, 8, 4)
        assert np.allclose(out, reference_resize(img, 8, 4), atol=1e-6)

    @pytest.mark.parametrize("shape_out", [(5, 3), (12, 20), (2, 17)])
    def test_random_images_match_direct_oracle(self, shape_out):
        img = np.random.default_rng(2).uniform(0, 255, (9, 7))
        out = resize_one(img, *shape_out)
        assert np.allclose(out, reference_resize(img, *shape_out), atol=1e-6)

    def test_separable_axis_order(self):
        img = np.random.default_rng(3).uniform(0, 255, (10, 12))
        rows_first = resize_one(resize_one(img, 6, 12), 6, 5)
        cols_first = resize_one(resize_one(img, 10, 5), 6, 5)
        assert np.allclose(rows_first, cols_first, atol=1e-9)

    def test_rejects_degenerate_dims(self):
        img = np.zeros((4, 4))
        with pytest.raises(ArgumentError):
            resize_one(img, 0, 4)
        with pytest.raises(ArgumentError):
            resize_one(np.zeros((1, 5)), 2, 2)


def dense_axis_weights(n_in, n_out):
    """Dense (n_out, n_in) weights of one axis of the cubic resize, border taps
    folded onto the edge sample: the matrix form that the tap table replaced."""
    scale = n_in / n_out
    weights = np.zeros((n_out, n_in))
    for i in range(n_out):
        s = (i + 0.5) * scale - 0.5
        base = math.floor(s)
        t = s - base
        w = ultra._cubic_kernel(np.array([1.0 + t, t, 1.0 - t, 2.0 - t]))
        for tap, wk in zip(np.clip([base - 1, base, base + 1, base + 2], 0, n_in - 1), w):
            weights[i, tap] += wk
    return weights


def dense_resize(img, out_rows, out_cols):
    rows = dense_axis_weights(img.shape[0], out_rows)
    cols = dense_axis_weights(img.shape[1], out_cols)
    return rows @ np.asarray(img, dtype=np.float64) @ cols.T


def uint8_stack(n, rows, cols, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=(n, rows, cols), dtype=np.uint8)


class TestResizeStack:
    # the bench's two geometries: every weight is a short dyadic fraction, so
    # both forms compute exactly and must agree to the bit
    @pytest.mark.parametrize("shape", [(64, 842, 64, 128), (16, 64, 16, 32)])
    def test_bench_geometries_equal_dense_matrix_form_bytewise(self, shape):
        in_rows, in_cols, out_rows, out_cols = shape
        frames = uint8_stack(3, in_rows, in_cols)
        expect = np.stack([dense_resize(f, out_rows, out_cols) for f in frames])
        assert ultra.resize_stack(frames, out_rows, out_cols).tobytes() == expect.tobytes()

    @pytest.mark.parametrize(
        "shape",
        [(9, 7, 5, 3), (9, 7, 12, 20), (10, 13, 4, 4), (2, 2, 5, 7), (2, 2, 1, 1), (3, 40, 2, 9)],
        ids=["down", "up", "mixed", "2x2-up", "2x2-down", "folded-both-ends"],
    )
    def test_other_geometries_match_dense_matrix_form(self, shape):
        in_rows, in_cols, out_rows, out_cols = shape
        for frames in (uint8_stack(4, in_rows, in_cols), uint8_stack(4, in_rows, in_cols, 1) / 7.0):
            expect = np.stack([dense_resize(f, out_rows, out_cols) for f in frames])
            out = ultra.resize_stack(frames, out_rows, out_cols)
            assert out.shape == expect.shape
            assert np.allclose(out, expect, rtol=0, atol=1e-12 * np.abs(expect).max())

    @pytest.mark.parametrize("out_shape", [(5, 6), (5, 3), (8, 6)], ids=["both", "rows", "cols"])
    def test_unscaled_axes_never_hand_back_the_callers_array(self, out_shape):
        frames = uint8_stack(3, 5, 6) / 3.0
        given = frames.copy()
        out = ultra.resize_stack(frames, *out_shape)
        assert not np.shares_memory(out, frames)
        out += 1.0
        assert frames.tobytes() == given.tobytes()

    def test_unscaled_row_pass_keeps_the_column_pass_array(self):
        cols = ultra._resize_axis(uint8_stack(2, 5, 9), 4, axis=2)
        assert ultra._resize_axis(cols, 5, axis=1, copy=False) is cols
        copied = ultra._resize_axis(cols, 5, axis=1)
        assert copied is not cols and copied.tobytes() == cols.tobytes()

    def test_rejects_non_stacks_and_degenerate_dims(self):
        with pytest.raises(ArgumentError):
            ultra.resize_stack(np.zeros((4, 4)), 2, 2)
        with pytest.raises(ArgumentError):
            ultra.resize_stack(np.zeros((3, 1, 5)), 2, 2)
        with pytest.raises(ArgumentError):
            ultra.resize_stack(np.zeros((3, 4, 4)), 2, 0)


class TestResampledResizedFrames:
    def test_distinct_frames_indexed_by_the_target_clock(self):
        meta = ultra.UltrasoundMetadata(16, 64, 81.5, 0.0)
        seq = ultra.UltrasoundSequence(meta, uint8_stack(40, 16, 64))
        frames, index = ultra.resampled_resized_frames(seq, 0.005, 90, 16, 32)
        selected = ultra.resample_to_frame_clock(seq, 0.005, 90)
        assert frames.shape == (np.unique(selected).size, 16 * 32)
        assert frames.shape[0] < 90
        expect = np.stack([dense_resize(seq.frames[i], 16, 32).ravel() for i in selected])
        assert frames[index].tobytes() == expect.tobytes()

    def test_selection_from_metadata_is_the_recordings_own(self):
        meta = ultra.UltrasoundMetadata(16, 64, 81.5, 0.004)
        seq = ultra.UltrasoundSequence(meta, uint8_stack(40, 16, 64))
        unique, index = ultra.frame_clock_selection(meta, 40, 0.005, 90)
        selected = ultra.resample_to_frame_clock(seq, 0.005, 90)
        assert unique.tobytes() == np.unique(selected).tobytes()
        assert unique[index].tobytes() == selected.tobytes()


class TestResampleToFrameClock:
    def make_seq(self, n_frames, fps=81.5, offset=0.0):
        meta = small_meta(fps=fps, offset=offset)
        frames = np.zeros((n_frames, meta.num_vectors, meta.pix_per_vector), np.uint8)
        return ultra.UltrasoundSequence(meta, frames)

    def test_origin_maps_to_zero(self):
        idx = ultra.resample_to_frame_clock(self.make_seq(50), 0.005, 1)
        assert idx[0] == 0

    def test_hand_arithmetic(self):
        # k=20 at 5 ms is t=0.1 s; 0.1 * 81.5 = 8.15 rounds to 8
        idx = ultra.resample_to_frame_clock(self.make_seq(50), 0.005, 21)
        assert idx[20] == 8

    def test_five_ms_realizes_200hz_clock(self):
        seq = self.make_seq(1000)
        idx = ultra.resample_to_frame_clock(seq, 0.005, 400)
        t = np.arange(400) / 200.0  # 200 Hz target clock
        expect = np.floor(t * 81.5 + 0.5).astype(int)
        assert np.array_equal(idx, expect)

    def test_non_decreasing_and_clamped(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            fps = rng.uniform(20, 200)
            offset = -rng.uniform(0, 0.05)
            seq = self.make_seq(int(rng.integers(1, 40)), fps=fps, offset=offset)
            idx = ultra.resample_to_frame_clock(seq, 0.005, 100)
            assert np.all(np.diff(idx) >= 0)
            assert idx.min() >= 0 and idx.max() <= seq.n_frames - 1

    def test_empty_sequence_rejected(self):
        with pytest.raises(DataError):
            ultra.resample_to_frame_clock(self.make_seq(0), 0.005, 3)


class TestDiscovery:
    def test_lexicographic_order(self, tmp_path):
        for name in ("b01", "a02", "a01"):
            (tmp_path / f"{name}.ult").write_bytes(b"")
        assert ultra.discover_utterances(tmp_path) == ["a01", "a02", "b01"]

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(DataError):
            ultra.discover_utterances(tmp_path)

    def test_frame_count_comes_from_the_file_size(self, tmp_path, monkeypatch):
        meta = ultra.UltrasoundMetadata(4, 6, 81.5, 0.0)
        (tmp_path / "u1.param").write_text(ultra.serialize_metadata(meta))
        (tmp_path / "u1.ult").write_bytes(bytes(range(3 * 24)))
        count = ultra.read_frame_count(tmp_path / "u1.ult")
        assert count == (meta, ultra.read_utterance(tmp_path / "u1.ult").n_frames) == (meta, 3)
        monkeypatch.setattr(Path, "read_bytes", lambda self: pytest.fail("frames read"))
        assert ultra.read_frame_count(tmp_path / "u1.ult") == (meta, 3)
        (tmp_path / "u1.ult").write_bytes(bytes(3 * 24 + 5))
        with pytest.raises(FormatError, match="remainder=5"):
            ultra.read_frame_count(tmp_path / "u1.ult")
        (tmp_path / "u1.param").unlink()
        with pytest.raises(MetadataError, match="sidecar"):
            ultra.read_frame_count(tmp_path / "u1.ult")

    def test_read_utterance_requires_sidecar(self, tmp_path):
        (tmp_path / "u1.ult").write_bytes(bytes(24))
        with pytest.raises(MetadataError, match="sidecar"):
            ultra.read_utterance(tmp_path / "u1.ult")
