import hashlib
import json
import math
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from ultratts import misalign, ultra
from ultratts.errors import ArgumentError, DataError

# SHA-256 of the heatmap's pixels behind a binary PPM header ("P6\n<w> <h>\n255\n")
GOLDEN_HEATMAP_SHA256 = "60ec7baced065f0a47d4f83adbc396ebb095631de7500cdd17757f85d7080c54"


def make_seq(frames):
    frames = np.asarray(frames, dtype=np.uint8)
    meta = ultra.UltrasoundMetadata(frames.shape[1], frames.shape[2], 81.5, 0.0)
    return ultra.UltrasoundSequence(meta, frames)


def constant_seq(value, n_frames=3, shape=(4, 6)):
    return make_seq(np.full((n_frames, *shape), value))


def mean_images(session):
    return [misalign.mean_image(seq) for seq in session]


class TestMeanImage:
    def test_single_frame_is_itself(self):
        seq = make_seq(np.arange(24, dtype=np.uint8).reshape(1, 4, 6))
        assert np.array_equal(misalign.mean_image(seq), seq.frames[0].astype(float))

    def test_two_constants_average(self):
        frames = np.stack([np.full((4, 6), 10), np.full((4, 6), 20)]).astype(np.uint8)
        assert np.all(misalign.mean_image(make_seq(frames)) == 15.0)

    def test_matches_accumulate_then_divide_oracle(self):
        rng = np.random.default_rng(0)
        frames = rng.integers(0, 256, size=(50, 5, 7), dtype=np.uint8)
        seq = make_seq(frames)
        acc = np.zeros((5, 7))
        for f in frames:
            acc += f.astype(np.float64)
        assert np.allclose(misalign.mean_image(seq), acc / 50.0, atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            misalign.mean_image(make_seq(np.zeros((0, 4, 6), np.uint8)))

    def test_equals_float64_mean_bytewise(self):
        frames = np.random.default_rng(1).integers(0, 256, size=(333, 16, 64), dtype=np.uint8)
        expect = frames.astype(np.float64).mean(axis=0)
        assert misalign.mean_image(make_seq(frames)).tobytes() == expect.tobytes()

    def test_accumulator_holds_255_times_frame_count(self):
        # 255 * n exceeds the uint32 range; a read-only broadcast holds the frames
        n = 2**32 // 255 + 1
        meta = ultra.UltrasoundMetadata(1, 2, 81.5, 0.0)
        frames = np.broadcast_to(np.array([[[255, 1]]], dtype=np.uint8), (n, 1, 2))
        mean = misalign.mean_image(ultra.UltrasoundSequence(meta, frames))
        assert mean.tolist() == [[255.0, 1.0]]


class TestMse:
    def test_identical_images_zero(self):
        img = np.random.default_rng(1).uniform(0, 255, (8, 8))
        assert misalign.mse(img, img) == 0.0

    def test_constant_difference(self):
        assert misalign.mse(np.zeros((3, 3)), np.full((3, 3), 10.0)) == 100.0

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.uniform(0, 255, (6, 6))
            b = rng.uniform(0, 255, (6, 6))
            assert misalign.mse(a, b) == misalign.mse(b, a)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            misalign.mse(np.zeros((3, 3)), np.zeros((3, 4)))

    def test_raw_frame_images_bitwise_with_one_temporary(self):
        rng = np.random.default_rng(7)
        a, b = rng.uniform(0.0, 255.0, (2, 64, 842))
        assert misalign.mse(a, b) == float(np.mean((a - b) * (a - b)))
        tracemalloc.start()
        try:
            misalign.mse(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * a.nbytes


class TestBuildMatrix:
    def test_two_identical_utterances(self):
        m = misalign.build_matrix(mean_images([constant_seq(30), constant_seq(30)]), ["a", "b"])
        assert m.values.shape == (2, 2)
        assert m.values[0, 1] == 0.0
        assert np.isnan(m.values[0, 0]) and np.isnan(m.values[1, 1])

    def test_three_constant_sessions(self):
        m = misalign.build_matrix(
            mean_images([constant_seq(0), constant_seq(10), constant_seq(20)]), ["a", "b", "c"]
        )
        assert m.values[0, 1] == 100.0
        assert m.values[0, 2] == 400.0
        assert m.values[1, 2] == 100.0

    def test_n_by_n_and_exact_symmetry(self):
        rng = np.random.default_rng(3)
        session = [
            make_seq(rng.integers(0, 256, size=(4, 5, 7), dtype=np.uint8)) for _ in range(6)
        ]
        m = misalign.build_matrix(mean_images(session))
        assert m.values.shape == (6, 6)
        off = ~np.eye(6, dtype=bool)
        assert np.array_equal(m.values[off], m.values.T[off])
        assert np.all(np.isnan(np.diag(m.values)))
        assert np.all(m.values[off] >= 0.0)

    def test_duplicate_utterance_has_zero_entry(self):
        rng = np.random.default_rng(4)
        frames = rng.integers(0, 256, size=(3, 4, 6), dtype=np.uint8)
        session = [make_seq(frames), constant_seq(99), make_seq(frames)]
        m = misalign.build_matrix(mean_images(session))
        assert m.values[0, 2] == 0.0

    def test_inconsistent_dimensions_name_the_utterance(self):
        session = [constant_seq(1), constant_seq(2, shape=(5, 6))]
        with pytest.raises(DataError, match="utt0001"):
            misalign.build_matrix(mean_images(session))

    def test_single_utterance_rejected(self):
        with pytest.raises(DataError):
            misalign.build_matrix(mean_images([constant_seq(1)]))


class TestBlockSummary:
    def test_homogeneous_session_scores_one(self):
        session = [constant_seq(42) for _ in range(8)]
        m = misalign.build_matrix(mean_images(session))
        summary = misalign.block_summary(m, 6, 1, 1)
        assert summary.within_train_mse == 0.0
        assert summary.train_vs_heldout_mse == 0.0
        assert summary.score == 1.0

    def test_shifted_tail_raises_cross_block_error(self):
        rng = np.random.default_rng(5)
        session = []
        for i in range(20):
            value = 60 + rng.integers(-2, 3)
            if i >= 17:  # last 15% of the session shifted
                value += 40
            session.append(constant_seq(value))
        m = misalign.build_matrix(mean_images(session))
        summary = misalign.block_summary(m, 17, 2, 1)
        assert summary.train_vs_heldout_mse > summary.within_train_mse
        assert summary.score > 1.0

    def test_constant_offset_invariance(self):
        rng = np.random.default_rng(6)
        images = [rng.uniform(0, 100, (4, 6)) for _ in range(10)]
        m1 = misalign.build_matrix(images)
        m2 = misalign.build_matrix([img + 55.0 for img in images])
        s1 = misalign.block_summary(m1, 8, 1, 1)
        s2 = misalign.block_summary(m2, 8, 1, 1)
        assert s1.score == pytest.approx(s2.score, rel=1e-12)

    def test_bad_partition_rejected(self):
        m = misalign.build_matrix(mean_images([constant_seq(i) for i in range(5)]))
        with pytest.raises(ArgumentError):
            misalign.block_summary(m, 3, 1, 2)
        with pytest.raises(DataError):
            misalign.block_summary(m, 5, 0, 0)


def fixture_matrix():
    base = np.array(
        [
            [0.0, 4.0, 9.0, 25.0],
            [4.0, 0.0, 1.0, 16.0],
            [9.0, 1.0, 0.0, 4.0],
            [25.0, 16.0, 4.0, 0.0],
        ]
    )
    values = base.copy()
    np.fill_diagonal(values, np.nan)
    return misalign.MisalignmentMatrix(
        values=values, utterance_ids=tuple(f"u{i}" for i in range(4))
    )


def decode_png(data):
    """(height, width, 3) uint8 pixels of an 8-bit RGB PNG, checking its structure.

    Checks the signature, every chunk's CRC, an IHDR first and an IEND last,
    and undoes the None, Sub and Up line filters.
    """
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        kind, body = data[pos + 4 : pos + 8], data[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        assert crc == zlib.crc32(kind + body), kind
        chunks.append((kind, body))
        pos += 12 + length
    assert pos == len(data)
    assert chunks[0][0] == b"IHDR" and chunks[-1] == (b"IEND", b"")
    width, height, depth, color, compression, filtering, interlace = struct.unpack(
        ">IIBBBBB", chunks[0][1]
    )
    assert (depth, color, compression, filtering, interlace) == (8, 2, 0, 0, 0)
    raw = zlib.decompress(b"".join(body for kind, body in chunks if kind == b"IDAT"))
    stride = 3 * width
    assert len(raw) == height * (1 + stride)
    pixels = np.zeros((height, stride), np.uint8)
    previous = np.zeros(stride, np.uint8)
    for y in range(height):
        kind, line = raw[y * (1 + stride)], raw[y * (1 + stride) + 1 : (y + 1) * (1 + stride)]
        row = np.frombuffer(line, np.uint8).copy()
        if kind == 1:  # each byte is stored less the byte a pixel to its left
            row = np.cumsum(row.reshape(-1, 3), axis=0, dtype=np.uint8).reshape(-1)
        elif kind == 2:
            row += previous
        else:
            assert kind == 0, kind
        pixels[y] = previous = row
    return pixels.reshape(height, width, 3)


class TestHeatmap:
    def test_dimensions_scale_with_cells(self):
        m = misalign.build_matrix(mean_images([constant_seq(0), constant_seq(10)]))
        assert decode_png(misalign.render_heatmap(m, cell_pixels=5)).shape == (10, 10, 3)
        assert decode_png(misalign.render_heatmap(m)).shape == (32, 32, 3)

    def test_equal_offdiagonals_render_uniformly(self):
        m = misalign.build_matrix(
            mean_images([constant_seq(0), constant_seq(10), constant_seq(20)])
        )
        m.values[0, 2] = m.values[2, 0] = 100.0  # make all off-diagonals equal
        pixels = decode_png(misalign.render_heatmap(m, cell_pixels=1))
        off = ~np.eye(3, dtype=bool)
        assert len({tuple(p) for p in pixels[off]}) == 1
        assert tuple(pixels[0, 0]) == misalign.NEUTRAL_RGB

    def test_golden_bytes(self):
        pixels = decode_png(misalign.render_heatmap(fixture_matrix(), cell_pixels=8))
        ppm = b"P6\n32 32\n255\n" + pixels.tobytes()
        assert hashlib.sha256(ppm).hexdigest() == GOLDEN_HEATMAP_SHA256

    def test_deterministic(self):
        m = fixture_matrix()
        assert misalign.render_heatmap(m) == misalign.render_heatmap(m)

    def test_real_session_size_stays_small(self):
        # 400 utterances at 16 px a cell: 6400 x 6400 pixels, 122.9 MB as raw RGB
        values = np.random.default_rng(0).uniform(0.0, 100.0, (400, 400))
        values = (values + values.T) / 2.0
        np.fill_diagonal(values, np.nan)
        m = misalign.MisalignmentMatrix(values, tuple(f"u{i}" for i in range(400)))
        tracemalloc.start()
        try:
            data = misalign.render_heatmap(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert len(data) < 2 * 2**20
        assert struct.unpack(">II", data[16:24]) == (6400, 6400)


class TestExports:
    def test_csv_has_empty_diagonal(self, tmp_path):
        path = tmp_path / "matrix.csv"
        misalign.write_matrix_csv(fixture_matrix(), path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == ",u0,u1,u2,u3"
        first = rows[1].split(",")
        assert first[0] == "u0" and first[1] == ""
        assert float(first[2]) == 4.0

    def test_summary_json(self, tmp_path):
        m = fixture_matrix()
        summary = misalign.block_summary(m, 2, 1, 1)
        misalign.write_summary(summary, tmp_path / "summary.json")
        loaded = json.loads((tmp_path / "summary.json").read_text())
        assert loaded["n_train"] == 2
        assert loaded["within_train_mse"] == summary.within_train_mse

    def test_infinite_score_is_strict_json_null(self, tmp_path):
        session = [constant_seq(10), constant_seq(10), constant_seq(10), constant_seq(20)]
        summary = misalign.block_summary(misalign.build_matrix(mean_images(session)), 3, 1, 0)
        assert summary.score == math.inf
        misalign.write_summary(summary, tmp_path / "summary.json")

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        loaded = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
        assert loaded["score"] is None
        assert loaded["train_vs_heldout_mse"] == 100.0
