"""Transducer misalignment diagnostics over a recording session.

Each utterance is reduced to its pixel-wise mean image (at raw resolution);
all utterances are compared pairwise with MSE in recording order, giving an
n x n matrix with an undefined (NaN) diagonal. Low values mean similar probe
positioning; a bright train-vs-test block signals probe drift between the
blocks.
"""

from __future__ import annotations

import csv
import json
import math
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
    within-train mean with nonzero cross-block mean scores infinity.
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


def render_heatmap(matrix: MisalignmentMatrix, cell_pixels: int = 16) -> bytes:
    """Binary portable pixmap of the matrix; deterministic bytes.

    Finite values map linearly onto a blue-to-yellow ramp; the undefined
    diagonal is drawn in a neutral gray.
    """
    if cell_pixels < 1:
        raise ArgumentError("cell_pixels must be >= 1")
    values = matrix.values
    finite = np.isfinite(values)
    vmin = float(values[finite].min()) if finite.any() else 0.0
    vmax = float(values[finite].max()) if finite.any() else 0.0
    span = vmax - vmin
    t = np.where(finite, (values - vmin) / span, 0.0) if span > 0.0 else np.zeros(values.shape)
    cells = np.where(finite[..., None], _ramp_color(t), np.array(NEUTRAL_RGB, dtype=np.uint8))
    pixels = np.repeat(np.repeat(cells, cell_pixels, axis=0), cell_pixels, axis=1)
    side = matrix.n * cell_pixels
    return f"P6\n{side} {side}\n255\n".encode("ascii") + pixels.tobytes()


def write_matrix_csv(matrix: MisalignmentMatrix, path: Path) -> None:
    """CSV export; the undefined diagonal becomes empty cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["", *matrix.utterance_ids])
        for uid, row in zip(matrix.utterance_ids, matrix.values):
            writer.writerow([uid, *["" if not np.isfinite(v) else repr(float(v)) for v in row]])


def write_summary(summary: BlockSummary, path: Path) -> None:
    Path(path).write_text(json.dumps(asdict(summary), indent=2, sort_keys=True) + "\n")
