"""Acoustic parameter streams: file IO, target assembly, normalization, MLPG.

Per-utterance feature files are headerless row-major little-endian 32-bit
floats: ``<id>.mgc`` (n x 60), ``<id>.bap`` (n x 5), ``<id>.lf0`` (n x 1).
Unvoiced frames carry the LF0 sentinel value. Regression targets stack each
stream with its delta and delta-delta plus a binary voicing flag:
``[mgc d dd | bap d dd | lf0 d dd | vuv]``, width 3*(60+5+1)+1 = 199.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import solveh_banded

from .errors import ArgumentError, DataError, FormatError

MGC_DIM = 60
BAP_DIM = 5
FRAME_SHIFT = 0.005

# WORLD-style unvoiced marker in the log-F0 stream; anything above the
# threshold counts as voiced.
UNVOICED_LF0 = -1.0e10
VOICED_THRESHOLD = -1.0e9

# Fallback log-F0 for an utterance with no voiced frame at all.
ALL_UNVOICED_FILL = float(np.log(100.0))

DELTA_WINDOW = (-0.5, 0.0, 0.5)
DELTA_DELTA_WINDOW = (1.0, -2.0, 1.0)

_STATS_KINDS = ("minmax", "meanvar")

MINMAX_LO = 0.01
MINMAX_HI = 0.99


@dataclass(frozen=True)
class AcousticStreams:
    mgc: np.ndarray  # (n, mgc_dim)
    bap: np.ndarray  # (n, bap_dim)
    lf0: np.ndarray  # (n,), UNVOICED_LF0 at unvoiced frames

    def __post_init__(self):
        n = self.mgc.shape[0]
        if self.bap.shape[0] != n or self.lf0.shape[0] != n:
            raise ArgumentError(
                f"stream lengths differ: mgc={n} bap={self.bap.shape[0]} lf0={self.lf0.shape[0]}"
            )

    @property
    def n_frames(self) -> int:
        return self.mgc.shape[0]


def target_width(mgc_dim: int = MGC_DIM, bap_dim: int = BAP_DIM) -> int:
    return 3 * (mgc_dim + bap_dim + 1) + 1


def load_stream(data: bytes, width: int) -> np.ndarray:
    """Decode a headerless float32 feature file into an (n, width) matrix."""
    if width < 1:
        raise ArgumentError(f"width must be >= 1, got {width}")
    frame_bytes = width * 4
    if len(data) % frame_bytes != 0:
        raise FormatError(
            f"byte count {len(data)} is not a multiple of frame size {frame_bytes}"
        )
    return np.frombuffer(data, dtype="<f4").reshape(-1, width)


def save_stream(matrix: np.ndarray, path: Path) -> None:
    """Write a float32 feature file; non-finite or float32-overflowing values are refused."""
    matrix = np.atleast_2d(np.asarray(matrix))
    # NaN fails the comparison too; the finite LF0 sentinel passes
    if not np.all(np.abs(matrix) <= np.finfo(np.float32).max):
        raise DataError(f"refusing to write non-finite or out-of-float32-range values to {path}")
    Path(path).write_bytes(matrix.astype("<f4").tobytes())


def read_streams(
    acoustic_dir: Path, utt_id: str, mgc_dim: int = MGC_DIM, bap_dim: int = BAP_DIM
) -> AcousticStreams:
    """Load ``<id>.mgc/.bap/.lf0`` from a directory as float64 streams."""
    acoustic_dir = Path(acoustic_dir)
    mgc = load_stream((acoustic_dir / f"{utt_id}.mgc").read_bytes(), mgc_dim)
    bap = load_stream((acoustic_dir / f"{utt_id}.bap").read_bytes(), bap_dim)
    lf0 = load_stream((acoustic_dir / f"{utt_id}.lf0").read_bytes(), 1)
    return AcousticStreams(
        mgc=mgc.astype(np.float64),
        bap=bap.astype(np.float64),
        lf0=lf0.astype(np.float64).ravel(),
    )


def interpolate_lf0(lf0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continuous log-F0 plus the binary voicing flag.

    Unvoiced gaps are linearly interpolated between neighboring voiced
    values; leading/trailing unvoiced frames take the nearest voiced value.
    """
    lf0 = np.asarray(lf0, dtype=np.float64).ravel()
    if lf0.size == 0:
        raise DataError("empty lf0 vector")
    vuv = (lf0 > VOICED_THRESHOLD).astype(np.float64)
    voiced_idx = np.nonzero(vuv)[0]
    if voiced_idx.size == 0:
        return np.full_like(lf0, ALL_UNVOICED_FILL), vuv
    continuous = np.interp(np.arange(lf0.size), voiced_idx, lf0[voiced_idx])
    continuous[voiced_idx] = lf0[voiced_idx]
    return continuous, vuv


def compute_deltas(stream: np.ndarray) -> np.ndarray:
    """Append delta and delta-delta columns: output is ``[static | d | dd]``.

    Windows are (-0.5, 0, 0.5) and (1, -2, 1) with boundary frames replicated
    before windowing, so a length-1 stream gets zero dynamics.
    """
    stream = np.atleast_2d(np.asarray(stream, dtype=np.float64))
    padded = np.pad(stream, ((1, 1), (0, 0)), mode="edge")
    prev, cur, nxt = padded[:-2], padded[1:-1], padded[2:]
    delta = 0.5 * (nxt - prev)
    delta2 = prev - 2.0 * cur + nxt
    return np.hstack([stream, delta, delta2])


def build_targets(streams: AcousticStreams) -> tuple[np.ndarray, np.ndarray]:
    """Regression target matrix and voicing flag for one utterance."""
    continuous, vuv = interpolate_lf0(streams.lf0)
    blocks = [
        compute_deltas(streams.mgc),
        compute_deltas(streams.bap),
        compute_deltas(continuous[:, None]),
        vuv[:, None],
    ]
    return np.hstack(blocks), vuv


def split_target_columns(mgc_dim: int = MGC_DIM, bap_dim: int = BAP_DIM) -> dict[str, slice]:
    """Column slices of the target layout, keyed by stream name."""
    m3, b3 = 3 * mgc_dim, 3 * bap_dim
    return {
        "mgc": slice(0, m3),
        "bap": slice(m3, m3 + b3),
        "lf0": slice(m3 + b3, m3 + b3 + 3),
        "vuv": slice(m3 + b3 + 3, m3 + b3 + 4),
    }


@dataclass(frozen=True)
class NormalizationStats:
    kind: str  # "minmax" or "meanvar"
    a: np.ndarray  # per-column min, or mean
    b: np.ndarray  # per-column max, or stddev

    def __post_init__(self):
        if self.kind not in _STATS_KINDS:
            raise ArgumentError(f"unknown normalization kind {self.kind!r}")
        if self.a.shape != self.b.shape:
            raise ArgumentError("parameter vectors must have equal shape")

    @property
    def n_columns(self) -> int:
        return self.a.shape[0]

    @property
    def constant_columns(self) -> np.ndarray:
        if self.kind == "minmax":
            return self.b <= self.a
        return self.b == 0.0


def fit_normalization(data: np.ndarray, kind: str) -> NormalizationStats:
    """Per-column statistics from training rows only."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise DataError(f"cannot fit normalization on data of shape {data.shape}")
    if kind == "minmax":
        return NormalizationStats(kind=kind, a=data.min(axis=0), b=data.max(axis=0))
    if kind == "meanvar":
        return NormalizationStats(kind=kind, a=data.mean(axis=0), b=data.std(axis=0))
    raise ArgumentError(f"unknown normalization kind {kind!r}")


def apply_normalization(stats: NormalizationStats, data: np.ndarray) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.shape[-1] != stats.n_columns:
        raise ArgumentError(f"column count {data.shape[-1]} != stats columns {stats.n_columns}")
    const = stats.constant_columns
    if stats.kind == "minmax":
        span = np.where(const, 1.0, stats.b - stats.a)
        out = MINMAX_LO + (MINMAX_HI - MINMAX_LO) * (data - stats.a) / span
        out[..., const] = 0.5
        return out
    scale = np.where(const, 1.0, stats.b)
    return (data - stats.a) / scale


def invert_normalization(stats: NormalizationStats, data: np.ndarray) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.shape[-1] != stats.n_columns:
        raise ArgumentError(f"column count {data.shape[-1]} != stats columns {stats.n_columns}")
    const = stats.constant_columns
    if stats.kind == "minmax":
        out = stats.a + (data - MINMAX_LO) * (stats.b - stats.a) / (MINMAX_HI - MINMAX_LO)
        out[..., const] = np.broadcast_to(stats.a, data.shape)[..., const]
        return out
    scale = np.where(const, 1.0, stats.b)
    return data * scale + stats.a


def _window_normal_terms(
    window: tuple[float, float, float], obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """W'W in solveh_banded's upper form (3, n), and W' obs, for a 3-tap window.

    Row t of the (n, n) operator W applies the window to frames t-1, t, t+1
    with boundary replication, so the tap that falls outside the utterance
    folds into the edge frame's own weight. W then has ``w_prev`` below the
    diagonal, ``w_next`` above it, and ``w_cur`` on it plus the folded taps.
    """
    w_prev, w_cur, w_next = window
    n = obs.shape[0]
    diag = np.full(n, w_cur)
    diag[0] += w_prev
    diag[-1] += w_next
    gram = np.zeros((3, n))
    gram[2] = diag * diag
    gram[2, 1:] += w_next * w_next
    gram[2, :-1] += w_prev * w_prev
    gram[1, 1:] = diag[:-1] * w_next + w_prev * diag[1:]
    gram[0, 2:] = w_prev * w_next
    # column i of W has entries in rows i-1, i, i+1; sum them in ascending row order
    projected = diag[:, None] * obs
    projected[1:] += w_next * obs[:-1]
    projected[:-1] += w_prev * obs[1:]
    return gram, projected


def mlpg(means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Most likely static trajectory given ``[static | d | dd]`` observation means.

    Solves (W' S^-1 W) c = W' S^-1 mu per dimension, where W stacks the
    identity with the delta and delta-delta window operators and S is the
    diagonal of per-dimension observation variances. The normal-equation
    matrix is pentadiagonal symmetric positive definite, so a banded Cholesky
    solve is used.
    """
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    variances = np.asarray(variances, dtype=np.float64).ravel()
    n, total = means.shape
    if total % 3 != 0:
        raise ArgumentError(f"means width {total} is not 3 * static width")
    if variances.shape[0] != total:
        raise ArgumentError(f"variance length {variances.shape[0]} != means width {total}")
    if np.any(variances <= 0.0) or not np.all(np.isfinite(variances)):
        raise ArgumentError("variances must be positive and finite")
    width = total // 3

    gram_delta, rhs_delta = _window_normal_terms(DELTA_WINDOW, means[:, width : 2 * width])
    gram_delta2, rhs_delta2 = _window_normal_terms(DELTA_DELTA_WINDOW, means[:, 2 * width :])
    gram_static = np.zeros((3, n))
    gram_static[2] = 1.0

    inv_var = 1.0 / variances
    mu_static = means[:, :width]

    out = np.empty((n, width))
    for d in range(width):
        ws, wd, wdd = inv_var[d], inv_var[width + d], inv_var[2 * width + d]
        ab = ws * gram_static + wd * gram_delta + wdd * gram_delta2
        rhs = ws * mu_static[:, d] + wd * rhs_delta[:, d] + wdd * rhs_delta2[:, d]
        out[:, d] = solveh_banded(ab, rhs, lower=False)
    return out
