"""Acoustic parameter streams: file IO, target assembly, normalization, MLPG.

Per-utterance feature files are headerless row-major little-endian 32-bit
floats: ``<id>.mgc`` (n x ``MGC_DIM`` = 60), ``<id>.bap`` (n x ``BAP_DIM`` =
5), ``<id>.lf0`` (n x 1), one row per ``FRAME_SHIFT`` = 5 ms frame. That
frame and those widths are the corpus format's, not settings. Unvoiced
frames carry the LF0 sentinel value, which is the only record of voicing:
``AcousticStreams.voiced`` reads it, and no separate V/UV array is kept
beside a stream. Regression targets stack each stream with its delta and
delta-delta plus a binary voicing flag:
``[mgc d dd | bap d dd | lf0 d dd | vuv]``, width 3*(60+5+1)+1 = 199.
The pipeline takes every target from two functions here, an utterance at a
time: ``target_stats`` for the training block's mean-variance statistics and
``normalized_targets`` for the normalised rows of any block.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

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

# mlpg's DCT-domain solve holds only for windows that are symmetric or
# antisymmetric about their centre tap
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

    @property
    def voiced(self) -> np.ndarray:
        """Per-frame voicing, boolean, read from the LF0 sentinel."""
        return _is_voiced(self.lf0)


def _is_voiced(lf0: np.ndarray) -> np.ndarray:
    return lf0 > VOICED_THRESHOLD


def target_width(mgc_dim: int = MGC_DIM, bap_dim: int = BAP_DIM) -> int:
    return split_target_columns(mgc_dim, bap_dim)["vuv"].stop


def load_stream(data: bytes, width: int) -> np.ndarray:
    """Decode a headerless float32 feature file into an (n, width) matrix."""
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


def frame_count(acoustic_dir: Path, utt_id: str) -> int:
    """Frames of an utterance's feature files, from the size of its LF0 file alone."""
    return (Path(acoustic_dir) / f"{utt_id}.lf0").stat().st_size // np.dtype("<f4").itemsize


def read_streams(acoustic_dir: Path, utt_id: str) -> AcousticStreams:
    """Load ``<id>.mgc/.bap/.lf0`` from a directory as float64 streams; files
    that hold no frame are refused."""
    acoustic_dir = Path(acoustic_dir)
    mgc = load_stream((acoustic_dir / f"{utt_id}.mgc").read_bytes(), MGC_DIM)
    bap = load_stream((acoustic_dir / f"{utt_id}.bap").read_bytes(), BAP_DIM)
    lf0 = load_stream((acoustic_dir / f"{utt_id}.lf0").read_bytes(), 1)
    streams = AcousticStreams(
        mgc=mgc.astype(np.float64),
        bap=bap.astype(np.float64),
        lf0=lf0.astype(np.float64).ravel(),
    )
    if streams.n_frames == 0:
        raise DataError(f"{utt_id}.mgc/.bap/.lf0 in {acoustic_dir} hold no frame")
    return streams


def save_streams(streams: AcousticStreams, directory: Path, utt_id: str) -> None:
    """Write ``<id>.mgc/.bap/.lf0`` into a directory, the files ``read_streams`` loads."""
    directory = Path(directory)
    save_stream(streams.mgc, directory / f"{utt_id}.mgc")
    save_stream(streams.bap, directory / f"{utt_id}.bap")
    save_stream(streams.lf0[:, None], directory / f"{utt_id}.lf0")


def interpolate_lf0(lf0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continuous log-F0 plus the binary voicing flag.

    Unvoiced gaps are linearly interpolated between neighboring voiced
    values; leading/trailing unvoiced frames take the nearest voiced value.
    """
    lf0 = np.asarray(lf0, dtype=np.float64).ravel()
    if lf0.size == 0:
        raise DataError("empty lf0 vector")
    vuv = _is_voiced(lf0).astype(np.float64)
    voiced_idx = np.nonzero(vuv)[0]
    if voiced_idx.size == 0:
        return np.full_like(lf0, ALL_UNVOICED_FILL), vuv
    continuous = np.interp(np.arange(lf0.size), voiced_idx, lf0[voiced_idx])
    continuous[voiced_idx] = lf0[voiced_idx]
    return continuous, vuv


def compute_deltas(stream: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Append delta and delta-delta columns: output is ``[static | d | dd]``.

    The windows are ``DELTA_WINDOW`` and ``DELTA_DELTA_WINDOW``, the ones MLPG
    inverts, with boundary frames replicated before windowing, so a length-1
    stream gets zero dynamics. Each window sums ``w_prev * prev + w_cur * cur
    + w_next * nxt`` in that order, the edge frame standing in for its
    missing neighbour, with no padded copy of the stream. With ``out``, an
    (n, 3d) float64 block such as columns of a caller's matrix, the columns
    are written into it and it is returned.
    """
    stream = np.atleast_2d(np.asarray(stream, dtype=np.float64))
    n, d = stream.shape
    if out is None:
        out = np.empty((n, 3 * d))
    out[:, :d] = stream
    for k, (w_prev, w_cur, w_next) in enumerate((DELTA_WINDOW, DELTA_DELTA_WINDOW), start=1):
        dyn = out[:, k * d : (k + 1) * d]
        np.multiply(stream[:-1], w_prev, out=dyn[1:])
        np.multiply(stream[:1], w_prev, out=dyn[:1])
        dyn += w_cur * stream
        dyn[:-1] += w_next * stream[1:]
        dyn[-1:] += w_next * stream[-1:]
    return out


def build_targets(streams: AcousticStreams, out: np.ndarray | None = None) -> np.ndarray:
    """Regression target matrix for one utterance; its last column is the voicing flag.

    With ``out``, a float64 (n_frames, width) block such as a row block of a
    caller's matrix, the targets are written into it and it is returned;
    either way each stream's columns are written in place, with no stacked
    copy.
    """
    columns = split_target_columns(streams.mgc.shape[1], streams.bap.shape[1])
    shape = (streams.n_frames, columns["vuv"].stop)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ArgumentError(f"target block is {out.dtype} {out.shape}, not float64 {shape}")
    continuous, vuv = interpolate_lf0(streams.lf0)
    for name, stream in (("mgc", streams.mgc), ("bap", streams.bap), ("lf0", continuous[:, None])):
        compute_deltas(stream, out=out[:, columns[name]])
    out[:, columns["vuv"]] = vuv[:, None]
    return out


def target_stats(acoustic_dir: Path, utt_ids: Sequence[str]) -> NormalizationStats:
    """Mean-variance statistics of the utterances' float64 regression targets.

    They equal ``fit_normalization`` of the targets stacked in order, bit for
    bit, though no such matrix is made. numpy sums axis 0 of a C-ordered
    matrix of several columns row by row, from zero. Each utterance's block
    is built below the running sum, in one buffer of the longest utterance,
    and summed with it, which keeps that order: once for the mean and once,
    as squared deviations from it, for the standard deviation.
    """
    if not utt_ids:
        raise DataError("no utterance to fit target statistics on")
    counts = [frame_count(acoustic_dir, utt_id) for utt_id in utt_ids]
    width = target_width()
    stacked = np.empty((max(counts) + 1, width))

    def column_mean(deviations_from=None) -> np.ndarray:
        total = np.zeros(width)
        for utt_id, n in zip(utt_ids, counts):
            streams = read_streams(acoustic_dir, utt_id)
            rows = build_targets(streams, out=stacked[1 : n + 1])
            if deviations_from is not None:
                rows -= deviations_from
                rows *= rows
            stacked[0] = total
            total = stacked[: n + 1].sum(axis=0)
        total /= sum(counts)
        return total

    mean = column_mean()
    return NormalizationStats(kind="meanvar", a=mean, b=np.sqrt(column_mean(deviations_from=mean)))


def normalized_targets(
    acoustic_dir: Path, utt_ids: Sequence[str], stats: NormalizationStats, dtype
) -> np.ndarray:
    """The utterances' regression targets, in order, normalised under
    ``stats`` and held only in ``dtype``.

    Each row equals the utterance's float64 target row normalised in
    float64 and cast to ``dtype``: each utterance's block is built into one
    buffer of the longest utterance, normalised there and cast into its rows.
    """
    counts = [frame_count(acoustic_dir, utt_id) for utt_id in utt_ids]
    width = target_width()
    targets = np.empty((sum(counts), width), dtype=dtype)
    buf = np.empty((max(counts), width))
    start = 0
    for utt_id, n in zip(utt_ids, counts):
        streams = read_streams(acoustic_dir, utt_id)
        targets[start : start + n] = normalize_in_place(stats, build_targets(streams, out=buf[:n]))
        start += n
    return targets


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
    if kind != "meanvar":
        raise ArgumentError(f"unknown normalization kind {kind!r}")
    return NormalizationStats(kind=kind, a=data.mean(axis=0), b=data.std(axis=0))


def normalize_in_place(stats: NormalizationStats, data: np.ndarray) -> np.ndarray:
    """Overwrite the float64 array ``data`` with its normalised values; return it.

    Min-max maps to ``MINMAX_LO + (MINMAX_HI - MINMAX_LO) * (x - min) / span``
    and mean-variance to ``(x - mean) / std``, one operation at a time.
    """
    if data.dtype != np.float64:
        raise ArgumentError(f"can only normalise float64 in place, got {data.dtype}")
    if data.shape[-1] != stats.n_columns:
        raise ArgumentError(f"column count {data.shape[-1]} != stats columns {stats.n_columns}")
    const = stats.constant_columns
    data -= stats.a
    if stats.kind == "minmax":
        data *= MINMAX_HI - MINMAX_LO
        data /= np.where(const, 1.0, stats.b - stats.a)
        data += MINMAX_LO
        data[..., const] = 0.5
    else:
        data /= np.where(const, 1.0, stats.b)
    return data


def invert_normalization(stats: NormalizationStats, data: np.ndarray) -> np.ndarray:
    """De-normalise network outputs, ``x * std + mean``; only outputs are ever
    inverted, and they are mean-variance normalised."""
    if stats.kind != "meanvar":
        raise ArgumentError(f"output stats must be mean-variance normalized, got {stats.kind!r}")
    data = np.asarray(data, dtype=np.float64)
    if data.shape[-1] != stats.n_columns:
        raise ArgumentError(f"column count {data.shape[-1]} != stats columns {stats.n_columns}")
    return data * np.where(stats.constant_columns, 1.0, stats.b) + stats.a


def _window_adjoint(window: tuple[float, float, float], obs: np.ndarray) -> np.ndarray:
    """W' obs for the (n, n) operator W of a 3-tap window.

    Row t of W applies the window to frames t-1, t, t+1 with boundary
    replication, so the tap that falls outside the utterance folds into the
    edge frame's own weight. W then has ``w_prev`` below the diagonal,
    ``w_next`` above it, and ``w_cur`` on it plus the folded taps.
    """
    w_prev, w_cur, w_next = window
    diag = np.full(obs.shape[0], w_cur)
    diag[0] += w_prev
    diag[-1] += w_next
    # column i of W has entries in rows i-1, i, i+1; sum them in ascending row order
    projected = diag[:, None] * obs
    projected[1:] += w_next * obs[:-1]
    projected[:-1] += w_prev * obs[1:]
    return projected


def _window_power(window: tuple[float, float, float], n: int) -> np.ndarray:
    """Eigenvalues of W'W, W as in ``_window_adjoint``, at frequencies πk/n for k = 0..n.

    Boundary replication is the utterance's half-sample symmetric extension
    to period 2n. On it a symmetric or antisymmetric window, as both of ours
    are, is a circular convolution that keeps the symmetry, so W'W is
    diagonal in the DCT-II basis with the window's power response |H(ω)|².
    """
    w_prev, w_cur, w_next = window
    omega = np.pi * np.arange(n + 1) / n
    return (w_cur + (w_prev + w_next) * np.cos(omega)) ** 2 + ((w_next - w_prev) * np.sin(omega)) ** 2


def mlpg(means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Most likely static trajectory given ``[static | d | dd]`` observation means.

    Solves (W' S^-1 W) c = W' S^-1 mu per dimension, where W stacks the
    identity with the delta and delta-delta window operators and S is the
    diagonal of per-dimension observation variances. Every term of the
    normal-equation matrix is diagonal in the DCT-II basis (see
    ``_window_power``), so the solve is a real FFT of the mirrored
    right-hand side, a division by the eigenvalues and the inverse FFT, over
    all dimensions at once. Dimensions do not interact, so a column's result
    does not depend on which other columns share the call.
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
    if not np.all(np.isfinite(means)):
        raise ArgumentError("means must be finite")
    width = total // 3

    inv_var = 1.0 / variances
    ws, wd, wdd = inv_var[:width], inv_var[width : 2 * width], inv_var[2 * width :]
    rhs = (
        ws * means[:, :width]
        + wd * _window_adjoint(DELTA_WINDOW, means[:, width : 2 * width])
        + wdd * _window_adjoint(DELTA_DELTA_WINDOW, means[:, 2 * width :])
    )
    eigenvalues = (
        ws
        + wd * _window_power(DELTA_WINDOW, n)[:, None]
        + wdd * _window_power(DELTA_DELTA_WINDOW, n)[:, None]
    )
    # the rfft of the mirrored rows holds the DCT-II coefficients (times a phase)
    spectrum = np.fft.rfft(np.concatenate([rhs, rhs[::-1]]), axis=0) / eigenvalues
    return np.fft.irfft(spectrum, n=2 * n, axis=0)[:n]
