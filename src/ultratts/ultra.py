"""Raw ultrasound recordings: sidecar metadata, frame loading, resizing, resampling.

A recording is a pair of files: ``<id>.ult`` holding raw unsigned 8-bit
echo-return samples (frame-major, scanline-major) and ``<id>.param`` holding
line-oriented ``Key=Value`` metadata that fixes the frame geometry and rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import ArgumentError, DataError, FormatError, MetadataError

# Each sidecar key, in the order written, and the metadata field it holds.
_REQUIRED_KEYS = {
    "NumVectors": "num_vectors",
    "PixPerVector": "pix_per_vector",
    "FramesPerSec": "frame_rate",
    "TimeInSecsOfFirstFrame": "first_frame_offset",
}


@dataclass(frozen=True)
class UltrasoundMetadata:
    num_vectors: int
    pix_per_vector: int
    frame_rate: float
    first_frame_offset: float

    def __post_init__(self):
        if self.num_vectors < 1 or self.pix_per_vector < 1:
            raise MetadataError(
                f"frame geometry must be positive, got "
                f"{self.num_vectors}x{self.pix_per_vector}"
            )
        # written so that NaN fails too
        if not 0 < self.frame_rate < math.inf:
            raise MetadataError(f"FramesPerSec must be finite and > 0, got {self.frame_rate}")
        if not math.isfinite(self.first_frame_offset):
            raise MetadataError("TimeInSecsOfFirstFrame must be finite")

    @property
    def frame_size(self) -> int:
        """Bytes per frame in the raw file."""
        return self.num_vectors * self.pix_per_vector


_CASTS = get_type_hints(UltrasoundMetadata)


@dataclass(frozen=True)
class UltrasoundSequence:
    metadata: UltrasoundMetadata
    frames: np.ndarray  # (n_frames, num_vectors, pix_per_vector) uint8

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def parse_metadata(text: str) -> UltrasoundMetadata:
    """Parse a ``Key=Value`` sidecar document into metadata.

    Unknown keys are ignored. Raises MetadataError when a required key is
    missing or given twice, or a value does not parse as a number.
    """
    values, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _REQUIRED_KEYS:
            continue
        if key in seen:
            raise MetadataError(f"line {lineno}: {key} given again, first at line {seen[key]}")
        seen[key] = lineno
        field = _REQUIRED_KEYS[key]
        try:
            values[field] = _CASTS[field](value.strip())
        except ValueError as e:
            raise MetadataError(f"line {lineno}: cannot parse {key}={value.strip()!r}") from e
    for key, field in _REQUIRED_KEYS.items():
        if field not in values:
            raise MetadataError(f"{key} missing")
    return UltrasoundMetadata(**values)


def serialize_metadata(meta: UltrasoundMetadata) -> str:
    """Render metadata back into the sidecar ``Key=Value`` format."""
    return "".join(f"{key}={getattr(meta, field)}\n" for key, field in _REQUIRED_KEYS.items())


def _frame_total(n_bytes: int, meta: UltrasoundMetadata) -> int:
    """Frames in ``n_bytes`` of raw samples; a partial frame is a ``FormatError``."""
    frame_size = meta.frame_size
    remainder = n_bytes % frame_size
    if remainder != 0:
        raise FormatError(
            f"byte count {n_bytes} is not a multiple of the frame size "
            f"{frame_size} (remainder={remainder})"
        )
    return n_bytes // frame_size


def load_sequence(data: bytes, meta: UltrasoundMetadata) -> UltrasoundSequence:
    """Split a raw octet stream into frames in recording order."""
    n = _frame_total(len(data), meta)
    frames = np.frombuffer(data, dtype=np.uint8).reshape(
        n, meta.num_vectors, meta.pix_per_vector
    )
    return UltrasoundSequence(metadata=meta, frames=frames)


def _read_sidecar(ult_path: Path) -> UltrasoundMetadata:
    """The metadata in the ``.param`` sidecar of ``ult_path``; every
    ``MetadataError`` names the sidecar."""
    param_path = ult_path.with_suffix(".param")
    if not param_path.exists():
        raise MetadataError(f"sidecar file not found: {param_path}")
    try:
        return parse_metadata(param_path.read_text())
    except MetadataError as e:
        raise MetadataError(f"{param_path}: {e}") from e


def read_utterance(ult_path: Path) -> UltrasoundSequence:
    """Load ``<id>.ult`` together with its ``<id>.param`` sidecar, checked
    first as ``read_frame_count`` checks them."""
    ult_path = Path(ult_path)
    meta, _ = read_frame_count(ult_path)
    return load_sequence(ult_path.read_bytes(), meta)


def read_frame_count(ult_path: Path) -> tuple[UltrasoundMetadata, int]:
    """The ``<id>.param`` sidecar of ``<id>.ult`` and the recording's frame
    count, from the file's size; no frame is read. A bad sidecar is a
    ``MetadataError`` and a partial frame a ``FormatError``, each naming its file."""
    ult_path = Path(ult_path)
    meta = _read_sidecar(ult_path)
    try:
        return meta, _frame_total(ult_path.stat().st_size, meta)
    except FormatError as e:
        raise FormatError(f"{ult_path}: {e}") from e


def discover_utterances(ult_dir: Path) -> list[str]:
    """Utterance ids from a directory scan; lexicographic order is recording order."""
    ids = sorted(p.stem for p in Path(ult_dir).glob("*.ult"))
    if not ids:
        raise DataError(f"no .ult files found in {ult_dir}")
    return ids


def _cubic_kernel(x: np.ndarray) -> np.ndarray:
    """Cubic convolution kernel with sharpness parameter a = -0.5."""
    a = -0.5
    ax = np.abs(x)
    ax2 = ax * ax
    ax3 = ax2 * ax
    inner = (a + 2.0) * ax3 - (a + 3.0) * ax2 + 1.0
    outer = a * ax3 - 5.0 * a * ax2 + 8.0 * a * ax - 4.0 * a
    return np.where(ax <= 1.0, inner, np.where(ax < 2.0, outer, 0.0))


@lru_cache(maxsize=64)
def _resize_taps(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Source indices and weights, each (n_out, 4), for one axis of a cubic resize.

    Output sample i reads the 4 input samples around coordinate
    (i + 0.5) * n_in / n_out - 0.5. Taps falling outside the image are clamped
    to the border, and a clamped tap's weight is added onto the first tap that
    reads the same sample (border replication), which leaves it weight 0.
    """
    scale = n_in / n_out
    taps = np.empty((n_out, 4), dtype=np.intp)
    weights = np.zeros((n_out, 4))
    for i in range(n_out):
        s = (i + 0.5) * scale - 0.5
        base = math.floor(s)
        t = s - base
        w = _cubic_kernel(np.array([1.0 + t, t, 1.0 - t, 2.0 - t]))
        clamped = [min(max(tap, 0), n_in - 1) for tap in range(base - 1, base + 3)]
        taps[i] = clamped
        for tap, wk in zip(clamped, w):
            weights[i, clamped.index(tap)] += wk
    return taps, weights


def _resize_axis(images: np.ndarray, n_out: int, axis: int, copy: bool = True) -> np.ndarray:
    """Cubic resize of ``images`` along ``axis``: a gather and a weighted sum per tap.

    An unscaled axis returns ``images`` as float64, cast as ``astype`` casts
    with ``copy``, so ``copy=False`` hands a float64 stack back as it is.
    """
    if images.shape[axis] == n_out:
        # an unscaled axis reads each sample at its centre, with taps 0, 1, 0, 0
        return images.astype(np.float64, copy=copy)
    taps, weights = _resize_taps(images.shape[axis], n_out)
    shape = [1] * images.ndim
    shape[axis] = n_out
    weights = weights.T.reshape(4, *shape)
    out = np.take(images, taps[:, 0], axis=axis) * weights[0]
    for k in range(1, 4):
        out += np.take(images, taps[:, k], axis=axis) * weights[k]
    return out


def resize_stack(frames: np.ndarray, out_rows: int, out_cols: int) -> np.ndarray:
    """Resize each image of a (n, rows, cols) stack with separable cubic
    convolution (a = -0.5); returns float64 (n, out_rows, out_cols).

    No re-quantization. Border samples are replicated. Columns are resized
    first, so the row pass reads the narrower images of a downsized scanline.
    """
    frames = np.asarray(frames)
    if frames.ndim != 3 or frames.shape[1] < 2 or frames.shape[2] < 2:
        raise ArgumentError(
            f"input must be a stack of 2-D images of at least 2x2, got shape {frames.shape}"
        )
    if out_rows < 1 or out_cols < 1:
        raise ArgumentError(f"output dimensions must be >= 1, got {out_rows}x{out_cols}")
    # the column pass always makes a new array, so the row pass need not copy it
    return _resize_axis(_resize_axis(frames, out_cols, axis=2), out_rows, axis=1, copy=False)


def resample_to_frame_clock(
    seq: UltrasoundSequence, frame_shift: float, n_target: int
) -> np.ndarray:
    """Nearest source frame index for each tick of a uniform target clock.

    Target frame k sits at time k * frame_shift; its source index is
    round((t - first_frame_offset) * frame_rate), half up, clamped to the
    recording. A 5 ms shift realizes a 200 Hz clock.
    """
    return frame_clock_index(seq.metadata, seq.n_frames, frame_shift, n_target)


def frame_clock_index(
    meta: UltrasoundMetadata, n_frames: int, frame_shift: float, n_target: int
) -> np.ndarray:
    """``resample_to_frame_clock`` for a recording of ``n_frames`` frames
    known only by its metadata."""
    if not frame_shift > 0:
        raise ArgumentError(f"frame_shift must be > 0, got {frame_shift}")
    if n_target < 0:
        raise ArgumentError(f"n_target must be >= 0, got {n_target}")
    if n_frames == 0:
        if n_target > 0:
            raise DataError("cannot resample an empty ultrasound sequence")
        return np.zeros(0, dtype=np.int64)
    t = np.arange(n_target, dtype=np.float64) * frame_shift
    raw = (t - meta.first_frame_offset) * meta.frame_rate
    idx = np.floor(raw + 0.5).astype(np.int64)
    return np.clip(idx, 0, n_frames - 1)


def frame_clock_selection(
    meta: UltrasoundMetadata, n_frames: int, frame_shift: float, n_target: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct source frames the target clock selects from a recording
    of ``n_frames`` frames, in recording order, and the target-clock index
    into them: ``unique[index[k]]`` is target frame k's source frame."""
    return np.unique(frame_clock_index(meta, n_frames, frame_shift, n_target), return_inverse=True)


def resampled_resized_frames(
    seq: UltrasoundSequence, frame_shift: float, n_target: int, out_rows: int, out_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct source frames the target clock selects, resized and
    flattened to (u, out_rows*out_cols) in recording order, and the target-clock
    index into them: row ``index[k]`` is target frame k.

    Each selected source frame is resized once, all of them as one stack.
    """
    unique, index = frame_clock_selection(seq.metadata, seq.n_frames, frame_shift, n_target)
    resized = resize_stack(seq.frames[unique], out_rows, out_cols)
    return resized.reshape(unique.size, out_rows * out_cols), index
