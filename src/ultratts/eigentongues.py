"""PCA compression of flattened ultrasound frames into per-frame coefficients.

The compressor is fitted per speaker on training frames only; dev/test frames
are projected with the training model.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import arrayfile
from .errors import ArgumentError, DataError, FormatError

# Largest Gram size decomposed whole by numpy's eigh, and the largest share
# of a bigger Gram's pairs that scipy's eigsh is asked for. eigsh's time grows
# with the pairs it finds; past either limit numpy's full eigh beat eigsh and
# its 0.3 s import on synthetic Gram matrices of m = 400 to 4000.
DENSE_EIGH_MAX_GRAM = 2000
EIGSH_MAX_PAIR_SHARE = 1 / 16

# The paper keeps at most this many coefficients per frame.
MAX_COMPONENTS = 128


@dataclass(frozen=True)
class EigenTonguesModel:
    mean: np.ndarray  # (d,)
    basis: np.ndarray  # (k, d), rows orthonormal
    eigenvalues: np.ndarray  # (k,), non-increasing, unbiased (n-1) normalization
    variance_target: float
    total_variance: float  # sum of all d eigenvalues of the training covariance

    @property
    def n_components(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def variance_retained(self) -> float:
        """Fraction of training variance captured by the kept components."""
        return float(self.eigenvalues.sum() / self.total_variance)


def fit_pca(
    frames: np.ndarray,
    variance_target: float,
    k_max: int | None = MAX_COMPONENTS,
    counts: np.ndarray | None = None,
) -> EigenTonguesModel:
    """Fit the compressor on flattened frames (one row per frame).

    Keeps the smallest component count whose cumulative eigenvalue fraction
    reaches ``variance_target``; ``k_max`` may truncate further. Eigenvalues
    use the unbiased (n-1) covariance normalization. Each basis row is
    sign-flipped so its largest-magnitude entry is positive, which makes the
    fit deterministic.

    ``counts``, when given, holds how many times each row occurs in the frame
    set, so distinct frames can stand for a set with repeats and the fit is
    that of the expanded set: the mean is weighted by the counts, each centred
    row is scaled by √m, and n = Σm in the (n-1) normalization and in the
    total variance.

    The fit is an exact eigendecomposition of the smaller Gram matrix of the
    centred (and scaled) u x d row matrix C: CCᵀ (u x u) when there are fewer
    rows than pixels, as in the eigenfaces "snapshot" method, and CᵀC (d x d)
    otherwise. The total variance is the exact trace ‖C‖²_F / (n-1), so it
    covers the discarded axes too.

    A Gram matrix of at most ``DENSE_EIGH_MAX_GRAM`` rows, or one asked for
    more than ``EIGSH_MAX_PAIR_SHARE`` of its pairs, is decomposed whole by
    numpy's ``eigh``. Otherwise its top min(k_max, u, d) pairs come from
    scipy's ``eigsh`` (ARPACK's implicitly restarted Lanczos), started from a
    fixed vector, so scipy is imported only there.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ArgumentError(f"frames must be 2-D (n, d), got shape {frames.shape}")
    if not np.all(np.isfinite(frames)):
        raise ArgumentError("frames must be finite")
    if k_max is not None and k_max < 1:
        raise ArgumentError(f"k_max must be at least 1, got {k_max}")
    rows, d = frames.shape
    if counts is None:
        n = rows
    else:
        counts = np.asarray(counts)
        if (
            counts.shape != (rows,)
            or not np.issubdtype(counts.dtype, np.integer)
            or np.any(counts < 1)
        ):
            raise ArgumentError(
                f"counts must hold one positive integer per row, got {counts.dtype} {counts.shape}"
            )
        n = int(counts.sum())
    if n < 2:
        raise DataError(f"need at least 2 frames to fit, got {n}")
    if not 0.0 < variance_target <= 1.0:
        raise ArgumentError(f"variance_target must be in (0, 1], got {variance_target}")
    mean = frames.mean(axis=0) if counts is None else counts @ frames / n
    centered = frames - mean
    if counts is not None:
        centered *= np.sqrt(counts)[:, None]
    total = float(np.vdot(centered, centered)) / (n - 1)
    if total <= 0.0:
        raise DataError("zero total variance: all frames are identical")
    snapshot = rows < d
    gram = centered @ centered.T if snapshot else centered.T @ centered
    m = gram.shape[0]
    top = m if k_max is None else min(k_max, m)
    w, vectors = _top_eigenpairs(gram, top)
    eigenvalues = np.maximum(w, 0.0) / (n - 1)
    cumulative = np.cumsum(eigenvalues) / total
    k = int(np.searchsorted(cumulative, variance_target - 1e-12) + 1)
    k = min(k, eigenvalues.shape[0])
    if k_max is not None:
        k = min(k, k_max)
    if snapshot:
        # Cᵀuᵢ is pixel-space axis i scaled by √wᵢ. Dividing by its computed
        # norm rather than √wᵢ keeps the row a unit vector when wᵢ is near the
        # rounding floor of CCᵀ, where wᵢ has lost its relative accuracy.
        basis = vectors[:, :k].T @ centered
        basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    else:
        basis = np.ascontiguousarray(vectors[:, :k].T)
    flip = np.sign(basis[np.arange(k), np.argmax(np.abs(basis), axis=1)])
    basis *= flip[:, None]
    return EigenTonguesModel(
        mean=mean,
        basis=basis,
        eigenvalues=eigenvalues[:k].copy(),
        variance_target=float(variance_target),
        total_variance=total,
    )


def _top_eigenpairs(gram: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``top`` largest eigenpairs of a symmetric matrix, non-increasing."""
    m = gram.shape[0]
    if m <= DENSE_EIGH_MAX_GRAM or top > m * EIGSH_MAX_PAIR_SHARE:
        w, vectors = np.linalg.eigh(gram)
        w, vectors = w[m - top :], vectors[:, m - top :]
    else:
        from scipy.sparse.linalg import eigsh

        # a fixed start vector for a repeatable run; not np.ones, which CCᵀ
        # maps to zero when the rows are unweighted (centred rows sum to zero)
        v0 = np.random.default_rng(0).standard_normal(m)
        w, vectors = eigsh(gram, k=top, which="LA", v0=v0, tol=0)
    # both solvers return ascending order; reverse to non-increasing
    return w[::-1], vectors[:, ::-1]


def transform(model: EigenTonguesModel, frame: np.ndarray) -> np.ndarray:
    """Project a frame (or a stack of frames) onto the principal axes."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape[-1] != model.dim:
        raise ArgumentError(f"frame length {frame.shape[-1]} != model dimension {model.dim}")
    return (frame - model.mean) @ model.basis.T


def inverse_transform(model: EigenTonguesModel, coeffs: np.ndarray) -> np.ndarray:
    """Reconstruct a frame from coefficients (diagnostic use)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape[-1] != model.n_components:
        raise ArgumentError(
            f"coefficient length {coeffs.shape[-1]} != component count {model.n_components}"
        )
    return model.mean + coeffs @ model.basis


def reconstruction_mse(model: EigenTonguesModel, frames: np.ndarray) -> float:
    """Mean squared reconstruction error per pixel over a frame set.

    Normalized by (n-1)*d to match the unbiased eigenvalue convention, so on
    the training set it equals (sum of discarded eigenvalues) / d.
    """
    frames = np.asarray(frames, dtype=np.float64)
    residual = frames - inverse_transform(model, transform(model, frames))
    n = frames.shape[0]
    if n < 2:
        raise DataError("reconstruction_mse needs at least 2 frames")
    return float((residual * residual).sum() / ((n - 1) * model.dim))


def save_model(model: EigenTonguesModel, path: Path) -> None:
    """Write the model as four float64 records: the mean, the eigenvalues, the
    basis, and ``[variance_target, total_variance]``."""
    scalars = np.array([model.variance_target, model.total_variance])
    arrayfile.save(path, [model.mean, model.eigenvalues, model.basis, scalars])


def load_model(path: Path) -> EigenTonguesModel:
    """The model written by ``save_model``, each array read in one copy. A file
    of another record count, dtype or shape chain is a ``FormatError``."""
    records = arrayfile.load(path)
    d, k = (records[0].size, records[1].size) if len(records) == 4 else (0, 0)
    expected = [(np.float64, shape) for shape in ((d,), (k,), (k, d), (2,))]
    if [(r.dtype, r.shape) for r in records] != expected:
        raise FormatError(f"not a PCA model (mean, eigenvalues, basis, scalars): {path}")
    mean, eigenvalues, basis, scalars = records
    return EigenTonguesModel(mean, basis, eigenvalues, *scalars.tolist())
