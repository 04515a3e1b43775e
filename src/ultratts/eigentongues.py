"""PCA compression of flattened ultrasound frames into per-frame coefficients.

The compressor is fitted per speaker on training frames only; dev/test frames
are projected with the training model. The fit's top eigenpairs come from one
numpy routine: a seeded block Krylov (block Lanczos) solve that needs only
the Gram matrix's products with a few columns, handing over to numpy's dense
``eigh`` where a fit asks for too many of the Gram matrix's pairs, or its
solve converges too slowly, for the Krylov basis to pay (``KRYLOV_MAX_SHARE``).

The fit reads its rows in blocks, each sum one pass over them: an in-memory
matrix is one block, and ``SpilledRows`` holds the rows in a file and reads
them back a block at a time, so a pixel x pixel fit need not hold its rows.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import arrayfile
from .errors import ArgumentError, DataError, FormatError

# The block Krylov solve's basis grows by KRYLOV_BLOCK columns a step until
# the pairs the variance rule keeps have residuals ‖Gv − θv‖ ≤ KRYLOV_TOL·θ₁.
# It may span at most KRYLOV_MAX_SHARE of the Gram matrix's order m: a fit
# that asks for more pairs than that basis holds less one block takes numpy's
# dense eigh from the start, and a solve whose basis reaches it hands over to
# eigh. Timed on one thread against eigh of the same m x m matrix, m = 256 to
# 4096: a solve that runs to a quarter of m without converging cost 0.33-0.65
# of eigh, to a third 0.54-1.16 and to a half 1.35-3.06; solves that
# converged, keeping 1 to m/16 pairs of slowly decaying spectra, took
# 0.03-0.41 of eigh. A kept axis is off by at most its residual over the gap
# past the kept pairs, so KRYLOV_TOL holds criterion 4's 1e-6 angle bound
# down to gaps of 1e-6·θ₁.
KRYLOV_BLOCK = 16
KRYLOV_TOL = 1e-12
KRYLOV_MAX_SHARE = 1 / 4

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


class SpilledRows:
    """Float64 rows of width ``d`` held in ``file``, a binary file opened for
    reading and writing, as the blocks ``append`` wrote them: a row source for
    ``fit_pca`` that holds one block at a time, not the matrix.

    ``blocks`` reads each block back into a new array, so the rows on file are
    never changed; ``shape`` is (rows written, d)."""

    def __init__(self, file: BinaryIO, d: int):
        self._file = file
        self._bounds = [0]
        self._d = d

    @property
    def shape(self) -> tuple[int, int]:
        return self._bounds[-1], self._d

    def append(self, rows: np.ndarray) -> None:
        """Write ``rows`` as the next block, after the blocks before it."""
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self._d:
            raise ArgumentError(f"rows must be 2-D (n, {self._d}), got shape {rows.shape}")
        self._file.seek(self._bounds[-1] * self._d * 8)
        self._file.write(rows.data)
        self._bounds.append(self._bounds[-1] + len(rows))

    def blocks(self) -> Iterator[np.ndarray]:
        """Each block in the order written, read into ordinary memory: a
        mapped file's pages would count in the process's resident set."""
        for lo, hi in pairwise(self._bounds):
            block = np.empty((hi - lo, self._d))
            self._file.seek(lo * self._d * 8)
            if self._file.readinto(block.data) != block.nbytes:
                raise FormatError(f"spilled rows {lo}..{hi} are cut short")
            yield block


def fit_pca(
    frames: np.ndarray | SpilledRows,
    variance_target: float,
    k_max: int = MAX_COMPONENTS,
    counts: np.ndarray | None = None,
    centre_in_place: bool = False,
) -> EigenTonguesModel:
    """Fit the compressor on flattened frames (one row per frame).

    Keeps the smallest component count whose cumulative eigenvalue fraction
    reaches ``variance_target``, and at most ``k_max``, a positive integer:
    the frame dimension keeps every axis. Eigenvalues use the unbiased (n-1)
    covariance normalization. Each basis row is sign-flipped so its
    largest-magnitude entry is positive, which makes the fit deterministic.

    ``counts`` holds how many times each row occurs in the frame set, one by
    default, so distinct frames can stand for a set with repeats and the fit
    is that of the expanded set: the mean is weighted by the counts, the
    covariance is that of the centred rows C with row i weighted by mᵢ, and
    n = Σm in the (n-1) normalization and in the total variance.

    The fit takes the top eigenpairs of the smaller Gram matrix of the
    weighted centred u x d rows: √m∘CCᵀ∘√mᵀ (u x u) when there are fewer rows
    than pixels, as in the eigenfaces "snapshot" method, and CᵀDC (d x d, D
    the diagonal of counts) otherwise. The total variance is the exact trace
    Σᵢ mᵢ‖cᵢ‖² / (n-1), so it covers the discarded axes too. The pairs come
    from a seeded block Krylov solve (``_krylov_pairs``) of the snapshot
    matrix, or of CᵀDC through products Cᵀ(m∘(CQ)) with a few columns Q, so
    the d x d matrix is not formed. A fit asking for more pairs than a basis of
    ``KRYLOV_MAX_SHARE`` of the Gram matrix's order holds, less one block,
    or whose solve does not converge within that basis, forms the Gram matrix
    and decomposes it whole with numpy's ``eigh`` instead. Finiteness is read
    from the weighted column sums, so no mask of the frames is made.

    ``frames`` is a matrix or a ``SpilledRows`` source, read in blocks: the
    weighted mean, the total variance, each Krylov product and the dense
    solve's Gram matrix are one pass over them, summed block by block in row
    order, and a matrix is one block. A source of several blocks fits the
    model of its stacked rows up to the rounding of those sums; the snapshot
    form stacks a source's centred blocks, which are then under d² values.

    With ``centre_in_place`` the mean is subtracted from a matrix ``frames``
    itself, which must then be a float64 array the caller hands over: it is
    left centred, and no centred copy is made. Otherwise ``frames`` is not
    changed. Both give the same model, bit for bit. A source's blocks are
    each centred in the array they were read into, and its file is not changed.
    """
    spilled = isinstance(frames, SpilledRows)
    if not spilled:
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2:
            raise ArgumentError(f"frames must be 2-D (n, d), got shape {frames.shape}")
    if k_max < 1:
        raise ArgumentError(f"k_max must be at least 1, got {k_max}")
    rows, d = frames.shape
    counts = np.ones(rows, dtype=np.int64) if counts is None else np.asarray(counts)
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
    raw = frames.blocks() if spilled else (frames,)
    mean = _summed(counts[at] @ block for at, block in _row_spans(raw)) / n
    # every weight is at least 1, so a non-finite entry leaves its column's sum
    # non-finite: no frame-sized mask is needed
    if not np.all(np.isfinite(mean)):
        raise ArgumentError("frames must be finite")
    if spilled:

        def centred_blocks() -> Iterator[np.ndarray]:
            for block in frames.blocks():
                block -= mean
                yield block

    else:
        centred = frames if centre_in_place else frames.copy()
        centred -= mean

        def centred_blocks() -> Iterator[np.ndarray]:
            yield centred

    weights = counts.astype(np.float64)

    def weighted() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Each centred block and its rows' weights: one pass over the rows."""
        for at, block in _row_spans(centred_blocks()):
            yield weights[at], block

    total = float(_summed(w @ np.einsum("ij,ij->i", c, c) for w, c in weighted())) / (n - 1)
    if total <= 0.0:
        raise DataError("zero total variance: all frames are identical")
    snapshot = rows < d
    m = rows if snapshot else d
    top = min(k_max, m)

    def kept(w: np.ndarray) -> int:
        """The pair count the variance rule keeps from the leading Gram
        eigenvalues ``w``, capped at ``top``; more than len(w) when ``w``
        falls short of the target."""
        cumulative = np.cumsum(np.maximum(w, 0.0) / (n - 1)) / total
        return min(int(np.searchsorted(cumulative, variance_target - 1e-12)) + 1, top)

    if snapshot:
        # fewer rows than pixels: the stacked rows are under d² values
        blocks = list(centred_blocks())
        stacked = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        del blocks
        # the u x u Gram matrix is at most u/d of the frames' size; forming it
        # took half the time of Krylov steps C(CᵀQ) at 656 and 1312 rows of
        # 8192 pixels
        root = np.sqrt(weights)
        gram = stacked @ stacked.T
        gram *= np.outer(root, root)
        w, vectors = _leading_pairs(gram.__matmul__, lambda: gram, m, top, kept)
        # Cᵀuᵢ is pixel-space axis i scaled by √wᵢ. Dividing by its computed
        # norm rather than √wᵢ keeps the row a unit vector when wᵢ is near the
        # rounding floor of CCᵀ, where wᵢ has lost its relative accuracy.
        basis = (vectors * root[:, None]).T @ stacked
        basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    else:
        # the d x d Gram matrix CᵀDC is formed only for a dense solve

        def product(q: np.ndarray) -> np.ndarray:
            def block_product(w: np.ndarray, c: np.ndarray) -> np.ndarray:
                out = c @ q
                out *= w[:, None]
                return c.T @ out

            return _summed(block_product(w, c) for w, c in weighted())

        def gram() -> np.ndarray:
            # 256 columns of a block at a time, so no weighted copy of it is
            # held; the first block's products are written into g, and each
            # later one's into one buffer and added
            g = np.empty((d, d))
            part = np.empty((min(d, 256), d))
            for i, (w, c) in enumerate(weighted()):
                for lo in range(0, d, 256):
                    strip = c[:, lo : lo + 256] * w[:, None]
                    rows_g = g[lo : lo + 256]
                    if i == 0:
                        np.matmul(strip.T, c, out=rows_g)
                    else:
                        rows_g += np.matmul(strip.T, c, out=part[: len(rows_g)])
            return g

        w, vectors = _leading_pairs(product, gram, m, top, kept)
        basis = np.ascontiguousarray(vectors.T)
    k = basis.shape[0]
    flip = np.sign(basis[np.arange(k), np.argmax(np.abs(basis), axis=1)])
    basis *= flip[:, None]
    return EigenTonguesModel(
        mean=mean,
        basis=basis,
        eigenvalues=np.maximum(w, 0.0) / (n - 1),
        variance_target=float(variance_target),
        total_variance=total,
    )


def _row_spans(blocks: Iterable[np.ndarray]) -> Iterator[tuple[slice, np.ndarray]]:
    """Each block and the slice of the rows it holds."""
    lo = 0
    for block in blocks:
        yield slice(lo, lo + len(block)), block
        lo += len(block)


def _summed(parts: Iterable[np.ndarray]) -> np.ndarray:
    """The sum of ``parts``, each a new array or scalar, added in order into
    the first; a single part is returned as it is, so a one-block sum keeps
    its bits."""
    parts = iter(parts)
    total = next(parts)
    for part in parts:
        total += part
    return total


def _leading_pairs(
    apply: Callable[[np.ndarray], np.ndarray],
    gram: Callable[[], np.ndarray],
    m: int,
    top: int,
    kept: Callable[[np.ndarray], int],
) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs of a symmetric m x m matrix that ``kept`` keeps, in
    non-increasing order. ``apply`` multiplies the matrix into a block of
    columns and ``gram`` forms it; ``kept`` counts the pairs to keep from the
    leading eigenvalues, at most ``top``."""
    limit = int(m * KRYLOV_MAX_SHARE)
    if top + KRYLOV_BLOCK <= limit:
        pairs = _krylov_pairs(apply, m, limit, kept)
        if pairs is not None:
            return pairs
    w, vectors = np.linalg.eigh(gram())
    # eigh's order is ascending; reverse to non-increasing
    w, vectors = w[::-1][:top], vectors[:, ::-1][:, :top]
    k = kept(w)
    return w[:k], vectors[:, :k]


def _krylov_pairs(
    apply: Callable[[np.ndarray], np.ndarray],
    m: int,
    limit: int,
    kept: Callable[[np.ndarray], int],
) -> tuple[np.ndarray, np.ndarray] | None:
    """Block Lanczos with full reorthogonalisation and Rayleigh-Ritz: the
    pairs ``kept`` keeps from the Ritz values, once each has ‖Gv − θv‖ ≤
    ``KRYLOV_TOL``·θ₁; None if the basis would outgrow ``limit`` columns.

    The start block is drawn from a fixed seed, so a solve repeats bit for
    bit. Each step appends the orthonormalised part of G times the last block
    that lies outside the basis V, and the Ritz pairs come from VᵀGV, so the
    three-term recurrence's loss of orthogonality never enters them. As
    GV = V·VᵀGV + W·(last block)ᵀ, with W that outside part, a Ritz vector Vu
    has the residual W·(u's last block rows): no image of V is kept."""
    block = np.random.default_rng(0).standard_normal((m, KRYLOV_BLOCK))
    basis = np.empty((m, limit))
    projected = np.empty((limit, limit))
    p = 0
    while p + KRYLOV_BLOCK <= limit:
        # twice is enough: a second pass removes what rounding left of V
        for _ in range(2):
            block -= basis[:, :p] @ (basis[:, :p].T @ block)
            block = np.linalg.qr(block)[0]
        new = slice(p, p + KRYLOV_BLOCK)
        basis[:, new] = block
        p += KRYLOV_BLOCK
        v = basis[:, :p]
        image = apply(block)
        # VᵀGV grows by a block column and row; eigh reads its lower triangle
        coupling = v.T @ image
        projected[:p, new] = coupling
        projected[new, : new.start] = coupling[: new.start].T
        theta, u = np.linalg.eigh(projected[:p, :p])
        theta, u = theta[::-1], u[:, ::-1]
        block = image - v @ coupling
        k = kept(theta)
        if k <= p:
            residual = np.linalg.norm(block @ u[new, :k], axis=0)
            if np.all(residual <= KRYLOV_TOL * theta[0]):
                return theta[:k], v @ u[:, :k]
    return None


def transform(model: EigenTonguesModel, frame: np.ndarray) -> np.ndarray:
    """Project a frame (or a stack of frames) onto the principal axes."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape[-1] != model.dim:
        raise ArgumentError(f"frame length {frame.shape[-1]} != model dimension {model.dim}")
    return project(model, frame - model.mean)


def project(model: EigenTonguesModel, centred: np.ndarray) -> np.ndarray:
    """The coefficients of frames whose mean is already subtracted, as
    ``fit_pca(..., centre_in_place=True)`` leaves them: ``transform``'s product."""
    return centred @ model.basis.T


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
