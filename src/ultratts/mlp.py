"""Feed-forward acoustic model: tanh MLP, plain SGD training, generation.

Default architecture and schedule follow the experiment constants: six
hidden layers of 1024 tanh units, linear output, SGD with batch size 256,
25 epochs with a 10-epoch warm-up at learning rate 0.002 and exponential
decay afterwards, early stopping on validation error. The net computes in
the dtype of its weights (``init_model``'s ``dtype``, 64-bit by default;
the pipeline trains in 32-bit): batches, targets, activations, gradients
and updates all stay in it, while ``mse`` and the validation score are
taken in 64-bit floats. Under one BLAS thread, a large float32 layer
product is split by output columns across the CPUs in the process's
affinity set, and gives the same bytes as on one CPU. A checkpoint is the
whole trained model: the net, at its own float width, plus the 64-bit input
and output normalisation it was trained under. Training inputs are a matrix
or any row container that builds a batch when indexed, such as
``labels.GatheredRows``; this module defines none.

Memory: training holds the net, one layer's gradients (the backward pass
hands each layer's gradients to the update as soon as they are taken, and
they are freed before the next layer's are formed) and the batch
activations, which the backward pass overwrites with tanh' and frees layer
by layer; besides those, only the data and the validation pass. ``train``
copies no net: it keeps the best epoch only through its ``on_best``, which
the pipeline points at a checkpoint file. A checkpoint loads in one copy:
``arrayfile.load`` checks each record's declared size against what is left
of the file, then reads every weight, bias and statistic into its own
writable array.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import acoustic, arrayfile
from .acoustic import AcousticStreams, NormalizationStats
from .errors import ArgumentError, DataError, FormatError, TrainingDiverged

DEFAULT_HIDDEN = (1024,) * 6

# Generated trajectory variants: MLPG-smoothed and raw static predictions.
VARIANTS = ("mlpg", "static")

# training has diverged when its best validation MSE exceeds this multiple of
# the MSE of predicting zero (about 1 for mean-variance normalised targets)
DIVERGENCE_FACTOR = 10.0

# the float types a checkpoint stores a net in
_NET_DTYPES = (np.float32, np.float64)


@dataclass
class MlpModel:
    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray] = field(repr=False)  # per layer, (fan_in, fan_out)
    biases: list[np.ndarray] = field(repr=False)  # per layer, (fan_out,)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    @property
    def dtype(self) -> np.dtype:
        """The float type the net computes in: that of its weights."""
        return self.weights[0].dtype


@dataclass(frozen=True)
class TrainingSchedule:
    max_epochs: int = 25
    warmup_epochs: int = 10
    base_lr: float = 0.002
    decay: float = 0.5
    batch_size: int = 256
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.warmup_epochs < self.max_epochs:
            raise ArgumentError("warmup_epochs must be >= 0 and smaller than max_epochs")
        # written so that NaN fails too
        if not 0 < self.base_lr < np.inf:
            raise ArgumentError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if not 0.0 < self.decay <= 1.0:
            raise ArgumentError("decay must be in (0, 1]")
        if self.batch_size < 1 or self.patience < 1:
            raise ArgumentError("batch_size and patience must be >= 1")

    def learning_rate(self, epoch: int) -> float:
        """Learning rate for a 1-based epoch: flat warm-up, then decay each epoch."""
        if epoch <= self.warmup_epochs:
            return self.base_lr
        return self.base_lr * self.decay ** (epoch - self.warmup_epochs)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    train_mse: float
    valid_mse: float


def init_model(
    input_dim: int,
    seed: int,
    hidden_sizes: tuple[int, ...] = DEFAULT_HIDDEN,
    output_dim: int = acoustic.target_width(),
    dtype=np.float64,
) -> MlpModel:
    """Glorot-uniform weights, zero biases, in ``dtype``; bit-deterministic for a
    given seed. The weights are drawn in float64 and then cast, so a seed fixes
    the same initial net at every width."""
    if input_dim < 1:
        raise ArgumentError(f"input_dim must be >= 1, got {input_dim}")
    sizes = (input_dim, *hidden_sizes, output_dim)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases)


def forward(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """Affine + tanh through the hidden layers, linear output."""
    batch = _check_batch(model, batch)
    # only a diverged model overflows; its callers check the outputs for
    # non-finite values, so silence the intermediate warnings
    with np.errstate(over="ignore", invalid="ignore"):
        return _forward(model, batch, keep_activations=False)[0]


# A float32 product of at least this many FLOP (2 m k n) is split by output
# columns across the CPUs the process may run on, and no block gets less than
# half of it. On a 2-vCPU Xeon KVM guest (AVX-512, OpenBLAS 0.3.31, one BLAS
# thread) a two-way split ran 256x256x256 (34 MFLOP) at 0.72-1.04x the plain
# product's speed, 400x256x256 (52 MFLOP) at 0.86-1.54x, 256x256x512
# (67 MFLOP) at 1.08-1.80x and 256x1024x1024 (537 MFLOP) at 1.23-1.83x.
SPLIT_MIN_FLOP = 2 * 256 * 512 * 256
# blocks are whole panels of this many columns, the last block taking the
# remainder: a block a few columns wide takes another BLAS kernel (one column
# goes to matrix-vector) with other bits, and a panel edge starts a whole
# register tile of the kernel, as in the unsplit product
_SPLIT_COLUMNS = 64
# where OpenBLAS reads its thread count, in the order it reads them
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _split_cpus() -> int:
    """CPUs a split product may use: the process's affinity set, which
    ``taskset`` restricts, when OpenBLAS runs on one thread; otherwise one,
    since a threaded BLAS spreads a large product over the CPUs itself.

    OpenBLAS takes its thread count from the first of its variables that
    holds a positive number, and uses every CPU when none does.
    """
    values = (os.environ.get(var, "").strip() for var in _BLAS_THREAD_VARIABLES)
    if next((int(v) for v in values if v.isdecimal() and int(v) > 0), None) != 1:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


@functools.cache
def _pool():
    # imported and started on the first split, so importing the module or
    # running a net too small to split starts no thread
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(thread_name_prefix="ultratts-matmul")


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, bit for bit, with a large float32 product split by output
    columns into one block per CPU, the blocks run at once.

    Each block is one BLAS call, run by a pool thread, that writes its
    columns of one ``out``. Every output column is the same dot products in
    the same order whichever block holds it, so the result does not depend
    on the CPU count, given one BLAS thread. The pool's work queue hands each
    block to a thread that is running, so a thread that starts late takes no
    block another could run. The caller waits instead of taking a block: with
    the caller on one block and a pool thread on the other, a two-way split
    took as long as the plain product. float64 is never split: OpenBLAS's
    dgemm computes the last ``n % 8`` columns in other bits when they sit in
    a narrow block.
    """
    (m, k), n = a.shape, b.shape[1]
    flop = 2 * m * k * n
    panels = n // _SPLIT_COLUMNS
    parts = min(2 * flop // SPLIT_MIN_FLOP, panels)
    if parts < 2 or a.dtype != np.float32 or b.dtype != np.float32:
        return a @ b
    parts = min(parts, _split_cpus())
    if parts < 2:
        return a @ b
    out = np.empty((m, n), dtype=np.float32)
    # each block takes its nearest whole number of panels; the last, the rest
    edges = [_SPLIT_COLUMNS * ((panels * i + parts // 2) // parts) for i in range(parts)] + [n]
    # worker threads do not inherit the caller's floating-point error handling
    errors = np.geterr()

    def block(lo: int, hi: int) -> None:
        with np.errstate(**errors):
            np.matmul(a, b[:, lo:hi], out=out[:, lo:hi])

    pool = _pool()
    futures = [pool.submit(block, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    for future in futures:
        # raises again whatever the block raised
        future.result()
    return out


def _forward(
    model: MlpModel, batch: np.ndarray, keep_activations: bool
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Output, plus the input and every hidden activation when asked for."""
    activations = [batch] if keep_activations else []
    h = batch
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        # tanh(h @ w + b), each step written over the product
        h = _matmul(h, w)
        h += b
        np.tanh(h, out=h)
        if keep_activations:
            activations.append(h)
    out = _matmul(h, model.weights[-1])
    out += model.biases[-1]
    return out, activations


def backward(
    model: MlpModel,
    batch: np.ndarray,
    targets: np.ndarray,
    apply: Callable[[int, np.ndarray, np.ndarray], None],
) -> float:
    """Backpropagate the half-MSE loss of one batch, handing each layer's
    gradients to ``apply`` as soon as they are taken; return the loss.

    The loss is half of the batch-mean squared error, summed over output
    dimensions; it is the quantity SGD minimises, accumulated in float64.
    ``apply(layer, grad_w, grad_b)`` is called once per layer, output layer
    first, once the delta for the layer below has been formed from the
    layer's current weights, so it may update that layer in place and
    overwrite the gradients; they are dropped when it returns. A loss that
    is not finite is returned before any gradient is taken, and ``apply`` is
    not called. Batch, targets and gradients are in the model's dtype.
    """
    batch = _check_batch(model, batch)
    targets = np.atleast_2d(np.asarray(targets, dtype=model.dtype))
    if targets.shape != (batch.shape[0], model.output_dim):
        raise ArgumentError(
            f"target shape {targets.shape} != ({batch.shape[0]}, {model.output_dim})"
        )
    # overflow here only happens on a diverging model; the caller detects the
    # resulting non-finite loss, so silence the intermediate warnings
    with np.errstate(over="ignore", invalid="ignore"):
        delta, activations = _forward(model, batch, keep_activations=True)
        delta -= targets  # the residual, in the prediction's buffer
        batch_loss = float(0.5 * np.sum(delta * delta, dtype=np.float64) / delta.shape[0])
        if not np.isfinite(batch_loss):
            return batch_loss
        delta /= delta.shape[0]  # d loss / d pred, mean over the batch
        for layer in reversed(range(len(model.weights))):
            # popped, so each activation is freed once its layer is done
            h = activations.pop()
            grad_w = _matmul(h.T, delta)
            grad_b = delta.sum(axis=0)
            if layer > 0:
                # tanh' = 1 - tanh^2, written over the stored hidden activation
                np.square(h, out=h)
                np.subtract(1.0, h, out=h)
                delta = _matmul(delta, model.weights[layer].T)
                delta *= h
            apply(layer, grad_w, grad_b)
            # freed now, not once the next layer's gradients are allocated
            del grad_w, grad_b
    return batch_loss


def sgd_update(model: MlpModel, lr: float) -> Callable[[int, np.ndarray, np.ndarray], None]:
    """The ``apply`` of plain SGD at rate ``lr`` for ``backward``: it steps one
    layer's weights and biases in place, scaling the gradients in their own
    buffers."""

    def apply(layer: int, grad_w: np.ndarray, grad_b: np.ndarray) -> None:
        grad_w *= lr
        model.weights[layer] -= grad_w
        grad_b *= lr
        model.biases[layer] -= grad_b

    return apply


def train(
    model: MlpModel,
    train_set: tuple[np.ndarray, np.ndarray],
    valid_set: tuple[np.ndarray, np.ndarray],
    schedule: TrainingSchedule,
    *,
    on_best: Callable[[MlpModel], None] = lambda model: None,
) -> tuple[MlpModel, list[EpochRecord]]:
    """Plain SGD with the warm-up/decay schedule and early stopping.

    Batches are reshuffled each epoch with a generator seeded from the
    schedule. The training inputs need only ``shape``, ``astype`` and row
    indexing by an index array, so a ``labels.GatheredRows`` serves as well
    as a matrix and builds each batch when it is drawn. Inputs, targets and
    validation inputs are cast to the model's dtype once, here, so no batch
    is cast. Stops early when validation MSE has not improved for
    ``patience`` consecutive epochs after warm-up, and when the training loss
    overflows the model's float range, which a diverging float32 net reaches
    long before float64 would, or the validation MSE is not finite. Raises
    ``TrainingDiverged`` when the best validation MSE exceeds
    ``DIVERGENCE_FACTOR`` times the MSE of predicting zero, however finite
    its numbers are, or no epoch stayed finite; the message then names the
    value that went non-finite, if one did. An empty set, or inputs and
    targets of different row counts, is a ``DataError``.

    ``on_best(model)`` is called at each epoch that sets a new best
    validation MSE within that bar, with the net as it stands then, so the
    last call holds the best epoch's parameters; ``model`` trains on after
    it returns. It is the only keeper of the best epoch: by default nothing
    is kept, and ``train`` copies no net. Returns ``model``, as it stands
    after the last epoch, and the history.
    """
    train_x, train_y = train_set
    train_x = train_x.astype(model.dtype, copy=False)
    train_y = np.asarray(train_y, dtype=model.dtype)
    valid_x = np.asarray(valid_set[0], dtype=model.dtype)
    valid_y = np.asarray(valid_set[1], dtype=np.float64)
    if train_x.shape[0] == 0 or valid_x.shape[0] == 0:
        raise DataError("train and validation sets must be non-empty")
    for name, x, y in (("training", train_x, train_y), ("validation", valid_x, valid_y)):
        if x.shape[0] != y.shape[0]:
            raise DataError(f"{x.shape[0]} {name} input rows for {y.shape[0]} target rows")

    zero_mse = float(np.mean(valid_y * valid_y))
    # the divergence bar: an epoch above it is never handed to on_best
    bar = DIVERGENCE_FACTOR * zero_mse

    rng = np.random.default_rng(schedule.seed)
    best_valid = np.inf
    stale_epochs = 0
    history: list[EpochRecord] = []
    # names the value that went non-finite and stopped training, if one did
    non_finite = ""

    for epoch in range(1, schedule.max_epochs + 1):
        lr = schedule.learning_rate(epoch)
        update = sgd_update(model, lr)
        order = rng.permutation(train_x.shape[0])
        loss_sum = 0.0
        for start in range(0, order.size, schedule.batch_size):
            idx = order[start : start + schedule.batch_size]
            loss_sum += backward(model, train_x[idx], train_y[idx], update) * idx.size
            if not np.isfinite(loss_sum):
                break
        # an overflowed net cannot recover; the epochs before it hold the best
        if not np.isfinite(loss_sum):
            non_finite = "the training loss"
            break
        # per-element MSE over all training rows, comparable with the
        # validation column; each batch loss is a mean over its own rows
        train_mse = 2.0 * loss_sum / (order.size * model.output_dim)
        valid_mse = mse(forward(model, valid_x), valid_y)
        if not np.isfinite(valid_mse):
            non_finite = "the validation MSE"
            break
        history.append(EpochRecord(epoch=epoch, lr=lr, train_mse=train_mse, valid_mse=valid_mse))

        if valid_mse < best_valid:
            best_valid = valid_mse
            if valid_mse <= bar:
                on_best(model)
            stale_epochs = 0
        elif epoch > schedule.warmup_epochs:
            stale_epochs += 1
            if stale_epochs >= schedule.patience:
                break

    if not best_valid <= bar:
        stopped = f"; {non_finite} went non-finite at epoch {epoch}" if non_finite else ""
        raise TrainingDiverged(
            f"best validation MSE {best_valid:.4g} exceeds {DIVERGENCE_FACTOR:g} x "
            f"{zero_mse:.4g}, the MSE of predicting zero{stopped}"
        )
    return model, history


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared difference over all elements of two equal-shape arrays."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ArgumentError(f"shape mismatch: {a.shape} vs {b.shape}")
    # the operands are cast as they are read, so neither is copied to float64
    diff = np.subtract(a, b, dtype=np.float64)
    np.multiply(diff, diff, out=diff)  # square in place: one temporary per call
    return float(np.mean(diff))


def predict_utterance(
    model: MlpModel,
    inputs: np.ndarray,
    output_stats: NormalizationStats,
    mgc_dim: int = acoustic.MGC_DIM,
    bap_dim: int = acoustic.BAP_DIM,
) -> dict[str, AcousticStreams]:
    """Generate both trajectory variants for one utterance of normalized inputs.

    Runs the network once and denormalizes its output, splits it into stream
    blocks and collapses each block to its static trajectory two ways: MLPG
    over the training-set variances (``"mlpg"``) and plain truncation to the
    static columns (``"static"``). The voicing flag, thresholded at 0.5, is
    shared by both and lives only in their LF0 streams, as the unvoiced
    sentinel. Returns the streams keyed by variant name (``VARIANTS`` order).
    """
    if output_stats.n_columns != acoustic.target_width(mgc_dim, bap_dim):
        raise ArgumentError(
            f"output stats have {output_stats.n_columns} columns, expected "
            f"{acoustic.target_width(mgc_dim, bap_dim)}"
        )
    denorm = acoustic.invert_normalization(output_stats, forward(model, inputs))
    if not np.all(np.isfinite(denorm)):
        raise DataError("non-finite predictions: the model has diverged")
    columns = acoustic.split_target_columns(mgc_dim, bap_dim)
    variances = np.where(output_stats.b > 0.0, output_stats.b**2, 1.0)

    voiced = denorm[:, columns["vuv"]].ravel() > 0.5
    statics = {"mlpg": {}, "static": {}}
    for name, width in (("mgc", mgc_dim), ("bap", bap_dim), ("lf0", 1)):
        block = denorm[:, columns[name]]
        statics["mlpg"][name] = acoustic.mlpg(block, variances[columns[name]])
        statics["static"][name] = block[:, :width]
    return {
        variant: AcousticStreams(
            mgc=s["mgc"],
            bap=s["bap"],
            lf0=np.where(voiced, s["lf0"].ravel(), acoustic.UNVOICED_LF0),
        )
        for variant, s in statics.items()
    }


def _check_batch(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    batch = np.atleast_2d(np.asarray(batch, dtype=model.dtype))
    if batch.shape[1] != model.input_dim:
        raise ArgumentError(f"batch width {batch.shape[1]} != model input {model.input_dim}")
    return batch


def save_checkpoint(
    model: MlpModel,
    input_stats: NormalizationStats,
    output_stats: NormalizationStats,
    path: Path,
) -> None:
    """Write the whole trained model: the net and the normalisation it was trained under.

    The records are the int64 layer sizes, then each layer's weights and
    biases at the net's own float width (32 or 64 bits), then the input
    min/max and output mean/std in float64. The normalisation kinds are fixed
    by role (min-max inputs, mean-variance outputs), so no kind is stored.
    """
    if model.dtype not in _NET_DTYPES:
        raise ArgumentError(f"cannot checkpoint a net of dtype {model.dtype}")
    for role, stats, kind, n_columns in (
        ("input", input_stats, "minmax", model.input_dim),
        ("output", output_stats, "meanvar", model.output_dim),
    ):
        if stats.kind != kind:
            raise ArgumentError(f"{role} stats must be {kind}, got {stats.kind!r}")
        if stats.n_columns != n_columns:
            raise ArgumentError(
                f"{role} stats have {stats.n_columns} columns, model {role} has {n_columns}"
            )
    net = [a for pair in zip(model.weights, model.biases) for a in pair]
    stats = [input_stats.a, input_stats.b, output_stats.a, output_stats.b]
    arrayfile.save(path, [np.array(model.layer_sizes, dtype=np.int64), *net, *stats])


def load_checkpoint(path: Path) -> tuple[MlpModel, NormalizationStats, NormalizationStats]:
    """The model written by ``save_checkpoint``, in its stored dtype, with its
    input and output stats, each array read in one writable copy. A file of
    another record count, dtype or shape chain is a ``FormatError``."""
    records = arrayfile.load(path)
    sizes = records[0] if records else np.empty(0)
    if sizes.dtype != np.int64 or sizes.ndim != 1 or sizes.size < 2 or np.any(sizes < 1):
        raise FormatError(f"checkpoint does not start with the layer sizes: {path}")
    sizes = tuple(int(n) for n in sizes)
    net_dtype = records[1].dtype if len(records) > 1 else None
    expected = [(np.int64, (len(sizes),))]
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        expected += [(net_dtype, (fan_in, fan_out)), (net_dtype, (fan_out,))]
    expected += [(np.float64, (n,)) for n in (sizes[0], sizes[0], sizes[-1], sizes[-1])]
    if net_dtype not in _NET_DTYPES or [(r.dtype, r.shape) for r in records] != expected:
        raise FormatError(f"checkpoint records do not follow layer sizes {sizes}: {path}")
    _, *net, in_min, in_max, out_mean, out_std = records
    return (
        MlpModel(sizes, weights=net[0::2], biases=net[1::2]),
        NormalizationStats("minmax", a=in_min, b=in_max),
        NormalizationStats("meanvar", a=out_mean, b=out_std),
    )
