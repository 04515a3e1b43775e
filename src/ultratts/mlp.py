"""Feed-forward acoustic model: tanh MLP, plain SGD training, generation.

Default architecture and schedule follow the experiment constants: six
hidden layers of 1024 tanh units, linear output, SGD with batch size 256,
25 epochs with a 10-epoch warm-up at learning rate 0.002 and exponential
decay afterwards, early stopping on validation error. Everything runs in
64-bit floats. A checkpoint is the whole trained model: the net plus the
input and output normalisation it was trained under.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import acoustic
from .acoustic import AcousticStreams, NormalizationStats
from .errors import ArgumentError, DataError, FormatError, TrainingDiverged

DEFAULT_HIDDEN = (1024,) * 6

# Generated trajectory variants: MLPG-smoothed and raw static predictions.
VARIANTS = ("mlpg", "static")

_CKPT_MAGIC = b"MLPC"
_CKPT_VERSION = 2


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

    def copy(self) -> "MlpModel":
        return MlpModel(
            layer_sizes=self.layer_sizes,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


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
        if not self.warmup_epochs < self.max_epochs:
            raise ArgumentError("warmup_epochs must be smaller than max_epochs")
        if not self.base_lr > 0:
            raise ArgumentError("base_lr must be > 0")
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
) -> MlpModel:
    """Glorot-uniform weights, zero biases; bit-deterministic for a given seed."""
    if input_dim < 1:
        raise ArgumentError(f"input_dim must be >= 1, got {input_dim}")
    sizes = (input_dim, *hidden_sizes, output_dim)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases)


def forward(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """Affine + tanh through the hidden layers, linear output."""
    return _forward(model, _check_batch(model, batch), keep_activations=False)[0]


def _forward(
    model: MlpModel, batch: np.ndarray, keep_activations: bool
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Output, plus the input and every hidden activation when asked for."""
    activations = [batch] if keep_activations else []
    h = batch
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.tanh(h @ w + b)
        if keep_activations:
            activations.append(h)
    return h @ model.weights[-1] + model.biases[-1], activations


def backward(
    model: MlpModel, batch: np.ndarray, targets: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    """Gradients of the half-MSE loss for every weight and bias, plus the loss.

    The loss is half of the batch-mean squared error, summed over output
    dimensions; it is the quantity SGD minimises.
    """
    batch = _check_batch(model, batch)
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if targets.shape != (batch.shape[0], model.output_dim):
        raise ArgumentError(
            f"target shape {targets.shape} != ({batch.shape[0]}, {model.output_dim})"
        )
    # overflow here only happens on a diverging model; the caller detects the
    # resulting non-finite loss, so silence the intermediate warnings
    with np.errstate(over="ignore", invalid="ignore"):
        pred, activations = _forward(model, batch, keep_activations=True)
        diff = pred - targets
        batch_loss = float(0.5 * np.sum(diff * diff) / diff.shape[0])
        delta = diff / diff.shape[0]  # d loss / d pred, mean over the batch
        grads_w = [np.empty(0)] * len(model.weights)
        grads_b = [np.empty(0)] * len(model.biases)
        for layer in reversed(range(len(model.weights))):
            grads_w[layer] = activations[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                # tanh' = 1 - tanh^2, using the stored activation
                delta = (delta @ model.weights[layer].T) * (1.0 - activations[layer] ** 2)
    return grads_w, grads_b, batch_loss


def train(
    model: MlpModel,
    train_set: tuple[np.ndarray, np.ndarray],
    valid_set: tuple[np.ndarray, np.ndarray],
    schedule: TrainingSchedule,
) -> tuple[MlpModel, list[EpochRecord]]:
    """Plain SGD with the warm-up/decay schedule and early stopping.

    Batches are reshuffled each epoch with a generator seeded from the
    schedule. Returns the parameters of the best-validation epoch; stops
    early when validation MSE has not improved for ``patience`` consecutive
    epochs after warm-up.
    """
    train_x, train_y = (np.asarray(a, dtype=np.float64) for a in train_set)
    valid_x, valid_y = (np.asarray(a, dtype=np.float64) for a in valid_set)
    if train_x.shape[0] == 0 or valid_x.shape[0] == 0:
        raise DataError("train and validation sets must be non-empty")

    rng = np.random.default_rng(schedule.seed)
    best = model.copy()
    best_valid = np.inf
    stale_epochs = 0
    history: list[EpochRecord] = []

    for epoch in range(1, schedule.max_epochs + 1):
        lr = schedule.learning_rate(epoch)
        order = rng.permutation(train_x.shape[0])
        loss_sum = 0.0
        for start in range(0, order.size, schedule.batch_size):
            idx = order[start : start + schedule.batch_size]
            grads_w, grads_b, batch_loss = backward(model, train_x[idx], train_y[idx])
            if not np.isfinite(batch_loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
            loss_sum += batch_loss * idx.size
            for w, b, gw, gb in zip(model.weights, model.biases, grads_w, grads_b):
                w -= lr * gw
                b -= lr * gb
        # per-element MSE over all training rows, comparable with the
        # validation column; each batch loss is a mean over its own rows
        train_mse = 2.0 * loss_sum / (order.size * model.output_dim)
        valid_mse = mse(forward(model, valid_x), valid_y)
        if not np.isfinite(valid_mse):
            raise TrainingDiverged(f"non-finite validation MSE at epoch {epoch}")
        history.append(EpochRecord(epoch=epoch, lr=lr, train_mse=train_mse, valid_mse=valid_mse))

        if valid_mse < best_valid:
            best_valid = valid_mse
            best = model.copy()
            stale_epochs = 0
        elif epoch > schedule.warmup_epochs:
            stale_epochs += 1
            if stale_epochs >= schedule.patience:
                break
    return best, history


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared difference over all elements of two equal-shape arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ArgumentError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    return float(np.mean(diff * diff))


def predict_utterance(
    model: MlpModel,
    inputs: np.ndarray,
    output_stats: NormalizationStats,
    mgc_dim: int = acoustic.MGC_DIM,
    bap_dim: int = acoustic.BAP_DIM,
) -> tuple[dict[str, AcousticStreams], np.ndarray]:
    """Generate both trajectory variants for one utterance of normalized inputs.

    Runs the network once and denormalizes its output, splits it into stream
    blocks and collapses each block to its static trajectory two ways: MLPG
    over the training-set variances (``"mlpg"``) and plain truncation to the
    static columns (``"static"``). The voicing flag, thresholded at 0.5, is
    shared by both; each re-imposes the unvoiced LF0 sentinel with it.
    Returns the streams keyed by variant name (``VARIANTS`` order) and the
    voicing flags.
    """
    if output_stats.kind != "meanvar":
        raise ArgumentError(
            f"output stats must be mean-variance normalized, got {output_stats.kind!r}"
        )
    if output_stats.n_columns != acoustic.target_width(mgc_dim, bap_dim):
        raise ArgumentError(
            f"output stats have {output_stats.n_columns} columns, expected "
            f"{acoustic.target_width(mgc_dim, bap_dim)}"
        )
    denorm = acoustic.invert_normalization(output_stats, forward(model, inputs))
    columns = acoustic.split_target_columns(mgc_dim, bap_dim)
    variances = np.where(output_stats.b > 0.0, output_stats.b**2, 1.0)

    vuv = (denorm[:, columns["vuv"]].ravel() > 0.5).astype(np.float64)
    statics = {"mlpg": {}, "static": {}}
    for name, width in (("mgc", mgc_dim), ("bap", bap_dim), ("lf0", 1)):
        block = denorm[:, columns[name]]
        statics["mlpg"][name] = acoustic.mlpg(block, variances[columns[name]])
        statics["static"][name] = block[:, :width]
    streams = {
        variant: AcousticStreams(
            mgc=s["mgc"],
            bap=s["bap"],
            lf0=np.where(vuv > 0.0, s["lf0"].ravel(), acoustic.UNVOICED_LF0),
        )
        for variant, s in statics.items()
    }
    return streams, vuv


def _check_batch(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
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

    After the magic, version and layer count come the layer sizes, each
    layer's weights and biases, the input min/max and the output mean/std,
    all little-endian. The normalisation kinds are fixed by role (min-max
    inputs, mean-variance outputs), so no kind code is stored.
    """
    for role, stats, kind, width in (
        ("input", input_stats, "minmax", model.input_dim),
        ("output", output_stats, "meanvar", model.output_dim),
    ):
        if stats.kind != kind:
            raise ArgumentError(f"{role} stats must be {kind}, got {stats.kind!r}")
        if stats.n_columns != width:
            raise ArgumentError(
                f"{role} stats have {stats.n_columns} columns, model {role} has {width}"
            )
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIQ", _CKPT_MAGIC, _CKPT_VERSION, len(model.layer_sizes)))
        fh.write(struct.pack(f"<{len(model.layer_sizes)}Q", *model.layer_sizes))
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(b.astype("<f8").tobytes())
        for vector in (input_stats.a, input_stats.b, output_stats.a, output_stats.b):
            fh.write(vector.astype("<f8").tobytes())


def load_checkpoint(path: Path) -> tuple[MlpModel, NormalizationStats, NormalizationStats]:
    """The model written by ``save_checkpoint``, with its input and output stats."""
    data = Path(path).read_bytes()
    offset = struct.calcsize("<4sIQ")
    try:
        magic, version, n_sizes = struct.unpack_from("<4sIQ", data)
        if magic != _CKPT_MAGIC or version != _CKPT_VERSION or n_sizes < 2:
            raise FormatError(f"not a recognized checkpoint: {path}")
        sizes = struct.unpack_from(f"<{n_sizes}Q", data, offset)
        offset += 8 * n_sizes
    except struct.error as e:
        raise FormatError(f"truncated or corrupt checkpoint header in {path}: {e}") from e
    pairs = list(zip(sizes[:-1], sizes[1:]))
    counts = [n for fan_in, fan_out in pairs for n in (fan_in * fan_out, fan_out)]
    counts += [sizes[0], sizes[0], sizes[-1], sizes[-1]]
    expected = offset + 8 * sum(counts)
    if len(data) != expected:
        raise FormatError(f"checkpoint length {len(data)} != expected {expected}: {path}")
    floats = np.frombuffer(data, dtype="<f8", offset=offset).copy()
    parts = np.split(floats, np.cumsum(counts)[:-1])
    weights = [w.reshape(shape) for w, shape in zip(parts[0:-4:2], pairs)]
    model = MlpModel(layer_sizes=tuple(sizes), weights=weights, biases=parts[1:-4:2])
    in_min, in_max, out_mean, out_std = parts[-4:]
    return (
        model,
        NormalizationStats("minmax", a=in_min, b=in_max),
        NormalizationStats("meanvar", a=out_mean, b=out_std),
    )
