"""End-to-end experiment orchestration over a run directory.

Stages run in a fixed order -- prepare, pca, train, generate, evaluate,
misalign -- and each writes only into its own subdirectory of the run, so
individual stages can be rerun. ``start_run`` clears those subdirectories and
echoes the resolved config to ``config.cfg`` at the run root, the only config
the stages read. Statistics (PCA model, input/output normalization) are
fitted on the training block only.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass
from math import floor
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import acoustic, eigentongues, labels, metrics, misalign, mlp, ultra
from .config import PATH_FIELDS, ExperimentConfig, read_config, write_config
from .errors import ConfigError, StageError

STAGES = ("prepare", "pca", "train", "generate", "evaluate", "misalign")
VARIANTS = mlp.VARIANTS

CONFIG_NAME = "config.cfg"

# the float type the acoustic net trains and generates in; normalisation is
# fitted and applied in float64 before the cast
NET_DTYPE = np.float32


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[str, ...]
    dev: tuple[str, ...]
    test: tuple[str, ...]

    @property
    def all_ids(self) -> tuple[str, ...]:
        return self.train + self.dev + self.test

    def ids_of(self, split_name: str) -> tuple[str, ...]:
        return getattr(self, split_name)


def split_dataset(
    utterance_ids: Sequence[str], ratios: tuple[float, float, float]
) -> DatasetSplit:
    """Contiguous train/dev/test blocks in recording order.

    Train takes the first floor(r_train * n) utterances, dev the next
    floor(r_dev * n), test the remainder.
    """
    n = len(utterance_ids)
    if n < 3:
        raise ConfigError(f"need at least 3 utterances to split, got {n}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {sum(ratios)}")
    # tiny epsilon so ratios like 0.7 * 10 do not floor down through fp dust
    n_train = floor(ratios[0] * n + 1e-9)
    n_dev = floor(ratios[1] * n + 1e-9)
    n_test = n - n_train - n_dev
    if min(n_train, n_dev, n_test) < 1:
        raise ConfigError(
            f"empty split block: train={n_train} dev={n_dev} test={n_test} for n={n}"
        )
    ids = tuple(utterance_ids)
    return DatasetSplit(
        train=ids[:n_train],
        dev=ids[n_train : n_train + n_dev],
        test=ids[n_train + n_dev :],
    )


# ---------------------------------------------------------------------------
# run directory layout


class RunPaths:
    def __init__(self, run_dir: Path):
        self.root = Path(run_dir)

    @property
    def config(self) -> Path:
        return self.root / CONFIG_NAME

    def stage_dir(self, stage: str) -> Path:
        return self.root / stage

    @property
    def splits(self) -> Path:
        return self.root / "prepare" / "splits.json"

    def ling(self, utt_id: str) -> Path:
        return self.root / "prepare" / "ling" / f"{utt_id}.npz"

    @property
    def pca_model(self) -> Path:
        return self.root / "pca" / "model.bin"

    def coeffs(self, utt_id: str) -> Path:
        return self.root / "pca" / "coeffs" / f"{utt_id}.npy"

    @property
    def checkpoint(self) -> Path:
        return self.root / "train" / "model.bin"

    @property
    def history(self) -> Path:
        return self.root / "train" / "history.csv"

    def generated(self, variant: str, utt_id: str, ext: str) -> Path:
        return self.root / "generate" / variant / f"{utt_id}.{ext}"

    @property
    def report_csv(self) -> Path:
        return self.root / "evaluate" / "report.csv"

    @property
    def report_tables(self) -> Path:
        return self.root / "evaluate" / "tables.txt"

    @property
    def misalign_dir(self) -> Path:
        return self.root / "misalign"


def load_split(run: RunPaths) -> DatasetSplit:
    data = json.loads(run.splits.read_text())
    return DatasetSplit(
        train=tuple(data["train"]), dev=tuple(data["dev"]), test=tuple(data["test"])
    )


# ---------------------------------------------------------------------------
# stages


def stage_prepare(cfg: ExperimentConfig, run: RunPaths) -> None:
    """Discover utterances, split, and persist per-utterance linguistic features:
    the answers of each label (when the system reads questions), the label of
    each frame of the utterance's checked acoustic streams, and each frame's 4
    positional features."""
    ids = ultra.discover_utterances(cfg.ultrasound_dir)
    split = split_dataset(ids, cfg.ratios)
    run.ling("x").parent.mkdir(parents=True, exist_ok=True)

    if cfg.reads_questions:
        questions = labels.parse_questions(Path(cfg.question_file).read_text())
    else:
        questions = labels.QuestionSet.empty()

    for utt_id in split.all_ids:
        streams = acoustic.read_streams(cfg.acoustic_dir, utt_id, cfg.mgc_dim, cfg.bap_dim)
        parsed = labels.parse_labels((Path(cfg.label_dir) / f"{utt_id}.lab").read_text())
        ling = labels.extract_features(parsed, questions, cfg.frame_shift, streams.n_frames)
        labels.save_features(ling, run.ling(utt_id))
    run.splits.write_text(
        json.dumps(
            {"train": split.train, "dev": split.dev, "test": split.test},
            indent=2,
        )
        + "\n"
    )


def utterance_frames(
    cfg: ExperimentConfig, run: RunPaths, utt_id: str
) -> tuple[np.ndarray, np.ndarray]:
    """The utterance's distinct resized frames and the target-clock index into them."""
    seq = ultra.read_utterance(Path(cfg.ultrasound_dir) / f"{utt_id}.ult")
    n = labels.frame_count(run.ling(utt_id))
    return ultra.resampled_resized_frames(seq, cfg.frame_shift, n, cfg.resize_rows, cfg.resize_cols)


def train_frame_matrix(
    cfg: ExperimentConfig, run: RunPaths, split: DatasetSplit
) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The training block's distinct ultrasound frames, stacked in recording
    order; how many target frames each row stands for; and each utterance's
    rows (a view of the stack) with its target-clock index into them."""
    resized = [utterance_frames(cfg, run, utt_id) for utt_id in split.train]
    frames = np.vstack([rows for rows, _ in resized])
    counts = np.concatenate([np.bincount(index, minlength=len(rows)) for rows, index in resized])
    bounds = np.cumsum([len(rows) for rows, _ in resized])[:-1]
    utterances = [(rows, index) for rows, (_, index) in zip(np.split(frames, bounds), resized)]
    return frames, counts, utterances


def stage_pca(cfg: ExperimentConfig, run: RunPaths) -> None:
    """Resize raw frames, fit on training frames only, project every utterance once.

    Only distinct source frames are resized, fitted (weighted by how many
    target frames repeat each) and projected; each coefficient file holds one
    row per target frame. When the system does not read ultrasound no input
    uses the coefficients, so the stage only checks that prepare has run.
    """
    split = load_split(run)
    if not cfg.reads_ultrasound:
        return
    frames, counts, train_utterances = train_frame_matrix(cfg, run, split)
    model = eigentongues.fit_pca(frames, cfg.variance_target, cfg.max_components, counts=counts)
    run.coeffs("x").parent.mkdir(parents=True, exist_ok=True)
    eigentongues.save_model(model, run.pca_model)
    for utt_id, (rows, index) in zip(split.train, train_utterances):
        np.save(run.coeffs(utt_id), eigentongues.transform(model, rows)[index])
    for utt_id in split.dev + split.test:
        rows, index = utterance_frames(cfg, run, utt_id)
        np.save(run.coeffs(utt_id), eigentongues.transform(model, rows)[index])


def utterance_inputs(cfg: ExperimentConfig, run: RunPaths, utt_id: str) -> np.ndarray:
    """Network input matrix for one utterance: the prepared linguistic features
    expanded per frame, followed by its PCA coefficients when the system reads
    ultrasound."""
    ling = labels.load_features(run.ling(utt_id)).dense()
    if not cfg.reads_ultrasound:
        return ling
    return np.hstack([ling, np.load(run.coeffs(utt_id))])


def input_matrix(cfg: ExperimentConfig, run: RunPaths, ids: Iterable[str]) -> np.ndarray:
    return np.vstack([utterance_inputs(cfg, run, u) for u in ids])


def gathered_inputs(cfg: ExperimentConfig, run: RunPaths, ids: Iterable[str]) -> mlp.GatheredRows:
    """The rows of ``input_matrix`` without building it: a table of the answers
    of every label that owns a frame, and a per-frame block of the positional
    features followed by the PCA coefficients when the system reads ultrasound."""
    tables, whiches, blocks = [], [], []
    n_labels = 0
    for utt_id in ids:
        ling = labels.load_features(run.ling(utt_id))
        owners, which = np.unique(ling.which, return_inverse=True)
        tables.append(ling.answers[owners])
        whiches.append(which + n_labels)
        n_labels += owners.size
        block = ling.positional
        if cfg.reads_ultrasound:
            block = np.hstack([block, np.load(run.coeffs(utt_id))])
        blocks.append(block)
    return mlp.GatheredRows(np.vstack(tables), np.concatenate(whiches), np.vstack(blocks))


def normalize_gathered(rows: mlp.GatheredRows) -> acoustic.NormalizationStats:
    """Fit min-max statistics on the table and on the per-frame block, normalise
    each in place, and return the statistics of the whole rows.

    They equal those of the expanded matrix, since the table holds only labels
    that own a row and min and max are exact. Normalisation works element by
    element, so each gathered row equals the normalised expanded row bit for bit.
    """
    parts = []
    for block in (rows.table, rows.frames):
        parts.append(acoustic.fit_normalization(block, "minmax"))
        acoustic.normalize_in_place(parts[-1], block)
    return acoustic.NormalizationStats(
        "minmax",
        a=np.concatenate([p.a for p in parts]),
        b=np.concatenate([p.b for p in parts]),
    )


def target_matrix(cfg: ExperimentConfig, ids: Iterable[str]) -> np.ndarray:
    """The utterances' float64 regression targets, in order, filled into one
    matrix sized from the feature files' frame counts."""
    ids = list(ids)
    n_rows = sum(acoustic.frame_count(cfg.acoustic_dir, u) for u in ids)
    targets = np.empty((n_rows, acoustic.target_width(cfg.mgc_dim, cfg.bap_dim)))
    start = 0
    for utt_id in ids:
        streams = acoustic.read_streams(cfg.acoustic_dir, utt_id, cfg.mgc_dim, cfg.bap_dim)
        targets[start : start + streams.n_frames] = acoustic.build_targets(streams)
        start += streams.n_frames
    return targets


def stage_train(cfg: ExperimentConfig, run: RunPaths) -> None:
    """Fit normalizations on the training block, then train the network.

    The training inputs stay gathered (``gathered_inputs``): no per-frame
    linguistic matrix of the training block is built. Everything is
    normalised in place in float64, then cast once to ``NET_DTYPE``, the
    dtype of the net, and the float64 copies are dropped before training.
    """
    split = load_split(run)
    train_x = gathered_inputs(cfg, run, split.train)
    train_y = target_matrix(cfg, split.train)
    dev_x = input_matrix(cfg, run, split.dev)
    dev_y = target_matrix(cfg, split.dev)

    input_stats = normalize_gathered(train_x)
    output_stats = acoustic.fit_normalization(train_y, "meanvar")
    for stats, data in ((output_stats, train_y), (input_stats, dev_x), (output_stats, dev_y)):
        acoustic.normalize_in_place(stats, data)
    # one at a time, so each float64 array is freed before the next is cast
    train_x = train_x.astype(NET_DTYPE)
    train_y = train_y.astype(NET_DTYPE)
    dev_x = dev_x.astype(NET_DTYPE)

    model = mlp.init_model(
        train_x.shape[1],
        cfg.seed,
        hidden_sizes=(cfg.hidden_units,) * cfg.hidden_layers,
        output_dim=acoustic.target_width(cfg.mgc_dim, cfg.bap_dim),
        dtype=NET_DTYPE,
    )
    best, history = mlp.train(model, (train_x, train_y), (dev_x, dev_y), cfg.schedule)

    run.checkpoint.parent.mkdir(parents=True, exist_ok=True)
    mlp.save_checkpoint(best, input_stats, output_stats, run.checkpoint)
    with open(run.history, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "train_mse", "valid_mse"])
        for rec in history:
            writer.writerow([rec.epoch, repr(rec.lr), repr(rec.train_mse), repr(rec.valid_mse)])


def stage_generate(cfg: ExperimentConfig, run: RunPaths) -> None:
    """Predict dev/test utterances and write both trajectory variants.

    The net runs in its checkpointed dtype; its outputs are denormalised in
    float64."""
    split = load_split(run)
    model, input_stats, output_stats = mlp.load_checkpoint(run.checkpoint)
    for variant in VARIANTS:
        run.generated(variant, "x", "mgc").parent.mkdir(parents=True, exist_ok=True)

    for utt_id in split.dev + split.test:
        x = acoustic.apply_normalization(input_stats, utterance_inputs(cfg, run, utt_id))
        by_variant = mlp.predict_utterance(model, x, output_stats, cfg.mgc_dim, cfg.bap_dim)
        for variant, streams in by_variant.items():
            acoustic.save_stream(streams.mgc, run.generated(variant, utt_id, "mgc"))
            acoustic.save_stream(streams.bap, run.generated(variant, utt_id, "bap"))
            acoustic.save_stream(streams.lf0[:, None], run.generated(variant, utt_id, "lf0"))


def stage_evaluate(cfg: ExperimentConfig, run: RunPaths) -> list[metrics.EvaluationReport]:
    """Score generated dev/test utterances against the corpus references."""
    split = load_split(run)
    # each reference serves every variant, so read it once
    references = {
        utt_id: acoustic.read_streams(cfg.acoustic_dir, utt_id, cfg.mgc_dim, cfg.bap_dim)
        for utt_id in (*split.dev, *split.test)
    }
    reports = []
    for variant in VARIANTS:
        for split_name in ("dev", "test"):
            evals = []
            for utt_id in split.ids_of(split_name):
                pred = acoustic.read_streams(
                    run.stage_dir("generate") / variant, utt_id, cfg.mgc_dim, cfg.bap_dim
                )
                evals.append(metrics.evaluate_utterance(utt_id, references[utt_id], pred))
            reports.append(
                metrics.aggregate(
                    evals,
                    speaker=cfg.speaker,
                    system=cfg.system,
                    split=split_name,
                    variant=variant,
                )
            )
    run.report_csv.parent.mkdir(parents=True, exist_ok=True)
    metrics.write_report_csv(reports, run.report_csv)
    run.report_tables.write_text(metrics.render_tables(reports))
    return reports


def stage_misalign(cfg: ExperimentConfig, run: RunPaths) -> misalign.BlockSummary:
    """Pairwise mean-image MSE over the whole session at raw resolution."""
    split = load_split(run)
    ids = split.all_ids
    images = []
    for utt_id in ids:
        seq = ultra.read_utterance(Path(cfg.ultrasound_dir) / f"{utt_id}.ult")
        images.append(misalign.mean_image(seq))
    matrix = misalign.build_matrix(images, ids)
    summary = misalign.block_summary(matrix, len(split.train), len(split.dev), len(split.test))
    out = run.misalign_dir
    out.mkdir(parents=True, exist_ok=True)
    misalign.write_matrix_csv(matrix, out / "matrix.csv")
    (out / "heatmap.ppm").write_bytes(misalign.render_heatmap(matrix))
    misalign.write_summary(summary, out / "summary.json")
    return summary


_STAGE_FUNCTIONS = {
    "prepare": stage_prepare,
    "pca": stage_pca,
    "train": stage_train,
    "generate": stage_generate,
    "evaluate": stage_evaluate,
    "misalign": stage_misalign,
}


def start_run(cfg: ExperimentConfig, run_dir: Path) -> RunPaths:
    """Check the data paths, clear every stage's outputs, and echo ``cfg`` with
    absolute data paths as the one config that the run's stages read."""
    for name in PATH_FIELDS:
        path = Path(getattr(cfg, name)).absolute()
        if not path.exists():
            raise ConfigError(f"{name} does not exist: {path}")
    run = RunPaths(run_dir)
    for stage in STAGES:
        if run.stage_dir(stage).exists():
            shutil.rmtree(run.stage_dir(stage))
    run.root.mkdir(parents=True, exist_ok=True)
    write_config(cfg, run.config)
    return run


def run_stage(stage: str, run_dir: Path):
    """Run one stage under the run's config echo; failures are stage-tagged and
    partial outputs are kept."""
    try:
        return _STAGE_FUNCTIONS[stage](load_run_config(run_dir), RunPaths(run_dir))
    except StageError:
        raise
    except Exception as e:
        raise StageError(stage, e) from e


def run_experiment(cfg: ExperimentConfig, run_dir: Path) -> Path:
    """Start a new run under ``cfg`` and execute every stage in order."""
    run = start_run(cfg, run_dir)
    for stage in STAGES:
        run_stage(stage, run_dir)
    return run.root


def load_run_config(run_dir: Path) -> ExperimentConfig:
    run = RunPaths(run_dir)
    if not run.config.exists():
        raise ConfigError(f"no resolved config at {run.config}; run prepare with --config first")
    return read_config(run.config)
