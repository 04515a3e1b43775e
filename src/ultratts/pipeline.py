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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from math import floor
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import acoustic, eigentongues, labels, metrics, misalign, mlp, ultra
from .config import PATH_FIELDS, ExperimentConfig, read_config, write_config
from .errors import ArgumentError, ConfigError, DataError, StageError, TrainingDiverged

STAGES = ("prepare", "pca", "train", "generate", "evaluate", "misalign")
VARIANTS = mlp.VARIANTS

CONFIG_NAME = "config.cfg"

# training fails when its best validation MSE exceeds this multiple of the
# MSE of predicting zero for the mean-variance normalised dev targets
DIVERGENCE_FACTOR = 10.0


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
    if n_train == 0 or n_dev == 0 or n_test == 0:
        raise ConfigError(
            f"empty split block: train={n_train} dev={n_dev} test={n_test} for n={n}"
        )
    ids = tuple(utterance_ids)
    return DatasetSplit(
        train=ids[:n_train],
        dev=ids[n_train : n_train + n_dev],
        test=ids[n_train + n_dev :],
    )


def assemble_inputs(
    system: str,
    linguistic: np.ndarray | None,
    ultrasound_coeffs: np.ndarray | None,
) -> np.ndarray:
    """Network input matrix for one utterance under the given system.

    txt2wav uses the linguistic matrix alone (ultrasound is ignored even if
    provided); ult2wav concatenates the 4 positional columns with the PCA
    coefficients; txt+ult2wav concatenates the full linguistic matrix with
    the coefficients.
    """
    if system == "txt2wav":
        if linguistic is None:
            raise ArgumentError("txt2wav needs a linguistic matrix")
        return np.asarray(linguistic, dtype=np.float64)
    if system == "ult2wav":
        if linguistic is None or ultrasound_coeffs is None:
            raise ArgumentError("ult2wav needs positional features and ultrasound coefficients")
        if linguistic.shape[1] != labels.N_POSITIONAL:
            raise ArgumentError(
                f"ult2wav expects a positional-only matrix with {labels.N_POSITIONAL} "
                f"columns, got {linguistic.shape[1]}"
            )
    elif system == "txt+ult2wav":
        if linguistic is None or ultrasound_coeffs is None:
            raise ArgumentError("txt+ult2wav needs both linguistic and ultrasound matrices")
    else:
        raise ArgumentError(f"unknown system {system!r}")
    if linguistic.shape[0] != ultrasound_coeffs.shape[0]:
        raise DataError(
            f"frame count mismatch: linguistic has {linguistic.shape[0]} frames, "
            f"ultrasound has {ultrasound_coeffs.shape[0]}"
        )
    return np.hstack([linguistic, ultrasound_coeffs]).astype(np.float64)


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

    def prepared(self, kind: str, utt_id: str) -> Path:
        return self.root / "prepare" / kind / f"{utt_id}.npy"

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


def _map_ordered(fn: Callable, items: Sequence, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# stages


def stage_prepare(cfg: ExperimentConfig, run: RunPaths) -> None:
    """Discover utterances, split, and persist per-utterance targets and features."""
    ids = ultra.discover_utterances(cfg.ultrasound_dir)
    split = split_dataset(ids, cfg.ratios)
    for kind in ("target", "ling"):
        (run.stage_dir("prepare") / kind).mkdir(parents=True, exist_ok=True)

    if cfg.system == "ult2wav":
        questions = labels.QuestionSet.empty()
    else:
        questions = labels.parse_questions(Path(cfg.question_file).read_text())

    def prepare_one(utt_id: str) -> None:
        streams = acoustic.read_streams(cfg.acoustic_dir, utt_id, cfg.mgc_dim, cfg.bap_dim)
        targets, _ = acoustic.build_targets(streams)
        np.save(run.prepared("target", utt_id), targets)

        parsed = labels.parse_labels((Path(cfg.label_dir) / f"{utt_id}.lab").read_text())
        ling = labels.extract_features(parsed, questions, cfg.frame_shift, streams.n_frames)
        np.save(run.prepared("ling", utt_id), ling)

    _map_ordered(prepare_one, split.all_ids, cfg.workers)
    run.splits.write_text(
        json.dumps(
            {"train": split.train, "dev": split.dev, "test": split.test},
            indent=2,
        )
        + "\n"
    )


def _frame_count(run: RunPaths, utt_id: str) -> int:
    return np.load(run.prepared("target", utt_id), mmap_mode="r").shape[0]


def utterance_frames(cfg: ExperimentConfig, run: RunPaths, utt_id: str) -> np.ndarray:
    seq = ultra.read_utterance(Path(cfg.ultrasound_dir) / f"{utt_id}.ult")
    n = _frame_count(run, utt_id)
    return ultra.resampled_resized_frames(seq, cfg.frame_shift, n, cfg.resize_rows, cfg.resize_cols)


def train_frame_matrix(cfg: ExperimentConfig, run: RunPaths, split: DatasetSplit) -> np.ndarray:
    """Training-block ultrasound frames, stacked in recording order."""
    return np.vstack(_map_ordered(partial(utterance_frames, cfg, run), split.train, cfg.workers))


def stage_pca(cfg: ExperimentConfig, run: RunPaths) -> None:
    """Resize raw frames, fit on training frames only, project every utterance once.

    txt2wav inputs never read the coefficients, so for it the stage only
    checks that prepare has run.
    """
    split = load_split(run)
    if cfg.system == "txt2wav":
        return
    train_frames = train_frame_matrix(cfg, run, split)
    model = eigentongues.fit_pca(train_frames, cfg.variance_target, cfg.max_components)
    run.coeffs("x").parent.mkdir(parents=True, exist_ok=True)
    eigentongues.save_model(model, run.pca_model)
    bounds = np.cumsum([_frame_count(run, u) for u in split.train])[:-1]
    for utt_id, frames in zip(split.train, np.split(train_frames, bounds)):
        np.save(run.coeffs(utt_id), eigentongues.transform(model, frames))
    for utt_id in split.dev + split.test:
        frames = utterance_frames(cfg, run, utt_id)
        np.save(run.coeffs(utt_id), eigentongues.transform(model, frames))


def utterance_inputs(cfg: ExperimentConfig, run: RunPaths, utt_id: str) -> np.ndarray:
    ling = np.load(run.prepared("ling", utt_id))
    coeffs = np.load(run.coeffs(utt_id)) if cfg.system != "txt2wav" else None
    return assemble_inputs(cfg.system, ling, coeffs)


def input_matrix(cfg: ExperimentConfig, run: RunPaths, ids: Iterable[str]) -> np.ndarray:
    return np.vstack([utterance_inputs(cfg, run, u) for u in ids])


def target_matrix(run: RunPaths, ids: Iterable[str]) -> np.ndarray:
    return np.vstack([np.load(run.prepared("target", u)) for u in ids])


def stage_train(cfg: ExperimentConfig, run: RunPaths) -> None:
    """Fit normalizations on the training block, then train the network."""
    split = load_split(run)
    train_x = input_matrix(cfg, run, split.train)
    train_y = target_matrix(run, split.train)
    dev_x = input_matrix(cfg, run, split.dev)
    dev_y = target_matrix(run, split.dev)

    input_stats = acoustic.fit_normalization(train_x, "minmax")
    output_stats = acoustic.fit_normalization(train_y, "meanvar")

    schedule = mlp.TrainingSchedule(
        max_epochs=cfg.max_epochs,
        warmup_epochs=cfg.warmup_epochs,
        base_lr=cfg.base_lr,
        decay=cfg.lr_decay,
        batch_size=cfg.batch_size,
        patience=cfg.patience,
        seed=cfg.seed,
    )
    model = mlp.init_model(
        train_x.shape[1],
        cfg.seed,
        hidden_sizes=(cfg.hidden_units,) * cfg.hidden_layers,
        output_dim=acoustic.target_width(cfg.mgc_dim, cfg.bap_dim),
    )
    dev_y = acoustic.apply_normalization(output_stats, dev_y)
    best, history = mlp.train(
        model,
        (acoustic.apply_normalization(input_stats, train_x),
         acoustic.apply_normalization(output_stats, train_y)),
        (acoustic.apply_normalization(input_stats, dev_x), dev_y),
        schedule,
    )
    # normalised targets make predicting zero score about 1: a best epoch far
    # above that has diverged, however finite its numbers are
    best_mse = min(rec.valid_mse for rec in history)
    zero_mse = mlp.mse(np.zeros_like(dev_y), dev_y)
    if not best_mse <= DIVERGENCE_FACTOR * zero_mse:
        raise TrainingDiverged(
            f"best validation MSE {best_mse:.4g} exceeds {DIVERGENCE_FACTOR:g} x "
            f"{zero_mse:.4g}, the MSE of predicting zero"
        )

    run.checkpoint.parent.mkdir(parents=True, exist_ok=True)
    mlp.save_checkpoint(best, input_stats, output_stats, run.checkpoint)
    with open(run.history, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "train_mse", "valid_mse"])
        for rec in history:
            writer.writerow([rec.epoch, repr(rec.lr), repr(rec.train_mse), repr(rec.valid_mse)])


def stage_generate(cfg: ExperimentConfig, run: RunPaths) -> None:
    """Predict dev/test utterances and write both trajectory variants."""
    split = load_split(run)
    model, input_stats, output_stats = mlp.load_checkpoint(run.checkpoint)
    for variant in VARIANTS:
        run.generated(variant, "x", "mgc").parent.mkdir(parents=True, exist_ok=True)

    def generate_one(utt_id: str) -> None:
        x = acoustic.apply_normalization(input_stats, utterance_inputs(cfg, run, utt_id))
        by_variant, _ = mlp.predict_utterance(model, x, output_stats, cfg.mgc_dim, cfg.bap_dim)
        for variant, streams in by_variant.items():
            acoustic.save_stream(streams.mgc, run.generated(variant, utt_id, "mgc"))
            acoustic.save_stream(streams.bap, run.generated(variant, utt_id, "bap"))
            acoustic.save_stream(streams.lf0[:, None], run.generated(variant, utt_id, "lf0"))

    _map_ordered(generate_one, split.dev + split.test, cfg.workers)


def stage_evaluate(cfg: ExperimentConfig, run: RunPaths) -> list[metrics.EvaluationReport]:
    """Score generated dev/test utterances against the corpus references."""
    split = load_split(run)
    # each reference and its V/UV serve every variant, so read them once
    references = {}
    for utt_id in (*split.dev, *split.test):
        ref = acoustic.read_streams(cfg.acoustic_dir, utt_id, cfg.mgc_dim, cfg.bap_dim)
        references[utt_id] = ref, acoustic.interpolate_lf0(ref.lf0)[1]
    reports = []
    for variant in VARIANTS:
        for split_name in ("dev", "test"):
            evals = []
            for utt_id in split.ids_of(split_name):
                ref, ref_vuv = references[utt_id]
                pred = acoustic.read_streams(
                    run.stage_dir("generate") / variant, utt_id, cfg.mgc_dim, cfg.bap_dim
                )
                pred_vuv = acoustic.interpolate_lf0(pred.lf0)[1]
                evals.append(metrics.evaluate_utterance(utt_id, ref, ref_vuv, pred, pred_vuv))
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

    def one_mean(utt_id: str) -> np.ndarray:
        seq = ultra.read_utterance(Path(cfg.ultrasound_dir) / f"{utt_id}.ult")
        return misalign.mean_image(seq)

    images = _map_ordered(one_mean, ids, cfg.workers)
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
