"""End-to-end experiment orchestration over a run directory.

Stages run in a fixed order -- prepare, pca, train, generate, evaluate,
misalign -- and each writes only into its own subdirectory of the run, so
individual stages can be rerun; ``prepare`` checks the corpus and writes
nothing. ``start_run`` clears those subdirectories and writes the run's two
inputs at its root: the resolved config, ``config.cfg``, and the
train/dev/test split, ``splits.json``. ``run_stage`` reads both and
calls every stage as ``stage(cfg, split, run)``. Statistics (PCA model,
input/output normalization) are fitted on the training block only. Every
network input comes from ``gathered_inputs``, which builds the linguistic
features from the corpus's label files, so no copy of them is kept in the
run directory. The inputs are normalised and cast while still gathered:
train draws its batches from the gathered rows, and the dev set and each
generated utterance expand them whole with ``dense()``.
"""

from __future__ import annotations

import csv
import json
import shutil
import tempfile
from dataclasses import asdict, dataclass
from math import floor
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import acoustic, arrayfile, eigentongues, labels, metrics, misalign, mlp, ultra
from .config import PATH_FIELDS, ExperimentConfig, read_config, write_config
from .errors import ConfigError, FormatError, StageError

CONFIG_NAME = "config.cfg"


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[str, ...]
    dev: tuple[str, ...]
    test: tuple[str, ...]

    @property
    def all_ids(self) -> tuple[str, ...]:
        return self.train + self.dev + self.test


def split_dataset(
    utterance_ids: Sequence[str], ratios: tuple[float, float, float]
) -> DatasetSplit:
    """Contiguous train/dev/test blocks in recording order.

    Train takes the first floor(r_train * n) utterances, dev the next
    floor(r_dev * n), test the remainder. Train needs at least 2 utterances
    (the misalignment diagnostic compares training utterances with each
    other), dev and test at least 1 each.
    """
    n = len(utterance_ids)
    if n < 4:
        raise ConfigError(f"need at least 4 utterances to split, got {n}")
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
    if n_train < 2:
        raise ConfigError(f"training block of {n_train} utterance: it needs at least 2")
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
        return self.root / "splits.json"

    @property
    def pca_model(self) -> Path:
        return self.root / "pca" / "model.bin"

    def coeffs(self, utt_id: str) -> Path:
        return self.root / "pca" / "coeffs" / f"{utt_id}.npy"

    @property
    def checkpoint(self) -> Path:
        return self.root / "train" / "model.bin"

    @property
    def partial_checkpoint(self) -> Path:
        """The best epoch's checkpoint while training runs; renamed over
        ``checkpoint`` once it ends."""
        return self.root / "train" / "model.bin.partial"

    @property
    def history(self) -> Path:
        return self.root / "train" / "history.csv"

    def generated(self, variant: str) -> Path:
        return self.root / "generate" / variant

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
    if not run.splits.exists():
        raise ConfigError(f"no split at {run.splits}; run prepare with --config first")
    data = json.loads(run.splits.read_text())
    return DatasetSplit(
        train=tuple(data["train"]), dev=tuple(data["dev"]), test=tuple(data["test"])
    )


# ---------------------------------------------------------------------------
# stages


def load_questions(cfg: ExperimentConfig) -> labels.QuestionSet:
    """The run's question set: the parsed question file when the system reads
    questions, and the empty set otherwise."""
    if cfg.reads_questions:
        return labels.parse_questions(Path(cfg.question_file).read_text())
    return labels.QuestionSet.empty()


def utterance_features(
    cfg: ExperimentConfig, questions: labels.QuestionSet, utt_id: str
) -> labels.GatheredRows:
    """The utterance's linguistic features, built from its label file over the
    frames of its acoustic streams."""
    parsed = labels.parse_labels((Path(cfg.label_dir) / f"{utt_id}.lab").read_text())
    n_frames = acoustic.frame_count(cfg.acoustic_dir, utt_id)
    return labels.extract_features(parsed, questions, acoustic.FRAME_SHIFT, n_frames)


def stage_prepare(cfg: ExperimentConfig, split: DatasetSplit, run: RunPaths) -> None:
    """Check every utterance's inputs before any later stage reads them, and
    write nothing: its acoustic streams hold frames of one length, its label
    file parses, the question set answers each label, and its ultrasound
    sidecar parses and its ``.ult`` file holds whole frames, read from the
    file's size and for every system, since ``misalign`` reads the ultrasound
    of all three. ``train`` and ``generate`` build the features again where
    they use them."""
    questions = load_questions(cfg)
    for utt_id in split.all_ids:
        acoustic.read_streams(cfg.acoustic_dir, utt_id)
        utterance_features(cfg, questions, utt_id)
        ultra.read_frame_count(Path(cfg.ultrasound_dir) / f"{utt_id}.ult")


def utterance_frames(cfg: ExperimentConfig, utt_id: str) -> tuple[np.ndarray, np.ndarray]:
    """The utterance's distinct resized frames and the target-clock index into
    them, one per frame of the corpus's acoustic streams."""
    seq = ultra.read_utterance(Path(cfg.ultrasound_dir) / f"{utt_id}.ult")
    n = acoustic.frame_count(cfg.acoustic_dir, utt_id)
    return ultra.resampled_resized_frames(seq, acoustic.FRAME_SHIFT, n, cfg.resize_rows, cfg.resize_cols)


def distinct_frame_count(cfg: ExperimentConfig, utt_id: str) -> int:
    """How many distinct source frames the utterance's acoustic frame clock
    selects, from its sidecar and the size of its ``.ult`` file: no frame is read."""
    meta, n_frames = ultra.read_frame_count(Path(cfg.ultrasound_dir) / f"{utt_id}.ult")
    n = acoustic.frame_count(cfg.acoustic_dir, utt_id)
    return ultra.frame_clock_selection(meta, n_frames, acoustic.FRAME_SHIFT, n)[0].size


def train_frame_matrix(
    cfg: ExperimentConfig, split: DatasetSplit
) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The training block's distinct ultrasound frames, stacked in recording
    order; how many target frames each row stands for; and each utterance's
    rows (a view of the stack) with its target-clock index into them.

    Every utterance's distinct frame count is taken before any frame is read,
    so the stack is allocated once at its size and each utterance's frames are
    resized into their rows: the frames are held once, besides one utterance's."""
    bounds = np.cumsum([0] + [distinct_frame_count(cfg, utt_id) for utt_id in split.train])
    frames = np.empty((bounds[-1], cfg.resize_rows * cfg.resize_cols))
    utterances = []
    for utt_id, lo, hi in zip(split.train, bounds[:-1], bounds[1:]):
        frames[lo:hi], index = utterance_frames(cfg, utt_id)
        utterances.append((frames[lo:hi], index))
    counts = np.concatenate([np.bincount(index, minlength=len(rows)) for rows, index in utterances])
    return frames, counts, utterances


def stage_pca(cfg: ExperimentConfig, split: DatasetSplit, run: RunPaths) -> None:
    """Resize raw frames, fit on training frames only, project every utterance once.

    Only distinct source frames are resized, fitted (weighted by how many
    target frames repeat each) and projected; each coefficient file holds one
    row per target frame. Only the corpus and the run's config and split are
    read, never another stage's outputs. When the system does not read
    ultrasound no input uses the coefficients, so the stage does nothing.

    The training block's distinct row count, known before any frame is read,
    chooses how its frames are held. Below the frame dimension d the fit takes
    the u x u snapshot form, which needs every row at once: the stack, under
    d² values, is held once and centred in place by the fit. From d rows on
    the fit takes the d x d scatter form, which needs only passes over the
    rows: each utterance's rows are written to an unnamed temporary file in
    ``pca/``, u·d·8 bytes that vanish when it is closed, even on failure, and
    the fit and the training projections read them back a block at a time,
    so the stage's memory does not grow with the training block.
    """
    if not cfg.reads_ultrasound:
        return
    run.coeffs("x").parent.mkdir(parents=True, exist_ok=True)
    d = cfg.resize_rows * cfg.resize_cols
    if sum(distinct_frame_count(cfg, utt_id) for utt_id in split.train) < d:
        frames, counts, train_utterances = train_frame_matrix(cfg, split)
        model = eigentongues.fit_pca(
            frames, cfg.variance_target, cfg.max_components, counts=counts, centre_in_place=True
        )
        eigentongues.save_model(model, run.pca_model)
        # the fit left the stack centred, so each utterance's rows are centred too
        for utt_id, (rows, index) in zip(split.train, train_utterances):
            arrayfile.save(run.coeffs(utt_id), [eigentongues.project(model, rows)[index]])
        # release the stack before dev and test are resized
        del frames, train_utterances, rows
    else:
        with tempfile.TemporaryFile(dir=run.stage_dir("pca")) as file:
            # one block per utterance, so one utterance's frames are held at a time
            source = eigentongues.SpilledRows(file, d)
            indices = []
            for utt_id in split.train:
                rows, index = utterance_frames(cfg, utt_id)
                source.append(rows)
                indices.append(index)
            counts = np.concatenate([np.bincount(index) for index in indices])
            model = eigentongues.fit_pca(source, cfg.variance_target, cfg.max_components, counts=counts)
            eigentongues.save_model(model, run.pca_model)
            for utt_id, index, rows in zip(split.train, indices, source.blocks()):
                arrayfile.save(run.coeffs(utt_id), [eigentongues.transform(model, rows)[index]])
    for utt_id in split.dev + split.test:
        rows, index = utterance_frames(cfg, utt_id)
        arrayfile.save(run.coeffs(utt_id), [eigentongues.transform(model, rows)[index]])


def gathered_inputs(
    cfg: ExperimentConfig, run: RunPaths, questions: labels.QuestionSet, ids: Iterable[str]
) -> labels.GatheredRows:
    """The network inputs of the utterances, in order: a table of the answers
    to ``questions`` of every label that owns a frame, and a per-frame block
    of the positional features followed by the PCA coefficients when the
    system reads ultrasound. Each utterance's features are built from its
    label file over its acoustic frame count. ``dense()`` expands them to the
    input matrix."""
    tables, whiches, blocks = [], [], []
    n_labels = 0
    for utt_id in ids:
        features = utterance_features(cfg, questions, utt_id)
        owners, which = np.unique(features.which, return_inverse=True)
        tables.append(features.table[owners])
        whiches.append(which + n_labels)
        n_labels += owners.size
        block = features.frames
        if cfg.reads_ultrasound:
            path = run.coeffs(utt_id)
            coeffs = arrayfile.load(path)
            if [c.ndim for c in coeffs] != [2] or len(coeffs[0]) != len(block):
                raise FormatError(f"{path} is not one 2-D record of {len(block)} frames")
            block = np.hstack([block, coeffs[0]])
        blocks.append(block)
    return labels.GatheredRows(np.vstack(tables), np.concatenate(whiches), np.vstack(blocks))


def normalize_gathered(
    rows: labels.GatheredRows,
) -> tuple[acoustic.NormalizationStats, labels.GatheredRows]:
    """Fit min-max statistics on the table and on the per-frame block; return
    the statistics of the whole rows and the rows ``net_inputs`` makes under them.

    The statistics equal those of the expanded matrix, since the table holds
    only labels that own a row and min and max are exact.
    """
    parts = [acoustic.fit_normalization(block, "minmax") for block in (rows.table, rows.frames)]
    stats = acoustic.NormalizationStats(
        "minmax",
        a=np.concatenate([p.a for p in parts]),
        b=np.concatenate([p.b for p in parts]),
    )
    return stats, net_inputs(stats, rows)


def net_inputs(
    stats: acoustic.NormalizationStats, rows: labels.GatheredRows
) -> labels.GatheredRows:
    """Normalise the float64 table and per-frame block of ``rows`` in place,
    each under its columns of ``stats``, and return them cast to ``mlp.NET_DTYPE``.

    Normalisation works element by element, so each gathered row, and the
    matrix ``dense()`` expands, equal the normalised, cast expanded rows bit
    for bit, while the float64 rows are never expanded.
    """
    split = rows.table.shape[1]
    for block, columns in ((rows.table, slice(None, split)), (rows.frames, slice(split, None))):
        part = acoustic.NormalizationStats(stats.kind, a=stats.a[columns], b=stats.b[columns])
        acoustic.normalize_in_place(part, block)
    return rows.astype(mlp.NET_DTYPE)


def stage_train(cfg: ExperimentConfig, split: DatasetSplit, run: RunPaths) -> None:
    """Fit normalizations on the training block, then train the network.

    The question set is parsed once for the training and dev inputs and
    released before training. The training inputs stay gathered: no
    per-frame linguistic matrix of the training block is built. The dev
    inputs are the same rows, normalised and cast while gathered and then
    expanded whole. The inputs are normalised in place in float64, then cast
    once to ``mlp.NET_DTYPE``, the dtype of the net, and the float64 copies are
    dropped before training. ``acoustic`` builds
    the targets an utterance at a time: ``target_stats`` fits the output
    statistics on the training block, and ``normalized_targets`` gives the
    training targets in ``mlp.NET_DTYPE`` and the dev targets in float64, for the
    validation score, so no float64 matrix of the training block is made.

    The stage holds one net. Each epoch that sets a new best validation MSE
    within the divergence bar is written whole to ``partial_checkpoint``, in
    place over the last best epoch (see ``arrayfile.save``), and when
    training ends that file is renamed over ``checkpoint``, after the
    history is written. A training that fails or is interrupted removes
    the file, so it leaves no checkpoint, and one left by an attempt that was
    killed is removed when the stage starts.
    """
    run.partial_checkpoint.unlink(missing_ok=True)
    questions = load_questions(cfg)
    # one at a time, so each float64 array is freed once it is cast
    input_stats, train_x = normalize_gathered(gathered_inputs(cfg, run, questions, split.train))
    dev_x = net_inputs(input_stats, gathered_inputs(cfg, run, questions, split.dev)).dense()
    # training reads no question: holding the compiled set raised the stage's peak
    del questions
    output_stats = acoustic.target_stats(cfg.acoustic_dir, split.train)
    train_y, dev_y = (
        acoustic.normalized_targets(cfg.acoustic_dir, ids, output_stats, dtype)
        for ids, dtype in ((split.train, mlp.NET_DTYPE), (split.dev, np.float64))
    )

    model = mlp.init_model(
        train_x.shape[1],
        cfg.seed,
        hidden_sizes=(cfg.hidden_units,) * cfg.hidden_layers,
        dtype=mlp.NET_DTYPE,
    )

    def keep_best(net: mlp.MlpModel) -> None:
        mlp.save_checkpoint(net, input_stats, output_stats, run.partial_checkpoint)

    run.checkpoint.parent.mkdir(parents=True, exist_ok=True)
    try:
        _, history = mlp.train(
            model, (train_x, train_y), (dev_x, dev_y), cfg.schedule, on_best=keep_best
        )
        with open(run.history, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "lr", "train_mse", "valid_mse"])
            for rec in history:
                writer.writerow([rec.epoch, repr(rec.lr), repr(rec.train_mse), repr(rec.valid_mse)])
    except BaseException:
        run.partial_checkpoint.unlink(missing_ok=True)
        raise
    run.partial_checkpoint.replace(run.checkpoint)


def stage_generate(cfg: ExperimentConfig, split: DatasetSplit, run: RunPaths) -> None:
    """Predict dev/test utterances and write both trajectory variants.

    Each utterance's gathered inputs are normalised in float64, cast to
    ``mlp.NET_DTYPE``, the checkpointed net's dtype, and then expanded whole;
    its outputs are denormalised in float64."""
    model, input_stats, output_stats = mlp.load_checkpoint(run.checkpoint)
    questions = load_questions(cfg)
    for variant in mlp.VARIANTS:
        run.generated(variant).mkdir(parents=True, exist_ok=True)

    for utt_id in split.dev + split.test:
        rows = gathered_inputs(cfg, run, questions, [utt_id])
        x = net_inputs(input_stats, rows).dense()
        by_variant = mlp.predict_utterance(model, x, output_stats)
        for variant, streams in by_variant.items():
            acoustic.save_streams(streams, run.generated(variant), utt_id)


def stage_evaluate(cfg: ExperimentConfig, split: DatasetSplit, run: RunPaths) -> None:
    """Score generated dev/test utterances against the corpus references."""
    # each reference serves every variant, so read it once
    references = {
        utt_id: acoustic.read_streams(cfg.acoustic_dir, utt_id)
        for utt_id in (*split.dev, *split.test)
    }
    reports = []
    for variant in mlp.VARIANTS:
        for split_name in ("dev", "test"):
            evals = []
            for utt_id in getattr(split, split_name):
                pred = acoustic.read_streams(run.generated(variant), utt_id)
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


def stage_misalign(cfg: ExperimentConfig, split: DatasetSplit, run: RunPaths) -> None:
    """Pairwise mean-image MSE over the whole session at raw resolution."""
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
    (out / "heatmap.png").write_bytes(misalign.render_heatmap(matrix))
    misalign.write_summary(summary, out / "summary.json")


# every stage, in run order
STAGES = {
    "prepare": stage_prepare,
    "pca": stage_pca,
    "train": stage_train,
    "generate": stage_generate,
    "evaluate": stage_evaluate,
    "misalign": stage_misalign,
}


def start_run(cfg: ExperimentConfig, run_dir: Path) -> RunPaths:
    """Check the data paths and split the corpus under ``cfg``'s ratios, then
    clear every stage's outputs and write the only config and split that the
    run's stages read: ``cfg`` with absolute data paths, and the split."""
    for name in PATH_FIELDS:
        path = Path(getattr(cfg, name)).absolute()
        if not path.exists():
            raise ConfigError(f"{name} does not exist: {path}")
    split = split_dataset(ultra.discover_utterances(cfg.ultrasound_dir), cfg.ratios)
    run = RunPaths(run_dir)
    for stage in STAGES:
        if run.stage_dir(stage).exists():
            shutil.rmtree(run.stage_dir(stage))
    run.root.mkdir(parents=True, exist_ok=True)
    write_config(cfg, run.config)
    run.splits.write_text(json.dumps(asdict(split), indent=2) + "\n")
    return run


def run_stage(stage: str, run_dir: Path) -> None:
    """Run one stage under the run's config and split; failures are
    stage-tagged and partial outputs are kept."""
    run = RunPaths(run_dir)
    try:
        STAGES[stage](load_run_config(run_dir), load_split(run), run)
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
