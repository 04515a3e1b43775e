import os
import re
import shutil
from copy import deepcopy
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import config_for
from test_acoustic import stacked_targets
from test_arrayfile import traced_peak
from test_mlp import train_keeping_best
from ultratts import (
    acoustic, cli, eigentongues, labels, metrics, mlp, pipeline, synthetic, ultra,
)
from ultratts.config import (
    PATH_FIELDS, SECTIONS, SYSTEMS, ExperimentConfig, read_config, write_config,
)
from ultratts.errors import ConfigError, StageError


def label_file_features(cfg, questions, utt_id):
    """The utterance's features, extracted from its label file over its frame count."""
    parsed = labels.parse_labels((Path(cfg.label_dir) / f"{utt_id}.lab").read_text())
    n_frames = acoustic.frame_count(cfg.acoustic_dir, utt_id)
    return labels.extract_features(parsed, questions, cfg.frame_shift, n_frames)


def write_config_setting_workers(cfg, path):
    """``cfg`` written with the removed ``[experiment] workers`` key set."""
    write_config(cfg, path)
    path.write_text(path.read_text().replace("[experiment]\n", "[experiment]\nworkers = 2\n"))


class TestSplitDataset:
    def test_200_utterances(self):
        ids = [f"u{i:03d}" for i in range(200)]
        split = pipeline.split_dataset(ids, (0.85, 0.10, 0.05))
        assert (len(split.train), len(split.dev), len(split.test)) == (170, 20, 10)

    def test_20_utterances_floor_arithmetic(self):
        split = pipeline.split_dataset([f"u{i}" for i in range(20)], (0.85, 0.10, 0.05))
        assert (len(split.train), len(split.dev), len(split.test)) == (17, 2, 1)

    def test_blocks_contiguous_in_order(self):
        ids = [f"u{i:02d}" for i in range(30)]
        split = pipeline.split_dataset(ids, (0.85, 0.10, 0.05))
        assert list(split.all_ids) == ids

    def test_empty_block_rejected(self):
        for ratios in ((1.0, 0.0, 0.0), (1.2, -0.1, -0.1)):
            with pytest.raises(ConfigError):
                pipeline.split_dataset([f"u{i}" for i in range(10)], ratios)

    def test_one_utterance_training_block_rejected(self):
        ids = [f"u{i}" for i in range(4)]
        with pytest.raises(ConfigError, match="training block of 1 utterance"):
            pipeline.split_dataset(ids, (0.25, 0.25, 0.5))
        with pytest.raises(ConfigError, match="at least 4 utterances"):
            pipeline.split_dataset(ids[:3], (0.34, 0.33, 0.33))
        split = pipeline.split_dataset(ids, (0.5, 0.25, 0.25))
        assert (len(split.train), len(split.dev), len(split.test)) == (2, 1, 1)

    def test_bad_ratio_sum_rejected(self):
        with pytest.raises(ConfigError):
            pipeline.split_dataset([f"u{i}" for i in range(10)], (0.5, 0.1, 0.1))


class TestConfig:
    def test_round_trip_field_for_field(self, tmp_path, tiny_corpus):
        cfg = config_for(tiny_corpus, system="txt2wav", seed=9)
        path = tmp_path / "exp.cfg"
        write_config(cfg, path)
        assert read_config(path) == cfg

    def test_every_field_sits_in_exactly_one_section(self):
        listed = [name for names in SECTIONS.values() for name in names]
        assert sorted(listed) == sorted(f.name for f in fields(ExperimentConfig))

    def test_every_field_round_trips_at_a_non_default_value(self, tmp_path):
        values = dict(
            ultrasound_dir=tmp_path / "ult", label_dir=tmp_path / "lab",
            acoustic_dir=tmp_path / "ac", question_file=tmp_path / "q.hed",
            speaker="fkms", system="ult2wav", seed=4,
            train_ratio=0.7, dev_ratio=0.2, test_ratio=0.1,
            resize_rows=8, resize_cols=16, variance_target=0.9, max_components=12,
            frame_shift=0.01, mgc_dim=40, bap_dim=3, hidden_layers=2, hidden_units=32,
            max_epochs=9, warmup_epochs=2, base_lr=0.05, lr_decay=0.8, batch_size=64, patience=3,
        )
        assert set(values) == {f.name for f in fields(ExperimentConfig)}
        for f in fields(ExperimentConfig):
            assert values[f.name] != f.default, f.name
        cfg = ExperimentConfig(**values)
        write_config(cfg, tmp_path / "exp.cfg")
        assert read_config(tmp_path / "exp.cfg") == cfg

    def test_written_layout(self, tmp_path, tiny_corpus):
        write_config(config_for(tiny_corpus, seed=3), tmp_path / "exp.cfg")
        text = (tmp_path / "exp.cfg").read_text()
        assert re.findall(r"^\[(\w+)\]$", text, flags=re.M) == list(SECTIONS)
        assert "[split]\ntrain = 0.85\ndev = 0.1\ntest = 0.05\n\n" in text
        assert "[experiment]\nspeaker = spk\nsystem = txt+ult2wav\nseed = 3\n\n" in text

    def test_relative_paths_resolve_against_config_location(self, tmp_path):
        for sub in ("ult", "lab", "ac"):
            (tmp_path / sub).mkdir()
        (tmp_path / "q.hed").write_text("")
        (tmp_path / "exp.cfg").write_text(
            "[data]\nultrasound_dir = ult\nlabel_dir = lab\n"
            "acoustic_dir = ac\nquestion_file = q.hed\n"
        )
        cfg = read_config(tmp_path / "exp.cfg")
        assert cfg.ultrasound_dir == (tmp_path / "ult").resolve()

    def test_cwd_relative_paths_written_elsewhere_read_back_unchanged(
        self, tmp_path, tiny_corpus, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        relative = {
            name: Path(os.path.relpath(getattr(tiny_corpus, name), tmp_path))
            for name in PATH_FIELDS
        }
        (tmp_path / "sub").mkdir()
        write_config(replace(config_for(tiny_corpus), **relative), tmp_path / "sub" / "exp.cfg")
        cfg = read_config(tmp_path / "sub" / "exp.cfg")
        for name, path in relative.items():
            assert getattr(cfg, name) == path.absolute()

    def test_bad_ratios_rejected(self, tiny_corpus):
        with pytest.raises(ConfigError):
            config_for(tiny_corpus, train_ratio=0.9, dev_ratio=0.2, test_ratio=0.05)
        with pytest.raises(ConfigError, match="negative"):
            config_for(tiny_corpus, train_ratio=1.2, dev_ratio=-0.1, test_ratio=-0.1)
        with pytest.raises(ConfigError, match="NaN"):
            config_for(tiny_corpus, train_ratio=float("nan"))

    def test_input_recipe_per_system(self, tiny_corpus):
        expected = {"txt2wav": (True, False), "ult2wav": (False, True), "txt+ult2wav": (True, True)}
        assert set(expected) == set(SYSTEMS)
        for system, recipe in expected.items():
            cfg = config_for(tiny_corpus, system=system)
            assert (cfg.reads_questions, cfg.reads_ultrasound) == recipe, system

    def test_schedule_is_derived_from_the_training_fields(self, tiny_corpus):
        cfg = config_for(tiny_corpus, seed=4, lr_decay=0.7, patience=3)
        assert cfg.schedule == mlp.TrainingSchedule(
            max_epochs=18, warmup_epochs=6, base_lr=0.05, decay=0.7, batch_size=256,
            patience=3, seed=4,
        )
        assert "schedule" not in {f.name for f in fields(ExperimentConfig)}
        with pytest.raises(AttributeError):
            cfg.schedule = cfg.schedule

    def test_unknown_system_rejected(self, tiny_corpus):
        with pytest.raises(ConfigError):
            config_for(tiny_corpus, system="wav2txt")

    def test_percent_in_paths_round_trips(self, tmp_path, tiny_corpus):
        cfg = replace(
            config_for(tiny_corpus),
            ultrasound_dir=tmp_path / "100%" / "ult",
            label_dir=tmp_path / "a%(b)s",
        )
        write_config(cfg, tmp_path / "exp.cfg")
        assert read_config(tmp_path / "exp.cfg") == cfg

    @pytest.mark.parametrize("key", ["frame_shift", "base_lr"])
    def test_infinite_value_rejected(self, tmp_path, tiny_corpus, key):
        cfg_file = tmp_path / "exp.cfg"
        write_config(config_for(tiny_corpus), cfg_file)
        cfg_file.write_text(re.sub(rf"^{key} = .*$", f"{key} = inf", cfg_file.read_text(), flags=re.M))
        with pytest.raises(ConfigError, match=f"{key} must be finite and > 0, got inf"):
            read_config(cfg_file)

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "exp.cfg").write_text("[data]\nwhatever = 3\n")
        with pytest.raises(ConfigError):
            read_config(tmp_path / "exp.cfg")

    def test_removed_workers_key_rejected(self, tmp_path, tiny_corpus):
        cfg_file = tmp_path / "exp.cfg"
        write_config_setting_workers(config_for(tiny_corpus), cfg_file)
        with pytest.raises(ConfigError, match="unknown key 'workers' in section \\[experiment\\]"):
            read_config(cfg_file)

    def test_defaults_match_experiment_constants(self, tiny_corpus):
        cfg = ExperimentConfig(
            ultrasound_dir=tiny_corpus.ultrasound_dir,
            label_dir=tiny_corpus.label_dir,
            acoustic_dir=tiny_corpus.acoustic_dir,
            question_file=tiny_corpus.question_file,
        )
        assert cfg.ratios == (0.85, 0.10, 0.05)
        assert (cfg.resize_rows, cfg.resize_cols) == (64, 128)
        assert (cfg.variance_target, cfg.max_components) == (0.70, 128)
        assert (cfg.hidden_layers, cfg.hidden_units) == (6, 1024)
        assert (cfg.max_epochs, cfg.warmup_epochs) == (25, 10)
        assert (cfg.base_lr, cfg.batch_size) == (0.002, 256)
        assert cfg.frame_shift == 0.005
        assert (cfg.mgc_dim, cfg.bap_dim) == (60, 5)


@pytest.fixture(scope="module")
def prepared_runs(tiny_corpus, tmp_path_factory):
    """Each system's run directory after ``prepare`` and ``pca`` only."""
    runs = {}
    for system in SYSTEMS:
        cfg = config_for(tiny_corpus, system=system)
        run = pipeline.start_run(cfg, tmp_path_factory.mktemp("inputs") / system.replace("+", "_"))
        for stage in ("prepare", "pca"):
            pipeline.run_stage(stage, run.root)
        runs[system] = (cfg, run)
    return runs


class TestInputRecipe:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_input_width_and_pca_products(self, prepared_runs, system):
        cfg, run = prepared_runs[system]
        questions = labels.parse_questions(Path(cfg.question_file).read_text())
        n_answers = len(questions.binary) + len(questions.numeric)
        assert run.stage_dir("pca").exists() == cfg.reads_ultrasound
        k = eigentongues.load_model(run.pca_model).n_components if cfg.reads_ultrasound else 0
        width = (n_answers + 4 if cfg.reads_questions else 4) + k
        run_questions = pipeline.load_questions(cfg)
        for utt_id in pipeline.load_split(run).all_ids:
            x = pipeline.gathered_inputs(cfg, run, run_questions, [utt_id]).dense()
            assert x.shape == (acoustic.frame_count(cfg.acoustic_dir, utt_id), width)

    def test_combined_input_is_text_input_then_coefficients(self, prepared_runs):
        cfg, run = prepared_runs["txt+ult2wav"]
        text_cfg, text_run = prepared_runs["txt2wav"]
        ult_cfg, ult_run = prepared_runs["ult2wav"]
        questions, text_questions, ult_questions = (
            pipeline.load_questions(c) for c in (cfg, text_cfg, ult_cfg)
        )
        for utt_id in pipeline.load_split(run).all_ids:
            coeffs = pipeline.gathered_inputs(ult_cfg, ult_run, ult_questions, [utt_id]).dense()
            text = pipeline.gathered_inputs(text_cfg, text_run, text_questions, [utt_id]).dense()
            expected = np.hstack([text, coeffs[:, 4:]])
            combined = pipeline.gathered_inputs(cfg, run, questions, [utt_id]).dense()
            assert (combined.dtype, combined.shape) == (expected.dtype, expected.shape)
            assert combined.tobytes() == expected.tobytes()


class TestGatheredInputs:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_rows_and_normalisation_match_the_input_matrix(self, prepared_runs, system):
        cfg, run = prepared_runs[system]
        train = pipeline.load_split(run).train
        questions = pipeline.load_questions(cfg)
        # each utterance's rows: its features expanded per frame, then its
        # coefficients when the system reads ultrasound
        utterances = []
        for u in train:
            x = label_file_features(cfg, questions, u).dense()
            if cfg.reads_ultrasound:
                x = np.hstack([x, np.load(run.coeffs(u))])
            utterances.append(x)
        dense = np.vstack(utterances)
        rows = pipeline.gathered_inputs(cfg, run, questions, train)
        everything = np.arange(dense.shape[0])
        assert rows[everything].tobytes() == dense.tobytes()
        assert rows.dense().tobytes() == dense.tobytes()
        stats, net_rows = pipeline.normalize_gathered(rows)
        dense_stats = acoustic.fit_normalization(dense, "minmax")
        assert stats.a.tobytes() == dense_stats.a.tobytes()
        assert stats.b.tobytes() == dense_stats.b.tobytes()
        normalized = acoustic.normalize_in_place(stats, dense)
        assert rows.dense().tobytes() == normalized.tobytes()
        assert net_rows.dense().dtype == pipeline.NET_DTYPE
        assert net_rows.dense().tobytes() == normalized.astype(pipeline.NET_DTYPE).tobytes()

    @pytest.mark.parametrize("system", SYSTEMS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_net_inputs_equal_the_normalised_cast_matrix(self, prepared_runs, system, dtype):
        cfg, run = prepared_runs[system]
        split = pipeline.load_split(run)
        questions = pipeline.load_questions(cfg)
        train = pipeline.gathered_inputs(cfg, run, questions, split.train)
        stats, _ = pipeline.normalize_gathered(train)
        for ids in (split.dev, split.test[:1]):
            dense = pipeline.gathered_inputs(cfg, run, questions, ids).dense()
            expect = acoustic.normalize_in_place(stats, dense).astype(dtype)
            rows = pipeline.gathered_inputs(cfg, run, questions, ids)
            got = pipeline.net_inputs(stats, rows, dtype).dense()
            assert (got.dtype, got.shape) == (expect.dtype, expect.shape)
            assert got.tobytes() == expect.tobytes()

    def test_minmax_skips_labels_that_own_no_frame(self, tiny_corpus, tmp_path):
        ids = ultra.discover_utterances(tiny_corpus.ultrasound_dir)
        first = pipeline.split_dataset(ids, config_for(tiny_corpus).ratios).train[0]
        label_dir = tmp_path / "lab"
        shutil.copytree(tiny_corpus.label_dir, label_dir)
        # a zero-length label, owning no frame, that alone answers C-z and
        # holds the largest C-Dur value
        lines = (label_dir / f"{first}.lab").read_text().splitlines()
        end = lines[0].split()[1]
        lines.insert(1, f"{end} {end} x^x-z+x=x@999")
        (label_dir / f"{first}.lab").write_text("\n".join(lines) + "\n")
        question_file = tmp_path / "questions.hed"
        question_file.write_text(tiny_corpus.question_file.read_text() + 'QS "C-z" {*-z+*}\n')
        cfg = config_for(
            tiny_corpus, system="txt2wav", label_dir=label_dir, question_file=question_file,
            max_epochs=2, warmup_epochs=1,
        )
        run = pipeline.start_run(cfg, tmp_path / "run")
        for stage in ("prepare", "train"):
            pipeline.run_stage(stage, run.root)

        train = pipeline.load_split(run).train
        questions = pipeline.load_questions(cfg)
        rows = pipeline.gathered_inputs(cfg, run, questions, train)
        dense = acoustic.fit_normalization(rows.dense(), "minmax")
        _, persisted, _ = mlp.load_checkpoint(run.checkpoint)
        assert persisted.a.tobytes() == dense.a.tobytes()
        assert persisted.b.tobytes() == dense.b.tobytes()
        # over every label row, the C-Dur and C-z maxima would be the new label's
        every_label = np.vstack([label_file_features(cfg, questions, u).table for u in train])
        n_questions = every_label.shape[1]
        assert np.array_equal(
            every_label.max(axis=0) > dense.b[:n_questions],
            np.arange(n_questions) >= n_questions - 2,
        )


@pytest.fixture(scope="module")
def tiny_run(tiny_corpus, tmp_path_factory):
    cfg = config_for(tiny_corpus, system="txt+ult2wav", seed=5, max_epochs=8, warmup_epochs=3)
    run_dir = tmp_path_factory.mktemp("run") / "tiny"
    pipeline.run_experiment(cfg, run_dir)
    return cfg, pipeline.RunPaths(run_dir)


class TestRunExperiment:
    def test_all_stage_outputs_exist(self, tiny_run):
        _, run = tiny_run
        assert run.config.exists()
        assert run.splits.exists()
        assert run.pca_model.exists()
        assert run.checkpoint.exists()
        assert run.history.read_text().splitlines()[0] == "epoch,lr,train_mse,valid_mse"
        assert run.report_csv.exists()
        assert run.report_tables.exists()
        assert (run.misalign_dir / "heatmap.png").exists()
        assert (run.misalign_dir / "matrix.csv").exists()
        assert (run.misalign_dir / "summary.json").exists()
        assert run.splits.parent == run.root

    def test_inputs_are_built_from_the_label_files_and_prepare_writes_nothing(self, tiny_run):
        cfg, run = tiny_run
        assert not [p for p in run.stage_dir("prepare").rglob("*") if p.is_file()]
        questions = pipeline.load_questions(cfg)
        for utt_id in pipeline.load_split(run).all_ids:
            rows = pipeline.gathered_inputs(cfg, run, questions, [utt_id])
            feats = label_file_features(cfg, questions, utt_id)
            assert rows.table.tobytes() == feats.table[np.unique(feats.which)].tobytes()
            assert rows.dense()[:, : feats.shape[1]].tobytes() == feats.dense().tobytes()

    def test_trained_model_is_one_file_and_voicing_lives_in_lf0(self, tiny_run):
        _, run = tiny_run
        train_files = {p.name for p in run.stage_dir("train").iterdir()}
        assert train_files == {run.checkpoint.name, run.history.name}
        generated = {p.suffix for p in run.stage_dir("generate").rglob("*") if p.is_file()}
        assert generated == {".mgc", ".bap", ".lf0"}

    def test_checkpoint_holds_a_float32_net_and_float64_normalisation(self, tiny_run):
        _, run = tiny_run
        model, in_stats, out_stats = mlp.load_checkpoint(run.checkpoint)
        assert {a.dtype for a in model.weights + model.biases} == {np.dtype(np.float32)}
        assert (in_stats.a.dtype, out_stats.a.dtype) == (np.float64, np.float64)
        sizes = model.layer_sizes
        n_net = sum(i * o + o for i, o in zip(sizes[:-1], sizes[1:]))
        n_stats = 2 * (sizes[0] + sizes[-1])
        # one 128-byte header per record: the sizes, two per layer, four stats
        headers = 128 * (1 + 2 * (len(sizes) - 1) + 4)
        assert run.checkpoint.stat().st_size == headers + 8 * len(sizes) + 4 * n_net + 8 * n_stats

    def test_resolved_config_echo_reparses_identically(self, tiny_run):
        cfg, run = tiny_run
        assert read_config(run.config) == cfg

    def test_reports_cover_splits_and_variants(self, tiny_run):
        _, run = tiny_run
        reports = metrics.read_report_csv(run.report_csv)
        combos = {(r.split, r.variant) for r in reports}
        assert combos == {(s, v) for s in ("dev", "test") for v in ("mlpg", "static")}
        assert all(np.isfinite(r.mcd_db) for r in reports)

    def test_pca_fitted_on_train_block_only(self, tiny_run):
        cfg, run = tiny_run
        split = pipeline.load_split(run)
        frames, counts, _ = pipeline.train_frame_matrix(cfg, split)
        recomputed = eigentongues.fit_pca(
            frames,
            cfg.variance_target,
            cfg.max_components,
            counts=counts,
        )
        persisted = eigentongues.load_model(run.pca_model)
        assert persisted.mean.tobytes() == recomputed.mean.tobytes()
        assert persisted.basis.tobytes() == recomputed.basis.tobytes()
        assert persisted.eigenvalues.tobytes() == recomputed.eigenvalues.tobytes()

    def test_train_frames_are_each_utterances_frames_held_once(self, tmp_path):
        layout = synthetic.generate_corpus(
            tmp_path / "corpus", n_utterances=40, seed=3, min_frames=60, max_frames=90
        )
        cfg = config_for(layout, system="ult2wav")
        pipeline.start_run(cfg, tmp_path / "run")
        split = pipeline.load_split(pipeline.RunPaths(tmp_path / "run"))
        pipeline.train_frame_matrix(cfg, split)  # fills the resize caches
        names = [f"{u}.{ext}" for u in split.train for ext in ("ult", "lf0")]
        (frames, counts, utterances), peak = traced_peak(
            pipeline.train_frame_matrix, cfg, split, file_names=names
        )
        own = [pipeline.utterance_frames(cfg, utt_id) for utt_id in split.train]
        assert frames.tobytes() == np.vstack([rows for rows, _ in own]).tobytes()
        expect = [np.bincount(index, minlength=len(rows)) for rows, index in own]
        assert counts.tobytes() == np.concatenate(expect).tobytes()
        for (rows, index), (own_rows, own_index) in zip(utterances, own):
            assert np.shares_memory(rows, frames)
            assert rows.tobytes() == own_rows.tobytes()
            assert index.tobytes() == own_index.tobytes()
        # the stack and one utterance's resize, not every utterance's rows
        # besides the stack
        assert peak < 1.5 * frames.nbytes

    def test_pca_stage_holds_the_training_frames_once(self, tmp_path):
        layout = synthetic.generate_corpus(
            tmp_path / "corpus", n_utterances=40, seed=3, min_frames=60, max_frames=90
        )
        cfg = config_for(layout, system="ult2wav")
        run = pipeline.start_run(cfg, tmp_path / "run")
        split = pipeline.load_split(run)
        # the stack's size and raw rows; this also fills the resize caches
        frames, _, utterances = pipeline.train_frame_matrix(cfg, split)
        ids = split.train + split.dev + split.test
        names = [f"{u}.{ext}" for u in ids for ext in ("ult", "lf0", "npy")]
        names += [run.coeffs("x").name, run.pca_model.name]
        _, peak = traced_peak(pipeline.stage_pca, cfg, split, run, file_names=names)
        # a 512 x 512 scatter Gram matrix: this reads 1.24x the stack. Fitting
        # a centred copy, with the Gram matrix formed and given whole to eigh,
        # read 2.94x
        assert frames.shape[0] > frames.shape[1]
        assert peak < 1.3 * frames.nbytes
        model = eigentongues.load_model(run.pca_model)
        for utt_id, (rows, index) in zip(split.train, utterances):
            own = eigentongues.transform(model, rows)[index]
            assert np.load(run.coeffs(utt_id)).tobytes() == own.tobytes(), utt_id

    def test_coeffs_project_each_utterance_own_frames(self, tiny_run):
        cfg, run = tiny_run
        model = eigentongues.load_model(run.pca_model)
        for utt_id in pipeline.load_split(run).all_ids:
            frames, index = pipeline.utterance_frames(cfg, utt_id)
            own = eigentongues.transform(model, frames)[index]
            assert np.load(run.coeffs(utt_id)).tobytes() == own.tobytes(), utt_id

    def test_target_frames_of_one_source_frame_share_coefficients(self, tiny_run):
        cfg, run = tiny_run
        repeats = 0
        for utt_id in pipeline.load_split(run).all_ids:
            seq = ultra.read_utterance(Path(cfg.ultrasound_dir) / f"{utt_id}.ult")
            coeffs = np.load(run.coeffs(utt_id))
            source = ultra.resample_to_frame_clock(seq, cfg.frame_shift, len(coeffs))
            for i in np.unique(source):
                rows = coeffs[source == i]
                assert all(row.tobytes() == rows[0].tobytes() for row in rows), (utt_id, i)
                repeats += len(rows) - 1
        assert repeats > 0

    def test_stagewise_prepare_then_pca_matches_run_all(self, tiny_run, tmp_path, monkeypatch):
        cfg, run = tiny_run
        cfg_file = tmp_path / "exp.cfg"
        write_config(cfg, cfg_file)
        resized = []
        resize = ultra.resampled_resized_frames

        def counting(seq, *args):
            resized.append(seq.n_frames)
            return resize(seq, *args)

        monkeypatch.setattr(ultra, "resampled_resized_frames", counting)
        stagewise = pipeline.RunPaths(tmp_path / "stagewise")
        assert cli.main(["prepare", "--config", str(cfg_file), "--output", str(stagewise.root)]) == 0
        assert resized == []
        assert not (stagewise.stage_dir("prepare") / "ult").exists()
        assert cli.main(["pca", "--output", str(stagewise.root)]) == 0
        # one resize per utterance: training coefficients reuse the fitted block
        assert len(resized) == len(pipeline.load_split(run).all_ids)

        def files(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        assert files(stagewise.stage_dir("pca")) == files(run.stage_dir("pca"))

    def test_normalization_fitted_on_train_block_only(self, tiny_run):
        cfg, run = tiny_run
        split = pipeline.load_split(run)
        in_stats = acoustic.fit_normalization(
            pipeline.gathered_inputs(cfg, run, pipeline.load_questions(cfg), split.train).dense(),
            "minmax",
        )
        out_stats = acoustic.fit_normalization(stacked_targets(cfg, split.train), "meanvar")
        _, persisted_in, persisted_out = mlp.load_checkpoint(run.checkpoint)
        assert persisted_in.a.tobytes() == in_stats.a.tobytes()
        assert persisted_in.b.tobytes() == in_stats.b.tobytes()
        assert persisted_out.a.tobytes() == out_stats.a.tobytes()
        assert persisted_out.b.tobytes() == out_stats.b.tobytes()

    def test_evaluate_stage_reruns_identically(self, tiny_run):
        cfg, run = tiny_run
        before = run.report_csv.read_bytes()
        pipeline.run_stage("evaluate", run.root)
        assert run.report_csv.read_bytes() == before

    def test_evaluate_reads_each_reference_once(self, tiny_run, monkeypatch):
        cfg, run = tiny_run
        read_from = []
        read_streams = acoustic.read_streams

        def counting(directory, *args, **kwargs):
            read_from.append(directory)
            return read_streams(directory, *args, **kwargs)

        monkeypatch.setattr(acoustic, "read_streams", counting)
        pipeline.run_stage("evaluate", run.root)
        split = pipeline.load_split(run)
        assert read_from.count(cfg.acoustic_dir) == len(split.dev) + len(split.test)

    def test_generate_forwards_each_utterance_once(self, tiny_run, monkeypatch):
        cfg, run = tiny_run
        generated = sorted(p for p in run.stage_dir("generate").rglob("*") if p.is_file())
        before = [p.read_bytes() for p in generated]
        forwarded = []
        forward = mlp.forward

        def counting(model, batch):
            forwarded.append(len(batch))
            return forward(model, batch)

        monkeypatch.setattr(mlp, "forward", counting)
        pipeline.run_stage("generate", run.root)
        split = pipeline.load_split(run)
        assert len(forwarded) == len(split.dev) + len(split.test)
        assert [p.read_bytes() for p in generated] == before

    def test_missing_path_fails_before_stages(self, tiny_corpus, tmp_path):
        cfg = replace(config_for(tiny_corpus), question_file=tmp_path / "missing.hed")
        with pytest.raises(ConfigError):
            pipeline.run_experiment(cfg, tmp_path / "run")

    def test_stage_failure_is_tagged(self, tiny_corpus, tmp_path):
        cfg = config_for(tiny_corpus)
        with pytest.raises(StageError, match="train"):
            # pca never ran, so the train stage finds no coefficient file
            pipeline.run_stage("train", pipeline.start_run(cfg, tmp_path / "fresh_run").root)

    def test_txt2wav_pca_writes_nothing(self, tiny_corpus, tmp_path):
        run = pipeline.start_run(config_for(tiny_corpus, system="txt2wav"), tmp_path / "run")
        pipeline.run_stage("pca", run.root)
        assert not run.stage_dir("pca").exists()

    def test_split_is_drawn_once_per_run(self, tiny_corpus, tmp_path, monkeypatch):
        calls = []
        split_dataset = pipeline.split_dataset

        def counting(*args):
            calls.append(args)
            return split_dataset(*args)

        monkeypatch.setattr(pipeline, "split_dataset", counting)
        cfg = config_for(tiny_corpus, system="txt2wav", max_epochs=2, warmup_epochs=1)
        pipeline.run_experiment(cfg, tmp_path / "run")
        assert len(calls) == 1

    def test_missing_split_is_named(self, tiny_run, tmp_path):
        _, run = tiny_run
        copy = pipeline.RunPaths(tmp_path / "run")
        shutil.copytree(run.root, copy.root)
        copy.splits.unlink()
        with pytest.raises(StageError, match="no split at .*; run prepare with --config first"):
            pipeline.run_stage("evaluate", copy.root)


@pytest.fixture(scope="module")
def prepared_for_train(tiny_corpus, tmp_path_factory):
    """A txt2wav run after ``prepare``, whose schedule stops on patience one
    epoch after its best: validation MSE improves at epochs 1-5 and rises at 6."""
    cfg = config_for(
        tiny_corpus, system="txt2wav", max_epochs=10, warmup_epochs=1, lr_decay=1.0, patience=1
    )
    run = pipeline.start_run(cfg, tmp_path_factory.mktemp("train") / "run")
    pipeline.run_stage("prepare", run.root)
    return run


def fresh_copy(run, path):
    shutil.copytree(run.root, path)
    return pipeline.RunPaths(path)


def recorded_saves(monkeypatch):
    """Make ``mlp.save_checkpoint`` record the path of each checkpoint it
    writes, in a list that is returned."""
    save, paths = mlp.save_checkpoint, []

    def recording_save(model, input_stats, output_stats, path):
        paths.append(path)
        save(model, input_stats, output_stats, path)

    monkeypatch.setattr(mlp, "save_checkpoint", recording_save)
    return paths


def improving_epochs(history_csv):
    """The epochs of ``history.csv`` that set a new best validation MSE."""
    best, epochs = np.inf, []
    for line in history_csv.read_text().splitlines()[1:]:
        epoch, _, _, valid_mse = line.split(",")
        if float(valid_mse) < best:
            best = float(valid_mse)
            epochs.append(int(epoch))
    return epochs


class TestTrainStage:
    def test_checkpoint_is_the_best_epoch_of_the_default_training(
        self, prepared_for_train, tmp_path, monkeypatch
    ):
        run = fresh_copy(prepared_for_train, tmp_path / "run")
        train, given = mlp.train, []

        def recording_train(model, train_set, valid_set, schedule, **kwargs):
            given.append((deepcopy(model), train_set, valid_set, schedule))
            return train(model, train_set, valid_set, schedule, **kwargs)

        monkeypatch.setattr(mlp, "train", recording_train)
        writes = recorded_saves(monkeypatch)
        pipeline.run_stage("train", run.root)
        monkeypatch.undo()

        assert {p.name for p in run.stage_dir("train").iterdir()} == {"history.csv", "model.bin"}
        improving = improving_epochs(run.history)
        last_epoch = int(run.history.read_text().splitlines()[-1].split(",")[0])
        assert improving[-1] < last_epoch
        assert writes == [run.partial_checkpoint] * len(improving)

        (model, train_set, valid_set, schedule), = given
        best, _ = train_keeping_best(model, train_set, valid_set, schedule)
        _, input_stats, output_stats = mlp.load_checkpoint(run.checkpoint)
        mlp.save_checkpoint(best, input_stats, output_stats, tmp_path / "default.bin")
        assert run.checkpoint.read_bytes() == (tmp_path / "default.bin").read_bytes()

    def test_training_targets_are_the_normalised_cast_target_matrix(
        self, prepared_for_train, tmp_path, monkeypatch
    ):
        run = fresh_copy(prepared_for_train, tmp_path / "run")
        cfg, split = pipeline.load_run_config(run.root), pipeline.load_split(run)
        given = []

        class Stop(Exception):
            pass

        def stop_at_train(model, train_set, valid_set, schedule, **kwargs):
            given.append((train_set[1], valid_set[1]))
            raise Stop

        monkeypatch.setattr(mlp, "train", stop_at_train)
        with pytest.raises(Stop):
            pipeline.stage_train(cfg, split, run)
        ((train_y, dev_y),) = given
        matrix = stacked_targets(cfg, split.train)
        stats = acoustic.fit_normalization(matrix, "meanvar")
        expect = acoustic.normalize_in_place(stats, matrix).astype(pipeline.NET_DTYPE)
        assert (train_y.dtype, train_y.shape) == (expect.dtype, expect.shape)
        assert train_y.tobytes() == expect.tobytes()
        dev = acoustic.normalize_in_place(stats, stacked_targets(cfg, split.dev))
        assert dev_y.dtype == np.float64 and dev_y.tobytes() == dev.tobytes()

    def test_diverged_training_writes_no_epoch(self, prepared_for_train, tmp_path, monkeypatch):
        # at this rate the first epoch sets the best validation MSE, 5.4e4,
        # far above the divergence bar of 10 x 0.78
        run = fresh_copy(prepared_for_train, tmp_path / "run")
        cfg = replace(pipeline.load_run_config(run.root), base_lr=1.0)
        write_config(cfg, run.config)
        writes = recorded_saves(monkeypatch)
        with pytest.raises(StageError, match="stage 'train' failed: best validation MSE 5.37e"):
            pipeline.run_stage("train", run.root)
        assert writes == []
        assert not run.checkpoint.exists() and not run.partial_checkpoint.exists()

    def test_interrupted_training_leaves_no_checkpoint(
        self, prepared_for_train, tmp_path, monkeypatch, capsys
    ):
        run = fresh_copy(prepared_for_train, tmp_path / "run")
        cfg = pipeline.load_run_config(run.root)
        frames = stacked_targets(cfg, pipeline.load_split(run).train).shape[0]
        # the third epoch's second batch: epochs 1 and 2 have been written
        interrupt_at = 2 * -(-frames // cfg.batch_size) + 2
        backward = mlp.backward
        calls, at_interrupt = [], []

        def interrupted_backward(*args):
            calls.append(1)
            if len(calls) == interrupt_at:
                at_interrupt.append(run.partial_checkpoint.exists())
                raise KeyboardInterrupt
            return backward(*args)

        monkeypatch.setattr(mlp, "backward", interrupted_backward)
        with pytest.raises(KeyboardInterrupt):
            pipeline.run_stage("train", run.root)
        monkeypatch.undo()
        assert at_interrupt == [True]
        assert list(run.stage_dir("train").iterdir()) == []
        assert cli.main(["generate", "--output", str(run.root)]) == 1
        assert "stage 'generate' failed" in capsys.readouterr().err

    def test_a_partial_checkpoint_left_behind_is_removed_first(
        self, prepared_for_train, tmp_path, monkeypatch
    ):
        run = fresh_copy(prepared_for_train, tmp_path / "run")
        run.partial_checkpoint.parent.mkdir()
        run.partial_checkpoint.write_bytes(b"left by a killed attempt")
        train = mlp.train
        seen = []

        def recording_train(*args, **kwargs):
            seen.append(run.partial_checkpoint.exists())
            return train(*args, **kwargs)

        monkeypatch.setattr(mlp, "train", recording_train)
        pipeline.run_stage("train", run.root)
        assert seen == [False]
        assert {p.name for p in run.stage_dir("train").iterdir()} == {"history.csv", "model.bin"}

    def test_stage_holds_one_net(self, tiny_corpus, tmp_path):
        # four 1024-unit layers: the float32 net is 13.5 MB. The stage's peak,
        # 1.61 nets, is set by init_model's float64 draw of the last hidden
        # layer (8.4 MB); training holds the net, one layer's 4.2 MB of
        # gradients and the small batches. A stage that also kept the best
        # epoch in an in-memory copy of the net read 2.47 nets
        cfg = config_for(
            tiny_corpus, system="txt2wav", hidden_layers=4, hidden_units=1024,
            batch_size=64, max_epochs=3, warmup_epochs=1, base_lr=0.01,
        )
        run = pipeline.start_run(cfg, tmp_path / "run")
        pipeline.run_stage("prepare", run.root)
        split = pipeline.load_split(run)
        pipeline.stage_train(cfg, split, run)  # fills any cache the stage reads through
        names = [f"{u}.{ext}" for u in split.train + split.dev for ext in ("lab", "mgc", "bap", "lf0")]
        names += [Path(cfg.question_file).name]
        names += [p.name for p in (run.checkpoint, run.partial_checkpoint, run.history)]
        _, peak = traced_peak(pipeline.stage_train, cfg, split, run, file_names=names)
        model, _, _ = mlp.load_checkpoint(run.checkpoint)
        net_bytes = sum(a.nbytes for a in model.weights + model.biases)
        assert model.layer_sizes[1:-1] == (1024,) * 4
        assert peak < 2 * net_bytes


class TestCli:
    def test_synth_corpus_and_run_all(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert cli.main(["synth-corpus", "--output", str(corpus), "--utterances", "10", "--seed", "3"]) == 0
        cfg_file = corpus / "experiment.cfg"
        assert cfg_file.exists()

        # shrink the configured work before running end to end
        cfg = read_config(cfg_file)
        cfg = replace(
            cfg,
            resize_rows=8, resize_cols=16, max_components=8,
            hidden_layers=1, hidden_units=16, max_epochs=3, warmup_epochs=1,
            batch_size=128,
        )
        write_config(cfg, cfg_file)
        run_dir = tmp_path / "run"
        code = cli.main([
            "run-all", "--config", str(cfg_file), "--output", str(run_dir),
            "--system", "ult2wav", "--seed", "2", "--workers", "1",
        ])
        assert code == 0
        reports = metrics.read_report_csv(pipeline.RunPaths(run_dir).report_csv)
        assert {r.system for r in reports} == {"ult2wav"}
        assert not (run_dir / "prepare" / "ult").exists()

    def test_stagewise_invocation(self, tmp_path, tiny_corpus):
        cfg = config_for(
            tiny_corpus, system="txt2wav", max_epochs=3, warmup_epochs=1,
            hidden_layers=1, hidden_units=16,
        )
        cfg_file = tmp_path / "exp.cfg"
        write_config(cfg, cfg_file)
        run_dir = str(tmp_path / "run")
        assert cli.main(["prepare", "--config", str(cfg_file), "--output", run_dir]) == 0
        for stage in ("pca", "train", "generate", "evaluate", "misalign"):
            assert cli.main([stage, "--output", run_dir]) == 0
        assert (tmp_path / "run" / "evaluate" / "report.csv").exists()

    def test_txt2wav_run_all_reads_no_ultrasound(self, tmp_path, tiny_corpus):
        cfg = config_for(
            tiny_corpus, system="txt2wav", max_epochs=3, warmup_epochs=1,
            hidden_layers=1, hidden_units=16,
        )
        cfg_file = tmp_path / "exp.cfg"
        write_config(cfg, cfg_file)
        run_dir = tmp_path / "run"
        assert cli.main(["run-all", "--config", str(cfg_file), "--output", str(run_dir)]) == 0
        run = pipeline.RunPaths(run_dir)
        assert not (run.stage_dir("prepare") / "ult").exists()
        assert not run.pca_model.exists()
        assert run.report_csv.exists()
        # the drift diagnostic still reads the raw recordings
        assert (run.misalign_dir / "matrix.csv").exists()

    def test_generate_refuses_overflowing_predictions(self, tmp_path, tiny_run, capsys):
        _, run = tiny_run
        blown = pipeline.RunPaths(tmp_path / "blown")
        shutil.copytree(run.root, blown.root)
        model, in_stats, out_stats = mlp.load_checkpoint(blown.checkpoint)
        # float32 holds every blown-up parameter, but not the outputs that the
        # scaled weights push above the largest float32
        model.weights[-1] *= 1e38
        model.biases[-1][:] = np.finfo(np.float32).max
        mlp.save_checkpoint(model, in_stats, out_stats, blown.checkpoint)
        assert cli.main(["generate", "--output", str(blown.root)]) == 1
        assert "stage 'generate' failed" in capsys.readouterr().err

    def test_coefficient_frame_count_mismatch_fails_train(self, tmp_path, tiny_run, capsys):
        _, run = tiny_run
        cut = pipeline.RunPaths(tmp_path / "cut")
        shutil.copytree(run.root, cut.root)
        coeffs_file = cut.coeffs(pipeline.load_split(cut).train[0])
        np.save(coeffs_file, np.load(coeffs_file)[:-1])
        assert cli.main(["train", "--output", str(cut.root)]) == 1
        assert "stage 'train' failed" in capsys.readouterr().err

    def test_negative_ratios_leave_a_finished_run_intact(self, tmp_path, tiny_run, capsys):
        cfg, run = tiny_run
        finished = pipeline.RunPaths(tmp_path / "finished")
        shutil.copytree(run.root, finished.root)
        before = {p: p.read_bytes() for p in finished.root.rglob("*") if p.is_file()}
        cfg_file = tmp_path / "exp.cfg"
        write_config(cfg, cfg_file)
        ratios = f"train = {cfg.train_ratio}\ndev = {cfg.dev_ratio}\ntest = {cfg.test_ratio}\n"
        text = cfg_file.read_text()
        assert ratios in text
        cfg_file.write_text(text.replace(ratios, "train = 1.2\ndev = -0.1\ntest = -0.1\n"))
        argv = ["run-all", "--config", str(cfg_file), "--output", str(finished.root)]
        assert cli.main(argv) == 1
        # every stage but prepare, which writes nothing, left its directory
        for stage in pipeline.STAGES:
            assert finished.stage_dir(stage).is_dir() == (stage != "prepare"), stage
        assert finished.report_csv.exists()
        assert {p: p.read_bytes() for p in finished.root.rglob("*") if p.is_file()} == before
        assert "negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ratios, message",
        [
            ("train = 0.8\ndev = 0.0\ntest = 0.2\n", "empty split block"),
            ("train = 0.98\ndev = 0.01\ntest = 0.01\n", "empty split block"),
            ("train = 0.1\ndev = 0.1\ntest = 0.8\n", "training block of 1 utterance"),
        ],
        ids=["no-dev", "corpus-too-small", "one-train-utterance"],
    )
    def test_unsplittable_ratios_leave_a_finished_run_intact(
        self, tmp_path, tiny_run, capsys, ratios, message
    ):
        cfg, run = tiny_run
        assert len(pipeline.load_split(run).all_ids) < 100
        finished = pipeline.RunPaths(tmp_path / "finished")
        shutil.copytree(run.root, finished.root)
        before = {p: p.read_bytes() for p in finished.root.rglob("*") if p.is_file()}
        cfg_file = tmp_path / "exp.cfg"
        write_config(cfg, cfg_file)
        old = f"train = {cfg.train_ratio}\ndev = {cfg.dev_ratio}\ntest = {cfg.test_ratio}\n"
        text = cfg_file.read_text()
        assert old in text
        cfg_file.write_text(text.replace(old, ratios))
        fresh = tmp_path / "fresh"
        for command in ("run-all", "prepare"):
            for output in (finished.root, fresh):
                argv = [command, "--config", str(cfg_file), "--output", str(output)]
                assert cli.main(argv) == 1
                assert message in capsys.readouterr().err
        assert {p: p.read_bytes() for p in finished.root.rglob("*") if p.is_file()} == before
        assert not fresh.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("base_lr", "0"),
            ("warmup_epochs", "8"),
            ("warmup_epochs", "-1"),
            ("variance_target", "1.5"),
            ("variance_target", "0"),
            ("max_components", "0"),
            ("seed", "-1"),
            ("hidden_units", "0"),
            ("hidden_layers", "0"),
            ("resize_rows", "0"),
            ("resize_cols", "0"),
            ("mgc_dim", "0"),
            ("bap_dim", "0"),
            ("frame_shift", "0"),
            ("frame_shift", "nan"),
        ],
    )
    def test_out_of_range_setting_leaves_a_finished_run_intact(
        self, tmp_path, tiny_run, capsys, key, value
    ):
        cfg, run = tiny_run
        assert cfg.max_epochs == 8
        finished = pipeline.RunPaths(tmp_path / "finished")
        shutil.copytree(run.root, finished.root)
        before = {p: p.read_bytes() for p in finished.root.rglob("*") if p.is_file()}
        cfg_file = tmp_path / "exp.cfg"
        write_config(cfg, cfg_file)
        text, replaced = re.subn(
            rf"^{key} = .*$", f"{key} = {value}", cfg_file.read_text(), flags=re.MULTILINE
        )
        assert replaced == 1
        cfg_file.write_text(text)
        argv = ["run-all", "--config", str(cfg_file), "--output", str(finished.root)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert finished.report_csv.exists()
        assert {p: p.read_bytes() for p in finished.root.rglob("*") if p.is_file()} == before

    def test_workers_key_leaves_a_finished_run_intact(self, tmp_path, tiny_run, capsys):
        cfg, run = tiny_run
        finished = pipeline.RunPaths(tmp_path / "finished")
        shutil.copytree(run.root, finished.root)
        before = {p: p.read_bytes() for p in finished.root.rglob("*") if p.is_file()}
        cfg_file = tmp_path / "exp.cfg"
        write_config_setting_workers(cfg, cfg_file)
        argv = ["run-all", "--config", str(cfg_file), "--output", str(finished.root)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown key 'workers' in section [experiment]" in err
        assert {p: p.read_bytes() for p in finished.root.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("command", ["prepare", "run-all"])
    def test_workers_flag_accepts_only_one(self, tmp_path, capsys, command):
        argv = [command, "--config", str(tmp_path / "exp.cfg"), "--output", str(tmp_path / "run")]
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--workers", "2"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "flag, value", [("--system", "txt2wav"), ("--seed", "99"), ("--config", "x.cfg"), ("--workers", "2")]
    )
    def test_stage_subcommands_reject_run_flags(self, tmp_path, flag, value, capsys):
        for stage in list(pipeline.STAGES)[1:]:
            with pytest.raises(SystemExit) as exit_info:
                cli.main([stage, "--output", str(tmp_path / "run"), flag, value])
            assert exit_info.value.code == 2, stage
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_second_prepare_starts_a_new_run(self, tmp_path, tiny_corpus, capsys):
        first = config_for(tiny_corpus, max_epochs=2, warmup_epochs=1, hidden_layers=1, hidden_units=16)
        cfg_file = tmp_path / "exp.cfg"
        write_config(first, cfg_file)
        run = pipeline.RunPaths(tmp_path / "run")
        assert cli.main(["prepare", "--config", str(cfg_file), "--output", str(run.root)]) == 0
        for stage in ("pca", "train"):
            assert cli.main([stage, "--output", str(run.root)]) == 0
        write_config(replace(first, resize_rows=8, resize_cols=8), cfg_file)
        assert cli.main(["prepare", "--config", str(cfg_file), "--output", str(run.root)]) == 0
        assert not run.stage_dir("pca").exists()
        assert not run.stage_dir("train").exists()
        assert read_config(run.config).resize_cols == 8
        capsys.readouterr()
        assert cli.main(["train", "--output", str(run.root)]) == 1
        assert "stage 'train' failed" in capsys.readouterr().err

    def test_relative_data_paths_echo_absolute(self, tmp_path, tiny_corpus, monkeypatch):
        monkeypatch.chdir(tmp_path)
        relative = {
            name: Path(os.path.relpath(getattr(tiny_corpus, name), tmp_path))
            for name in PATH_FIELDS
        }
        cfg = replace(
            config_for(tiny_corpus, max_epochs=2, warmup_epochs=1, hidden_layers=1, hidden_units=16),
            **relative,
        )
        run = pipeline.RunPaths(pipeline.run_experiment(cfg, tmp_path / "run"))
        before = run.report_csv.read_bytes()
        assert cli.main(["evaluate", "--output", str(run.root)]) == 0
        assert run.report_csv.read_bytes() == before

    def test_diverged_training_fails_the_train_stage(self, tmp_path, tiny_corpus, capsys):
        # at this rate validation MSE climbs from about 5e9 to 1e150 yet stays finite
        cfg_file = tmp_path / "exp.cfg"
        write_config(config_for(tiny_corpus, base_lr=5.0), cfg_file)
        run = pipeline.RunPaths(tmp_path / "run")
        assert cli.main(["run-all", "--config", str(cfg_file), "--output", str(run.root)]) == 1
        assert "stage 'train' failed" in capsys.readouterr().err
        assert not run.checkpoint.exists()

    def test_failure_exit_code_and_stage_tag(self, tmp_path, capsys):
        run_dir = str(tmp_path / "norun")
        code = cli.main(["train", "--output", run_dir])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_cqs_capturing_a_phone_fails_prepare(self, tmp_path, tiny_corpus, capsys):
        question_file = tmp_path / "questions.hed"
        question_file.write_text('QS "C-a" {*-a+*}\nCQS "C-Phone" {*-(\\w+)+*}\n')
        cfg_file = tmp_path / "exp.cfg"
        write_config(config_for(tiny_corpus, system="txt2wav", question_file=question_file), cfg_file)
        argv = ["prepare", "--config", str(cfg_file), "--output", str(tmp_path / "run")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'prepare' failed: CQS 'C-Phone' captured")

    @pytest.mark.parametrize(
        "data",
        [b"ultrasound_dir = ult\n", b"[data]\nlabel_dir = a\nlabel_dir = b\n", b"[data]\n\xff\n"],
        ids=["no-section-header", "duplicate-key", "not-utf8"],
    )
    @pytest.mark.parametrize("command", ["prepare", "run-all"])
    def test_malformed_config_is_an_error_line(self, tmp_path, capsys, data, command):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_bytes(data)
        assert cli.main([command, "--config", str(cfg_file), "--output", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed config file") and str(cfg_file) in err

    def test_report_without_a_readable_csv_is_an_error_line(self, tmp_path, capsys):
        run = pipeline.RunPaths(tmp_path / "run")
        assert cli.main(["report", str(run.root)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(run.report_csv) in err
        run.report_csv.parent.mkdir(parents=True)
        run.report_csv.write_text("speaker,system\nspk,txt2wav\n")
        assert cli.main(["report", str(run.root)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(run.report_csv) in err and "'split'" in err

    @pytest.mark.parametrize("drift", ["nan", "inf", "-inf"])
    def test_non_finite_drift_is_an_error_before_anything_is_written(self, tmp_path, capsys, drift):
        corpus = tmp_path / "corpus"
        assert cli.main(["synth-corpus", "--output", str(corpus), f"--drift={drift}"]) == 1
        assert capsys.readouterr().err == f"error: drift_magnitude must be finite, got {drift}\n"
        assert not corpus.exists()

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--seed=-1", "seed must be >= 0, got -1"),
            ("--utterances=-4", "n_utterances must be >= 1, got -4"),
            ("--utterances=0", "n_utterances must be >= 1, got 0"),
        ],
        ids=["negative-seed", "negative-utterances", "zero-utterances"],
    )
    def test_bad_seed_or_utterance_count_is_an_error_before_anything_is_written(
        self, tmp_path, capsys, flag, message
    ):
        corpus = tmp_path / "corpus"
        assert cli.main(["synth-corpus", "--output", str(corpus), flag]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not corpus.exists()

    def test_second_corpus_into_one_directory_is_an_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert cli.main(["synth-corpus", "--output", str(corpus), "--utterances", "4", "--seed", "7"]) == 0
        before = {p: p.read_bytes() for p in corpus.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert cli.main(["synth-corpus", "--output", str(corpus), "--utterances", "3", "--seed", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "already holds a corpus" in err
        assert {p: p.read_bytes() for p in corpus.rglob("*") if p.is_file()} == before

    def test_utterance_without_frames_fails_prepare(self, tmp_path, tiny_corpus, capsys):
        layout = synthetic.CorpusLayout(root=tmp_path / "corpus")
        shutil.copytree(tiny_corpus.root, layout.root)
        cfg = config_for(layout)
        # the last utterance falls in the test block, which train never reads
        empty = ultra.discover_utterances(cfg.ultrasound_dir)[-1]
        for ext in ("mgc", "bap", "lf0"):
            (layout.acoustic_dir / f"{empty}.{ext}").write_bytes(b"")
        cfg_file = tmp_path / "exp.cfg"
        write_config(cfg, cfg_file)
        argv = ["prepare", "--config", str(cfg_file), "--output", str(tmp_path / "run")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "stage 'prepare' failed" in err and f"{empty}.mgc/.bap/.lf0" in err

    def test_streams_of_different_lengths_fail_prepare(self, tmp_path, tiny_corpus, capsys):
        layout = synthetic.CorpusLayout(root=tmp_path / "corpus")
        shutil.copytree(tiny_corpus.root, layout.root)
        cfg = config_for(layout)
        # inputs take their frame count from the .lf0 file, targets from all three streams
        short = ultra.discover_utterances(cfg.ultrasound_dir)[0]
        lf0 = layout.acoustic_dir / f"{short}.lf0"
        n_frames = acoustic.frame_count(cfg.acoustic_dir, short)
        lf0.write_bytes(lf0.read_bytes()[:-4])
        cfg_file = tmp_path / "exp.cfg"
        write_config(cfg, cfg_file)
        argv = ["prepare", "--config", str(cfg_file), "--output", str(tmp_path / "run")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: stage 'prepare' failed: stream lengths differ: mgc={n_frames} "
            f"bap={n_frames} lf0={n_frames - 1}"
        )

    def test_pca_needs_only_the_corpus_and_splits(self, tmp_path, tiny_run):
        _, run = tiny_run
        copy = pipeline.RunPaths(tmp_path / "run")
        shutil.copytree(run.root, copy.root)
        # prepare writes nothing, so only these two stages' outputs are removed
        for stage in ("pca", "misalign"):
            shutil.rmtree(copy.stage_dir(stage))

        def files(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        for stage in ("pca", "misalign"):
            pipeline.run_stage(stage, copy.root)
            assert files(copy.stage_dir(stage)) == files(run.stage_dir(stage)), stage
        assert not copy.stage_dir("prepare").exists()

    @pytest.mark.parametrize("command", ["run-all", "report", "synth-corpus"])
    def test_output_under_a_file_is_an_error_line(
        self, tmp_path, tiny_corpus, tiny_run, capsys, command
    ):
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        cfg_file = tmp_path / "exp.cfg"
        write_config(config_for(tiny_corpus), cfg_file)
        argv = {
            "run-all": ["run-all", "--config", str(cfg_file), "--output", str(blocker / "run")],
            "report": ["report", str(tiny_run[1].root), "--output", str(blocker / "t.txt")],
            "synth-corpus": ["synth-corpus", "--output", str(blocker / "c")],
        }[command]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(blocker) in err
        assert blocker.read_text() == "kept"

    def test_report_of_two_runs_of_one_system_is_an_error_line(self, tiny_run, capsys):
        _, run = tiny_run
        assert cli.main(["report", str(run.root), str(run.root)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: two reports for speaker")
        assert "system 'txt+ult2wav'" in captured.err

    def test_report_merges_runs(self, tmp_path, tiny_run, capsys):
        _, run = tiny_run
        assert cli.main(["report", str(run.root)]) == 0
        out = capsys.readouterr().out
        assert "MCD (mlpg)" in out
