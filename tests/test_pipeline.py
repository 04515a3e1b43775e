import os
import re
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import config_for
from ultratts import acoustic, cli, eigentongues, labels, metrics, mlp, pipeline, ultra
from ultratts.config import PATH_FIELDS, SYSTEMS, ExperimentConfig, read_config, write_config
from ultratts.errors import ConfigError, StageError


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

    def test_bad_ratio_sum_rejected(self):
        with pytest.raises(ConfigError):
            pipeline.split_dataset([f"u{i}" for i in range(10)], (0.5, 0.1, 0.1))


class TestConfig:
    def test_round_trip_field_for_field(self, tmp_path, tiny_corpus):
        cfg = config_for(tiny_corpus, system="txt2wav", seed=9)
        path = tmp_path / "exp.cfg"
        write_config(cfg, path)
        assert read_config(path) == cfg

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
        write_config(config_for(tiny_corpus).with_overrides(**relative), tmp_path / "sub" / "exp.cfg")
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
        cfg = config_for(tiny_corpus).with_overrides(
            ultrasound_dir=tmp_path / "100%" / "ult", label_dir=tmp_path / "a%(b)s"
        )
        write_config(cfg, tmp_path / "exp.cfg")
        assert read_config(tmp_path / "exp.cfg") == cfg

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
        for utt_id in pipeline.load_split(run).all_ids:
            x = pipeline.utterance_inputs(cfg, run, utt_id)
            assert x.shape == (labels.frame_count(run.ling(utt_id)), width)

    def test_combined_input_is_text_input_then_coefficients(self, prepared_runs):
        cfg, run = prepared_runs["txt+ult2wav"]
        text_cfg, text_run = prepared_runs["txt2wav"]
        ult_cfg, ult_run = prepared_runs["ult2wav"]
        for utt_id in pipeline.load_split(run).all_ids:
            coeffs = pipeline.utterance_inputs(ult_cfg, ult_run, utt_id)[:, 4:]
            expected = np.hstack([pipeline.utterance_inputs(text_cfg, text_run, utt_id), coeffs])
            combined = pipeline.utterance_inputs(cfg, run, utt_id)
            assert (combined.dtype, combined.shape) == (expected.dtype, expected.shape)
            assert combined.tobytes() == expected.tobytes()


class TestGatheredInputs:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_rows_and_normalisation_match_the_input_matrix(self, prepared_runs, system):
        cfg, run = prepared_runs[system]
        train = pipeline.load_split(run).train
        dense = pipeline.input_matrix(cfg, run, train)
        rows = pipeline.gathered_inputs(cfg, run, train)
        everything = np.arange(dense.shape[0])
        assert rows[everything].tobytes() == dense.tobytes()
        stats = pipeline.normalize_gathered(rows)
        dense_stats = acoustic.fit_normalization(dense, "minmax")
        assert stats.a.tobytes() == dense_stats.a.tobytes()
        assert stats.b.tobytes() == dense_stats.b.tobytes()
        assert rows[everything].tobytes() == acoustic.apply_normalization(stats, dense).tobytes()

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
        dense = acoustic.fit_normalization(pipeline.input_matrix(cfg, run, train), "minmax")
        _, persisted, _ = mlp.load_checkpoint(run.checkpoint)
        assert persisted.a.tobytes() == dense.a.tobytes()
        assert persisted.b.tobytes() == dense.b.tobytes()
        # over every label row, the C-Dur and C-z maxima would be the new label's
        every_label = np.vstack([labels.load_features(run.ling(u)).answers for u in train])
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
        assert (run.misalign_dir / "heatmap.ppm").exists()
        assert (run.misalign_dir / "matrix.csv").exists()
        assert (run.misalign_dir / "summary.json").exists()
        assert not (run.stage_dir("prepare") / "ult").exists()
        prepared = {p.name for p in run.stage_dir("prepare").iterdir()}
        assert prepared == {run.splits.name, run.ling("x").parent.name}
        ling = sorted(p.name for p in run.ling("x").parent.iterdir())
        assert ling == sorted(f"{u}.npz" for u in pipeline.load_split(run).all_ids)

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
        header = 20 + 8 * len(sizes)
        assert run.checkpoint.stat().st_size == header + 4 * n_net + 8 * n_stats

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
        frames, counts, _ = pipeline.train_frame_matrix(cfg, run, split)
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

    def test_coeffs_project_each_utterance_own_frames(self, tiny_run):
        cfg, run = tiny_run
        model = eigentongues.load_model(run.pca_model)
        for utt_id in pipeline.load_split(run).all_ids:
            frames, index = pipeline.utterance_frames(cfg, run, utt_id)
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
            pipeline.input_matrix(cfg, run, split.train), "minmax"
        )
        out_stats = acoustic.fit_normalization(
            pipeline.target_matrix(cfg, split.train), "meanvar"
        )
        _, persisted_in, persisted_out = mlp.load_checkpoint(run.checkpoint)
        assert persisted_in.a.tobytes() == in_stats.a.tobytes()
        assert persisted_in.b.tobytes() == in_stats.b.tobytes()
        assert persisted_out.a.tobytes() == out_stats.a.tobytes()
        assert persisted_out.b.tobytes() == out_stats.b.tobytes()

    def test_target_matrix_stacks_each_utterance_targets(self, tiny_run):
        cfg, run = tiny_run
        ids = pipeline.load_split(run).train
        stacked = np.vstack([
            acoustic.build_targets(acoustic.read_streams(cfg.acoustic_dir, u, cfg.mgc_dim, cfg.bap_dim))
            for u in ids
        ])
        targets = pipeline.target_matrix(cfg, ids)
        assert targets.dtype == np.float64
        assert targets.tobytes() == stacked.tobytes()

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
        cfg = config_for(tiny_corpus).with_overrides(
            question_file=tmp_path / "missing.hed"
        )
        with pytest.raises(ConfigError):
            pipeline.run_experiment(cfg, tmp_path / "run")

    def test_stage_failure_is_tagged(self, tiny_corpus, tmp_path):
        cfg = config_for(tiny_corpus)
        from ultratts.errors import StageError

        with pytest.raises(StageError, match="pca"):
            # prepare never ran, so the pca stage cannot find its inputs
            pipeline.run_stage("pca", pipeline.start_run(cfg, tmp_path / "fresh_run").root)

    def test_txt2wav_pca_needs_prepare(self, tiny_corpus, tmp_path):
        with pytest.raises(StageError, match="pca"):
            pipeline.run_stage(
                "pca", pipeline.start_run(config_for(tiny_corpus, system="txt2wav"), tmp_path / "run").root
            )


class TestCli:
    def test_synth_corpus_and_run_all(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert cli.main(["synth-corpus", "--output", str(corpus), "--utterances", "10", "--seed", "3"]) == 0
        cfg_file = corpus / "experiment.cfg"
        assert cfg_file.exists()

        # shrink the configured work before running end to end
        cfg = read_config(cfg_file)
        cfg = cfg.with_overrides(
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
        for stage in pipeline.STAGES:
            assert finished.stage_dir(stage).is_dir(), stage
        assert finished.report_csv.exists()
        assert {p: p.read_bytes() for p in finished.root.rglob("*") if p.is_file()} == before
        assert "negative" in capsys.readouterr().err

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
        for stage in pipeline.STAGES[1:]:
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
        write_config(first.with_overrides(resize_rows=8, resize_cols=8), cfg_file)
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
        cfg = config_for(
            tiny_corpus, max_epochs=2, warmup_epochs=1, hidden_layers=1, hidden_units=16
        ).with_overrides(**relative)
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

    def test_report_merges_runs(self, tmp_path, tiny_run, capsys):
        _, run = tiny_run
        assert cli.main(["report", str(run.root)]) == 0
        out = capsys.readouterr().out
        assert "MCD (mlpg)" in out
