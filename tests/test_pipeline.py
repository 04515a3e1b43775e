import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import config_for
from ultratts import acoustic, cli, eigentongues, metrics, mlp, pipeline, ultra
from ultratts.config import PATH_FIELDS, ExperimentConfig, read_config, write_config
from ultratts.errors import ArgumentError, ConfigError, DataError, StageError


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
        with pytest.raises(ConfigError):
            pipeline.split_dataset([f"u{i}" for i in range(10)], (1.0, 0.0, 0.0))

    def test_bad_ratio_sum_rejected(self):
        with pytest.raises(ConfigError):
            pipeline.split_dataset([f"u{i}" for i in range(10)], (0.5, 0.1, 0.1))


class TestAssembleInputs:
    def test_combined_concatenation_arithmetic(self):
        ling = np.zeros((50, 400))
        coeffs = np.zeros((50, 128))
        out = pipeline.assemble_inputs("txt+ult2wav", ling, coeffs)
        assert out.shape == (50, 528)

    def test_ultrasound_only_gets_positional_plus_coeffs(self):
        out = pipeline.assemble_inputs("ult2wav", np.zeros((10, 4)), np.zeros((10, 128)))
        assert out.shape == (10, 132)

    def test_ultrasound_only_rejects_full_linguistic_matrix(self):
        with pytest.raises(ArgumentError):
            pipeline.assemble_inputs("ult2wav", np.zeros((10, 40)), np.zeros((10, 8)))

    def test_text_only_ignores_ultrasound(self):
        ling = np.random.default_rng(0).normal(size=(10, 20))
        with_ult = pipeline.assemble_inputs("txt2wav", ling, np.ones((10, 8)))
        without = pipeline.assemble_inputs("txt2wav", ling, None)
        assert np.array_equal(with_ult, without)

    def test_frame_count_mismatch_reports_counts(self):
        with pytest.raises(DataError, match="40.*30|30.*40"):
            pipeline.assemble_inputs("txt+ult2wav", np.zeros((40, 6)), np.zeros((30, 8)))


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

    def test_unknown_system_rejected(self, tiny_corpus):
        with pytest.raises(ConfigError):
            config_for(tiny_corpus, system="wav2txt")

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "exp.cfg").write_text("[data]\nwhatever = 3\n")
        with pytest.raises(ConfigError):
            read_config(tmp_path / "exp.cfg")

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

    def test_trained_model_is_one_file_and_voicing_lives_in_lf0(self, tiny_run):
        _, run = tiny_run
        train_files = {p.name for p in run.stage_dir("train").iterdir()}
        assert train_files == {run.checkpoint.name, run.history.name}
        generated = {p.suffix for p in run.stage_dir("generate").rglob("*") if p.is_file()}
        assert generated == {".mgc", ".bap", ".lf0"}

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
        recomputed = eigentongues.fit_pca(
            pipeline.train_frame_matrix(cfg, run, split),
            cfg.variance_target,
            cfg.max_components,
        )
        persisted = eigentongues.load_model(run.pca_model)
        assert persisted.mean.tobytes() == recomputed.mean.tobytes()
        assert persisted.basis.tobytes() == recomputed.basis.tobytes()
        assert persisted.eigenvalues.tobytes() == recomputed.eigenvalues.tobytes()

    def test_coeffs_project_each_utterance_own_frames(self, tiny_run):
        cfg, run = tiny_run
        model = eigentongues.load_model(run.pca_model)
        for utt_id in pipeline.load_split(run).all_ids:
            own = eigentongues.transform(model, pipeline.utterance_frames(cfg, run, utt_id))
            assert np.load(run.coeffs(utt_id)).tobytes() == own.tobytes(), utt_id

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
            pipeline.target_matrix(run, split.train), "meanvar"
        )
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
            "--system", "ult2wav", "--seed", "2", "--workers", "2",
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
        model.weights[-1] *= 1e40
        mlp.save_checkpoint(model, in_stats, out_stats, blown.checkpoint)
        assert cli.main(["generate", "--output", str(blown.root)]) == 1
        assert "stage 'generate' failed" in capsys.readouterr().err

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

    def test_report_merges_runs(self, tmp_path, tiny_run, capsys):
        _, run = tiny_run
        assert cli.main(["report", str(run.root)]) == 0
        out = capsys.readouterr().out
        assert "MCD (mlpg)" in out
