"""Acceptance checks, one test per criterion.

The terminal summary prints one PASS/FAIL line per criterion (see conftest).
Criterion 1 needs real per-speaker corpus data and is skipped unless
ULTRATTS_TAL_DIR points at it; everything else runs on shipped synthetic
fixtures and oracles.
"""

import dataclasses
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from conftest import config_for
from test_acoustic import dense_mlpg
from test_mlp import finite_difference_check
from ultratts import acoustic, eigentongues, metrics, misalign, mlp, pipeline

TAL_ENV = "ULTRATTS_TAL_DIR"

# Reference per-speaker dev MCD for the text-only system, and the expectation
# that the combined system is at least as good for most speakers.
TXT2WAV_DEV_MCD = {
    "01fi": 5.720, "02fe": 5.974, "03mn": 5.703, "04me": 5.797,
    "05ms": 5.777, "06fe": 5.652, "07me": 5.989, "09fe": 6.351,
}


@pytest.mark.skipif(TAL_ENV not in os.environ, reason="per-speaker corpus not supplied")
def test_criterion_1_corpus_track():
    """Optional: reproduce per-speaker dev MCD within 0.8 dB on real data."""
    root = Path(os.environ[TAL_ENV])
    txt_mcd, combined_mcd = {}, {}
    for speaker in sorted(TXT2WAV_DEV_MCD):
        speaker_dir = root / speaker
        assert speaker_dir.exists(), f"missing speaker directory {speaker_dir}"
        for system, sink in (("txt2wav", txt_mcd), ("txt+ult2wav", combined_mcd)):
            from ultratts.config import ExperimentConfig

            cfg = ExperimentConfig(
                ultrasound_dir=speaker_dir / "ult",
                label_dir=speaker_dir / "lab",
                acoustic_dir=speaker_dir / "acoustic",
                question_file=speaker_dir / "questions.hed",
                speaker=speaker,
                system=system,
                seed=1,
            )
            run_dir = root / "runs" / f"{speaker}_{system.replace('+', '_')}"
            pipeline.run_experiment(cfg, run_dir)
            reports = metrics.read_report_csv(pipeline.RunPaths(run_dir).report_csv)
            sink[speaker] = next(
                r.mcd_db for r in reports if r.split == "dev" and r.variant == "mlpg"
            )
    for speaker, expect in TXT2WAV_DEV_MCD.items():
        assert abs(txt_mcd[speaker] - expect) <= 0.8, (speaker, txt_mcd[speaker])
    wins = sum(combined_mcd[s] <= txt_mcd[s] for s in TXT2WAV_DEV_MCD)
    assert wins >= 6, f"combined input beat text-only for only {wins}/8 speakers"


def test_criterion_2_synthetic_end_to_end_ordering(synth_corpus, tmp_path):
    """MCD(txt+ult) < MCD(txt) < MCD(ult) on the test block, majority of 3 seeds."""
    start = time.time()
    orderings = []
    for seed in (1, 2, 3):
        test_mcd = {}
        for system in ("txt2wav", "ult2wav", "txt+ult2wav"):
            cfg = config_for(synth_corpus, system=system, seed=seed)
            run_dir = tmp_path / f"run_s{seed}_{system.replace('+', '_')}"
            pipeline.run_experiment(cfg, run_dir)
            reports = metrics.read_report_csv(pipeline.RunPaths(run_dir).report_csv)
            test_mcd[system] = next(
                r.mcd_db for r in reports if r.split == "test" and r.variant == "mlpg"
            )
        orderings.append(
            test_mcd["txt+ult2wav"] < test_mcd["txt2wav"] < test_mcd["ult2wav"]
        )
    elapsed = time.time() - start
    assert sum(orderings) >= 2, f"ordering held for {sum(orderings)}/3 seeds"
    assert elapsed < 600.0, f"end-to-end sweep took {elapsed:.0f} s"


def test_criterion_3_gradient_correctness():
    """Backprop vs central finite differences on a 5-8-8-3 net, every parameter."""
    rng = np.random.default_rng(0)
    model = mlp.init_model(5, seed=1, hidden_sizes=(8, 8), output_dim=3)
    x = rng.normal(size=(6, 5))
    y = rng.normal(size=(6, 3))
    start = time.time()
    worst = finite_difference_check(model, x, y, eps=1e-5)
    elapsed = time.time() - start
    assert worst < 1e-4, f"worst relative gradient error {worst}"
    assert elapsed < 5.0


def test_criterion_4_pca_oracle_equivalence():
    """Eigenvalues and subspace against a dense eigendecomposition on 10-D data."""
    rng = np.random.default_rng(1)
    directions = np.linalg.qr(rng.normal(size=(10, 10)))[0]
    scales = np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.3, 0.2, 0.1, 0.05, 0.02])
    data = rng.normal(size=(400, 10)) * scales @ directions.T + rng.normal(size=10)

    model = eigentongues.fit_pca(data, 0.95, k_max=None)
    cov = np.cov(data, rowvar=False)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    assert np.allclose(model.eigenvalues, evals[order][: model.n_components], rtol=1e-6)
    oracle_basis = evecs[:, order[: model.n_components]]
    assert np.max(subspace_angles(model.basis.T, oracle_basis)) < 1e-6

    full = eigentongues.fit_pca(data, 1.0, k_max=None)
    discarded = full.eigenvalues[model.n_components :].sum()
    recon = eigentongues.reconstruction_mse(model, data)
    assert recon == pytest.approx(discarded / 10.0, rel=1e-5)


def test_criterion_5_metric_oracles():
    """Closed-form MCD, F0 shift case, and exhaustive VUV counting."""

    def score(ref, pred):
        return metrics.aggregate([metrics.evaluate_utterance("u", ref, pred)])

    ref = acoustic.AcousticStreams(
        mgc=np.zeros((1, 60)), bap=np.zeros((1, 5)), lf0=np.full(1, acoustic.UNVOICED_LF0)
    )
    pred_mgc = np.zeros((1, 60))
    pred_mgc[0, 11] = 1.0
    assert score(ref, dataclasses.replace(ref, mgc=pred_mgc)).mcd_db == pytest.approx(
        (10.0 / math.log(10.0)) * math.sqrt(2.0), abs=1e-9
    )

    hz = np.array([120.0, 180.0, 90.0, 210.0])
    vuv = np.ones(4)
    ref = acoustic.AcousticStreams(
        mgc=np.zeros((4, 60)),
        bap=np.zeros((4, 5)),
        lf0=np.where(vuv > 0, np.log(hz), acoustic.UNVOICED_LF0),
    )
    report = score(
        ref, dataclasses.replace(ref, lf0=np.where(vuv > 0, np.log(hz + 5.0), acoustic.UNVOICED_LF0))
    )
    assert report.f0_rmse_hz == pytest.approx(5.0, abs=1e-9)
    assert report.f0_corr == pytest.approx(1.0, abs=1e-9)

    lf0 = np.log([100.0, 110.0, 120.0, 130.0])
    for ref_bits in range(16):
        for pred_bits in range(16):
            ref_vuv = np.array([(ref_bits >> i) & 1 for i in range(4)], float)
            pred_vuv = np.array([(pred_bits >> i) & 1 for i in range(4)], float)
            err = score(
                dataclasses.replace(ref, lf0=np.where(ref_vuv > 0, lf0, acoustic.UNVOICED_LF0)),
                dataclasses.replace(ref, lf0=np.where(pred_vuv > 0, lf0, acoustic.UNVOICED_LF0)),
            ).vuv_error_pct
            differing = sum(
                1 for i in range(4) if ((ref_bits >> i) & 1) != ((pred_bits >> i) & 1)
            )
            assert err == 100.0 * differing / 4.0


def test_criterion_6_mlpg_vs_dense_solve():
    """Banded solver equals the dense oracle on 5..50 frame systems."""
    rng = np.random.default_rng(2)
    for n in (5, 12, 26, 50):
        means = rng.normal(size=(n, 9))
        variances = rng.uniform(0.1, 4.0, 9)
        banded = acoustic.mlpg(means, variances)
        assert np.abs(banded - dense_mlpg(means, variances)).max() < 1e-8
        scaled = acoustic.mlpg(means, variances * 7.5)
        assert np.allclose(banded, scaled, atol=1e-9)


def test_criterion_7_misalignment_matrix():
    """Symmetry, undefined diagonal, dimensions, and the shifted-session fixture."""
    rng = np.random.default_rng(3)
    n = 20
    session = []
    for i in range(n):
        value = 70.0 + rng.uniform(-3.0, 3.0)
        if i >= 17:  # shifted tail: dev/test block drifted away from train
            value += 45.0
        session.append(np.full((8, 12), value))
    matrix = misalign.build_matrix(session)
    assert matrix.values.shape == (n, n)
    off = ~np.eye(n, dtype=bool)
    assert np.array_equal(matrix.values[off], matrix.values.T[off])
    assert np.all(np.isnan(np.diag(matrix.values)))
    summary = misalign.block_summary(matrix, 17, 2, 1)
    assert summary.train_vs_heldout_mse > summary.within_train_mse


def test_criterion_8_run_all_determinism(tiny_corpus, tmp_path):
    """Identical config and seed reproduce reports and heatmap bytes."""
    from ultratts import cli
    from ultratts.config import write_config

    cfg = config_for(
        tiny_corpus, system="txt+ult2wav", seed=13, max_epochs=6, warmup_epochs=2
    )
    cfg_file = tmp_path / "exp.cfg"
    write_config(cfg, cfg_file)
    runs = []
    for name in ("first", "second"):
        run_dir = tmp_path / name
        assert cli.main(["run-all", "--config", str(cfg_file), "--output", str(run_dir)]) == 0
        runs.append(pipeline.RunPaths(run_dir))
    first = metrics.read_report_csv(runs[0].report_csv)
    second = metrics.read_report_csv(runs[1].report_csv)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert (a.system, a.split, a.variant) == (b.system, b.split, b.variant)
        for attr in ("mcd_db", "bap_db", "f0_rmse_hz", "f0_corr", "vuv_error_pct"):
            va, vb = getattr(a, attr), getattr(b, attr)
            if math.isnan(va) and math.isnan(vb):
                continue
            assert va == pytest.approx(vb, abs=1e-9), attr
    heatmaps = [(r.misalign_dir / "heatmap.png").read_bytes() for r in runs]
    assert heatmaps[0] == heatmaps[1]


def test_criterion_9_leakage_guard(tiny_corpus, tmp_path):
    """Train-only statistics recomputed from scratch match the persisted bytes."""
    cfg = config_for(
        tiny_corpus, system="txt+ult2wav", seed=21, max_epochs=4, warmup_epochs=1
    )
    run_dir = tmp_path / "run"
    pipeline.run_experiment(cfg, run_dir)
    run = pipeline.RunPaths(run_dir)
    split = pipeline.load_split(run)

    frames, counts, _ = pipeline.train_frame_matrix(cfg, split)
    recomputed_pca = eigentongues.fit_pca(
        frames, cfg.variance_target, cfg.max_components, counts=counts
    )
    persisted = eigentongues.load_model(run.pca_model)
    assert persisted.mean.tobytes() == recomputed_pca.mean.tobytes()
    assert persisted.eigenvalues.tobytes() == recomputed_pca.eigenvalues.tobytes()
    assert persisted.basis.tobytes() == recomputed_pca.basis.tobytes()

    in_stats = acoustic.fit_normalization(
        pipeline.gathered_inputs(cfg, run, pipeline.load_questions(cfg), split.train).dense(),
        "minmax",
    )
    out_stats = acoustic.fit_normalization(
        np.vstack([
            acoustic.build_targets(acoustic.read_streams(cfg.acoustic_dir, u))
            for u in split.train
        ]),
        "meanvar",
    )
    _, persisted_in, persisted_out = mlp.load_checkpoint(run.checkpoint)
    assert persisted_in.a.tobytes() == in_stats.a.tobytes()
    assert persisted_in.b.tobytes() == in_stats.b.tobytes()
    assert persisted_out.a.tobytes() == out_stats.a.tobytes()
    assert persisted_out.b.tobytes() == out_stats.b.tobytes()
