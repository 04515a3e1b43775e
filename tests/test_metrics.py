import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from ultratts import metrics
from ultratts.acoustic import AcousticStreams, UNVOICED_LF0
from ultratts.errors import ArgumentError, DataError

CLOSED_FORM_MCD = (10.0 / math.log(10.0)) * math.sqrt(2.0)


def masked(lf0, vuv):
    """An LF0 track that is unvoiced (the sentinel) wherever ``vuv`` is 0."""
    return np.where(np.asarray(vuv) > 0, lf0, UNVOICED_LF0)


def voiced_track(hz, vuv=None):
    """Streams of an utterance with zero spectra and F0 ``hz``, voiced where
    ``vuv`` is 1 (throughout when it is not given)."""
    n = len(hz)
    lf0 = np.log(np.asarray(hz, dtype=float))
    if vuv is not None:
        lf0 = masked(lf0, vuv)
    return AcousticStreams(mgc=np.zeros((n, 60)), bap=np.zeros((n, 5)), lf0=lf0)


def score(ref, pred):
    """The pooled report of one utterance."""
    return metrics.aggregate([metrics.evaluate_utterance("u", ref, pred)])


def random_utterance(rng, n):
    mgc = rng.normal(size=(n, 60))
    bap = rng.normal(size=(n, 5))
    lf0 = np.log(rng.uniform(80, 300, n))
    vuv = (rng.random(n) > 0.3).astype(float)
    return AcousticStreams(mgc=mgc, bap=bap, lf0=masked(lf0, vuv))


def evaluate_pair(rng, utt_id, n):
    ref = random_utterance(rng, n)
    pred = random_utterance(rng, n)
    ev = metrics.evaluate_utterance(utt_id, ref, pred)
    return ev, (ref, pred)


def numpy_oracle(refs, preds):
    """The five measures written out in numpy over all frames of the
    utterances together, as the report header states them."""
    ref_mgc, pred_mgc = (np.vstack([s.mgc for s in side]) for side in (refs, preds))
    ref_bap, pred_bap = (np.vstack([s.bap for s in side]) for side in (refs, preds))
    ref_lf0, pred_lf0 = (np.concatenate([s.lf0 for s in side]) for side in (refs, preds))
    ref_v, pred_v = ref_lf0 > UNVOICED_LF0, pred_lf0 > UNVOICED_LF0
    both = ref_v & pred_v
    ref_hz, pred_hz = np.exp(ref_lf0[both]), np.exp(pred_lf0[both])
    log_scale = 10.0 / math.log(10.0)
    mcd_frames = log_scale * np.sqrt(2.0 * np.sum((ref_mgc[:, 1:] - pred_mgc[:, 1:]) ** 2, axis=1))
    bap_frames = log_scale * np.sqrt(2.0 * np.sum((ref_bap - pred_bap) ** 2, axis=1)) / 10.0
    return {
        "mcd_db": np.mean(mcd_frames),
        "bap_db": np.mean(bap_frames),
        "f0_rmse_hz": np.sqrt(np.mean((ref_hz - pred_hz) ** 2)),
        "f0_corr": np.corrcoef(ref_hz, pred_hz)[0, 1],
        "vuv_error_pct": 100.0 * np.mean(ref_v != pred_v),
    }


class TestMcd:
    def test_identical_is_zero(self):
        x = random_utterance(np.random.default_rng(0), 20)
        assert score(x, x).mcd_db == 0.0

    def test_single_difference_closed_form(self):
        ref = voiced_track([100.0])
        pred_mgc = np.zeros((1, 60))
        pred_mgc[0, 7] = 1.0
        assert score(ref, dataclasses.replace(ref, mgc=pred_mgc)).mcd_db == pytest.approx(
            CLOSED_FORM_MCD, abs=1e-9
        )

    def test_zeroth_coefficient_excluded(self):
        ref = voiced_track([100.0] * 4)
        pred_mgc = np.zeros((4, 60))
        pred_mgc[:, 0] = 99.0
        assert score(ref, dataclasses.replace(ref, mgc=pred_mgc)).mcd_db == 0.0

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(1)
        a, b, c = (rng.normal(size=(10, 60)) for _ in range(3))
        ref = voiced_track([100.0] * 10)
        with_a, with_b = (dataclasses.replace(ref, mgc=m) for m in (a, b))
        assert score(with_a, with_b).mcd_db == score(with_b, with_a).mcd_db
        d = metrics._distortion_frames
        assert np.all(d(a, c) <= d(a, b) + d(b, c) + 1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            metrics.evaluate_utterance("u", voiced_track([100.0] * 3), voiced_track([100.0] * 4))


class TestBap:
    def test_single_difference_closed_form(self):
        ref = voiced_track([100.0])
        pred_bap = np.zeros((1, 5))
        pred_bap[0, 2] = 1.0
        assert score(ref, dataclasses.replace(ref, bap=pred_bap)).bap_db == pytest.approx(
            CLOSED_FORM_MCD / 10.0, abs=1e-9
        )

    def test_identical_is_zero(self):
        x = random_utterance(np.random.default_rng(2), 6)
        assert score(x, x).bap_db == 0.0

    def test_includes_all_coefficients(self):
        ref = voiced_track([100.0])
        pred_bap = np.zeros((1, 5))
        pred_bap[0, 0] = 1.0  # coefficient 0 counts here, unlike MCD
        assert score(ref, dataclasses.replace(ref, bap=pred_bap)).bap_db > 0.0


class TestF0Metrics:
    def test_identical_streams(self):
        x = voiced_track([100.0, 120.0, 130.0])
        report = score(x, x)
        assert (report.f0_rmse_hz, report.f0_corr, report.vuv_error_pct) == (0.0, 1.0, 0.0)

    def test_constant_hz_shift(self):
        hz = np.array([100.0, 150.0, 210.0, 95.0])
        report = score(voiced_track(hz), voiced_track(hz + 5.0))
        assert report.f0_rmse_hz == pytest.approx(5.0, abs=1e-9)
        assert report.f0_corr == pytest.approx(1.0, abs=1e-9)
        assert report.vuv_error_pct == 0.0

    def test_four_frame_vuv_case(self):
        hz = [100.0] * 4
        report = score(voiced_track(hz, [1, 1, 0, 0]), voiced_track(hz, [1, 0, 0, 1]))
        assert report.vuv_error_pct == 50.0

    def test_exhaustive_vuv_masks_match_counting_oracle(self):
        hz = [100.0, 110, 120, 130]
        for ref_bits, pred_bits in itertools.product(range(16), repeat=2):
            ref_vuv = np.array([(ref_bits >> i) & 1 for i in range(4)], dtype=float)
            pred_vuv = np.array([(pred_bits >> i) & 1 for i in range(4)], dtype=float)
            err = score(voiced_track(hz, ref_vuv), voiced_track(hz, pred_vuv)).vuv_error_pct
            expect = 100.0 * bin(ref_bits ^ pred_bits).count("1") / 4.0
            assert err == expect

    def test_no_common_voicing_gives_nan_markers(self):
        hz = [100.0, 110.0]
        report = score(voiced_track(hz, [1.0, 0.0]), voiced_track(hz, [0.0, 1.0]))
        assert math.isnan(report.f0_rmse_hz) and math.isnan(report.f0_corr)
        assert report.vuv_error_pct == 100.0

    def test_zero_variance_gives_nan_corr(self):
        report = score(voiced_track([100.0, 100.0, 100.0]), voiced_track([90.0, 95.0, 100.0]))
        assert math.isnan(report.f0_corr)
        assert report.f0_rmse_hz > 0.0

    def test_affine_invariance_of_correlation(self):
        rng = np.random.default_rng(3)
        hz = rng.uniform(80, 300, 50)
        other = rng.uniform(80, 300, 50)
        corr1 = score(voiced_track(hz), voiced_track(other)).f0_corr
        corr2 = score(voiced_track(2.5 * hz), voiced_track(2.5 * other)).f0_corr
        assert corr1 == pytest.approx(corr2, abs=1e-9)


class TestEvaluateUtterance:
    def test_prediction_at_or_below_threshold_is_unvoiced(self):
        ref = voiced_track([100.0, 110.0, 120.0, 130.0])
        pred = dataclasses.replace(ref, lf0=np.array([ref.lf0[0], -1e9, -5e9, UNVOICED_LF0]))
        ev = metrics.evaluate_utterance("u", ref, pred)
        assert ev.vuv_mismatches == 3
        assert ev.n_voiced_both == 1
        assert ev.hz_pred.tolist() == pytest.approx([100.0])


class TestAggregate:
    def test_single_utterance_unchanged(self):
        rng = np.random.default_rng(4)
        ev, (ref, pred) = evaluate_pair(rng, "u1", 30)
        report = metrics.aggregate([ev], system="txt2wav", split="dev", variant="mlpg")
        oracle = numpy_oracle([ref], [pred])
        assert report.mcd_db == pytest.approx(oracle["mcd_db"], abs=1e-12)
        assert report.f0_rmse_hz == pytest.approx(oracle["f0_rmse_hz"], abs=1e-9)
        assert report.f0_corr == pytest.approx(oracle["f0_corr"], abs=1e-9)
        assert report.vuv_error_pct == pytest.approx(oracle["vuv_error_pct"], abs=1e-12)

    def test_equal_lengths_give_arithmetic_mean(self):
        rng = np.random.default_rng(5)
        ev1, _ = evaluate_pair(rng, "u1", 25)
        ev2, _ = evaluate_pair(rng, "u2", 25)
        report = metrics.aggregate([ev1, ev2])
        per_utt = [metrics.aggregate([e]) for e in (ev1, ev2)]
        assert report.mcd_db == pytest.approx(
            (per_utt[0].mcd_db + per_utt[1].mcd_db) / 2, abs=1e-12
        )

    def test_pooled_recomputation_oracle(self):
        rng = np.random.default_rng(6)
        evals, raw = [], []
        for i, n in enumerate((17, 31, 24)):
            ev, streams = evaluate_pair(rng, f"u{i}", n)
            evals.append(ev)
            raw.append(streams)
        report = metrics.aggregate(evals)
        oracle = numpy_oracle([r[0] for r in raw], [r[1] for r in raw])
        assert report.mcd_db == pytest.approx(oracle["mcd_db"], rel=1e-12)
        assert report.bap_db == pytest.approx(oracle["bap_db"], rel=1e-12)
        assert report.f0_rmse_hz == pytest.approx(oracle["f0_rmse_hz"], rel=1e-9)
        assert report.f0_corr == pytest.approx(oracle["f0_corr"], abs=1e-9)
        assert report.vuv_error_pct == pytest.approx(oracle["vuv_error_pct"], rel=1e-12)

    @pytest.mark.parametrize(
        "ref_hz, pred_hz",
        [
            ([100.0, 100.0, 100.0], [90.0, 95.0, 100.0]),
            ([100.0] * 3, [120.0] * 3),
            ([100.0] * 154, [120.0] * 154),
        ],
    )
    def test_constant_track_gives_nan_corr(self, ref_hz, pred_hz):
        ev = metrics.evaluate_utterance("u", voiced_track(ref_hz), voiced_track(pred_hz))
        report = metrics.aggregate([ev])
        assert math.isnan(report.f0_corr)
        assert report.f0_rmse_hz > 0.0

    def test_pooled_corr_matches_two_pass_oracle(self):
        # a high mean over a small spread is where one-pass sums cancel
        rng = np.random.default_rng(9)
        evals, ref_hz, pred_hz = [], [], []
        for i, n in enumerate((40, 75, 23, 58)):
            ref, pred = 200.0 + rng.normal(0.0, 0.3, (2, n))
            noisy = pred + 0.2 * (ref - 200.0)
            ev = metrics.evaluate_utterance(f"u{i}", voiced_track(ref), voiced_track(noisy))
            evals.append(ev)
            ref_hz.append(np.exp(np.log(ref)))
            pred_hz.append(np.exp(np.log(noisy)))
        x, y = np.concatenate(ref_hz), np.concatenate(pred_hz)
        dx, dy = x - x.mean(), y - y.mean()
        oracle = np.sum(dx * dy) / np.sqrt(np.sum(dx * dx) * np.sum(dy * dy))
        assert metrics.aggregate(evals).f0_corr == pytest.approx(oracle, rel=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        ref = random_utterance(rng, 40)
        pred = random_utterance(rng, 40)
        base = metrics.evaluate_utterance("u", ref, pred)
        perm = rng.permutation(40)
        shuffled = metrics.evaluate_utterance(
            "u",
            AcousticStreams(mgc=ref.mgc[perm], bap=ref.bap[perm], lf0=ref.lf0[perm]),
            AcousticStreams(mgc=pred.mgc[perm], bap=pred.bap[perm], lf0=pred.lf0[perm]),
        )
        a, b = metrics.aggregate([base]), metrics.aggregate([shuffled])
        assert a.mcd_db == pytest.approx(b.mcd_db, rel=1e-12)
        assert a.f0_corr == pytest.approx(b.f0_corr, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            metrics.aggregate([])

    @pytest.mark.parametrize("stream", ["lf0", "mgc", "bap"])
    def test_overflowing_prediction_is_data_error(self, stream):
        # a voiced LF0 of 1e4 is exp(1e4) = inf Hz; 1e200 squared overflows
        ref = voiced_track([100.0, 110.0, 120.0])
        wild = {"lf0": np.full(3, 1e4), "mgc": np.full((3, 60), 1e200), "bap": np.full((3, 5), 1e200)}
        pred = dataclasses.replace(ref, **{stream: wild[stream]})
        ev = metrics.evaluate_utterance("u", ref, pred)
        with pytest.raises(DataError, match="non-finite"):
            metrics.aggregate([ev])


class TestReports:
    def make_reports(self, speaker="spk01"):
        rng = np.random.default_rng(8)
        reports = []
        for system in ("ult2wav", "txt2wav", "txt+ult2wav"):
            for split in ("dev", "test"):
                ev, _ = evaluate_pair(rng, "u", 20)
                reports.append(
                    metrics.aggregate(
                        [ev], speaker=speaker, system=system, split=split, variant="mlpg"
                    )
                )
        return reports

    def test_csv_round_trip(self, tmp_path):
        reports = self.make_reports()
        path = tmp_path / "report.csv"
        metrics.write_report_csv(reports, path)
        loaded = metrics.read_report_csv(path)
        assert loaded == reports

    def test_csv_header_documents_bap_convention(self, tmp_path):
        path = tmp_path / "report.csv"
        metrics.write_report_csv(self.make_reports(), path)
        head = path.read_text().splitlines()[:3]
        assert any("divided by 10" in line for line in head)

    def test_two_reports_for_one_cell_are_an_error(self):
        reports = self.make_reports()
        with pytest.raises(DataError, match=r"speaker 'spk01', system 'txt2wav', test set, mlpg"):
            metrics.render_tables(reports + [reports[3]])

    def test_tables_layout(self):
        text = metrics.render_tables(self.make_reports())
        assert "MCD (mlpg)" in text
        assert "F0-VUV (mlpg)" in text
        assert "spk01" in text
        for system in ("ult2wav", "txt2wav", "txt+ult2wav"):
            assert system in text

    @pytest.mark.parametrize("speakers", [("spk01",), ("spk01", "speaker_long_01")])
    def test_rows_align_with_the_header_columns(self, speakers):
        reports = [r for speaker in speakers for r in self.make_reports(speaker)]
        lines = metrics.render_tables(reports).splitlines()
        headers = [i for i, line in enumerate(lines) if line.startswith("Spkr")]
        assert len(headers) == 5
        label = max(8, *map(len, speakers))
        for i in headers:
            header, rows = lines[i], lines[i + 2 : i + 2 + len(speakers)]
            assert header.startswith("Spkr".ljust(label) + " ")
            names = [(m.start() + m.end()) / 2 for m in re.finditer(r"\S+2wav", header)]
            for speaker, row in zip(sorted(speakers), rows):
                assert row.startswith(speaker.ljust(label) + " ") and len(row) == len(header)
                # each dev / test cell is centred under its system's name
                cells = [(m.start() + m.end()) / 2 for m in re.finditer(r"\S+ / \S+", row)]
                assert len(cells) == len(names) == 3
                assert all(abs(c - n) <= 1 for c, n in zip(cells, names)), (header, row)
