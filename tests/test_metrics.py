import dataclasses
import itertools
import math

import numpy as np
import pytest

from ultratts import metrics
from ultratts.acoustic import AcousticStreams, UNVOICED_LF0
from ultratts.errors import ArgumentError, DataError

CLOSED_FORM_MCD = (10.0 / math.log(10.0)) * math.sqrt(2.0)


class TestMcd:
    def test_identical_is_zero(self):
        x = np.random.default_rng(0).normal(size=(20, 60))
        assert metrics.mcd(x, x) == 0.0

    def test_single_difference_closed_form(self):
        ref = np.zeros((1, 60))
        pred = np.zeros((1, 60))
        pred[0, 7] = 1.0
        assert metrics.mcd(ref, pred) == pytest.approx(CLOSED_FORM_MCD, abs=1e-9)

    def test_zeroth_coefficient_excluded(self):
        ref = np.zeros((4, 60))
        pred = np.zeros((4, 60))
        pred[:, 0] = 99.0
        assert metrics.mcd(ref, pred) == 0.0

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(1)
        a, b, c = (rng.normal(size=(10, 60)) for _ in range(3))
        assert metrics.mcd(a, b) == metrics.mcd(b, a)
        assert np.all(
            metrics._mcd_frames(a, c) <= metrics._mcd_frames(a, b) + metrics._mcd_frames(b, c) + 1e-12
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            metrics.mcd(np.zeros((3, 60)), np.zeros((4, 60)))


class TestBap:
    def test_single_difference_closed_form(self):
        ref = np.zeros((1, 5))
        pred = np.zeros((1, 5))
        pred[0, 2] = 1.0
        assert metrics.bap_distortion(ref, pred) == pytest.approx(
            CLOSED_FORM_MCD / 10.0, abs=1e-9
        )

    def test_identical_is_zero(self):
        x = np.random.default_rng(2).normal(size=(6, 5))
        assert metrics.bap_distortion(x, x) == 0.0

    def test_includes_all_coefficients(self):
        ref = np.zeros((1, 5))
        pred = np.zeros((1, 5))
        pred[0, 0] = 1.0  # coefficient 0 counts here, unlike MCD
        assert metrics.bap_distortion(ref, pred) > 0.0


class TestF0Metrics:
    def test_identical_streams(self):
        lf0 = np.log([100.0, 120.0, 130.0])
        vuv = np.ones(3)
        assert metrics.f0_metrics(lf0, vuv, lf0, vuv) == (0.0, 1.0, 0.0)

    def test_constant_hz_shift(self):
        hz = np.array([100.0, 150.0, 210.0, 95.0])
        vuv = np.ones(4)
        rmse, corr, err = metrics.f0_metrics(np.log(hz), vuv, np.log(hz + 5.0), vuv)
        assert rmse == pytest.approx(5.0, abs=1e-9)
        assert corr == pytest.approx(1.0, abs=1e-9)
        assert err == 0.0

    def test_four_frame_vuv_case(self):
        lf0 = np.log([100.0, 100, 100, 100])
        _, _, err = metrics.f0_metrics(
            lf0, np.array([1, 1, 0, 0]), lf0, np.array([1, 0, 0, 1])
        )
        assert err == 50.0

    def test_exhaustive_vuv_masks_match_counting_oracle(self):
        lf0 = np.log([100.0, 110, 120, 130])
        for ref_bits, pred_bits in itertools.product(range(16), repeat=2):
            ref_vuv = np.array([(ref_bits >> i) & 1 for i in range(4)], dtype=float)
            pred_vuv = np.array([(pred_bits >> i) & 1 for i in range(4)], dtype=float)
            _, _, err = metrics.f0_metrics(lf0, ref_vuv, lf0, pred_vuv)
            expect = 100.0 * bin(ref_bits ^ pred_bits).count("1") / 4.0
            assert err == expect

    def test_no_common_voicing_gives_nan_markers(self):
        lf0 = np.log([100.0, 110.0])
        rmse, corr, err = metrics.f0_metrics(
            lf0, np.array([1.0, 0.0]), lf0, np.array([0.0, 1.0])
        )
        assert math.isnan(rmse) and math.isnan(corr)
        assert err == 100.0

    def test_zero_variance_gives_nan_corr(self):
        lf0 = np.log([100.0, 100.0, 100.0])
        vuv = np.ones(3)
        rmse, corr, _ = metrics.f0_metrics(lf0, vuv, np.log([90.0, 95.0, 100.0]), vuv)
        assert math.isnan(corr)
        assert rmse > 0.0

    def test_affine_invariance_of_correlation(self):
        rng = np.random.default_rng(3)
        hz = rng.uniform(80, 300, 50)
        other = rng.uniform(80, 300, 50)
        vuv = np.ones(50)
        _, corr1, _ = metrics.f0_metrics(np.log(hz), vuv, np.log(other), vuv)
        _, corr2, _ = metrics.f0_metrics(
            np.log(2.5 * hz), vuv, np.log(2.5 * other), vuv
        )
        assert corr1 == pytest.approx(corr2, abs=1e-9)


def random_utterance(rng, n):
    mgc = rng.normal(size=(n, 60))
    bap = rng.normal(size=(n, 5))
    lf0 = np.log(rng.uniform(80, 300, n))
    vuv = (rng.random(n) > 0.3).astype(float)
    lf0 = np.where(vuv > 0, lf0, UNVOICED_LF0)
    return AcousticStreams(mgc=mgc, bap=bap, lf0=lf0), vuv


def evaluate_pair(rng, utt_id, n):
    ref, ref_vuv = random_utterance(rng, n)
    pred, pred_vuv = random_utterance(rng, n)
    ev = metrics.evaluate_utterance(utt_id, ref, ref_vuv, pred, pred_vuv)
    return ev, (ref, ref_vuv, pred, pred_vuv)


def voiced_track(hz):
    """Streams and voicing flag of an utterance voiced throughout at ``hz``."""
    n = len(hz)
    lf0 = np.log(np.asarray(hz, dtype=float))
    return AcousticStreams(mgc=np.zeros((n, 60)), bap=np.zeros((n, 5)), lf0=lf0), np.ones(n)


class TestAggregate:
    def test_single_utterance_unchanged(self):
        rng = np.random.default_rng(4)
        ev, (ref, ref_vuv, pred, pred_vuv) = evaluate_pair(rng, "u1", 30)
        report = metrics.aggregate([ev], system="txt2wav", split="dev", variant="mlpg")
        assert report.mcd_db == pytest.approx(metrics.mcd(ref.mgc, pred.mgc), abs=1e-12)
        rmse, corr, err = metrics.f0_metrics(ref.lf0, ref_vuv, pred.lf0, pred_vuv)
        assert report.f0_rmse_hz == pytest.approx(rmse, abs=1e-9)
        assert report.f0_corr == pytest.approx(corr, abs=1e-9)
        assert report.vuv_error_pct == pytest.approx(err, abs=1e-12)

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
        ref_mgc = np.vstack([r[0].mgc for r in raw])
        pred_mgc = np.vstack([r[2].mgc for r in raw])
        assert report.mcd_db == pytest.approx(metrics.mcd(ref_mgc, pred_mgc), rel=1e-12)
        ref_bap = np.vstack([r[0].bap for r in raw])
        pred_bap = np.vstack([r[2].bap for r in raw])
        assert report.bap_db == pytest.approx(
            metrics.bap_distortion(ref_bap, pred_bap), rel=1e-12
        )
        pooled = metrics.f0_metrics(
            np.concatenate([r[0].lf0 for r in raw]),
            np.concatenate([r[1] for r in raw]),
            np.concatenate([r[2].lf0 for r in raw]),
            np.concatenate([r[3] for r in raw]),
        )
        assert report.f0_rmse_hz == pytest.approx(pooled[0], rel=1e-9)
        assert report.f0_corr == pytest.approx(pooled[1], abs=1e-9)
        assert report.vuv_error_pct == pytest.approx(pooled[2], rel=1e-12)

    @pytest.mark.parametrize(
        "ref_hz, pred_hz",
        [
            ([100.0, 100.0, 100.0], [90.0, 95.0, 100.0]),
            ([100.0] * 3, [120.0] * 3),
            ([100.0] * 154, [120.0] * 154),
        ],
    )
    def test_constant_track_gives_nan_corr(self, ref_hz, pred_hz):
        ev = metrics.evaluate_utterance("u", *voiced_track(ref_hz), *voiced_track(pred_hz))
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
            ev = metrics.evaluate_utterance(f"u{i}", *voiced_track(ref), *voiced_track(noisy))
            evals.append(ev)
            ref_hz.append(np.exp(np.log(ref)))
            pred_hz.append(np.exp(np.log(noisy)))
        x, y = np.concatenate(ref_hz), np.concatenate(pred_hz)
        dx, dy = x - x.mean(), y - y.mean()
        oracle = np.sum(dx * dy) / np.sqrt(np.sum(dx * dx) * np.sum(dy * dy))
        assert metrics.aggregate(evals).f0_corr == pytest.approx(oracle, rel=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        ref, ref_vuv = random_utterance(rng, 40)
        pred, pred_vuv = random_utterance(rng, 40)
        base = metrics.evaluate_utterance("u", ref, ref_vuv, pred, pred_vuv)
        perm = rng.permutation(40)
        shuffled = metrics.evaluate_utterance(
            "u",
            AcousticStreams(mgc=ref.mgc[perm], bap=ref.bap[perm], lf0=ref.lf0[perm]),
            ref_vuv[perm],
            AcousticStreams(mgc=pred.mgc[perm], bap=pred.bap[perm], lf0=pred.lf0[perm]),
            pred_vuv[perm],
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
        ref, vuv = voiced_track([100.0, 110.0, 120.0])
        wild = {"lf0": np.full(3, 1e4), "mgc": np.full((3, 60), 1e200), "bap": np.full((3, 5), 1e200)}
        pred = dataclasses.replace(ref, **{stream: wild[stream]})
        ev = metrics.evaluate_utterance("u", ref, vuv, pred, vuv)
        with pytest.raises(DataError, match="non-finite"):
            metrics.aggregate([ev])


class TestReports:
    def make_reports(self):
        rng = np.random.default_rng(8)
        reports = []
        for system in ("ult2wav", "txt2wav", "txt+ult2wav"):
            for split in ("dev", "test"):
                ev, _ = evaluate_pair(rng, "u", 20)
                reports.append(
                    metrics.aggregate(
                        [ev], speaker="spk01", system=system, split=split, variant="mlpg"
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

    def test_tables_layout(self):
        text = metrics.render_tables(self.make_reports())
        assert "MCD (mlpg)" in text
        assert "F0-VUV (mlpg)" in text
        assert "spk01" in text
        for system in ("ult2wav", "txt2wav", "txt+ult2wav"):
            assert system in text
