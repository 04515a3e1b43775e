"""Objective measures between reference and predicted acoustic streams.

Five quantities per (system, split): mel-cepstral distortion, band
aperiodicity distortion, F0 RMSE in Hz, F0 Pearson correlation, and the
voiced/unvoiced decision error rate. Conventions: MCD excludes the 0th
cepstral coefficient; BAP uses the same formula over all coefficients
divided by 10; F0 measures are taken on exponentiated (Hz-scale) values over
frames voiced in both streams. Undefined quantities are reported as NaN,
never as 0; a defined quantity that comes out non-finite raises DataError.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .acoustic import UNVOICED_LF0, AcousticStreams
from .config import SYSTEMS
from .errors import ArgumentError, DataError

_LOG_SCALE = 10.0 / math.log(10.0)

CONVENTION_NOTES = (
    "mcd_db: frame-mean of (10/ln10)*sqrt(2*sum(diff^2)) over cepstral "
    "coefficients 1..D-1 (0th excluded)",
    "bap_db: same formula over all coefficients, divided by 10",
    "f0 metrics: Hz scale (exponentiated), frames voiced in both streams",
)


def mcd(ref_mgc: np.ndarray, pred_mgc: np.ndarray) -> float:
    """Mel-cepstral distortion in dB, averaged over frames."""
    ref, pred = _check_pair(ref_mgc, pred_mgc)
    return _score_alone(_alone(ref.shape[0], mgc=ref), _alone(pred.shape[0], mgc=pred)).mcd_db


def bap_distortion(ref_bap: np.ndarray, pred_bap: np.ndarray) -> float:
    """Band-aperiodicity distortion in dB, averaged over frames."""
    ref, pred = _check_pair(ref_bap, pred_bap)
    return _score_alone(_alone(ref.shape[0], bap=ref), _alone(pred.shape[0], bap=pred)).bap_db


def _mcd_frames(ref: np.ndarray, pred: np.ndarray) -> np.ndarray:
    ref, pred = _check_pair(ref, pred)
    diff = ref[:, 1:] - pred[:, 1:]
    return _LOG_SCALE * np.sqrt(2.0 * np.sum(diff * diff, axis=1))


def _bap_frames(ref: np.ndarray, pred: np.ndarray) -> np.ndarray:
    ref, pred = _check_pair(ref, pred)
    diff = ref - pred
    return _LOG_SCALE * np.sqrt(2.0 * np.sum(diff * diff, axis=1)) / 10.0


def _check_pair(ref: np.ndarray, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ref = np.atleast_2d(np.asarray(ref, dtype=np.float64))
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64))
    if ref.shape != pred.shape:
        raise ArgumentError(f"shape mismatch: {ref.shape} vs {pred.shape}")
    return ref, pred


def f0_metrics(
    ref_lf0: np.ndarray,
    ref_vuv: np.ndarray,
    pred_lf0: np.ndarray,
    pred_vuv: np.ndarray,
) -> tuple[float, float, float]:
    """(rmse_hz, corr, vuv_error_pct) over frames voiced in both streams.

    With no commonly voiced frame, RMSE and correlation are NaN; correlation
    is also NaN when either Hz series has zero variance.
    """
    ref_lf0, pred_lf0 = np.ravel(ref_lf0), np.ravel(pred_lf0)
    report = _score_alone(
        _alone(ref_lf0.size, lf0=ref_lf0, vuv=ref_vuv),
        _alone(pred_lf0.size, lf0=pred_lf0, vuv=pred_vuv),
    )
    return report.f0_rmse_hz, report.f0_corr, report.vuv_error_pct


def _alone(n: int, mgc=None, bap=None, lf0=None, vuv=None) -> tuple[AcousticStreams, np.ndarray]:
    """One side of a single-stream comparison: absent streams are empty or unvoiced."""
    streams = AcousticStreams(
        mgc=np.zeros((n, 0)) if mgc is None else mgc,
        bap=np.zeros((n, 0)) if bap is None else bap,
        lf0=np.full(n, UNVOICED_LF0) if lf0 is None else lf0,
    )
    return streams, np.zeros(n) if vuv is None else np.ravel(vuv)


def _score_alone(
    ref: tuple[AcousticStreams, np.ndarray], pred: tuple[AcousticStreams, np.ndarray]
) -> EvaluationReport:
    return aggregate([evaluate_utterance("", *ref, *pred)])


@dataclass(frozen=True)
class UtteranceEval:
    """Per-utterance error sums and commonly voiced F0 pairs; enough to pool
    exactly across utterances."""

    utt_id: str
    n_frames: int
    mcd_sum: float
    bap_sum: float
    vuv_mismatches: int
    hz_ref: np.ndarray  # reference F0 in Hz at frames voiced in both streams
    hz_pred: np.ndarray  # predicted F0 in Hz at the same frames

    @property
    def n_voiced_both(self) -> int:
        return self.hz_ref.size


# a wild prediction overflows to inf here; aggregate then raises DataError,
# so the overflow needs no warning of its own
@np.errstate(over="ignore")
def evaluate_utterance(
    utt_id: str,
    ref: AcousticStreams,
    ref_vuv: np.ndarray,
    pred: AcousticStreams,
    pred_vuv: np.ndarray,
) -> UtteranceEval:
    """Error sums for one utterance; no time warping is applied."""
    mcd_frames = _mcd_frames(ref.mgc, pred.mgc)
    bap_frames = _bap_frames(ref.bap, pred.bap)
    ref_vuv = np.ravel(ref_vuv)
    pred_vuv = np.ravel(pred_vuv)
    n = ref.n_frames
    if pred.n_frames != n or ref_vuv.size != n or pred_vuv.size != n:
        raise ArgumentError(f"frame count mismatch for {utt_id}")
    both = (ref_vuv > 0.5) & (pred_vuv > 0.5)
    return UtteranceEval(
        utt_id=utt_id,
        n_frames=n,
        mcd_sum=float(mcd_frames.sum()),
        bap_sum=float(bap_frames.sum()),
        vuv_mismatches=int(np.count_nonzero((ref_vuv > 0.5) != (pred_vuv > 0.5))),
        hz_ref=np.exp(ref.lf0[both]),
        hz_pred=np.exp(pred.lf0[both]),
    )


@dataclass(frozen=True)
class EvaluationReport:
    speaker: str
    system: str  # ult2wav | txt2wav | txt+ult2wav
    split: str  # dev | test
    variant: str  # mlpg | static
    mcd_db: float
    bap_db: float
    f0_rmse_hz: float
    f0_corr: float
    vuv_error_pct: float
    n_frames: int
    n_voiced_both: int


def aggregate(
    utterances: Sequence[UtteranceEval],
    speaker: str = "",
    system: str = "",
    split: str = "",
    variant: str = "",
) -> EvaluationReport:
    """Pool utterances into one report: frame-weighted means, and F0 measures
    over the commonly voiced frames of all utterances together."""
    if not utterances:
        raise DataError("no utterance evaluations to aggregate")
    n = sum(u.n_frames for u in utterances)
    if n == 0:
        raise DataError("no frames to aggregate")
    nv = sum(u.n_voiced_both for u in utterances)
    mcd_db = sum(u.mcd_sum for u in utterances) / n
    bap_db = sum(u.bap_sum for u in utterances) / n
    vuv = 100.0 * sum(u.vuv_mismatches for u in utterances) / n
    if nv > 0:
        rmse = math.sqrt(
            sum(float(np.sum((u.hz_ref - u.hz_pred) ** 2)) for u in utterances) / nv
        )
        corr = _pearson(
            np.concatenate([u.hz_ref for u in utterances]),
            np.concatenate([u.hz_pred for u in utterances]),
        )
    else:
        rmse = corr = math.nan
    # NaN stays only where a measure is undefined: F0 with no commonly voiced
    # frame, and the correlation of a constant track
    defined = {"mcd_db": mcd_db, "bap_db": bap_db, "vuv_error_pct": vuv}
    if nv > 0:
        defined["f0_rmse_hz"] = rmse
    bad = {name: v for name, v in defined.items() if not math.isfinite(v)}
    if math.isinf(corr):
        bad["f0_corr"] = corr
    if bad:
        raise DataError(f"non-finite scores for {speaker}/{system}/{split}/{variant}: {bad}")
    return EvaluationReport(
        speaker=speaker,
        system=system,
        split=split,
        variant=variant,
        mcd_db=mcd_db,
        bap_db=bap_db,
        f0_rmse_hz=rmse,
        f0_corr=corr,
        vuv_error_pct=vuv,
        n_frames=n,
        n_voiced_both=nv,
    )


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Two-pass Pearson correlation; NaN when either series is constant."""
    if x.min() == x.max() or y.min() == y.max():
        return math.nan
    dx = x - x.mean()
    dy = y - y.mean()
    return float(np.sum(dx * dy)) / math.sqrt(float(np.sum(dx * dx)) * float(np.sum(dy * dy)))


def write_report_csv(reports: Iterable[EvaluationReport], path: Path) -> None:
    names = [f.name for f in fields(EvaluationReport)]
    with open(path, "w", newline="") as fh:
        for note in CONVENTION_NOTES:
            fh.write(f"# {note}\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        for report in reports:
            writer.writerow(
                [repr(v) if isinstance(v, float) else v for v in (getattr(report, n) for n in names)]
            )


def read_report_csv(path: Path) -> list[EvaluationReport]:
    with open(path, newline="") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(rows)
    out = []
    for row in reader:
        out.append(
            EvaluationReport(
                speaker=row["speaker"],
                system=row["system"],
                split=row["split"],
                variant=row["variant"],
                mcd_db=float(row["mcd_db"]),
                bap_db=float(row["bap_db"]),
                f0_rmse_hz=float(row["f0_rmse_hz"]),
                f0_corr=float(row["f0_corr"]),
                vuv_error_pct=float(row["vuv_error_pct"]),
                n_frames=int(row["n_frames"]),
                n_voiced_both=int(row["n_voiced_both"]),
            )
        )
    return out


_METRIC_COLUMNS = (
    ("MCD", "mcd_db", "{:.3f}"),
    ("BAP", "bap_db", "{:.3f}"),
    ("F0-RMSE", "f0_rmse_hz", "{:.3f}"),
    ("F0-CORR", "f0_corr", "{:.3f}"),
    ("F0-VUV", "vuv_error_pct", "{:.3f}"),
)


def render_tables(reports: Sequence[EvaluationReport]) -> str:
    """Aligned text tables, one per metric: speaker rows, system columns,
    each cell holding ``dev / test`` values."""
    lines = [f"# {note}" for note in CONVENTION_NOTES]
    variants = sorted({r.variant for r in reports})
    for variant in variants:
        subset = [r for r in reports if r.variant == variant]
        speakers = sorted({r.speaker for r in subset})
        systems = [s for s in SYSTEMS if any(r.system == s for r in subset)]
        systems += sorted({r.system for r in subset} - set(SYSTEMS))
        by_key = {(r.speaker, r.system, r.split): r for r in subset}
        for title, attr, fmt in _METRIC_COLUMNS:
            lines.append("")
            lines.append(f"{title} ({variant}) on the dev/test set")
            width = max(17, *(len(s) + 2 for s in systems))
            header = "Spkr".ljust(8) + "".join(s.center(width) for s in systems)
            lines.append(header)
            lines.append("-" * len(header))
            for speaker in speakers:
                cells = []
                for system in systems:
                    parts = []
                    for split in ("dev", "test"):
                        r = by_key.get((speaker, system, split))
                        parts.append(fmt.format(getattr(r, attr)) if r else "-")
                    cells.append(f"{parts[0]} / {parts[1]}".center(width))
                lines.append(speaker.ljust(8) + "".join(cells))
    return "\n".join(lines) + "\n"
