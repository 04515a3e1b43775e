"""Objective measures between reference and predicted acoustic streams.

Five quantities per (system, split): mel-cepstral distortion, band
aperiodicity distortion, F0 RMSE in Hz, F0 Pearson correlation, and the
voiced/unvoiced decision error rate. Conventions: MCD excludes the 0th
cepstral coefficient; BAP uses the same formula over all coefficients
divided by 10; voicing comes from the LF0 sentinel of each stream
(``AcousticStreams.voiced``); F0 measures are taken on exponentiated
(Hz-scale) values over frames voiced in both streams. Undefined quantities
are reported as NaN, never as 0; a defined quantity that comes out
non-finite raises DataError.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .acoustic import AcousticStreams
from .config import SYSTEMS
from .errors import ArgumentError, DataError, FormatError

_LOG_SCALE = 10.0 / math.log(10.0)

CONVENTION_NOTES = (
    "mcd_db: frame-mean of (10/ln10)*sqrt(2*sum(diff^2)) over cepstral "
    "coefficients 1..D-1 (0th excluded)",
    "bap_db: same formula over all coefficients, divided by 10",
    "f0 metrics: Hz scale (exponentiated), frames voiced in both streams",
)


def _distortion_frames(ref: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Per-frame (10/ln10)*sqrt(2*sum(diff^2)) over all columns of two equal-shape matrices."""
    ref = np.atleast_2d(np.asarray(ref, dtype=np.float64))
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64))
    if ref.shape != pred.shape:
        raise ArgumentError(f"shape mismatch: {ref.shape} vs {pred.shape}")
    diff = ref - pred
    return _LOG_SCALE * np.sqrt(2.0 * np.sum(diff * diff, axis=1))


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
def evaluate_utterance(utt_id: str, ref: AcousticStreams, pred: AcousticStreams) -> UtteranceEval:
    """Error sums for one utterance; no time warping is applied. Voicing is
    read from each stream's LF0 sentinel."""
    mcd_frames = _distortion_frames(ref.mgc[:, 1:], pred.mgc[:, 1:])
    bap_frames = _distortion_frames(ref.bap, pred.bap) / 10.0
    n = ref.n_frames
    ref_voiced, pred_voiced = ref.voiced, pred.voiced
    both = ref_voiced & pred_voiced
    return UtteranceEval(
        utt_id=utt_id,
        n_frames=n,
        mcd_sum=float(mcd_frames.sum()),
        bap_sum=float(bap_frames.sum()),
        vuv_mismatches=int(np.count_nonzero(ref_voiced != pred_voiced)),
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
    """Reports from a ``write_report_csv`` file; DataError when the file is
    missing, FormatError when a row lacks a column or holds a bad number."""
    try:
        with open(path, newline="") as fh:
            rows = [line for line in fh if not line.startswith("#")]
    except OSError as e:
        raise DataError(f"cannot read report {path}: {e.strerror}") from e
    casts = get_type_hints(EvaluationReport)
    try:
        return [
            EvaluationReport(**{name: cast(row[name]) for name, cast in casts.items()})
            for row in csv.DictReader(rows)
        ]
    except KeyError as e:
        raise FormatError(f"report {path} has no column {e}") from e
    except (TypeError, ValueError) as e:
        raise FormatError(f"report {path} holds a malformed row: {e}") from e


_METRIC_COLUMNS = (
    ("MCD", "mcd_db", "{:.3f}"),
    ("BAP", "bap_db", "{:.3f}"),
    ("F0-RMSE", "f0_rmse_hz", "{:.3f}"),
    ("F0-CORR", "f0_corr", "{:.3f}"),
    ("F0-VUV", "vuv_error_pct", "{:.3f}"),
)


def render_tables(reports: Sequence[EvaluationReport]) -> str:
    """Aligned text tables, one per metric: speaker rows, system columns,
    each cell holding ``dev / test`` values. Two reports for one cell (two
    runs of one speaker and system, say) are a ``DataError``."""
    by_cell = {}
    for r in reports:
        key = (r.speaker, r.system, r.split, r.variant)
        if key in by_cell:
            raise DataError(
                f"two reports for speaker {r.speaker!r}, system {r.system!r}, "
                f"{r.split} set, {r.variant} variant: a table holds one run per "
                "speaker and system"
            )
        by_cell[key] = r
    lines = [f"# {note}" for note in CONVENTION_NOTES]
    variants = sorted({r.variant for r in reports})
    for variant in variants:
        subset = [r for r in reports if r.variant == variant]
        speakers = sorted({r.speaker for r in subset})
        label = max(8, *map(len, speakers))
        systems = [s for s in SYSTEMS if any(r.system == s for r in subset)]
        systems += sorted({r.system for r in subset} - set(SYSTEMS))
        for title, attr, fmt in _METRIC_COLUMNS:
            lines.append("")
            lines.append(f"{title} ({variant}) on the dev/test set")
            width = max(17, *(len(s) + 2 for s in systems))
            header = "Spkr".ljust(label) + "".join(s.center(width) for s in systems)
            lines.append(header)
            lines.append("-" * len(header))
            for speaker in speakers:
                cells = []
                for system in systems:
                    parts = []
                    for split in ("dev", "test"):
                        r = by_cell.get((speaker, system, split, variant))
                        parts.append(fmt.format(getattr(r, attr)) if r else "-")
                    cells.append(f"{parts[0]} / {parts[1]}".center(width))
                lines.append(speaker.ljust(label) + "".join(cells))
    return "\n".join(lines) + "\n"
