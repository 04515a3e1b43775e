"""Full-context phonetic labels, question sets, and linguistic features.

Label files carry one ``start end context`` line per phone with times in
100 ns ticks. Question files declare binary ``QS`` and numeric ``CQS``
predicates over the context strings; file order fixes feature column order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, FormatError

TICKS_PER_SECOND = 10_000_000

# Numeric value emitted when a CQS pattern does not match a context.
NUMERIC_ABSENT = -1.0

# Positional features appended after the question columns, per covering label:
# fraction through, fraction remaining, duration in frames, frame index within.
N_POSITIONAL = 4


@dataclass(frozen=True)
class FullContextLabel:
    start: int  # 100 ns ticks
    end: int
    context: str

    def __post_init__(self):
        if self.start > self.end:
            raise FormatError(f"label start {self.start} > end {self.end}")
        if not self.context:
            raise FormatError("empty context string")


@dataclass(frozen=True)
class QuestionSet:
    binary: tuple[tuple[str, tuple[str, ...]], ...]
    numeric: tuple[tuple[str, str], ...]

    @classmethod
    def empty(cls) -> "QuestionSet":
        """The ultrasound-only configuration: no text questions at all."""
        return cls(binary=(), numeric=())

    @cached_property
    def _compiled(self) -> tuple[tuple[re.Pattern, ...], tuple[re.Pattern, ...]]:
        """One whole-string regex per QS (its globs as alternatives) and one per CQS.

        Compiled on first use and kept on the instance: a Merlin-size set has
        thousands of globs, far more than ``re``'s own compile cache holds.
        """
        binary = tuple(
            re.compile("|".join(_glob_to_regex(p) for p in patterns))
            for _, patterns in self.binary
        )
        return binary, tuple(_numeric_regex(pattern) for _, pattern in self.numeric)


def parse_labels(text: str) -> list[FullContextLabel]:
    """Parse a label document; rejects overlapping or non-monotone segments."""
    labels: list[FullContextLabel] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(None, 2)
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: expected 'start end context', got {line!r}")
        try:
            start, end = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise FormatError(f"line {lineno}: non-integer time in {line!r}") from e
        label = FullContextLabel(start=start, end=end, context=parts[2])
        if labels and label.start < labels[-1].end:
            raise FormatError(
                f"line {lineno}: label starts at {label.start} before previous "
                f"label ends at {labels[-1].end}"
            )
        labels.append(label)
    return labels


_QS_RE = re.compile(r'^(QS|CQS)\s+"([^"]+)"\s*\{([^}]*)\}\s*$')


def parse_questions(text: str) -> QuestionSet:
    """Parse QS/CQS declarations; blank lines and ``#`` comments are skipped."""
    binary: list[tuple[str, tuple[str, ...]]] = []
    numeric: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _QS_RE.match(line)
        if m is None:
            raise FormatError(f"line {lineno}: malformed question declaration {line!r}")
        kind, name, body = m.group(1), m.group(2), m.group(3)
        if name in seen:
            raise FormatError(f"line {lineno}: duplicate question name {name!r}")
        seen.add(name)
        patterns = tuple(p.strip() for p in body.split(",") if p.strip())
        if kind == "QS":
            if not patterns:
                raise FormatError(f"line {lineno}: QS {name!r} declares no patterns")
            binary.append((name, patterns))
        else:
            if len(patterns) != 1:
                raise FormatError(f"line {lineno}: CQS {name!r} needs exactly one pattern")
            numeric.append((name, patterns[0]))
    return QuestionSet(binary=tuple(binary), numeric=tuple(numeric))


def _glob_to_regex(pattern: str) -> str:
    out = []
    for ch in pattern:
        if ch == "*":
            out.append(".*")
        elif ch == "?":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out)


def _numeric_regex(pattern: str) -> re.Pattern:
    """Compile a CQS pattern: glob text around one verbatim regex capture group."""
    open_idx = pattern.find("(")
    if open_idx < 0:
        raise FormatError(f"CQS pattern {pattern!r} has no capture group")
    depth = 0
    close_idx = -1
    for i in range(open_idx, len(pattern)):
        if pattern[i] == "(":
            depth += 1
        elif pattern[i] == ")":
            depth -= 1
            if depth == 0:
                close_idx = i
                break
    if close_idx < 0:
        raise FormatError(f"CQS pattern {pattern!r} has an unbalanced capture group")
    return re.compile(
        _glob_to_regex(pattern[:open_idx])
        + pattern[open_idx : close_idx + 1]
        + _glob_to_regex(pattern[close_idx + 1 :])
    )


def _answer_label(label: FullContextLabel, questions: QuestionSet) -> np.ndarray:
    binary, numeric = questions._compiled
    answers = np.empty(len(binary) + len(numeric))
    context = label.context
    for i, regex in enumerate(binary):
        answers[i] = 1.0 if regex.fullmatch(context) else 0.0
    base = len(binary)
    for j, regex in enumerate(numeric):
        m = regex.search(context)
        answers[base + j] = float(m.group(1)) if m else NUMERIC_ABSENT
    return answers


@dataclass(frozen=True)
class LinguisticFeatures:
    """One utterance's linguistic input, stored per label and expanded per frame.

    Every question column is constant within a label, so the answers are kept
    once per label and ``which`` names the label that answers each frame.
    """

    answers: np.ndarray  # (n_labels, n_binary + n_numeric)
    which: np.ndarray  # (n_frames,) index of the label answering each frame
    positional: np.ndarray  # (n_frames, N_POSITIONAL)

    @property
    def n_frames(self) -> int:
        return self.which.shape[0]

    def dense(self) -> np.ndarray:
        """The per-frame matrix (n_frames, n_binary + n_numeric + 4)."""
        return np.hstack([self.answers[self.which], self.positional])


def save_features(features: LinguisticFeatures, path: Path) -> None:
    """Write the three arrays as one ``.npz`` file."""
    np.savez(
        path, answers=features.answers, which=features.which, positional=features.positional
    )


def load_features(path: Path) -> LinguisticFeatures:
    """The features written by ``save_features``."""
    with np.load(path) as data:
        return LinguisticFeatures(data["answers"], data["which"], data["positional"])


def frame_count(path: Path) -> int:
    """The frame count of saved features, read from ``which`` alone."""
    with np.load(path) as data:
        return data["which"].shape[0]


def extract_features(
    labels: Sequence[FullContextLabel],
    questions: QuestionSet,
    frame_shift: float,
    n_frames: int,
) -> LinguisticFeatures:
    """Label answers, the frame-to-label index and the positional columns.

    Frame k is answered by the label covering time k * frame_shift (the first
    label whose end lies beyond it); frames past the last label clamp to it.
    The four positional columns are fraction through the label, fraction
    remaining, label duration in frames, and frame index within the label.
    """
    if not labels:
        raise DataError("empty label list")
    answers = np.stack([_answer_label(lab, questions) for lab in labels])

    shift_ticks = frame_shift * TICKS_PER_SECOND
    ticks = np.floor(np.arange(n_frames) * shift_ticks + 0.5)
    ends = np.array([lab.end for lab in labels], dtype=np.float64)
    which = np.searchsorted(ends, ticks, side="right")
    # the smallest index type that holds every label keeps the saved index small
    which = np.minimum(which, len(labels) - 1).astype(np.min_scalar_type(len(labels) - 1))

    starts = np.array([lab.start for lab in labels], dtype=np.float64)
    durations = np.maximum(ends - starts, 1.0)  # guard zero-length labels
    lab_start = starts[which]
    lab_dur = durations[which]
    frac_through = np.clip((ticks - lab_start) / lab_dur, 0.0, 1.0)
    index_within = np.maximum(np.floor((ticks - lab_start) / shift_ticks), 0.0)

    positional = np.empty((n_frames, N_POSITIONAL))
    positional[:, 0] = frac_through
    positional[:, 1] = 1.0 - frac_through
    positional[:, 2] = lab_dur / shift_ticks
    positional[:, 3] = index_within
    return LinguisticFeatures(answers, which, positional)
