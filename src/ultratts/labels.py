"""Full-context phonetic labels, question sets, and linguistic features.

Label files carry one ``start end context`` line per phone with times in
100 ns ticks. Question files declare binary ``QS`` and numeric ``CQS``
predicates over the context strings; file order fixes feature column order.
Features are held as ``GatheredRows``, the row type of every network input.

An utterance's features are a function of its label file, the question set
and the frame clock, so they are built where they are used and never stored.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ArgumentError, DataError, FormatError

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


class _CompiledQuestions(NamedTuple):
    globs: tuple[re.Pattern, ...]  # each distinct QS glob once, whole-string
    incidence: np.ndarray  # (n_globs, n_binary) float32, 1 where a QS declares the glob
    numeric: tuple[re.Pattern, ...]  # one per CQS


@dataclass(frozen=True)
class QuestionSet:
    binary: tuple[tuple[str, tuple[str, ...]], ...]
    numeric: tuple[tuple[str, str], ...]

    def __post_init__(self):
        # a QS of no globs could never answer yes
        for name, patterns in self.binary:
            if not patterns:
                raise FormatError(f"QS {name!r} declares no patterns")

    @classmethod
    def empty(cls) -> "QuestionSet":
        """The ultrasound-only configuration: no text questions at all."""
        return cls(binary=(), numeric=())

    @cached_property
    def _compiled(self) -> _CompiledQuestions:
        """One regex per distinct QS glob, the float32 incidence matrix from
        those globs to the QS that declare them, and one regex per CQS.

        An HTS set asks about few context slots and phones, so its QS share
        their globs: the bench's 1000-QS set has 65 distinct globs. Compiled
        on first use and kept on the instance, since a Merlin-size set has
        more than ``re``'s own compile cache holds.
        """
        index: dict[str, int] = {}
        glob_of = [index.setdefault(p, len(index)) for _, patterns in self.binary for p in patterns]
        sizes = [len(patterns) for _, patterns in self.binary]
        incidence = np.zeros((len(index), len(self.binary)), dtype=np.float32)
        incidence[glob_of, np.repeat(np.arange(len(sizes)), sizes)] = 1.0
        return _CompiledQuestions(
            globs=tuple(re.compile(_glob_to_regex(glob)) for glob in index),
            incidence=incidence,
            numeric=tuple(_numeric_regex(pattern) for _, pattern in self.numeric),
        )


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
    return re.escape(pattern).replace(r"\*", ".*").replace(r"\?", ".")


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


def _answer_labels(labels: Sequence[FullContextLabel], questions: QuestionSet) -> np.ndarray:
    """The (n_labels, n_questions) answers: 1.0 or 0.0 per QS, then each CQS's
    captured number (``NUMERIC_ABSENT`` where its pattern does not match).

    Each label is matched against the distinct globs once; a QS answers yes
    where any of its globs hit. The OR of every QS is one product of the
    (label, glob) hits with the glob-to-QS incidence matrix: a count of a
    label's hits among a QS's globs, which is exact in float32, above zero.
    """
    compiled = questions._compiled
    n_binary = len(questions.binary)
    answers = np.empty((len(labels), n_binary + len(questions.numeric)))
    hits = np.fromiter(
        (glob.fullmatch(lab.context) is not None for lab in labels for glob in compiled.globs),
        dtype=np.float32,
        count=len(labels) * len(compiled.globs),
    ).reshape(len(labels), len(compiled.globs))
    answers[:, :n_binary] = (hits @ compiled.incidence) > 0
    for i, lab in enumerate(labels):
        for j, (regex, (name, _)) in enumerate(zip(compiled.numeric, questions.numeric)):
            m = regex.search(lab.context)
            answers[i, n_binary + j] = (
                _numeric_answer(m.group(1), name, lab.context) if m else NUMERIC_ABSENT
            )
    return answers


def _numeric_answer(captured: str, name: str, context: str) -> float:
    """The finite number a CQS captured; anything else is a ``FormatError``."""
    try:
        value = float(captured)
    except ValueError:
        value = math.nan  # reported below, as the non-finite captures are
    if math.isfinite(value):
        return value
    raise FormatError(
        f"CQS {name!r} captured {captured!r}, not a finite number, in label context {context!r}"
    )


@dataclass(frozen=True)
class GatheredRows:
    """Rows ``hstack([table[which[i]], frames[i]])`` of a matrix held once per group.

    An utterance's linguistic features are one: every question column is
    constant within a label, so the answers are kept once per label (the
    table), ``which`` names the label that answers each frame, and the
    positional columns are the per-frame block. A network input is another,
    its per-frame block followed by PCA coefficients. Indexing with an index
    array or a slice gathers those rows; ``dense`` gathers all of them.
    """

    table: np.ndarray  # (n_groups, n_table_columns)
    which: np.ndarray  # (n_rows,) table row of each row
    frames: np.ndarray  # (n_rows, n_frame_columns)

    def __post_init__(self):
        if self.which.shape != (self.frames.shape[0],):
            raise ArgumentError(
                f"{self.which.shape[0]} table indices for {self.frames.shape[0]} frame rows"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.frames.shape[0], self.table.shape[1] + self.frames.shape[1]

    def __getitem__(self, idx: np.ndarray | slice) -> np.ndarray:
        return np.hstack([self.table[self.which[idx]], self.frames[idx]])

    def dense(self) -> np.ndarray:
        """The whole matrix, (n_rows, n_table_columns + n_frame_columns)."""
        return self[slice(None)]

    def astype(self, dtype, copy: bool = True) -> "GatheredRows":
        """The same rows with ``table`` and ``frames`` in ``dtype``, cast as
        ``np.ndarray.astype`` casts them."""
        return GatheredRows(
            self.table.astype(dtype, copy=copy), self.which, self.frames.astype(dtype, copy=copy)
        )


def _frame_ticks(n_frames: int, frame_shift: float) -> np.ndarray:
    """The time of each frame, k * frame_shift, rounded to a whole tick."""
    return np.floor(np.arange(n_frames) * (frame_shift * TICKS_PER_SECOND) + 0.5)


def _positional_features(
    spans: np.ndarray, which: np.ndarray, ticks: np.ndarray, frame_shift: float
) -> np.ndarray:
    """The (n_frames, 4) positional columns of frames at ``ticks`` that ``which``
    assigns to labels with these (start, end) ``spans``: fraction through the
    label, fraction remaining, label duration in frames, and frame index within
    the label. A zero-length label counts as one tick long."""
    shift_ticks = frame_shift * TICKS_PER_SECOND
    starts = spans[:, 0].astype(np.float64)
    durations = np.maximum(spans[:, 1].astype(np.float64) - starts, 1.0)
    lab_start = starts[which]
    lab_dur = durations[which]
    frac_through = np.clip((ticks - lab_start) / lab_dur, 0.0, 1.0)

    positional = np.empty((len(which), N_POSITIONAL))
    positional[:, 0] = frac_through
    positional[:, 1] = 1.0 - frac_through
    positional[:, 2] = lab_dur / shift_ticks
    positional[:, 3] = np.maximum(np.floor((ticks - lab_start) / shift_ticks), 0.0)
    return positional


def extract_features(
    labels: Sequence[FullContextLabel],
    questions: QuestionSet,
    frame_shift: float,
    n_frames: int,
) -> GatheredRows:
    """Label answers, the frame-to-label index and the positional columns, as
    the table, ``which`` and per-frame block of one ``GatheredRows``.

    Frame k is answered by the label covering time k * frame_shift (the first
    label whose end lies beyond it); frames past the last label clamp to it.
    """
    if not labels:
        raise DataError("empty label list")
    spans = np.array([(lab.start, lab.end) for lab in labels], dtype=np.int64)
    ends = spans[:, 1].astype(np.float64)
    ticks = _frame_ticks(n_frames, frame_shift)
    which = np.minimum(np.searchsorted(ends, ticks, side="right"), len(labels) - 1)
    answers = _answer_labels(labels, questions)
    return GatheredRows(answers, which, _positional_features(spans, which, ticks, frame_shift))
