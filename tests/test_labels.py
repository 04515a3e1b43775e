import numpy as np
import pytest

from conftest import load_bench_module
from ultratts import arrayfile, labels, mlp
from ultratts.errors import ArgumentError, DataError, FormatError


class TestParseLabels:
    def test_single_line(self):
        labs = labels.parse_labels("0 2500000 x^x-sil+h=e@4\n")
        assert len(labs) == 1
        assert labs[0].start == 0 and labs[0].end == 2500000
        assert labs[0].end / labels.TICKS_PER_SECOND == 0.25

    def test_overlap_rejected_with_line_number(self):
        text = "0 3000000 a\n2000000 4000000 b\n"
        with pytest.raises(FormatError, match="line 2"):
            labels.parse_labels(text)

    def test_ten_line_fixture_durations_sum_to_span(self):
        step = 500000
        lines = [f"{i * step} {(i + 1) * step} ph{i}" for i in range(10)]
        labs = labels.parse_labels("\n".join(lines))
        assert len(labs) == 10
        total = sum(l.end - l.start for l in labs)
        assert total == labs[-1].end - labs[0].start

    def test_bad_line_shapes_rejected(self):
        with pytest.raises(FormatError, match="line 1"):
            labels.parse_labels("0 100\n")
        with pytest.raises(FormatError, match="line 1"):
            labels.parse_labels("zero 100 ctx\n")
        with pytest.raises(FormatError):
            labels.parse_labels("100 0 ctx\n")


class TestParseQuestions:
    def test_single_declaration(self):
        qs = labels.parse_questions('QS "C-Vowel" {*-a+*,*-e+*}\n')
        assert len(qs.binary) == 1
        assert qs.binary[0] == ("C-Vowel", ("*-a+*", "*-e+*"))
        assert len(qs.numeric) == 0

    def test_empty_file_is_the_ultrasound_only_configuration(self):
        qs = labels.parse_questions("")
        assert qs.binary == () and qs.numeric == ()
        labs = [labels.FullContextLabel(0, 50000, "x^x-a+b=c")]
        feats = labels.extract_features(labs, qs, 0.005, 10)
        assert feats.table.shape[1] == 0
        assert feats.frames.shape == (10, labels.N_POSITIONAL)

    def test_numeric_extraction(self):
        qs = labels.parse_questions('CQS "Pos" {*@(\\d+)+*}\n')
        labs = [labels.FullContextLabel(0, 50000, "x^x-a+b=c@7+2")]
        feats = labels.extract_features(labs, qs, 0.005, 1).dense()
        assert feats[0, 0] == 7.0

    def test_absent_numeric_is_minus_one(self):
        qs = labels.parse_questions('CQS "Pos" {*@(\\d+)+*}\n')
        labs = [labels.FullContextLabel(0, 50000, "x^x-a+b=c")]
        feats = labels.extract_features(labs, qs, 0.005, 1).dense()
        assert feats[0, 0] == labels.NUMERIC_ABSENT

    def test_comments_and_blanks_skipped(self):
        qs = labels.parse_questions('# header\n\nQS "A" {*x*}\n')
        assert len(qs.binary) == 1

    def test_malformed_declaration_reports_line(self):
        with pytest.raises(FormatError, match="line 2"):
            labels.parse_questions('QS "A" {*}\nQS broken\n')

    def test_duplicate_names_rejected(self):
        with pytest.raises(FormatError, match="duplicate"):
            labels.parse_questions('QS "A" {*x*}\nQS "A" {*y*}\n')


def backtrack_match(pattern, text):
    """Independent recursive wildcard matcher used as an oracle."""
    if not pattern:
        return not text
    head, rest = pattern[0], pattern[1:]
    if head == "*":
        return any(backtrack_match(rest, text[i:]) for i in range(len(text) + 1))
    if text and (head == "?" or head == text[0]):
        return backtrack_match(rest, text[1:])
    return False


def answers(question_text, context):
    """Whether the one QS of ``question_text`` answers yes for ``context``,
    through ``parse_questions`` and ``extract_features``."""
    qs = labels.parse_questions(question_text)
    feats = labels.extract_features([labels.FullContextLabel(0, 1, context)], qs, 1e-7, 1)
    return feats.table[0, 0] == 1.0


def compiled_match(pattern, text):
    """Whole-string match of one glob through the regex a ``QuestionSet`` compiles."""
    (regex,) = labels.QuestionSet(binary=(("Q", (pattern,)),), numeric=())._compiled.globs
    return regex.fullmatch(text) is not None


class TestMatchQuestion:
    """Question globs, matched through the path the pipeline runs."""

    def test_direct_hits(self):
        assert answers('QS "C-a" {*-a+*}', "x^x-a+b=c")
        assert not answers('QS "C-a" {*-a+*}', "x^x-e+b=c")

    def test_question_mark_and_literals(self):
        assert answers('QS "Q" {a?c}', "abc")
        assert not answers('QS "Q" {a?c}', "ac")
        assert answers('QS "Q" {a[1]}', "a[1]")  # brackets are literal

    def test_random_pairs_agree_with_backtracking_oracle(self):
        # an empty pattern or context cannot be declared in a question file
        # or a label, so these pairs go to the compiled regex directly
        rng = np.random.default_rng(0)
        alphabet = list("ab*?-+\\.([")
        for _ in range(1000):
            pattern = "".join(rng.choice(alphabet, size=rng.integers(0, 7)))
            text = "".join(rng.choice(list("ab-+\\.(["), size=rng.integers(0, 8)))
            assert compiled_match(pattern, text) == backtrack_match(pattern, text)


class TestCompiledQuestions:
    def test_question_set_compiles_once(self, monkeypatch):
        calls = []
        glob_to_regex = labels._glob_to_regex

        def counting(pattern):
            calls.append(pattern)
            return glob_to_regex(pattern)

        monkeypatch.setattr(labels, "_glob_to_regex", counting)
        qs = labels.parse_questions('QS "A" {*-a+*,*-e+*}\nCQS "N" {*@(\\d+)+*}\n')
        labs = labels.parse_labels("0 250000 x-a+b@3+1\n250000 500000 x-e+b@4+2\n")
        first = labels.extract_features(labs, qs, 0.005, 10).dense()
        assert calls  # the first call compiles
        calls.clear()
        second = labels.extract_features(labs, qs, 0.005, 10).dense()
        assert calls == []
        assert np.array_equal(first, second)

    def test_compiled_answers_match_per_pattern_oracle(self):
        rng = np.random.default_rng(1)
        alphabet = list("ab*?-+")
        binary = []
        for q in range(200):
            patterns = tuple(
                "".join(rng.choice(alphabet, size=rng.integers(1, 7)))
                for _ in range(rng.integers(2, 6))
            )
            binary.append((f"Q{q}", patterns))
        assert sum(len(p) for _, p in binary) > 512  # more than re's compile cache
        qs = labels.QuestionSet(binary=tuple(binary), numeric=())
        contexts = [
            "".join(rng.choice(list("ab-+"), size=rng.integers(1, 9))) for _ in range(60)
        ]
        labs = [labels.FullContextLabel(i, i + 1, c) for i, c in enumerate(contexts)]
        feats = labels.extract_features(labs, qs, 1e-7, len(labs)).dense()
        expect = [
            [float(any(backtrack_match(p, c) for p in patterns)) for _, patterns in binary]
            for c in contexts
        ]
        assert np.array_equal(feats[:, : len(binary)], np.array(expect))

    @staticmethod
    def shared_glob_questions():
        """150 random QS over 11 globs, so every glob serves many questions;
        one QS is ``{*}`` and another repeats a glob."""
        rng = np.random.default_rng(2)
        globs = ["*", "?", "a?", "?b", "*-a+*", "*-b+*", "?-?+*", "*a*", "b*?", "*+-*", "ab"]
        binary = [("Always", ("*",)), ("Twice", ("*-a+*", "?", "*-a+*"))]
        for q in range(148):
            # drawn with replacement, so some questions repeat a glob
            picks = rng.choice(len(globs), size=rng.integers(1, 6))
            binary.append((f"Q{q}", tuple(globs[k] for k in picks)))
        return tuple(binary)

    @pytest.mark.parametrize("n_questions", [150, 0], ids=["shared-globs", "empty-set"])
    def test_shared_globs_match_per_pattern_oracle(self, n_questions):
        binary = self.shared_glob_questions()[:n_questions]
        qs = labels.QuestionSet(binary=binary, numeric=())
        assert len(qs._compiled.globs) == len({p for _, patterns in binary for p in patterns})
        rng = np.random.default_rng(3)
        contexts = [
            "".join(rng.choice(list("ab-+"), size=rng.integers(1, 9))) for _ in range(80)
        ]
        labs = [labels.FullContextLabel(i, i + 1, c) for i, c in enumerate(contexts)]
        feats = labels.extract_features(labs, qs, 1e-7, len(labs))
        expect = np.array(
            [
                [float(any(backtrack_match(p, c) for p in patterns)) for _, patterns in binary]
                for c in contexts
            ]
        ).reshape(len(contexts), n_questions)
        assert feats.table.tobytes() == expect.tobytes()

    def test_bench_set_compiles_each_distinct_glob_once(self, monkeypatch):
        corpus = load_bench_module("corpus")
        qs = labels.parse_questions(corpus.render_question_set(1000, np.random.default_rng(0)))
        calls = []
        glob_to_regex = labels._glob_to_regex

        def counting(pattern):
            calls.append(pattern)
            return glob_to_regex(pattern)

        monkeypatch.setattr(labels, "_glob_to_regex", counting)
        labels.QuestionSet(binary=qs.binary, numeric=())._compiled
        distinct = {p for _, patterns in qs.binary for p in patterns}
        assert sum(len(patterns) for _, patterns in qs.binary) > 3000
        assert sorted(calls) == sorted(distinct)
        assert len(calls) == 65

    def test_question_without_patterns_rejected(self):
        with pytest.raises(FormatError, match="'Q' declares no patterns"):
            labels.QuestionSet(binary=(("Q", ()),), numeric=())

    @pytest.mark.parametrize(
        "captured", ["inf", "-inf", "nan", "1e999", "abc"],
        ids=["inf", "minus-inf", "nan", "overflow", "not-a-number"],
    )
    def test_cqs_capture_must_be_a_finite_number(self, captured):
        qs = labels.parse_questions('QS "A" {*}\nCQS "C-Dur" {*@(\\S+)}\n')
        context = f"x^x-a+b=c@{captured}"
        labs = [
            labels.FullContextLabel(0, 50000, "x^x-a+b=c@4"),
            labels.FullContextLabel(50000, 100000, context),
        ]
        with pytest.raises(FormatError, match="not a finite number") as raised:
            labels.extract_features(labs, qs, 0.005, 20)
        assert "'C-Dur'" in str(raised.value) and repr(context) in str(raised.value)

    def test_malformed_numeric_group_raises_format_error(self):
        labs = [labels.FullContextLabel(0, 50000, "x^x-a+b=c@7+2")]
        for body in ("*@\\d+*", "*@(\\d+*"):
            qs = labels.parse_questions(f'CQS "Pos" {{{body}}}\n')
            with pytest.raises(FormatError, match="capture group"):
                labels.extract_features(labs, qs, 0.005, 1)


class TestExtractFeatures:
    def test_empty_question_set_yields_positional_only(self):
        labs = labels.parse_labels("0 250000 a\n250000 50000000 b\n")
        feats = labels.extract_features(labs, labels.QuestionSet.empty(), 0.005, 100).dense()
        assert feats.shape == (100, 4)

    def test_single_label_geometry(self):
        qs = labels.parse_questions('QS "Always" {*}\n')
        labs = [labels.FullContextLabel(0, 100 * 50000, "anything")]
        feats = labels.extract_features(labs, qs, 0.005, 100).dense()
        assert np.all(feats[:, 0] == 1.0)
        frac = feats[:, 1]
        assert frac[0] == 0.0
        assert np.all(np.diff(frac) > 0)
        assert frac[-1] <= 1.0
        assert np.allclose(feats[:, 2], 1.0 - frac)
        assert np.all(feats[:, 3] == 100.0)  # duration in frames
        assert np.array_equal(feats[:, 4], np.arange(100.0))  # index within

    def test_three_label_fixture_matches_hand_table(self):
        # 5 ms frames; labels cover 4, 2, and 4 frames
        qs = labels.parse_questions('QS "IsB" {*b*}\nCQS "N" {*@(\\d+)}\n')
        labs = labels.parse_labels(
            "0 200000 a@4\n200000 300000 b@2\n300000 500000 c@4\n"
        )
        feats = labels.extract_features(labs, qs, 0.005, 10).dense()
        expect = np.array(
            [
                # IsB, N, frac_through, frac_rem, dur_frames, idx_within
                [0, 4, 0.00, 1.00, 4, 0],
                [0, 4, 0.25, 0.75, 4, 1],
                [0, 4, 0.50, 0.50, 4, 2],
                [0, 4, 0.75, 0.25, 4, 3],
                [1, 2, 0.00, 1.00, 2, 0],
                [1, 2, 0.50, 0.50, 2, 1],
                [0, 4, 0.00, 1.00, 4, 0],
                [0, 4, 0.25, 0.75, 4, 1],
                [0, 4, 0.50, 0.50, 4, 2],
                [0, 4, 0.75, 0.25, 4, 3],
            ],
            dtype=float,
        )
        assert np.allclose(feats, expect)

    def test_frames_beyond_last_label_clamp(self):
        labs = [labels.FullContextLabel(0, 2 * 50000, "only")]
        feats = labels.extract_features(labs, labels.QuestionSet.empty(), 0.005, 5).dense()
        assert feats.shape == (5, 4)
        assert np.all(feats[2:, 0] == 1.0)  # fraction through clipped to 1

    def test_binary_columns_are_exactly_binary(self, synth_corpus):
        qs = labels.parse_questions(synth_corpus.question_file.read_text())
        lab_file = sorted(synth_corpus.label_dir.glob("*.lab"))[0]
        labs = labels.parse_labels(lab_file.read_text())
        feats = labels.extract_features(labs, qs, 0.005, 120).dense()
        n_bin = len(qs.binary)
        assert set(np.unique(feats[:, :n_bin])) <= {0.0, 1.0}

    def test_column_order_is_reproducible(self, synth_corpus):
        text = synth_corpus.question_file.read_text()
        lab_file = sorted(synth_corpus.label_dir.glob("*.lab"))[0]
        labs = labels.parse_labels(lab_file.read_text())
        a = labels.extract_features(labs, labels.parse_questions(text), 0.005, 80).dense()
        b = labels.extract_features(labs, labels.parse_questions(text), 0.005, 80).dense()
        assert np.array_equal(a, b)

    def test_empty_label_list_rejected(self):
        with pytest.raises(DataError):
            labels.extract_features([], labels.QuestionSet.empty(), 0.005, 10)


def dense_reference(labs, questions, frame_shift, n_frames):
    """The per-frame matrix as ``extract_features`` built it before it kept
    answers per label: every frame row written out in full."""
    n_questions = len(questions.binary) + len(questions.numeric)
    out = np.zeros((n_frames, n_questions + labels.N_POSITIONAL))
    answers = labels._answer_labels(labs, questions)
    shift_ticks = frame_shift * labels.TICKS_PER_SECOND
    ticks = np.floor(np.arange(n_frames) * shift_ticks + 0.5)
    ends = np.array([lab.end for lab in labs], dtype=np.float64)
    which = np.minimum(np.searchsorted(ends, ticks, side="right"), len(labs) - 1)
    starts = np.array([lab.start for lab in labs], dtype=np.float64)
    durations = np.maximum(ends - starts, 1.0)
    frac_through = np.clip((ticks - starts[which]) / durations[which], 0.0, 1.0)
    out[:, :n_questions] = answers[which]
    out[:, n_questions + 0] = frac_through
    out[:, n_questions + 1] = 1.0 - frac_through
    out[:, n_questions + 2] = durations[which] / shift_ticks
    out[:, n_questions + 3] = np.maximum(np.floor((ticks - starts[which]) / shift_ticks), 0.0)
    return out


def assert_dense_matches_reference(labs, qs, frame_shift, n_frames):
    feats = labels.extract_features(labs, qs, frame_shift, n_frames)
    assert feats.table.shape == (len(labs), len(qs.binary) + len(qs.numeric))
    assert feats.frames.shape == (n_frames, labels.N_POSITIONAL)
    dense = feats.dense()
    expect = dense_reference(labs, qs, frame_shift, n_frames)
    assert (dense.dtype, dense.shape) == (expect.dtype, expect.shape)
    assert dense.tobytes() == expect.tobytes()
    return feats


class TestLinguisticFeatures:
    def test_dense_matches_per_frame_matrix_on_bench_question_set(self, tiny_corpus):
        corpus = load_bench_module("corpus")
        text = corpus.render_question_set(1000, np.random.default_rng(0))
        qs = labels.parse_questions(text)
        assert len(qs.binary) + len(qs.numeric) == 1001
        for lab_file in sorted(tiny_corpus.label_dir.glob("*.lab"))[:4]:
            labs = labels.parse_labels(lab_file.read_text())
            n_frames = round(labs[-1].end / 50000) + 7  # a few frames past the last label
            feats = assert_dense_matches_reference(labs, qs, 0.005, n_frames)
            assert feats.table[:, -1].max() > 0  # the duration CQS answers

    def test_dense_matches_per_frame_matrix_at_label_edges(self):
        qs = labels.parse_questions('QS "IsZ" {*z*}\nQS "IsB" {*b*}\nCQS "N" {*@(\\d+)}\n')
        labs = labels.parse_labels(
            "0 210000 a@4\n"
            "210000 210000 z@9\n"  # zero length
            "210000 240000 z@7\n"  # between two frame times: owns no frame
            "240000 300000 b@2\n"
            "300000 500000 c@4\n"
        )
        feats = assert_dense_matches_reference(labs, qs, 0.005, 14)  # 4 frames past the end
        assert set(feats.which) == {0, 3, 4}
        assert np.all(feats.which[-4:] == 4)

    def test_empty_utterance_has_no_rows(self):
        labs = labels.parse_labels("0 200000 a@4\n")
        assert_dense_matches_reference(labs, labels.parse_questions('QS "A" {*a*}'), 0.005, 0)

    def test_save_load_round_trip(self, tmp_path):
        qs = labels.parse_questions('QS "IsB" {*b*}\nCQS "N" {*@(\\d+)}\n')
        labs = labels.parse_labels("0 200000 a@4\n200000 300000 b@2\n")
        feats = labels.extract_features(labs, qs, 0.005, 8)
        labels.save_features(feats, tmp_path / "u.bin")
        back = labels.load_features(tmp_path / "u.bin")
        assert back.which.dtype == np.uint8  # two labels
        for name in ("table", "which", "frames", "spans"):
            a, b = getattr(feats, name), getattr(back, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert (back.n_binary, back.frame_shift) == (1, 0.005)

    @pytest.mark.parametrize(
        "questions, label_text, frame_shift, n_frames",
        [
            ("", "0 200000 a@4\n200000 300000 b@2\n", 0.005, 60),
            ('CQS "N" {*@(\\d+)}\nQS "IsB" {*b*}\n', "0 200000 a@4\n200000 300000 b@2\n", 0.005, 60),
            ('QS "IsB" {*b*}\n', "0 200000 a@4\n200000 300000 b@2\n", 0.0125, 40),
            # frames 60 and 61 lie past the last label, a zero-length one
            ('QS "IsZ" {*z*}\nCQS "N" {*@(\\d+)}\n', "0 210000 a@4\n210000 240000 z@7\n"
             "240000 300000 b@2\n300000 300000 z@9\n", 0.005, 62),
        ],
        ids=["ult2wav", "cqs", "past-the-last-label", "zero-length-label"],
    )
    def test_loaded_rows_equal_the_extracted_rows(
        self, tmp_path, questions, label_text, frame_shift, n_frames
    ):
        qs, labs = labels.parse_questions(questions), labels.parse_labels(label_text)
        feats = labels.extract_features(labs, qs, frame_shift, n_frames)
        labels.save_features(feats, tmp_path / "u.bin")
        # load_features is given no shift: each case expands under the shift in its file
        back = labels.load_features(tmp_path / "u.bin")
        for name in ("table", "which", "frames"):
            a, b = getattr(feats, name), getattr(back, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        expect = dense_reference(labs, qs, frame_shift, n_frames)
        assert back.dense().tobytes() == expect.tobytes()

    def test_file_holds_per_label_records_only(self, tmp_path):
        feats = two_label_features()
        labels.save_features(feats, tmp_path / "u.bin")
        records = arrayfile.load(tmp_path / "u.bin")
        assert [(r.dtype, r.shape) for r in records] == [
            (np.dtype(bool), (2, 1)),
            (np.dtype(np.float64), (2, 0)),
            (np.dtype(np.uint8), (8,)),
            (np.dtype(np.int64), (2, 2)),
            (np.dtype(np.float64), ()),
        ]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r[:2],
            lambda r: r[:4],
            lambda r: [*r, r[4]],
            lambda r: [r[0], r[1], r[2].astype(np.int64), r[3], r[4]],
            lambda r: [r[0].ravel(), *r[1:]],
            lambda r: [*r[:4], np.int64(5)],
            lambda r: [*r[:4], r[4].reshape(1)],
            lambda r: [*r[:3], r[3].astype(np.float64), r[4]],
            lambda r: [*r[:3], r[3][:, :1], r[4]],
            lambda r: [r[0][:1], *r[1:]],
            lambda r: [r[0], r[1][:1], *r[2:]],
            lambda r: [*r[:3], r[3][:1], r[4]],
            lambda r: [r[0], r[1], np.full_like(r[2], len(r[3])), r[3], r[4]],
            lambda r: [*r[:3], r[3][:, ::-1].copy(), r[4]],
            lambda r: [*r[:4], np.float64(np.nan)],
            lambda r: [*r[:4], np.float64(np.inf)],
            lambda r: [*r[:4], np.float64(0.0)],
            lambda r: [*r[:4], np.float64(-0.005)],
        ],
        ids=["two-records", "four-records", "six-records", "signed-which", "flat-answers",
             "integer-shift", "shift-array", "float-spans", "one-column-spans", "short-answers",
             "short-numeric", "short-spans", "which-past-the-labels", "start-after-end",
             "nan-shift", "infinite-shift", "zero-shift", "negative-shift"],
    )
    def test_other_records_rejected(self, tmp_path, edit):
        path = tmp_path / "u.bin"
        labels.save_features(two_label_features(), path)
        arrayfile.save(path, edit(arrayfile.load(path)))
        with pytest.raises(FormatError, match="u.bin"):
            labels.load_features(path)

    def test_per_frame_features_rejected(self, tmp_path):
        # the earlier layout: answers per label, which, and 4 float64 positional columns per frame
        feats = two_label_features()
        path = tmp_path / "u.bin"
        arrayfile.save(path, [feats.table, feats.which, feats.frames])
        with pytest.raises(FormatError, match="u.bin"):
            labels.load_features(path)

    def test_npz_features_rejected(self, tmp_path):
        # the earlier layout: one np.savez zip of answers, which and positional
        feats = two_label_features()
        path = tmp_path / "u.npz"
        np.savez(path, answers=feats.table, which=feats.which, positional=feats.frames)
        with pytest.raises(FormatError, match="u.npz"):
            labels.load_features(path)


def two_label_features():
    """The features of an 8-frame, two-label utterance under one question."""
    labs = labels.parse_labels("0 200000 a@4\n200000 300000 b@2\n")
    return labels.extract_features(labs, labels.parse_questions('QS "IsB" {*b*}'), 0.005, 8)


def grouped_task(n_groups=30, n=700, seed=0):
    """Rows whose first 5 columns repeat per group, gathered and expanded."""
    rng = np.random.default_rng(seed)
    table = rng.uniform(-1.0, 1.0, size=(n_groups, 5))
    which = np.sort(rng.integers(0, n_groups, size=n))
    frames = rng.uniform(-1.0, 1.0, size=(n, 2))
    dense = np.hstack([table[which], frames])
    y = dense @ rng.normal(size=(7, 4)) + 0.01 * rng.normal(size=(n, 4))
    return labels.GatheredRows(table, which, frames), dense, y


class TestGatheredRows:
    def test_rows_are_the_expanded_rows(self):
        rows, dense, _ = grouped_task()
        assert rows.shape == dense.shape
        idx = np.random.default_rng(1).permutation(dense.shape[0])[:64]
        batch = rows[idx]
        assert (batch.dtype, batch.shape) == (dense.dtype, (64, 7))
        assert batch.tobytes() == dense[idx].tobytes()
        assert rows.dense().tobytes() == dense.tobytes()

    def test_astype_takes_numpys_copy_flag(self):
        rows, _, _ = grouped_task()
        assert rows.astype(np.float64, copy=False).table is rows.table
        copied = rows.astype(np.float64)
        assert copied.table is not rows.table and copied.frames is not rows.frames
        narrow = rows.astype(np.float32, copy=False)
        assert (narrow.table.dtype, narrow.frames.dtype) == (np.float32, np.float32)
        assert narrow.dense().tobytes() == rows.dense().astype(np.float32).tobytes()

    def test_train_matches_the_expanded_matrix_bit_for_bit(self):
        rows, dense, y = grouped_task()
        valid_x, valid_y = dense[-100:], y[-100:]
        schedule = mlp.TrainingSchedule(
            max_epochs=6, warmup_epochs=2, base_lr=0.1, decay=0.9, batch_size=64, seed=2,
        )
        results = [
            mlp.train(
                mlp.init_model(7, seed=3, hidden_sizes=(8, 8), output_dim=4),
                (x, y), (valid_x, valid_y), schedule,
            )
            for x in (dense, rows)
        ]
        (best_dense, history_dense), (best_rows, history_rows) = results
        assert history_rows == history_dense
        for a, b in zip(
            best_dense.weights + best_dense.biases, best_rows.weights + best_rows.biases
        ):
            assert a.tobytes() == b.tobytes()

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ArgumentError, match="table indices"):
            labels.GatheredRows(np.zeros((2, 3)), np.zeros(5, dtype=np.intp), np.zeros((4, 1)))
