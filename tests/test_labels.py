import numpy as np
import pytest

from ultratts import labels
from ultratts.errors import DataError, FormatError


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
        assert qs.n_features == labels.N_POSITIONAL

    def test_numeric_extraction(self):
        qs = labels.parse_questions('CQS "Pos" {*@(\\d+)+*}\n')
        labs = [labels.FullContextLabel(0, 50000, "x^x-a+b=c@7+2")]
        feats = labels.extract_features(labs, qs, 0.005, 1)
        assert feats[0, 0] == 7.0

    def test_absent_numeric_is_minus_one(self):
        qs = labels.parse_questions('CQS "Pos" {*@(\\d+)+*}\n')
        labs = [labels.FullContextLabel(0, 50000, "x^x-a+b=c")]
        feats = labels.extract_features(labs, qs, 0.005, 1)
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


class TestMatchQuestion:
    def test_direct_hits(self):
        assert labels.match_question("*-a+*", "x^x-a+b=c")
        assert not labels.match_question("*-a+*", "x^x-e+b=c")

    def test_question_mark_and_literals(self):
        assert labels.match_question("a?c", "abc")
        assert not labels.match_question("a?c", "ac")
        assert labels.match_question("a[1]", "a[1]")  # brackets are literal

    def test_random_pairs_agree_with_backtracking_oracle(self):
        rng = np.random.default_rng(0)
        alphabet = list("ab*?-+")
        for _ in range(1000):
            pattern = "".join(rng.choice(alphabet, size=rng.integers(0, 7)))
            text = "".join(rng.choice(list("ab-+"), size=rng.integers(0, 8)))
            assert labels.match_question(pattern, text) == backtrack_match(pattern, text)


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
        first = labels.extract_features(labs, qs, 0.005, 10)
        assert calls  # the first call compiles
        calls.clear()
        second = labels.extract_features(labs, qs, 0.005, 10)
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
        feats = labels.extract_features(labs, qs, 1e-7, len(labs))
        expect = [
            [float(any(labels.match_question(p, c) for p in patterns)) for _, patterns in binary]
            for c in contexts
        ]
        assert np.array_equal(feats[:, : len(binary)], np.array(expect))

    def test_malformed_numeric_group_raises_format_error(self):
        labs = [labels.FullContextLabel(0, 50000, "x^x-a+b=c@7+2")]
        for body in ("*@\\d+*", "*@(\\d+*"):
            qs = labels.parse_questions(f'CQS "Pos" {{{body}}}\n')
            with pytest.raises(FormatError, match="capture group"):
                labels.extract_features(labs, qs, 0.005, 1)


class TestExtractFeatures:
    def test_empty_question_set_yields_positional_only(self):
        labs = labels.parse_labels("0 250000 a\n250000 50000000 b\n")
        feats = labels.extract_features(labs, labels.QuestionSet.empty(), 0.005, 100)
        assert feats.shape == (100, 4)

    def test_single_label_geometry(self):
        qs = labels.parse_questions('QS "Always" {*}\n')
        labs = [labels.FullContextLabel(0, 100 * 50000, "anything")]
        feats = labels.extract_features(labs, qs, 0.005, 100)
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
        feats = labels.extract_features(labs, qs, 0.005, 10)
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
        feats = labels.extract_features(labs, labels.QuestionSet.empty(), 0.005, 5)
        assert feats.shape == (5, 4)
        assert np.all(feats[2:, 0] == 1.0)  # fraction through clipped to 1

    def test_binary_columns_are_exactly_binary(self, synth_corpus):
        qs = labels.parse_questions(synth_corpus.question_file.read_text())
        lab_file = sorted(synth_corpus.label_dir.glob("*.lab"))[0]
        labs = labels.parse_labels(lab_file.read_text())
        feats = labels.extract_features(labs, qs, 0.005, 120)
        n_bin = len(qs.binary)
        assert set(np.unique(feats[:, :n_bin])) <= {0.0, 1.0}

    def test_column_order_is_reproducible(self, synth_corpus):
        text = synth_corpus.question_file.read_text()
        lab_file = sorted(synth_corpus.label_dir.glob("*.lab"))[0]
        labs = labels.parse_labels(lab_file.read_text())
        a = labels.extract_features(labs, labels.parse_questions(text), 0.005, 80)
        b = labels.extract_features(labs, labels.parse_questions(text), 0.005, 80)
        assert np.array_equal(a, b)

    def test_empty_label_list_rejected(self):
        with pytest.raises(DataError):
            labels.extract_features([], labels.QuestionSet.empty(), 0.005, 10)
