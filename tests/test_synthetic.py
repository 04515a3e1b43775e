import hashlib
import tracemalloc

import pytest

from ultratts import acoustic, labels, synthetic
from ultratts.errors import ArgumentError


def ult_lab_digest(layout):
    """SHA-256 of a manifest of every file in ``ult/`` and ``lab/`` with its SHA-256.

    The float ``acoustic/`` files are left out: their last bits follow the
    platform's ``sin`` and ``exp``.
    """
    lines = []
    for directory in (layout.ultrasound_dir, layout.label_dir):
        for path in sorted(directory.iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{path.relative_to(layout.root).as_posix()} {digest}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


PAPER_GEOMETRY = dict(num_vectors=64, pix_per_vector=842)


class TestGeneratedBytes:
    """Pins of the generator's output, taken before the ultrasound was written in blocks."""

    @pytest.mark.parametrize(
        "recipe, digest",
        [
            (
                dict(n_utterances=12, seed=0, drift_magnitude=60.0),
                "ddd6b92bc1c197a74f2f7c861072942bffedbb744bef3233bcad2262cf8e7929",
            ),
            # 83 native frames each, so the last block of a frame pair is partial
            (
                dict(n_utterances=2, seed=0, min_frames=200, max_frames=200, **PAPER_GEOMETRY),
                "d00fcebb83cd0a42ecb95ea165dc967756be745d958b2a52dc845c6899c3d595",
            ),
            (
                dict(n_utterances=2, seed=0, min_frames=150, max_frames=260, **PAPER_GEOMETRY),
                "01329a4df0fdbb76b10a47d177ca3260a6e5f09b994ccb2e547e32fa1882951c",
            ),
        ],
        ids=["desk-drift", "paper-200-frames", "paper-150-260-frames"],
    )
    def test_ultrasound_and_labels_keep_their_bytes(self, tmp_path, recipe, digest):
        layout = synthetic.generate_corpus(tmp_path / "corpus", **recipe)
        assert ult_lab_digest(layout) == digest

    def test_voicing_follows_the_labelled_phone(self, tmp_path):
        layout = synthetic.generate_corpus(tmp_path / "corpus", n_utterances=6, seed=5)
        ticks_per_frame = round(acoustic.FRAME_SHIFT * labels.TICKS_PER_SECOND)
        for path in sorted(layout.label_dir.glob("*.lab")):
            expect = []
            for label in labels.parse_labels(path.read_text()):
                phone = label.context.split("-", 1)[1].split("+", 1)[0]
                span = (label.end - label.start) // ticks_per_frame
                expect += [phone in synthetic.VOICED_PHONES] * span
            streams = acoustic.read_streams(layout.acoustic_dir, path.stem)
            assert streams.voiced.tolist() == expect, path.stem


def test_generator_memory_does_not_grow_with_utterance_length(tmp_path):
    # one 400-frame utterance's float64 frames at 64x842 take 71 MB
    tracemalloc.start()
    try:
        synthetic.generate_corpus(
            tmp_path / "corpus", n_utterances=2, seed=0, min_frames=400, max_frames=400,
            **PAPER_GEOMETRY,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(min_frames=50, max_frames=40), "1 <= min_frames <= max_frames, got 50..40"),
        (dict(min_frames=0, max_frames=40), "1 <= min_frames <= max_frames, got 0..40"),
        (dict(min_frames=-3, max_frames=-1), "1 <= min_frames <= max_frames, got -3..-1"),
        (dict(num_vectors=1, pix_per_vector=1), "at least 2x2, got 1x1"),
        (dict(num_vectors=1, pix_per_vector=64), "at least 2x2, got 1x64"),
        (dict(num_vectors=16, pix_per_vector=0), "at least 2x2, got 16x0"),
    ],
    ids=["reversed-range", "zero-frames", "negative-range", "1x1", "one-scanline", "no-samples"],
)
def test_bad_frame_range_or_geometry_is_an_error_before_anything_is_written(
    tmp_path, overrides, message
):
    root = tmp_path / "corpus"
    with pytest.raises(ArgumentError, match=message):
        synthetic.generate_corpus(root, n_utterances=3, **overrides)
    assert not root.exists()
