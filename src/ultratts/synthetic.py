"""Synthetic corpus generator, at desk scale or at any raw frame geometry.

Builds a corpus in the on-disk layout the pipeline consumes: raw ultrasound
with sidecar metadata, full-context labels, acoustic feature files, and a
question file. Acoustic targets mix two independent sources: a per-phone
component recoverable from the labels and a smooth latent articulatory
trajectory drawn per utterance and rendered into the ultrasound frames (not
into the labels). Text-only systems can therefore explain the phone part,
ultrasound-only systems the articulatory part, and the combined input both.

Each utterance's ultrasound is made and written in blocks of whole frames of
about 1 MB of float64 samples, so the generator's memory does not grow with
utterance length, at desk geometry or at the paper's 64x842.

A ``drift_magnitude`` offset can be added to the ultrasound frames of the
final fraction of the session to imitate a probe shift late in a recording.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import acoustic
from .errors import ArgumentError
from .labels import TICKS_PER_SECOND
from .ultra import UltrasoundMetadata, serialize_metadata

VOICED_PHONES = ("a", "e", "i", "o", "u", "m", "n", "l")
UNVOICED_PHONES = ("sil", "s", "t", "k")
PHONES = UNVOICED_PHONES + VOICED_PHONES
_PHONE_VOICED = np.array([p in VOICED_PHONES for p in PHONES])

_EMBED_DIM = 8

# float64 samples in one block of ultrasound frames (1 MB, whole frames):
# a desk utterance fits in one block, a 64x842 block holds 2 frames
_BLOCK_SAMPLES = 2**17

# Per-coefficient standard deviations of the three target components.
_TEXT_SCALE = 0.20
_ARTIC_SCALE = 0.16
_NOISE_SCALE = 0.06

# native ultrasound frame rate, and the share of the session that drift_magnitude offsets
FRAME_RATE = 81.5
DRIFT_FRACTION = 0.15


@dataclass(frozen=True)
class CorpusLayout:
    root: Path

    @property
    def ultrasound_dir(self) -> Path:
        return self.root / "ult"

    @property
    def label_dir(self) -> Path:
        return self.root / "lab"

    @property
    def acoustic_dir(self) -> Path:
        return self.root / "acoustic"

    @property
    def question_file(self) -> Path:
        return self.root / "questions.hed"


def generate_corpus(
    root: Path,
    n_utterances: int = 30,
    seed: int = 0,
    num_vectors: int = 16,
    pix_per_vector: int = 64,
    min_frames: int = 120,
    max_frames: int = 180,
    drift_magnitude: float = 0.0,
) -> CorpusLayout:
    """Write a complete corpus under ``root`` and return its layout."""
    # checked before any directory is made, so a rejected call leaves nothing behind
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    if n_utterances < 1:
        raise ArgumentError(f"n_utterances must be >= 1, got {n_utterances}")
    if not 1 <= min_frames <= max_frames:
        raise ArgumentError(
            "frame range must satisfy 1 <= min_frames <= max_frames, "
            f"got {min_frames}..{max_frames}"
        )
    # the smallest frame ultra.resize_stack takes; a 1x1 mode image has no spread to normalise
    if num_vectors < 2 or pix_per_vector < 2:
        raise ArgumentError(
            f"frame geometry must be at least 2x2, got {num_vectors}x{pix_per_vector}"
        )
    # a NaN offset would cast to frames of 0 and an infinite one to 255
    if not np.isfinite(drift_magnitude):
        raise ArgumentError(f"drift_magnitude must be finite, got {drift_magnitude}")
    layout = CorpusLayout(root=Path(root))
    corpus_dirs = (layout.ultrasound_dir, layout.label_dir, layout.acoustic_dir)
    # a corpus written over another would keep the utterances it does not replace
    if any(d.is_dir() and any(d.iterdir()) for d in corpus_dirs):
        raise ArgumentError(f"{layout.root} already holds a corpus; write to a new directory")
    for d in corpus_dirs:
        d.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(seed)
    # unit-variance entries keep dot products with unit rows at unit variance
    embed = rng.normal(0.0, 1.0, (len(PHONES), _EMBED_DIM))  # one row per phone
    mgc_txt = _unit_rows(rng.normal(size=(acoustic.MGC_DIM - 1, _EMBED_DIM)))
    mgc_art = rng.choice([-1.0, 1.0], size=acoustic.MGC_DIM - 1)
    bap_txt = _unit_rows(rng.normal(size=(acoustic.BAP_DIM, _EMBED_DIM)))
    bap_art = rng.choice([-1.0, 1.0], size=acoustic.BAP_DIM)
    lf0_txt = _unit_rows(rng.normal(size=(1, _EMBED_DIM)))[0]

    base_image = _ridge_image(num_vectors, pix_per_vector, center=0.45, sharpness=8.0)
    mode_image = _ridge_image(num_vectors, pix_per_vector, center=0.65, sharpness=10.0)
    mode_image -= mode_image.mean()
    mode_image /= np.sqrt(np.mean(mode_image**2))

    meta = UltrasoundMetadata(num_vectors, pix_per_vector, FRAME_RATE, 0.0)
    block_frames = max(1, _BLOCK_SAMPLES // (num_vectors * pix_per_vector))
    block = np.empty((block_frames, num_vectors, pix_per_vector))
    noise = np.empty_like(block)
    quantised = np.empty(block.shape, dtype=np.uint8)
    drift_start = n_utterances - int(np.ceil(DRIFT_FRACTION * n_utterances))
    for u in range(n_utterances):
        utt_id = f"utt{u:04d}"
        n_frames = int(rng.integers(min_frames, max_frames + 1))
        phones, phone_of_frame = _phone_plan(rng, n_frames)
        artic = _latent_trajectory(rng)

        times = np.arange(n_frames) * acoustic.FRAME_SHIFT
        a_frames = artic(times)
        e_frames = embed[phone_of_frame]
        voiced = _PHONE_VOICED[phone_of_frame]

        mgc = np.empty((n_frames, acoustic.MGC_DIM))
        mgc[:, 0] = 0.5 + 0.02 * rng.normal(size=n_frames)
        mgc[:, 1:] = (
            _TEXT_SCALE * (e_frames @ mgc_txt.T)
            + _ARTIC_SCALE * np.outer(a_frames, mgc_art)
            + _NOISE_SCALE * rng.normal(size=(n_frames, acoustic.MGC_DIM - 1))
        )
        bap = (
            0.5 * _TEXT_SCALE * (e_frames @ bap_txt.T)
            + 0.5 * _ARTIC_SCALE * np.outer(a_frames, bap_art)
            + 0.5 * _NOISE_SCALE * rng.normal(size=(n_frames, acoustic.BAP_DIM))
        )
        lf0 = np.where(
            voiced,
            np.log(110.0) + 0.10 * (e_frames @ lf0_txt) + 0.06 * a_frames
            + 0.01 * rng.normal(size=n_frames),
            acoustic.UNVOICED_LF0,
        )

        acoustic.save_streams(
            acoustic.AcousticStreams(mgc=mgc, bap=bap, lf0=lf0), layout.acoustic_dir, utt_id
        )
        (layout.label_dir / f"{utt_id}.lab").write_text(_render_labels(phones))

        drift = drift_magnitude if u >= drift_start and drift_magnitude else 0.0
        duration = n_frames * acoustic.FRAME_SHIFT
        n_native = int(np.ceil(duration * FRAME_RATE)) + 1
        native_times = np.arange(n_native) / FRAME_RATE
        weight = 28.0 * artic(native_times)
        # frame = round(base + weight * mode + drift + N(0, 4^2)), clipped to
        # uint8; the noise is the utterance's last draw, taken block by block
        with open(layout.ultrasound_dir / f"{utt_id}.ult", "wb") as ult:
            for start in range(0, n_native, block_frames):
                w = weight[start : start + block_frames, None, None]
                frames, frame_noise, out = block[: len(w)], noise[: len(w)], quantised[: len(w)]
                np.multiply(w, mode_image, out=frames)
                np.add(base_image, frames, out=frames)
                # base_image >= 30, so adding 0.0 would change no sample
                if drift:
                    frames += drift
                rng.standard_normal(out=frame_noise)
                frame_noise *= 4.0
                frames += frame_noise
                frames += 0.5
                np.floor(frames, out=frames)
                np.clip(frames, 0, 255, out=frames)
                np.copyto(out, frames, casting="unsafe")
                ult.write(out)
        (layout.ultrasound_dir / f"{utt_id}.param").write_text(serialize_metadata(meta))

    layout.question_file.write_text(_render_questions())
    return layout


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _ridge_image(rows: int, cols: int, center: float, sharpness: float) -> np.ndarray:
    """Bright horizontal ridge on a dark background, vaguely tongue-like."""
    r = np.linspace(0.0, 1.0, rows)[:, None]
    c = np.linspace(0.0, 1.0, cols)[None, :]
    ridge_pos = center + 0.08 * np.sin(2.2 * np.pi * r)
    return 30.0 + 120.0 * np.exp(-sharpness * (c - ridge_pos) ** 2)


def _latent_trajectory(rng: np.random.Generator):
    """Smooth unit-variance articulatory signal: a few slow sinusoids."""
    n_components = 3
    freqs = rng.uniform(0.3, 1.2, n_components)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_components)
    coeffs = rng.uniform(0.5, 1.0, n_components)
    coeffs /= np.sqrt(0.5 * np.sum(coeffs**2))

    def evaluate(t: np.ndarray) -> np.ndarray:
        return sum(
            c * np.sin(2.0 * np.pi * f * t + p) for c, f, p in zip(coeffs, freqs, phases)
        )

    return evaluate


def _phone_plan(rng: np.random.Generator, n_frames: int) -> tuple[list[tuple[str, int, int]], np.ndarray]:
    """Random phone segments (phone, start_frame, end_frame) covering n_frames."""
    segments: list[tuple[str, int, int]] = []
    frame = 0
    previous = None
    while frame < n_frames:
        if not segments:
            phone = "sil"
        else:
            choices = [p for p in PHONES if p != previous]
            phone = choices[rng.integers(0, len(choices))]
        duration = int(rng.integers(8, 26))
        end = min(frame + duration, n_frames)
        segments.append((phone, frame, end))
        previous = phone
        frame = end
    phone_of_frame = np.empty(n_frames, dtype=np.int64)
    for phone, start, end in segments:
        phone_of_frame[start:end] = PHONES.index(phone)
    return segments, phone_of_frame


def _render_labels(segments: list[tuple[str, int, int]]) -> str:
    ticks_per_frame = int(round(acoustic.FRAME_SHIFT * TICKS_PER_SECOND))
    names = [p for p, _, _ in segments]
    lines = []
    for i, (phone, start, end) in enumerate(segments):
        ll = names[i - 2] if i >= 2 else "x"
        l = names[i - 1] if i >= 1 else "x"
        r = names[i + 1] if i + 1 < len(names) else "x"
        rr = names[i + 2] if i + 2 < len(names) else "x"
        context = f"{ll}^{l}-{phone}+{r}={rr}@{end - start}"
        lines.append(f"{start * ticks_per_frame} {end * ticks_per_frame} {context}")
    return "\n".join(lines) + "\n"


def _render_questions() -> str:
    lines = ["# synthetic question set: central phone identity, voicing, duration"]
    for phone in PHONES:
        lines.append(f'QS "C-{phone}" {{*-{phone}+*}}')
    voiced_patterns = ",".join(f"*-{p}+*" for p in VOICED_PHONES)
    lines.append(f'QS "C-Voiced" {{{voiced_patterns}}}')
    lines.append('CQS "C-Dur" {*@(\\d+)}')
    return "\n".join(lines) + "\n"
