"""Dataset plumbing: synthetic generators, WAV reading, manifests.

Synthetic datasets are deterministic functions of (seed, index): every
utterance is generated from its own forked RNG stream, so dataset size
and access order never change any item's content.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .stochastic import Rng

SAMPLE_RATE = 16_000
SINE_NOISE = 0.05  # noise std of SineFeatureDataset frames
SYMBOL_FRAMES = 8  # frames per rendered symbol
SYMBOL_GAP_FRAMES = 2  # low-energy frames around each symbol
SYMBOL_NOISE = 0.1
SYMBOL_PROTO_NORM = 2.0  # norm of every symbol's prototype vector
AUDIO_SINES = 4  # sinusoids in a synth_audio signal
AUDIO_NOISE = 0.01


@dataclass(frozen=True)
class Utterance:
    """One dataset item: features or audio, with optional labels."""

    features: np.ndarray | None = None
    audio: np.ndarray | None = None
    labels: tuple | None = None

    def __post_init__(self):
        if (self.features is None) == (self.audio is None):
            raise InputError("utterance needs exactly one of features or audio")


class SineFeatureDataset:
    """Unlabeled smooth feature sequences for masked-frame pretraining.

    Each utterance is a sum of a few sinusoids per feature dimension plus
    ``SINE_NOISE`` noise; smooth in time so context carries real
    information about masked frames. Lengths are drawn uniformly from
    ``min_frames..max_frames``.
    """

    def __init__(self, size: int, dim: int, seed: int = 0,
                 min_frames: int = 24, max_frames: int = 48):
        if size < 1:
            raise InputError(f"dataset size must be >= 1, got {size}")
        if min_frames < 1 or max_frames < min_frames:
            raise InputError(f"frame range must satisfy 1 <= min_frames <= max_frames, "
                             f"got {min_frames}..{max_frames}")
        self.size = size
        self.dim = dim
        self.min_frames = min_frames
        self.max_frames = max_frames
        self._rng = Rng(seed).fork("sine-features")

    def __len__(self):
        return self.size

    def __getitem__(self, index: int) -> Utterance:
        if not 0 <= index < self.size:
            raise IndexError(index)
        rng = self._rng.fork(f"utt{index}")
        frames = self.min_frames + rng.integer(self.max_frames - self.min_frames + 1)
        t = np.arange(frames)[:, None] / frames
        n_waves = 2
        feats = np.zeros((frames, self.dim))
        for _ in range(n_waves):
            freq = 0.5 + 2.0 * rng.uniform()
            phase = 2.0 * np.pi * rng.uniform(self.dim)
            amp = 0.5 + rng.uniform(self.dim)
            feats += amp[None, :] * np.sin(2.0 * np.pi * freq * t + phase[None, :])
        feats += SINE_NOISE * rng.normal(frames * self.dim).reshape(frames, self.dim)
        return Utterance(features=feats)


class SymbolFeatureDataset:
    """Labeled sequences for the toy CTC task.

    Every symbol of a small vocabulary owns a fixed prototype feature
    vector of norm ``SYMBOL_PROTO_NORM``; an utterance renders its label
    string as consecutive ``SYMBOL_FRAMES``-frame segments separated by
    ``SYMBOL_GAP_FRAMES``-frame zero gaps, plus ``SYMBOL_NOISE`` noise.
    Greedy CTC decoding of a trained model should recover the labels.

    The label-to-prototype mapping depends only on ``seed``; utterance
    composition depends on (seed, split), so train/val/test splits of the
    same seed share one task but never share utterances.
    """

    def __init__(self, size: int, dim: int, vocab: int = 4, seed: int = 0,
                 split: str = "train", min_symbols: int = 2, max_symbols: int = 5):
        if size < 1:
            raise InputError(f"dataset size must be >= 1, got {size}")
        if vocab < 1:
            raise InputError(f"vocab must be >= 1, got {vocab}")
        self.size = size
        self.dim = dim
        self.vocab = vocab
        self.min_symbols = min_symbols
        self.max_symbols = max_symbols
        root = Rng(seed).fork("symbol-features")
        protos = root.fork("prototypes").normal(vocab * dim).reshape(vocab, dim)
        self._protos = (SYMBOL_PROTO_NORM * protos
                        / np.linalg.norm(protos, axis=1, keepdims=True))
        self._rng = root.fork(split)

    def __len__(self):
        return self.size

    def __getitem__(self, index: int) -> Utterance:
        if not 0 <= index < self.size:
            raise IndexError(index)
        rng = self._rng.fork(f"utt{index}")
        n_symbols = self.min_symbols + rng.integer(self.max_symbols - self.min_symbols + 1)
        labels = tuple([1 + rng.integer(self.vocab) for _ in range(n_symbols)])
        # the noise first, then each symbol's prototype added onto its rows
        # in place; the gap rows are noise alone
        period = SYMBOL_FRAMES + SYMBOL_GAP_FRAMES
        frames = SYMBOL_GAP_FRAMES + n_symbols * period
        feats = rng.normal(frames * self.dim, scale=SYMBOL_NOISE).reshape(frames, self.dim)
        start = SYMBOL_GAP_FRAMES
        for label in labels:
            feats[start:start + SYMBOL_FRAMES] += self._protos[label - 1]
            start += period
        return Utterance(features=feats, labels=labels)


def synth_audio(seed: int, seconds: float = 1.0) -> np.ndarray:
    """Seeded sum of ``AUDIO_SINES`` sines plus ``AUDIO_NOISE`` noise at
    16 kHz, in [-1, 1]."""
    rng = Rng(seed).fork("synth-audio")
    n = int(round(seconds * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    signal = np.zeros(n)
    for _ in range(AUDIO_SINES):
        freq = 80.0 + 2000.0 * rng.uniform()
        amp = 0.2 + 0.8 * rng.uniform()
        phase = 2.0 * np.pi * rng.uniform()
        signal += amp * np.sin(2.0 * np.pi * freq * t + phase)
    signal += AUDIO_NOISE * rng.normal(n)
    peak = np.abs(signal).max()
    return signal / max(peak, 1.0)


def read_wav(path) -> np.ndarray:
    """Load a RIFF/WAVE file; must be PCM 16-bit mono at exactly 16 kHz.

    Anything else is rejected rather than resampled, so results stay
    bit-deterministic across machines. Every exception the stdlib ``wave``
    reader raises (``RuntimeError`` among them, for a chunk size that
    points past its chunk) becomes an InputError naming the file.
    """
    try:
        with wave.open(str(path), "rb") as fh:
            channels = fh.getnchannels()
            width = fh.getsampwidth()
            rate = fh.getframerate()
            declared = fh.getnframes()
            frames = fh.readframes(declared)
    except (wave.Error, EOFError, OSError, RuntimeError, ValueError) as exc:
        detail = str(exc) or type(exc).__name__
        raise InputError(f"{path}: not a readable WAV file ({detail})") from exc
    if channels != 1:
        raise InputError(f"{path}: expected mono audio, got {channels} channels")
    if width != 2:
        raise InputError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
    if rate != SAMPLE_RATE:
        raise InputError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate} Hz (no resampling)")
    if len(frames) != 2 * declared:
        raise InputError(f"{path}: truncated WAV data: the header declares {declared} "
                         f"samples, the file holds {len(frames)} bytes")
    samples = np.frombuffer(frames, dtype="<i2").astype(np.float64)
    return samples / 32768.0


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    transcript: tuple  # whitespace-split tokens


def read_manifest(path) -> list:
    """Parse `audio_path<TAB>transcript` lines; transcript may be empty."""
    entries = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read manifest ({exc})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise InputError(f"{path}:{lineno}: expected `path<TAB>transcript`")
        audio_path, transcript = line.split("\t", 1)
        entries.append(ManifestEntry(audio_path.strip(), tuple(transcript.split())))
    if not entries:
        raise InputError(f"{path}: manifest is empty")
    return entries


class ManifestDataset:
    """Audio utterances described by a manifest file.

    Token labels are mapped to contiguous ids 1..V via the sorted
    vocabulary of the manifest itself.
    """

    def __init__(self, manifest_path):
        self.base = Path(manifest_path).parent
        self.entries = read_manifest(manifest_path)
        tokens = sorted({tok for e in self.entries for tok in e.transcript})
        self.vocab = {tok: i + 1 for i, tok in enumerate(tokens)}

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, index: int) -> Utterance:
        entry = self.entries[index]
        path = Path(entry.path)
        if not path.is_absolute():
            path = self.base / path
        labels = tuple(self.vocab[tok] for tok in entry.transcript)
        return Utterance(audio=read_wav(path), labels=labels)
