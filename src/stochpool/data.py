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
    light noise; smooth in time so context carries real information about
    masked frames.
    """

    def __init__(self, size: int, dim: int, seed: int = 0,
                 min_frames: int = 24, max_frames: int = 48, noise: float = 0.05):
        if size < 1:
            raise InputError(f"dataset size must be >= 1, got {size}")
        self.size = size
        self.dim = dim
        self.noise = noise
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
        feats += self.noise * rng.normal(frames * self.dim).reshape(frames, self.dim)
        return Utterance(features=feats)


class SymbolFeatureDataset:
    """Labeled sequences for the toy CTC task.

    Every symbol of a small vocabulary owns a fixed prototype feature
    vector; an utterance renders its label string as consecutive
    ``frames_per_symbol``-frame segments separated by low-energy gaps, plus
    noise. Greedy CTC decoding of a trained model should recover the
    labels.

    The label-to-prototype mapping depends only on ``seed``; utterance
    composition depends on (seed, split), so train/val/test splits of the
    same seed share one task but never share utterances.
    """

    def __init__(self, size: int, dim: int, vocab: int = 4, seed: int = 0,
                 split: str = "train", min_symbols: int = 2, max_symbols: int = 5,
                 frames_per_symbol: int = 8, gap_frames: int = 2,
                 noise: float = 0.1, proto_scale: float = 2.0):
        if size < 1:
            raise InputError(f"dataset size must be >= 1, got {size}")
        if vocab < 1:
            raise InputError(f"vocab must be >= 1, got {vocab}")
        self.size = size
        self.dim = dim
        self.vocab = vocab
        self.min_symbols = min_symbols
        self.max_symbols = max_symbols
        self.frames_per_symbol = frames_per_symbol
        self.gap_frames = gap_frames
        self.noise = noise
        root = Rng(seed).fork("symbol-features")
        protos = root.fork("prototypes").normal(vocab * dim).reshape(vocab, dim)
        self._protos = (proto_scale * protos
                        / np.linalg.norm(protos, axis=1, keepdims=True))
        self._rng = root.fork(split)

    def __len__(self):
        return self.size

    def __getitem__(self, index: int) -> Utterance:
        if not 0 <= index < self.size:
            raise IndexError(index)
        rng = self._rng.fork(f"utt{index}")
        n_symbols = self.min_symbols + rng.integer(self.max_symbols - self.min_symbols + 1)
        labels = tuple(1 + rng.integer(self.vocab) for _ in range(n_symbols))
        gap = np.zeros((self.gap_frames, self.dim))
        rows = [gap]
        for label in labels:
            seg = np.tile(self._protos[label - 1], (self.frames_per_symbol, 1))
            rows.append(seg)
            rows.append(gap)
        feats = np.concatenate(rows, axis=0)
        feats = feats + self.noise * rng.normal(feats.size).reshape(feats.shape)
        return Utterance(features=feats, labels=labels)


def synth_audio(seed: int, seconds: float = 1.0, n_sines: int = 4,
                noise: float = 0.01) -> np.ndarray:
    """Seeded sum-of-sines test signal at 16 kHz, in [-1, 1]."""
    rng = Rng(seed).fork("synth-audio")
    n = int(round(seconds * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    signal = np.zeros(n)
    for _ in range(n_sines):
        freq = 80.0 + 2000.0 * rng.uniform()
        amp = 0.2 + 0.8 * rng.uniform()
        phase = 2.0 * np.pi * rng.uniform()
        signal += amp * np.sin(2.0 * np.pi * freq * t + phase)
    signal += noise * rng.normal(n)
    peak = np.abs(signal).max()
    return signal / max(peak, 1.0)


def read_wav(path) -> np.ndarray:
    """Load a RIFF/WAVE file; must be PCM 16-bit mono at exactly 16 kHz.

    Anything else is rejected rather than resampled, so results stay
    bit-deterministic across machines.
    """
    try:
        with wave.open(str(path), "rb") as fh:
            channels = fh.getnchannels()
            width = fh.getsampwidth()
            rate = fh.getframerate()
            declared = fh.getnframes()
            frames = fh.readframes(declared)
    except (wave.Error, EOFError, OSError) as exc:
        raise InputError(f"{path}: not a readable WAV file ({exc})") from exc
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


def write_wav(path, samples: np.ndarray):
    """Write float samples in [-1, 1] as PCM 16-bit mono 16 kHz."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = (clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())


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

    Token labels are mapped to contiguous ids via the sorted vocabulary of
    the manifest itself (or a caller-provided mapping, e.g. from a
    checkpoint).
    """

    def __init__(self, manifest_path, vocab: dict | None = None):
        self.base = Path(manifest_path).parent
        self.entries = read_manifest(manifest_path)
        if vocab is None:
            tokens = sorted({tok for e in self.entries for tok in e.transcript})
            vocab = {tok: i + 1 for i, tok in enumerate(tokens)}
        self.vocab = vocab
        self.inverse_vocab = {i: tok for tok, i in vocab.items()}

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, index: int) -> Utterance:
        entry = self.entries[index]
        path = Path(entry.path)
        if not path.is_absolute():
            path = self.base / path
        audio = read_wav(path)
        try:
            labels = tuple(self.vocab[tok] for tok in entry.transcript)
        except KeyError as exc:
            raise InputError(f"{entry.path}: token {exc.args[0]!r} not in vocabulary") from None
        return Utterance(audio=audio, labels=labels)
