"""Synthetic datasets: seeded content pinned byte for byte, input checks."""

import hashlib

import numpy as np
import pytest

from stochpool.data import SineFeatureDataset, SymbolFeatureDataset, read_wav, synth_audio
from stochpool.errors import InputError
from wavfile import write_wav


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestSeededContent:
    """Recorded digests: every training, sweep and benchmark input is drawn from
    these generators, so a mismatch changes every seeded result."""

    def test_sine_features(self):
        ds = SineFeatureDataset(4, 8, seed=3)
        assert digest(ds[i].features for i in range(4)) == (
            "5d1b769e2d071dbe62d3f09b87f1b735c0128c2faf9075fa4a57f5469ba8da23")

    def test_symbol_features_and_labels(self):
        ds = SymbolFeatureDataset(4, 8, seed=3, split="val")
        assert [ds[i].labels for i in range(4)] == [(4, 1), (1, 2, 2, 2, 3), (4, 2), (3, 2, 2)]
        assert digest(ds[i].features for i in range(4)) == (
            "49cfc2f7717f298f13152cbd78a2cb6ac380ee560e65c7471e0f923c5472d8f8")

    def test_synth_audio(self):
        assert digest([synth_audio(5, seconds=0.25)]) == (
            "b6362d77e32a942940791bbeeacab42f49729d3c502ed6fba9b76f17f4604e80")


class TestSineFrameRange:
    @pytest.mark.parametrize("min_frames,max_frames", [(0, 0), (-5, -5), (10, 9)])
    def test_empty_or_inverted_range_rejected(self, min_frames, max_frames):
        with pytest.raises(InputError, match="min_frames"):
            SineFeatureDataset(1, 8, min_frames=min_frames, max_frames=max_frames)


def test_wav_fmt_chunk_size_bit_flips_raise_input_error(tmp_path):
    """The stdlib reader raises RuntimeError for some bad chunk sizes; every
    failure of it must surface as an InputError naming the file."""
    good = tmp_path / "good.wav"
    write_wav(good, synth_audio(3, seconds=0.1))
    blob = good.read_bytes()
    assert blob[12:16] == b"fmt "
    bad = tmp_path / "bad.wav"
    for byte in range(16, 20):  # the fmt chunk's size field
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[byte] ^= 1 << bit
            bad.write_bytes(bytes(flipped))
            with pytest.raises(InputError, match=str(bad)):
                read_wav(bad)
