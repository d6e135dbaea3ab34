"""WAV fixtures for the tests: float samples written as the PCM 16-bit mono
16 kHz files that ``stochpool.data.read_wav`` accepts."""

import wave

import numpy as np


def write_wav(path, samples):
    """Write float samples in [-1, 1] as PCM 16-bit mono 16 kHz."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes((clipped * 32767.0).astype("<i2").tobytes())
