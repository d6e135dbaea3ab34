"""Compression-factor sampling and the deterministic RNG behind it.

The RNG is counter-based: output ``i`` of a stream is a pure function of
(key, i), so streams can be forked by deriving a new key from a string
label without consuming draws from the parent. Adding a new consumer
therefore never perturbs the draw sequence seen by existing ones, and the
same seed reproduces the same draws on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _fnv1a64(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # Vectorized twin of _mix64; uint64 arithmetic wraps mod 2**64.
    z = z + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class Rng:
    """Deterministic counter-based random stream.

    ``u64`` draws advance an internal counter; ``fork(label)`` derives an
    independent stream whose key depends only on (parent key, label).
    """

    __slots__ = ("key", "counter")

    def __init__(self, seed: int, _key: int | None = None):
        if _key is not None:
            self.key = _key & _MASK64
        else:
            self.key = _mix64((int(seed) & _MASK64) ^ 0x5851F42D4C957F2D)
        self.counter = 0

    def fork(self, label: str) -> "Rng":
        """Independent child stream; deterministic in (key, label)."""
        child = _mix64(self.key ^ _fnv1a64(label))
        return Rng(0, _key=child)

    def u64(self) -> int:
        self.counter += 1
        return _mix64((self.key + self.counter * _GOLDEN) & _MASK64)

    def u64_array(self, n: int) -> np.ndarray:
        start = self.counter + 1
        self.counter += n
        counters = np.arange(start, start + n, dtype=np.uint64)
        state = np.uint64(self.key) + counters * np.uint64(_GOLDEN)
        return _mix64_array(state)

    def uniform(self, size: int | None = None):
        """Floats in [0, 1) with 53-bit resolution."""
        if size is None:
            return (self.u64() >> 11) * 2.0**-53
        return (self.u64_array(size) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normal(self, size: int | None = None, scale: float = 1.0):
        """Normals with standard deviation ``scale`` via Box-Muller (pairs
        share two uniforms)."""
        n = 1 if size is None else int(size)
        half = (n + 1) // 2
        raw = self.u64_array(2 * half)
        raw >>= np.uint64(11)
        # u1 = (x + 1) 2^-53 in (0, 1] and u2 = x 2^-53 in [0, 1), in one buffer
        u = raw.astype(np.float64)
        u[:half] += 1.0
        u *= 2.0**-53
        r = np.log(u[:half])
        r *= -2.0
        np.sqrt(r, out=r)
        angle = u[half:]
        angle *= 2.0 * np.pi
        out = np.empty(2 * half, dtype=np.float64)
        np.multiply(r, np.cos(angle), out=out[0::2])
        np.multiply(r, np.sin(angle), out=out[1::2])
        out = out[:n]
        if scale != 1.0:
            out *= scale
        return float(out[0]) if size is None else out

    def normal_matrix(self, shape, scale: float = 1.0) -> np.ndarray:
        size = 1
        for s in shape:
            size *= int(s)
        return self.normal(size, scale=scale).reshape(shape)

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias."""
        if n < 1:
            raise ConfigError("integer() requires n >= 1")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            v = self.u64()
            if v < limit:
                return v % n

    def choice(self, seq):
        if len(seq) == 0:
            raise ConfigError("cannot draw from an empty set")
        return seq[self.integer(len(seq))]


@dataclass(frozen=True)
class FactorSets:
    """Candidate sets for squeeze, key-value pooling, and query pooling."""

    squeeze_set: tuple
    kv_set: tuple
    q_set: tuple

    def __post_init__(self):
        for name, values in (
            ("squeeze_set", self.squeeze_set),
            ("kv_set", self.kv_set),
            ("q_set", self.q_set),
        ):
            vals = tuple(int(v) for v in values)
            if not vals:
                raise ConfigError(f"{name} must not be empty")
            if any(v < 1 for v in vals):
                raise ConfigError(f"{name} members must be >= 1, got {vals}")
            object.__setattr__(self, name, vals)


@dataclass(frozen=True)
class CompressionConfig:
    """One forward pass worth of factors: squeeze plus per-layer pooling."""

    s_f: int
    per_layer: tuple  # ((s_k, s_q), ...) one pair per transformer layer

    def __post_init__(self):
        if self.s_f < 1:
            raise ConfigError(f"squeeze factor must be >= 1, got {self.s_f}")
        layers = tuple((int(k), int(q)) for k, q in self.per_layer)
        if any(k < 1 or q < 1 for k, q in layers):
            raise ConfigError(f"pooling factors must be >= 1, got {layers}")
        object.__setattr__(self, "per_layer", layers)

    @property
    def depth(self) -> int:
        return len(self.per_layer)

    def check_fits(self, encoder) -> None:
        """Raise ConfigError unless the config has one entry per layer of
        ``encoder`` (an EncoderConfig) and stays within its squeeze and
        per-layer pooling ceilings."""
        if self.depth != encoder.depth:
            raise ConfigError(f"config has {self.depth} layer entries, "
                              f"encoder depth is {encoder.depth}")
        if self.s_f > encoder.max_squeeze:
            raise ConfigError(f"squeeze factor {self.s_f} exceeds ceiling {encoder.max_squeeze}")
        for s_k, s_q in self.per_layer:
            if s_k > encoder.max_kv_pool:
                raise ConfigError(f"key-value pooling {s_k} exceeds ceiling {encoder.max_kv_pool}")
            if s_q > encoder.max_q_pool:
                raise ConfigError(f"query pooling {s_q} exceeds ceiling {encoder.max_q_pool}")

    def describe(self) -> str:
        """Render as "S_f-S_k-S_q"; per-layer lists when layers differ."""
        kvs = [k for k, _ in self.per_layer]
        qs = [q for _, q in self.per_layer]

        def fmt(values):
            if len(set(values)) == 1:
                return str(values[0])
            return "(" + ",".join(str(v) for v in values) + ")"

        return f"{self.s_f}-{fmt(kvs)}-{fmt(qs)}"


# The four standard operating points S_f-S_k-S_q, from the full model to the
# cheapest: what `sweep` always runs and `cost` and `verify` check by default.
STANDARD_CONFIGS = ("1-1-1", "2-1-1", "2-2-1", "2-2-2")


def parse_triplet(text: str) -> tuple:
    """Parse a "S_f-S_k-S_q" string into three positive integers."""
    parts = text.strip().split("-")
    if len(parts) != 3:
        raise ConfigError(f"config triplet {text!r} must have form S_f-S_k-S_q")
    values = []
    for pos, part in enumerate(parts):
        try:
            v = int(part)
        except ValueError:
            raise ConfigError(
                f"config triplet {text!r}: component {pos + 1} ({part!r}) is not an integer"
            ) from None
        if v < 1:
            raise ConfigError(f"config triplet {text!r}: component {pos + 1} must be >= 1")
        values.append(v)
    return tuple(values)


def fixed_config(s_f: int, s_k: int, s_q: int, depth: int) -> CompressionConfig:
    """Configuration using the same (s_k, s_q) pair in every layer."""
    if depth < 1:
        raise ConfigError(f"depth must be >= 1, got {depth}")
    return CompressionConfig(s_f, tuple((s_k, s_q) for _ in range(depth)))


def sample_config(sets: FactorSets, depth: int, rng: Rng) -> CompressionConfig:
    """Draw s_f uniformly, then an independent (s_k, s_q) per layer.

    Draw order is fixed: s_f first, then kv/q alternating per layer, so a
    given rng state always yields the same configuration.
    """
    if depth < 1:
        raise ConfigError(f"depth must be >= 1, got {depth}")
    s_f = rng.choice(sets.squeeze_set)
    per_layer = tuple(
        (rng.choice(sets.kv_set), rng.choice(sets.q_set)) for _ in range(depth)
    )
    return CompressionConfig(s_f, per_layer)
