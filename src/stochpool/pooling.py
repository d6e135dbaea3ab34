"""Mean-pool downsampling and replicate upsampling along the time axis.

``downsample`` averages blocks of ``factor`` consecutive rows (a trailing
partial block is averaged over its actual row count rather than being
zero-padded, which would bias the final frame toward zero). ``upsample``
repeats each row ``factor`` times and optionally truncates so callers can
restore an exact pre-pooling length. Both are linear, have exact adjoints,
and are inverse in the order downsample(upsample(y)) == y.

Every block sum (``downsample``, ``masked_downsample`` and ``upsample``'s
backward) goes through one reshape-based helper, ``_block_sums``, which
adds a block's rows in order.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, _wrap, as_tensor


def _check_factor(factor) -> int:
    factor = int(factor)
    if factor < 1:
        raise ConfigError(f"pooling factor must be >= 1, got {factor}")
    return factor


def output_length(n: int, factor: int) -> int:
    """ceil(n / factor)."""
    return -(-n // factor)


def _block_sums(a: np.ndarray, factor: int) -> np.ndarray:
    """Sums of consecutive blocks of ``factor`` rows, the last one possibly
    partial; rows are added in order within each block."""
    n = a.shape[0]
    full = n - n % factor
    out = np.empty((output_length(n, factor),) + a.shape[1:], dtype=a.dtype)
    a[:full].reshape((-1, factor) + a.shape[1:]).sum(axis=1, out=out[:full // factor])
    if full < n:
        a[full:].sum(axis=0, keepdims=True, out=out[-1:])
    return out


def downsample(x, factor) -> Tensor:
    """Mean over consecutive row blocks; output has ceil(N/factor) rows."""
    x = as_tensor(x)
    factor = _check_factor(factor)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError(f"downsample requires a non-empty N x D tensor, got {x.shape}")
    if factor == 1:
        return _identity(x)
    n = x.shape[0]
    starts = np.arange(0, n, factor)
    counts = np.minimum(factor, n - starts).astype(x.data.dtype)
    # mean as first-row + mean of deviations: bit-exact on blocks of
    # identical rows, which makes downsample(upsample(y)) == y hold exactly
    base = x.data[::factor]
    deviations = x.data - np.repeat(base, factor, axis=0)[:n]
    out = base + _block_sums(deviations, factor) / counts[:, None]

    def bwd(g):
        return (np.repeat(g / counts[:, None], factor, axis=0)[:n],)

    return _wrap(out, (x,), bwd)


def upsample(x, factor, truncate_to=None) -> Tensor:
    """Repeat each row `factor` times, then truncate to ``truncate_to`` rows."""
    x = as_tensor(x)
    factor = _check_factor(factor)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError(f"upsample requires a non-empty N x D tensor, got {x.shape}")
    n = x.shape[0]
    full = n * factor
    if truncate_to is not None:
        truncate_to = int(truncate_to)
        if not (1 <= truncate_to <= full):
            raise ShapeError(
                f"truncate_to={truncate_to} outside [1, {full}] for {n} rows at factor {factor}"
            )
    if factor == 1 and (truncate_to is None or truncate_to == n):
        return _identity(x)
    length = full if truncate_to is None else truncate_to
    out = np.repeat(x.data, factor, axis=0)[:length]

    def bwd(g):
        grad = np.zeros_like(x.data)
        sums = _block_sums(g, factor)
        grad[:len(sums)] = sums
        return (grad,)

    return _wrap(out, (x,), bwd)


def masked_downsample(x, factor, valid: np.ndarray):
    """Mean-pool counting only valid rows; returns (pooled, pooled_valid).

    A pooled row is valid iff any source row in its block is valid, and its
    value is the mean over just those valid rows. Blocks with no valid row
    come out as zeros and are flagged invalid; at factor 1 that zeroes
    every invalid row.
    """
    x = as_tensor(x)
    factor = _check_factor(factor)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError(f"masked_downsample requires a non-empty N x D tensor, got {x.shape}")
    valid = np.asarray(valid, dtype=bool)
    if valid.shape != (x.shape[0],):
        raise ShapeError(f"validity mask must have shape ({x.shape[0]},), got {valid.shape}")
    n = x.shape[0]
    if factor == 1 and valid.all():
        return _identity(x), valid.copy()
    weights = valid.astype(x.data.dtype)
    counts = _block_sums(weights, factor)
    pooled_valid = counts > 0
    safe = np.maximum(counts, 1.0)
    out = _block_sums(x.data * weights[:, None], factor) / safe[:, None]

    def bwd(g):
        spread = np.repeat(g / safe[:, None], factor, axis=0)[:n]
        return (spread * weights[:, None],)

    return _wrap(out, (x,), bwd), pooled_valid


def _identity(x: Tensor) -> Tensor:
    def bwd(g):
        return (g,)

    return _wrap(x.data, (x,), bwd)
