"""Mean-pool downsampling and replicate upsampling along the time axis.

``downsample`` averages blocks of ``factor`` consecutive rows (a trailing
partial block is averaged over its actual row count rather than being
zero-padded, which would bias the final frame toward zero). ``upsample``
repeats each row ``factor`` times and optionally truncates so callers can
restore an exact pre-pooling length. Both are linear, have exact
adjoints, and are inverse in the order downsample(upsample(y)) == y.
At factor 1 each returns its input itself and records nothing on the
tape (``upsample`` when it does not truncate), so callers need no branch.

Every block sum (``downsample`` and ``upsample``'s backward) goes through
one reshape-based helper, ``_block_sums``, which adds a block's rows in
order.
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
    np.add.reduce(a[:full].reshape((-1, factor) + a.shape[1:]), axis=1, out=out[:full // factor])
    if full < n:
        np.add.reduce(a[full:], axis=0, keepdims=True, out=out[-1:])
    return out


def downsample(x, factor) -> Tensor:
    """Mean over consecutive row blocks; output has ceil(N/factor) rows."""
    x = x if type(x) is Tensor else as_tensor(x)
    factor = _check_factor(factor)
    xd = x.data
    if xd.ndim != 2 or xd.shape[0] < 1:
        raise ShapeError(f"downsample requires a non-empty N x D tensor, got {xd.shape}")
    if factor == 1:
        return x
    n = xd.shape[0]
    counts = np.minimum(factor, n - np.arange(0, n, factor)).astype(xd.dtype)
    # mean as base row + mean of deviations from it: bit-exact on blocks of
    # identical rows, which makes downsample(upsample(y)) == y hold exactly
    base = xd[::factor]
    deviations = xd - base.repeat(factor, axis=0)[:n]
    out = base + _block_sums(deviations, factor) / counts[:, None]

    def bwd(g):
        return ((g / counts[:, None]).repeat(factor, axis=0)[:n],)

    return _wrap(out, (x,), bwd)


def upsample(x, factor, truncate_to=None) -> Tensor:
    """Repeat each row `factor` times, then truncate to ``truncate_to`` rows."""
    x = x if type(x) is Tensor else as_tensor(x)
    factor = _check_factor(factor)
    xd = x.data
    if xd.ndim != 2 or xd.shape[0] < 1:
        raise ShapeError(f"upsample requires a non-empty N x D tensor, got {xd.shape}")
    n = xd.shape[0]
    full = n * factor
    if truncate_to is not None:
        truncate_to = int(truncate_to)
        if not (1 <= truncate_to <= full):
            raise ShapeError(
                f"truncate_to={truncate_to} outside [1, {full}] for {n} rows at factor {factor}"
            )
    if factor == 1 and (truncate_to is None or truncate_to == n):
        return x
    length = full if truncate_to is None else truncate_to
    out = xd.repeat(factor, axis=0)[:length]

    def bwd(g):
        grad = np.zeros_like(xd)
        sums = _block_sums(g, factor)
        grad[:len(sums)] = sums
        return (grad,)

    return _wrap(out, (x,), bwd)

