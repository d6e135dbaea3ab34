"""Finite-difference gradient checking.

This is the independent side of every gradient check in the package: the
numeric gradient only ever calls the forward function, never the tape, so
a bug in the backward pass cannot hide in it.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tape, Tensor, backward

STEP = 1e-5  # central-difference step
DEFAULT_TOLERANCE = 1e-4


def check_gradients(fn, arrays, coords_per_array: int | None = None, seed: int = 0,
                    tolerance: float = DEFAULT_TOLERANCE) -> float:
    """Compare tape gradients of scalar ``fn`` against central differences.

    ``fn`` maps Tensors to a scalar Tensor. Every coordinate of every
    input is perturbed when ``coords_per_array`` is None; otherwise that
    many coordinates per input, drawn without replacement from ``seed``,
    which bounds the forward evaluations for large parameter sets.
    Returns the worst relative error |a - n| / max(1, |a|, |n|) over the
    probed coordinates; raises AssertionError above ``tolerance``.
    """
    tensors = [Tensor(a) for a in arrays]
    with Tape():
        loss = fn(*tensors)
    grads = backward(loss)

    base = [np.array(a, dtype=np.float64, copy=True) for a in arrays]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t, target in zip(tensors, base):
        analytic = grads.get(t)
        if analytic is None:
            analytic = np.zeros_like(t.data)
        if coords_per_array is None:
            coords = range(target.size)
        else:
            coords = rng.choice(target.size, size=min(coords_per_array, target.size),
                                replace=False)
        for flat in coords:
            idx = np.unravel_index(int(flat), target.shape)
            orig = target[idx]
            target[idx] = orig + STEP
            up = fn(*[Tensor(a) for a in base]).item()
            target[idx] = orig - STEP
            down = fn(*[Tensor(a) for a in base]).item()
            target[idx] = orig
            numeric = (up - down) / (2.0 * STEP)
            taped = float(analytic[idx])
            worst = max(worst, abs(taped - numeric) / max(1.0, abs(taped), abs(numeric)))
    if worst > tolerance:
        raise AssertionError(f"gradient check failed: relative error {worst:.3e} > {tolerance:g}")
    return worst
