"""Dense tensors with reverse-mode automatic differentiation.

The engine is intentionally small: 2-D matrices (plus 1-D vectors and 0-D
scalars where an operation says so), float64 by default, float32 opt-in
for the benchmark harness. Operations executed while a :class:`Tape` is
active append a record with the saved values needed for their backward
pass; ``backward(loss)`` replays the records in exact reverse execution
order and accumulates adjoints additively per tensor.

Only explicit ``Tensor(...)`` values are differentiable leaves. Arrays
handed to an op are wrapped by ``as_tensor`` as constants, which have no
gradient anyone can ask for: under a tape an op whose inputs are all
constants is not recorded and returns a constant, the reverse sweep
drops the adjoints of constant inputs, and ``matmul``/``conv1d`` skip the
products a constant operand would get. No value or gradient that is
computed depends on which inputs are constants.

Broadcasting is restricted to bias-add over rows; every other shape
mismatch is an error. ``matmul`` and ``conv1d`` report their
multiply-accumulate counts to an active :class:`MacCounter`, which is how
the cost model's instrumented oracle works.

The row-wise ops write into the buffers they return or keep for their
backward rather than into fresh temporaries: ``gelu`` fills two,
``layer_norm`` centres each row once, and both backwards run in two
buffers, rounding exactly as their formulas written out do. ``conv1d``
is one GEMM per group over a strided view of its input (every output
frame's window is one row of the view); the only window copy is the
contiguous one packed for each GEMM, as overlapping rows are not a valid
BLAS matrix.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, ShapeError, UsageError

_REAL_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_uid = itertools.count(1)
_state = threading.local()

_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715
LAYER_NORM_EPS = 1e-5


def _active_tape():
    return getattr(_state, "tape", None)


def _active_macs():
    return getattr(_state, "macs", None)


class Tensor:
    """Immutable dense value, optionally tracked by a gradient tape.

    ``data`` is a numpy array; ``grad_id`` is the handle under which tapes
    accumulate this tensor's adjoint, None for a constant (see
    ``as_tensor``); ``tape`` is the tape that recorded the op producing it
    (None for leaves and constants). Tensor values
    must not be written through after creation; training code rebinds
    ``.data`` between tapes instead.
    """

    __slots__ = ("data", "grad_id", "tape")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _REAL_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad_id = next(_uid)
        self.tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() requires a single-element tensor, shape {self.shape}")
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name})"


def as_tensor(value, dtype=None) -> Tensor:
    """``value`` itself if it is a Tensor, else a constant holding it.

    A constant (``grad_id`` None) never receives a gradient, so data that
    callers hand over as arrays stays off the tape; wrap a value in an
    explicit ``Tensor`` to differentiate with respect to it.
    """
    if isinstance(value, Tensor):
        return value
    out = Tensor(value, dtype=dtype)
    out.grad_id = None
    return out


class GradientMap:
    """Gradients from one backward pass, keyed by tensor."""

    def __init__(self, grads: dict):
        self._by_id = grads

    def __contains__(self, t: Tensor) -> bool:
        return t.grad_id in self._by_id

    def __getitem__(self, t: Tensor) -> np.ndarray:
        try:
            return self._by_id[t.grad_id]
        except KeyError:
            raise KeyError("no gradient was recorded for this tensor") from None

    def get(self, t: Tensor, default=None):
        return self._by_id.get(t.grad_id, default)


class Tape:
    """Ordered record of executed operations.

    Used as a context manager; ops executed inside the ``with`` block are
    recorded. ``gradients(loss)`` walks the record in reverse execution
    order exactly once, after which the tape is consumed.
    """

    def __init__(self):
        self._records = []  # (out_id, input_ids, backward_fn); None ids are constants
        self._consumed = False

    def __enter__(self):
        if _active_tape() is not None:
            raise UsageError("a gradient tape is already active in this context")
        _state.tape = self
        return self

    def __exit__(self, *exc):
        _state.tape = None
        return False

    def _record(self, out: Tensor, inputs: tuple, backward):
        if self._consumed:
            raise UsageError("tape was already consumed by a backward pass")
        out.tape = self
        self._records.append((out.grad_id, tuple(t.grad_id for t in inputs), backward))

    def gradients(self, loss: Tensor) -> GradientMap:
        """Reverse sweep from a scalar loss; consumes the tape."""
        if self._consumed:
            raise UsageError("tape was already consumed by a backward pass")
        if loss.tape is not self:
            raise UsageError("loss was not produced on this tape")
        if loss.data.shape != ():
            raise UsageError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        self._consumed = True
        grads = {loss.grad_id: np.ones((), dtype=loss.data.dtype)}
        records, self._records = self._records, []
        while records:
            # popping frees each op's saved values as soon as its backward ran
            out_id, input_ids, backward_fn = records.pop()
            g = grads.pop(out_id, None)
            if g is None:
                continue  # output never reached the loss
            for in_id, in_grad in zip(input_ids, backward_fn(g)):
                if in_id is None or in_grad is None:
                    continue  # a constant input, or an adjoint the op skipped
                acc = grads.get(in_id)
                grads[in_id] = in_grad if acc is None else acc + in_grad
        return GradientMap(grads)


@contextmanager
def no_grad():
    """Suspend the active tape for the block: ops inside it are not recorded."""
    saved = _active_tape()
    _state.tape = None
    try:
        yield
    finally:
        _state.tape = saved


def backward(loss: Tensor) -> GradientMap:
    """Gradient map for a scalar loss produced on a live tape."""
    if loss.tape is None:
        raise UsageError("loss was not produced on a live tape")
    return loss.tape.gradients(loss)


class MacCounter:
    """Counts multiply-accumulates executed by matmul and conv1d.

    Elementwise work (softmax, layer norm, activations, pooling) is
    deliberately not counted; the analytic cost model excludes it too.
    """

    def __init__(self):
        self.total = 0
        self.by_scope = {}
        self._stack = []

    def add(self, n: int):
        self.total += n
        label = self._stack[-1] if self._stack else "unscoped"
        self.by_scope[label] = self.by_scope.get(label, 0) + n

    @contextmanager
    def scope(self, label: str):
        self._stack.append(label)
        try:
            yield
        finally:
            self._stack.pop()


@contextmanager
def count_macs():
    """Activate a fresh MacCounter for the duration of the block."""
    if _active_macs() is not None:
        raise UsageError("a MAC counter is already active in this context")
    counter = MacCounter()
    _state.macs = counter
    try:
        yield counter
    finally:
        _state.macs = None


@contextmanager
def mac_scope(label: str):
    """Attribute MACs inside the block to `label` (no-op if not counting)."""
    counter = _active_macs()
    if counter is None:
        yield
    else:
        with counter.scope(label):
            yield


def _wrap(data: np.ndarray, inputs: tuple, backward_fn) -> Tensor:
    """Make the result tensor and record it if a tape is active; under a
    tape, an op on constants only is not recorded and returns a constant."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad_id = next(_uid)
    out.tape = None
    tape = _active_tape()
    if tape is not None:
        if any(t.grad_id is not None for t in inputs):
            tape._record(out, inputs, backward_fn)
        else:
            out.grad_id = None
    return out


def _split_groups(a: np.ndarray, groups: int) -> np.ndarray:
    """(T, G*c) -> (G, T, c) view: column groups (heads, conv groups) as a batch."""
    return a.reshape(a.shape[0], groups, -1).transpose(1, 0, 2)


def _merge_groups(a: np.ndarray) -> np.ndarray:
    """(G, T, c) -> (T, G*c); a view when G == 1."""
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product of two 2-D tensors; the backward skips the product
    for a constant operand."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul requires 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    macs = _active_macs()
    if macs is not None:
        macs.add(a.shape[0] * a.shape[1] * b.shape[1])
    ad, bd = a.data, b.data

    def bwd(g):
        return (None if a.grad_id is None else g @ bd.T,
                None if b.grad_id is None else ad.T @ g)

    return _wrap(ad @ bd, (a, b), bwd)


def add(a, b) -> Tensor:
    """Elementwise sum; a 1-D right operand is broadcast over rows (bias)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape == b.shape:
        def bwd(g):
            return g, g

        return _wrap(a.data + b.data, (a, b), bwd)
    if a.ndim == 2 and b.ndim == 1 and b.shape[0] == a.shape[1]:
        def bwd_bias(g):
            return g, g.sum(axis=0)

        return _wrap(a.data + b.data, (a, b), bwd_bias)
    raise ShapeError(f"add supports equal shapes or row-bias, got {a.shape} and {b.shape}")


def mul(a, b) -> Tensor:
    """Elementwise product of equal-shaped tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul requires equal shapes, got {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g):
        return g * bd, g * ad

    return _wrap(ad * bd, (a, b), bwd)


def gelu(a) -> Tensor:
    """GELU in its tanh form: 0.5 x (1 + tanh(c (x + a x^3))).

    The forward fills two buffers in place: ``s = 1 + tanh(...)``, kept
    for the backward, and the output. It rounds exactly as the formula
    written out with temporaries does.
    """
    a = as_tensor(a)
    x = a.data
    s = x * x
    s *= x
    s *= _GELU_A
    s += x
    s *= _GELU_C
    np.tanh(s, out=s)
    s += 1.0
    y = np.multiply(x, 0.5)
    y *= s

    def bwd(g):
        # d/dx = 0.5 g (s + x c (1 + 3 a x x) (2 - s) s), as 1 - t^2 = (2 - s) s;
        # two buffers, each product and sum rounded as written left to right
        dx = x * _GELU_C
        tmp = x * (3.0 * _GELU_A)
        tmp *= x
        tmp += 1.0
        dx *= tmp
        np.subtract(2.0, s, out=tmp)
        dx *= tmp
        dx *= s
        dx += s
        np.multiply(g, 0.5, out=tmp)
        dx *= tmp
        return (dx,)

    return _wrap(y, (a,), bwd)


def concat(parts) -> Tensor:
    """Concatenate 2-D tensors along rows."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat requires at least one tensor")
    for p in parts:
        if p.ndim != 2 or p.shape[1] != parts[0].shape[1]:
            raise ShapeError(
                f"concat shapes disagree on axis 1: {[tuple(p.shape) for p in parts]}"
            )
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def bwd(g):
        return tuple(g[offsets[i]:offsets[i + 1], :] for i in range(len(parts)))

    return _wrap(np.concatenate([p.data for p in parts], axis=0), tuple(parts), bwd)


def sum_all(a) -> Tensor:
    """Sum of all entries as a scalar tensor."""
    a = as_tensor(a)
    shape = a.data.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).astype(g.dtype, copy=True),)

    return _wrap(np.asarray(a.data.sum(), dtype=a.dtype), (a,), bwd)


def layer_norm(a, gamma, beta) -> Tensor:
    """Per-row normalization followed by an affine map.

    Each row is shifted to zero mean and scaled to unit variance (up to
    ``LAYER_NORM_EPS``) before applying gamma/beta.
    """
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    if a.ndim != 2 or a.shape[1] < 1:
        raise ShapeError(f"layer_norm requires an N x D tensor with D >= 1, got {a.shape}")
    if gamma.shape != (a.shape[1],) or beta.shape != (a.shape[1],):
        raise ShapeError(
            f"layer_norm affine parameters must have shape ({a.shape[1]},), "
            f"got {gamma.shape} and {beta.shape}"
        )
    x = a.data
    n = x.shape[1]
    # a row mean is the row sum over n, which .mean() rounds to as well
    y = x - x.sum(axis=1, keepdims=True) / n
    out = np.multiply(y, y)  # scratch for the squares, then the output
    inv = 1.0 / np.sqrt(out.sum(axis=1, keepdims=True) / n + LAYER_NORM_EPS)
    y *= inv
    gd = gamma.data
    np.multiply(y, gd, out=out)
    out += beta.data

    def bwd(g):
        # dx = inv (dy - mean(dy) - y mean(dy y)) with dy = g gamma, in two
        # buffers; the scratch first holds g y for dgamma
        scratch = g * y
        dgamma = scratch.sum(axis=0)
        dbeta = g.sum(axis=0)
        dy = g * gd
        np.multiply(dy, y, out=scratch)
        np.multiply(y, scratch.sum(axis=1, keepdims=True) / n, out=scratch)
        dy -= dy.sum(axis=1, keepdims=True) / n
        dy -= scratch
        dy *= inv
        return dy, dgamma, dbeta

    return _wrap(out, (a, gamma, beta), bwd)


def conv1d(a, w, stride: int = 1, groups: int = 1) -> Tensor:
    """Strided grouped 1-D convolution over time-major input.

    ``a`` is (L, C_in), ``w`` is (C_out, C_in // groups, k); output length
    is floor((L - k) / stride) + 1. No implicit padding.

    With the input laid out group-major as (G, L, C_in/G), output frame t
    of a group reads k * C_in/G consecutive values from frame t * stride,
    so the windows are the rows of a strided view of the input and each
    group's forward is one GEMM with tap-major weights. The backward gets
    dw from the same view, one GEMM per group, and scatters dx with k
    strided adds over all channels; for a constant input it returns dw
    only.
    """
    a, w = as_tensor(a), as_tensor(w)
    if a.ndim != 2 or w.ndim != 3:
        raise ShapeError(f"conv1d requires (L, C_in) input and (C_out, C_in/g, k) weights, "
                         f"got {a.shape} and {w.shape}")
    stride = int(stride)
    groups = int(groups)
    c_out, c_in_g, k = w.shape
    length, c_in = a.shape
    if stride < 1 or k < 1:
        raise ConfigError(f"conv1d stride and kernel must be >= 1, got stride={stride}, k={k}")
    if groups < 1 or c_in % groups or c_out % groups:
        raise ConfigError(f"conv1d groups={groups} must divide C_in={c_in} and C_out={c_out}")
    if c_in_g != c_in // groups:
        raise ShapeError(f"conv1d weight expects C_in/groups={c_in // groups} channels, "
                         f"got {c_in_g}")
    if length < k:
        raise ShapeError(f"conv1d input length {length} is shorter than kernel {k}")
    l_out = (length - k) // stride + 1
    macs = _active_macs()
    if macs is not None:
        macs.add(l_out * c_out * c_in_g * k)

    # group-major input (G, L, C_in_g): a view when groups == 1, else one copy
    co_g = c_out // groups
    xg = np.ascontiguousarray(a.data.reshape(length, groups, c_in_g).transpose(1, 0, 2))
    item = xg.itemsize
    rows = as_strided(xg, (groups, l_out, k * c_in_g),
                      (xg.strides[0], stride * c_in_g * item, item), writeable=False)
    wd = w.data

    def tap_major(gi):
        """Group gi's weights as (k * C_in_g, C_out_g), ordered like a window."""
        return wd[gi * co_g:(gi + 1) * co_g].transpose(2, 1, 0).reshape(k * c_in_g, co_g)

    # numpy would pack each group's overlapping windows into a contiguous
    # copy for BLAS anyway; packing them explicitly is faster and rounds alike
    out = np.empty((l_out, c_out), dtype=a.data.dtype)
    for gi in range(groups):
        np.matmul(np.ascontiguousarray(rows[gi]), tap_major(gi),
                  out=out[:, gi * co_g:(gi + 1) * co_g])

    def bwd(g):
        dw = np.empty_like(wd)
        for gi in range(groups):
            cols = slice(gi * co_g, (gi + 1) * co_g)
            windows = np.ascontiguousarray(rows[gi])
            dw[cols] = (windows.T @ g[:, cols]).reshape(k, c_in_g, co_g).transpose(2, 1, 0)
        if a.grad_id is None:
            return None, dw
        contrib = np.empty((l_out, groups, k * c_in_g), dtype=g.dtype)
        for gi in range(groups):
            np.matmul(g[:, gi * co_g:(gi + 1) * co_g], tap_major(gi).T, out=contrib[:, gi])
        # tap j of window t lands on frame t * stride + j, for all channels at once
        dx = np.zeros((length, groups, c_in_g), dtype=g.dtype)
        taps = contrib.reshape(l_out, groups, k, c_in_g)
        for j in range(k):
            dx[j:j + stride * (l_out - 1) + 1:stride] += taps[:, :, j]
        return dx.reshape(length, c_in), dw

    return _wrap(out, (a, w), bwd)
