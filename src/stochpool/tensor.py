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
is one GEMM per group over a strided view of its input, laid out
group-major and zero-padded (``pad``) in one buffer: every output frame's
window is one row of the view. The only window copy is the contiguous
one packed for each GEMM, as overlapping rows are not a valid BLAS matrix.

Dispatch conventions. An op runs once per layer per utterance, and at
desk scale its numpy work is often shorter than its Python work, so the
ops keep the interpreter path short without changing a single float:

- An operand that is already a ``Tensor`` is used as is (a ``type(x) is
  Tensor`` test); only other values go through ``as_tensor``.
- Shapes are read from ``.data``, not through the ``shape``/``ndim``
  properties.
- The thread-local tape and MAC counter are read once per op as
  attributes of ``_state``, whose class supplies each thread's defaults.
- Recording builds no generator: ``_wrap`` loops over the inputs, and
  ``Tape._record`` collects their ids with ``map``.
- Reductions call the ufunc (``np.add.reduce``) directly; ``ndarray.sum``
  reaches the same ufunc through a Python wrapper.
- ``mac_scope`` returns one shared null context when nothing is counting.

Ops must stay module-level names that callers look up at call time
(``from .tensor import gelu``, then ``gelu(...)``), never references
cached on an object or in a closure: tracing wraps them by rebinding those
names, so a cached reference would hide an op from it. The one exception
is a forward that runs its layers' rows in two halves: it calls the
forwards of ``gelu`` and ``layer_norm`` (``_gelu_forward``,
``_layer_norm_forward``) directly. It splits only while no MAC counter is
active, and perfbench's traced phase counts the MACs of every forward, so
tracing still sees every op.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager, nullcontext
from operator import attrgetter

import numpy as np

from .errors import ConfigError, ShapeError, UsageError

_REAL_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_uid = itertools.count(1)
_grad_id = attrgetter("grad_id")


class _State(threading.local):
    """The active tape, MAC counter and forward worker
    (``attention._Worker``); the class attributes are every thread's
    defaults."""

    tape = None
    macs = None
    worker = None


_state = _State()
_NO_SCOPE = nullcontext()

_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715
LAYER_NORM_EPS = 1e-5


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
        if _state.tape is not None:
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
        self._records.append((out.grad_id, tuple(map(_grad_id, inputs)), backward))

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
    saved = _state.tape
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
    """Counts multiply-accumulates executed by matmul, conv1d and attention.

    Elementwise work (softmax, layer norm, activations, pooling) is
    deliberately not counted; the analytic cost model excludes it too.
    The attention op also counts its calls (``attention_calls``), the calls
    that skipped the softmax max shift (``shift_skips``) and the query
    blocks it walked (``query_blocks``).
    """

    def __init__(self):
        self.total = 0
        self.by_scope = {}
        self._stack = []
        self.attention_calls = self.shift_skips = self.query_blocks = 0

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
    if _state.macs is not None:
        raise UsageError("a MAC counter is already active in this context")
    counter = MacCounter()
    _state.macs = counter
    try:
        yield counter
    finally:
        _state.macs = None


def mac_scope(label: str):
    """Context manager attributing MACs inside its block to ``label``; the
    shared null context when nothing is counting."""
    counter = _state.macs
    return _NO_SCOPE if counter is None else counter.scope(label)


def _wrap(data: np.ndarray, inputs: tuple, backward_fn) -> Tensor:
    """Make the result tensor and record it if a tape is active; under a
    tape, an op on constants only is not recorded and returns a constant."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad_id = next(_uid)
    out.tape = None
    tape = _state.tape
    if tape is not None:
        for t in inputs:
            if t.grad_id is not None:
                tape._record(out, inputs, backward_fn)
                break
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
    a = a if type(a) is Tensor else as_tensor(a)
    b = b if type(b) is Tensor else as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ShapeError(f"matmul requires 2-D operands, got {ad.shape} and {bd.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {ad.shape} vs {bd.shape}")
    macs = _state.macs
    if macs is not None:
        macs.add(ad.shape[0] * ad.shape[1] * bd.shape[1])

    def bwd(g):
        return (None if a.grad_id is None else g @ bd.T,
                None if b.grad_id is None else ad.T @ g)

    return _wrap(ad @ bd, (a, b), bwd)


def add(a, b) -> Tensor:
    """Elementwise sum; a 1-D right operand is broadcast over rows (bias)."""
    a = a if type(a) is Tensor else as_tensor(a)
    b = b if type(b) is Tensor else as_tensor(b)
    ad, bd = a.data, b.data
    if ad.shape == bd.shape:
        def bwd(g):
            return g, g

        return _wrap(ad + bd, (a, b), bwd)
    if ad.ndim == 2 and bd.ndim == 1 and bd.shape[0] == ad.shape[1]:
        def bwd_bias(g):
            return g, np.add.reduce(g, axis=0)

        return _wrap(ad + bd, (a, b), bwd_bias)
    raise ShapeError(f"add supports equal shapes or row-bias, got {ad.shape} and {bd.shape}")


def mul(a, b) -> Tensor:
    """Elementwise product of equal-shaped tensors."""
    a = a if type(a) is Tensor else as_tensor(a)
    b = b if type(b) is Tensor else as_tensor(b)
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise ShapeError(f"mul requires equal shapes, got {ad.shape} and {bd.shape}")

    def bwd(g):
        return g * bd, g * ad

    return _wrap(ad * bd, (a, b), bwd)


def _gelu_forward(x: np.ndarray, s=None, y=None) -> tuple:
    """``gelu``'s forward: s = 1 + tanh(c (x + a x^3)) and y = 0.5 x s, in
    the given buffers or in new ones; y may be x itself."""
    s = np.multiply(x, x, out=s)
    s *= x
    s *= _GELU_A
    s += x
    s *= _GELU_C
    np.tanh(s, out=s)
    s += 1.0
    y = np.multiply(x, 0.5, out=y)
    y *= s
    return s, y


def gelu(a) -> Tensor:
    """GELU in its tanh form: 0.5 x (1 + tanh(c (x + a x^3))).

    The forward fills two buffers in place: ``s = 1 + tanh(...)``, kept
    for the backward, and the output. It rounds exactly as the formula
    written out with temporaries does.
    """
    a = a if type(a) is Tensor else as_tensor(a)
    x = a.data
    s, y = _gelu_forward(x)

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


def sum_all(a) -> Tensor:
    """Sum of all entries as a scalar tensor."""
    a = a if type(a) is Tensor else as_tensor(a)
    x = a.data
    shape = x.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).astype(g.dtype, copy=True),)

    return _wrap(np.asarray(np.add.reduce(x, axis=None), dtype=x.dtype), (a,), bwd)


def _layer_norm_forward(x: np.ndarray, gd: np.ndarray, bd: np.ndarray, y=None,
                        out=None) -> tuple:
    """``layer_norm``'s forward: y = x's rows centred and scaled to unit
    variance, out = y gamma + beta, in the given buffers or in new ones, and
    the per-row scale; y may be x itself."""
    n = x.shape[1]
    add_reduce = np.add.reduce
    # a row mean is the row sum over n, which .mean() rounds to as well
    y = np.subtract(x, add_reduce(x, axis=1, keepdims=True) / n, out=y)
    out = np.multiply(y, y, out=out)  # scratch for the squares, then the output
    inv = 1.0 / np.sqrt(add_reduce(out, axis=1, keepdims=True) / n + LAYER_NORM_EPS)
    y *= inv
    np.multiply(y, gd, out=out)
    out += bd
    return y, out, inv


def layer_norm(a, gamma, beta) -> Tensor:
    """Per-row normalization followed by an affine map.

    Each row is shifted to zero mean and scaled to unit variance (up to
    ``LAYER_NORM_EPS``) before applying gamma/beta.
    """
    a = a if type(a) is Tensor else as_tensor(a)
    gamma = gamma if type(gamma) is Tensor else as_tensor(gamma)
    beta = beta if type(beta) is Tensor else as_tensor(beta)
    x, gd, bd = a.data, gamma.data, beta.data
    if x.ndim != 2 or x.shape[1] < 1:
        raise ShapeError(f"layer_norm requires an N x D tensor with D >= 1, got {x.shape}")
    n = x.shape[1]
    if gd.shape != (n,) or bd.shape != (n,):
        raise ShapeError(
            f"layer_norm affine parameters must have shape ({n},), "
            f"got {gd.shape} and {bd.shape}"
        )
    add_reduce = np.add.reduce
    y, out, inv = _layer_norm_forward(x, gd, bd)

    def bwd(g):
        # dx = inv (dy - mean(dy) - y mean(dy y)) with dy = g gamma, in two
        # buffers; the scratch first holds g y for dgamma
        scratch = g * y
        dgamma = add_reduce(scratch, axis=0)
        dbeta = add_reduce(g, axis=0)
        dy = g * gd
        np.multiply(dy, y, out=scratch)
        np.multiply(y, add_reduce(scratch, axis=1, keepdims=True) / n, out=scratch)
        dy -= add_reduce(dy, axis=1, keepdims=True) / n
        dy -= scratch
        dy *= inv
        return dy, dgamma, dbeta

    return _wrap(out, (a, gamma, beta), bwd)


def conv1d(a, w, stride: int = 1, groups: int = 1, pad: int = 0) -> Tensor:
    """Strided grouped 1-D convolution over time-major input.

    ``a`` is (L, C_in), ``w`` is (C_out, C_in // groups, k); ``pad`` zero
    frames go before and after the input, so the output length is
    floor((L + 2 pad - k) / stride) + 1.

    With the padded input laid out group-major as (G, L + 2 pad, C_in/G),
    output frame t of a group reads k * C_in/G consecutive values from
    frame t * stride, so the windows are the rows of a strided view of the
    input and each group's forward is one GEMM with tap-major weights. The
    backward gets dw from the same view, one GEMM per group, and scatters
    dx with k strided adds over all channels, returning the rows of the
    real frames; for a constant input it returns dw only.
    """
    a = a if type(a) is Tensor else as_tensor(a)
    w = w if type(w) is Tensor else as_tensor(w)
    ad, wd = a.data, w.data
    if ad.ndim != 2 or wd.ndim != 3:
        raise ShapeError(f"conv1d requires (L, C_in) input and (C_out, C_in/g, k) weights, "
                         f"got {ad.shape} and {wd.shape}")
    stride, groups, pad = int(stride), int(groups), int(pad)
    c_out, c_in_g, k = wd.shape
    n, c_in = ad.shape
    length = n + 2 * pad
    if stride < 1 or k < 1 or pad < 0:
        raise ConfigError(f"conv1d stride and kernel must be >= 1 and pad >= 0, "
                          f"got stride={stride}, k={k}, pad={pad}")
    if groups < 1 or c_in % groups or c_out % groups:
        raise ConfigError(f"conv1d groups={groups} must divide C_in={c_in} and C_out={c_out}")
    if c_in_g != c_in // groups:
        raise ShapeError(f"conv1d weight expects C_in/groups={c_in // groups} channels, "
                         f"got {c_in_g}")
    if length < k:
        raise ShapeError(f"conv1d input length {length} is shorter than kernel {k}")
    l_out = (length - k) // stride + 1
    macs = _state.macs
    if macs is not None:
        macs.add(l_out * c_out * c_in_g * k)

    # group-major input (G, L + 2 pad, C_in_g): a view when groups == 1 and
    # pad == 0, else one copy, into a zeroed buffer when padding
    co_g = c_out // groups
    if pad:
        xg = np.zeros((groups, length, c_in_g), dtype=ad.dtype)
        xg[:, pad:pad + n] = _split_groups(ad, groups)
    else:
        xg = np.ascontiguousarray(_split_groups(ad, groups))
    item = xg.itemsize
    # the windows as rows of a read-only strided view over xg's buffer
    rows = np.ndarray((groups, l_out, k * c_in_g), xg.dtype, xg, 0,
                      (length * c_in_g * item, stride * c_in_g * item, item))
    rows.flags.writeable = False

    def tap_major(gi):
        """Group gi's weights as (k * C_in_g, C_out_g), ordered like a window."""
        return wd[gi * co_g:(gi + 1) * co_g].transpose(2, 1, 0).reshape(k * c_in_g, co_g)

    # numpy would pack each group's overlapping windows into a contiguous
    # copy for BLAS anyway; packing them explicitly is faster and rounds alike
    out = np.empty((l_out, c_out), dtype=ad.dtype)
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
        return dx.reshape(length, c_in)[pad:pad + n], dw

    return _wrap(out, (a, w), bwd)
