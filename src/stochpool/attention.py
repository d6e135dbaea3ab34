"""Scaled dot-product attention, multi-head and pooled, as one fused op.

Every attention call runs one tape op over (H, T, d) views of the
projected queries, keys and values. The (T, E) queries are scaled by
c = 1/sqrt(d) first, so a batched matmul gives the scaled logits. The op
walks the queries in blocks of rows whose (H, rows, Tk) logits fit
``_LOGITS_BLOCK_BYTES`` (4 MiB). In each block exp and the row sums work
in place in the block's weights buffer, and a batched matmul with the
values writes the block's rows of the (H, Tq, d_v) output, which are then
divided by their row sums. When a tape records the op, the blocks are rows
of one (H, Tq, Tk) buffer, because the backward, written by hand,
normalises those weights and reads them whole. Otherwise every block
reuses one block-sized scratch buffer, so a forward without a tape never
holds the whole logits matrix. When all queries fit one block (in float32
at H = 4, whenever Tq Tk <= 2^18) that block is the whole buffer. The op
reports its multiply-accumulates to the active counter like ``matmul``
does, along with its call, whether it skipped the max shift below and its
query block count. Single-head attention is the H = 1 case. Inside a
split region (``_worker_for``) the op runs the two halves of its heads on
the calling thread and on the process's worker; elsewhere, a direct
``attend`` included, it runs on the calling thread.

The process has at most one worker thread (``_Worker``). The first split
region starts it, as a daemon thread that interpreter exit stops and
joins; importing stochpool starts none. One region at a time holds it,
taken with a non-blocking lock: a caller that finds it held runs its
whole call on its own thread, with the same bits. A forked child forgets
the parent's worker (``os.register_at_fork``) and starts its own at its
first split. A region pins numpy's bundled OpenBLAS to one thread.

Softmax is shift-invariant, so the usual subtraction of each row's max
logit only guards the range of exp. The op skips it when a bound proves
it unneeded. By Cauchy-Schwarz every logit of every head obeys
|c q_i . k_j| <= B = max_i |c q_i| * max_j |k_j|, with norms over whole
E-wide rows (a head's columns are a subset of them), computed from
squared row norms in O(T E). The shift is skipped when B < L, the module
constant ``_EXP_LIMIT`` (60 in float32, 300 in float64), and
Tk * V_lo < V and Tk * V <= V_hi, where V is the largest |v|. With u the
unit roundoff, eta the smallest subnormal and M the largest finite number,
V_lo = eta e^(L+1) / u and V_hi = M / (2 e^(L+1)). This covers:

- every logit: the logits matmul and the norms each round at most E
  terms, so a computed logit exceeds the computed B by a factor of at
  most 1 + 3 (E+1) u, and norms that underflow hide less than 0.3; for
  E up to 46,000 (float32) or 5e12 (float64) every logit lies in
  [-L-1, L+1];
- every exp: e^(L+1) and e^-(L+1) are normal numbers (float32: e^61 is
  3.1e26 <= 3.4e38 and e^-61 is 3.2e-27 >= 1.2e-38; float64: e^+-301), so
  no weight overflows or underflows;
- every row sum: it lies between e^-(L+1) > 0 (the V_lo test needs at
  least one key) and Tk e^(L+1), finite for any Tk below 1e12;
- every entry of p @ v: each partial sum is at most Tk e^(L+1) V in
  magnitude, at most M / 2 by the V_hi test, and the factor 2 absorbs
  rounding. Products that underflow add at most Tk eta of absolute
  error, at most Tk eta e^(L+1) after the division by the row sum, and
  the V_lo test keeps that below one rounding u V of the output.

Otherwise (a larger bound, values outside the window or non-finite
inputs) each row is shifted by its max as before. Either way the weights
differ only by a per-row factor that the normalisation divides out, and
the backward normalises the saved weights by the row sums, so both paths
give the same op up to rounding. The decision is made once per call, for
every block alike. The common case makes four passes over each block's
weights instead of seven.

The pooled form shrinks the computation without touching any parameters.
``multi_head_pooled`` mean-pools the layer input before projecting it: by
``s_q`` for the queries, by ``s_k`` for the keys and values, with the one
mean-pool op, ``pooling.downsample``. It attends over the pooled rows,
applies ``w_o`` to the ceil(T/s_q) output rows and only then
replicate-upsamples them to T. Pooling (P x) and upsampling act on rows,
the projections (x W) on columns, so P (x W) = (P x) W and both orders
agree up to rounding. MViT (Fan et al. 2021) pools after projecting; with
mean pooling the order is free, and pooling first runs every E x E product
at the pooled length. At factor 1 the pools return their input and record
nothing, so with both factors at 1 the computation and its tape are those
of plain attention, bit for bit.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import functools
import math
import os
import queue
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError
from .pooling import downsample, upsample
from .tensor import (Tensor, _merge_groups, _split_groups, _state, _wrap, as_tensor, mac_scope,
                     matmul)


@dataclass(frozen=True)
class AttentionParams:
    """Projection matrices for multi-head attention over width E.

    All four are E x E; heads split the projected width, so the parameter
    count is independent of any pooling factors.
    """

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    heads: int

    def __post_init__(self):
        e = self.w_q.shape[0]
        for name in ("w_q", "w_k", "w_v", "w_o"):
            w = getattr(self, name)
            if w.shape != (e, e):
                raise ShapeError(f"{name} must be square E x E, got {w.shape}")
        if self.heads < 1 or e % self.heads:
            raise ConfigError(f"model width {e} must be divisible by heads={self.heads}")


# Largest logit bound B for which exp runs without the row-max shift, and
# the window that the largest |value| times the key count must lie in; the
# module docstring proves both safe.
_EXP_LIMIT = {np.dtype(np.float32): 60.0, np.dtype(np.float64): 300.0}


def _value_window(dtype: np.dtype, limit: float) -> tuple:
    info = np.finfo(dtype)
    grow = math.exp(limit + 1.0)  # largest weight, with one unit of slack for rounding
    return (float(info.smallest_subnormal) * grow / (float(info.eps) / 2),
            float(info.max) / grow / 2.0)


_SHIFT_FREE = {dt: (limit, *_value_window(dt, limit)) for dt, limit in _EXP_LIMIT.items()}


def _shift_free(qs: np.ndarray, k: np.ndarray, v: np.ndarray) -> bool:
    """Whether exp(qs k^T) and its product with v are safe without a max shift.

    ``qs`` holds the pre-scaled queries. Non-finite inputs, all-zero values
    and an empty key set all give False, so they take the shifted path.
    """
    limit, v_lo, v_hi = _SHIFT_FREE[qs.dtype]
    largest = np.maximum.reduce
    q2 = float(largest(np.einsum("ij,ij->i", qs, qs), axis=None, initial=0.0))
    k2 = float(largest(np.einsum("ij,ij->i", k, k), axis=None, initial=0.0))
    v_max = float(largest(np.abs(v), axis=None, initial=0.0))
    tk = len(k)
    return q2 * k2 < limit * limit and tk * v_lo < v_max and tk * v_max <= v_hi


# Bytes of logits one query block holds: a forward without a tape reuses one
# block of this size instead of the whole (H, Tq, Tk) buffer.
_LOGITS_BLOCK_BYTES = 4 << 20


try:  # the calling thread's CPU, where the C library reports it
    _sched_getcpu = ctypes.CDLL(None).sched_getcpu
except (AttributeError, OSError, TypeError):
    _sched_getcpu = None


@functools.lru_cache(maxsize=1)
def _openblas_threads():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None.

    numpy wheels ship it as ``numpy.libs/libscipy_openblas64_*.so``;
    loading that file again returns the library numpy already uses. The
    lookup runs once per process.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        return get_threads, set_threads
    return None


@contextlib.contextmanager
def _blas_pinned_to_one_thread():
    """Limit numpy's bundled OpenBLAS to one thread for the block, through
    ctypes, restoring the previous count on exit, exceptions included; a
    no-op when numpy ships no such library.

    A split region runs in it: with OpenBLAS at its default of one thread
    per CPU, a split forward took 1.8-3.9x the time of an unsplit one. ``cost_model.measure`` times
    in it too, as multi-threaded GEMM adds scheduler jitter that can swamp
    small configuration deltas.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


class _Worker:
    """The process's second thread: ``_worker_for`` starts it at the first
    split and hands it to one split region at a time.

    Inside a region the attention op hands the worker half its heads,
    ``encoder._tail`` half of each layer's rows and
    ``EncoderModel._features_by_rows`` half of the front end's frames,
    through a queue (about 18 us on a 2-vCPU host, against about 0.12-0.2
    ms to start, move and join a thread). ``halves(run, n)`` runs ``run`` over
    [n/2, n) on the worker while the calling thread runs [0, n/2); the
    calling thread waits for the worker's half in a ``finally`` and then
    re-raises what the worker raised, unless its own half raised first.

    numpy releases the GIL inside matmul and the elementwise ufuncs and
    reductions, so the halves run in parallel. The worker is kept off the
    calling thread's CPU (``leave``): a kernel that does not balance load (a
    cpuset with ``sched_load_balance`` 0, as on some VM guests) starts it
    on its creator's CPU and keeps it there, where the halves take turns.
    Of what both halves can see, each writes only its own slices of the
    caller's output buffers, and every operation in it gets exactly the
    operands it gets on one thread (a head's whole batch, rows of a
    row-wise op, or the frames of a conv stack that start where the whole
    clip's frames do; see ``encoder._tail`` for the one caveat,
    products of fewer than 16 rows), so the result is the same bit for bit.
    """

    def __init__(self):
        self._jobs = queue.SimpleQueue()
        self._done = queue.SimpleQueue()
        self._away = None  # the CPUs the worker was restricted to, once moved
        self._thread = threading.Thread(target=self._serve, name="stochpool-worker",
                                        daemon=True)
        self._thread.start()

    def leave(self, cpus: set) -> None:
        """Restrict the worker to ``cpus`` minus the calling thread's CPU, on
        the first region and whenever the caller runs on one of its CPUs."""
        cpu = _sched_getcpu() if _sched_getcpu else None
        if self._away is None or cpu in self._away:
            self._away = cpus - {cpu}
            with contextlib.suppress(AttributeError, OSError):  # best effort
                os.sched_setaffinity(self._thread.native_id, self._away)

    def halves(self, run, n: int) -> None:
        self._jobs.put((run, slice(n // 2, n)))
        try:
            run(slice(0, n // 2))
        finally:
            raised = self._done.get()  # the worker's half writes the caller's buffers
        if raised is not None:
            raise raised

    def stop(self) -> None:
        self._jobs.put(None)
        self._thread.join()

    def _serve(self) -> None:
        while (job := self._jobs.get()) is not None:
            try:
                job[0](job[1])
                raised = None
            except BaseException as exc:  # re-raised in the calling thread
                raised = exc
            # drop the half before the caller resumes: holding it would keep
            # its call's buffers alive, and the caller frees them
            del job
            self._done.put(raised)
            del raised


_worker = None  # the process's worker, from the first split region on
_worker_lock = threading.Lock()  # held by the thread whose split region has the worker


@contextlib.contextmanager
def _worker_for(cpus: set):
    """One split region: the process's worker for the block, or None when
    another thread's region holds it, in which case the caller runs its
    work alone, with the same bits.

    The first region starts the worker. Each region moves it off the
    calling thread's CPU where needed (``_Worker.leave``), makes it the
    calling thread's ``_state.worker`` and pins BLAS to one thread
    (``_blas_pinned_to_one_thread``), undoing both on exit, exceptions
    included.
    """
    global _worker
    if not _worker_lock.acquire(blocking=False):
        yield None
        return
    try:
        if _worker is None:
            _worker = _Worker()
        _worker.leave(cpus)
        with _blas_pinned_to_one_thread():
            _state.worker = _worker
            try:
                yield _worker
            finally:
                _state.worker = None
    finally:
        _worker_lock.release()


def _stop_worker() -> None:
    """Stop and join the process's worker, if one runs, once no region holds
    it; the next split region starts a new one. Runs at interpreter exit."""
    global _worker
    with _worker_lock:
        if _worker is not None:
            _worker.stop()
            _worker = None


def _forget_worker() -> None:
    """In a forked child: the parent's worker thread does not exist here,
    and its lock may have been held by a parent thread; start afresh."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


atexit.register(_stop_worker)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _query_blocks(tq: int, tk: int, heads: int, itemsize: int) -> range:
    """First query rows of the blocks whose (heads, rows, tk) logits fit the
    budget; the range's step is the rows per block, at least one."""
    return range(0, tq, max(1, _LOGITS_BLOCK_BYTES // (heads * tk * itemsize)))


def _fused_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """softmax(q k^T / sqrt(d)) v for each head, as one tape op."""
    qd, kd, vd = q.data, k.data, v.data
    tq, tk = qd.shape[0], kd.shape[0]
    d = qd.shape[1] // heads
    c = 1.0 / math.sqrt(d)
    qs = qd * c  # scale the (Tq, E) queries, not the (H, Tq, Tk) logits
    shift = not _shift_free(qs, kd, vd)
    qh = _split_groups(qs, heads)
    kh = _split_groups(kd, heads)
    vh = _split_groups(vd, heads)
    p_type = np.result_type(qs, kd)
    blocks = _query_blocks(tq, tk, heads, p_type.itemsize)
    macs = _state.macs
    if macs is not None:
        macs.add(heads * tq * tk * (d + vd.shape[1] // heads))
        macs.attention_calls += 1
        macs.shift_skips += not shift
        macs.query_blocks += len(blocks)
    # the backward reads every weight, so a recorded op keeps its blocks as
    # rows of one (H, Tq, Tk) buffer; otherwise they share one block's scratch
    recorded = _state.tape is not None and any(t.grad_id is not None for t in (q, k, v))
    p = np.empty((heads, tq if recorded else min(blocks.step, tq), tk), p_type)
    oh = np.empty((heads, tq, vd.shape[1] // heads), np.result_type(p_type, vd))
    row_sums = np.empty((heads, tq, 1), p_type)

    def run(h: slice):  # the heads h of every block; writes only their slices
        for a in blocks:
            rows = slice(a, a + blocks.step)  # the last block's slice stops at tq
            pb = p[h, rows] if recorded else p[h, :tq - a]  # logits, then weights, in place
            np.matmul(qh[h, rows], kh[h].transpose(0, 2, 1), out=pb)
            if shift:  # only when the bound cannot rule out overflow or underflow
                pb -= np.maximum.reduce(pb, axis=2, keepdims=True)
            np.exp(pb, out=pb)
            sums = np.add.reduce(pb, axis=2, keepdims=True, out=row_sums[h, rows])
            ob = np.matmul(pb, vh[h], out=oh[h, rows])
            ob /= sums  # normalise the (H, rows, d_v) output, not the weights

    worker = _state.worker  # set only inside a split region (``_worker_for``)
    if worker is not None and heads >= 2:
        worker.halves(run, heads)
    else:
        run(slice(None))

    def bwd(g):
        np.divide(p, row_sums, out=p)  # the weights are needed only here
        gh = _split_groups(g, heads)
        dv = p.transpose(0, 2, 1) @ gh
        ds = gh @ vh.transpose(0, 2, 1)
        # sum_k p_k (g . v_k) = g . out, so the row term needs no (H, Tq, Tk) product
        ds -= np.add.reduce(gh * oh, axis=2, keepdims=True)
        ds *= p
        dq = ds @ kh
        dq *= c  # the logits are (c q) k^T; qh already carries c for the key gradient
        return (_merge_groups(dq), _merge_groups(ds.transpose(0, 2, 1) @ qh),
                _merge_groups(dv))

    return _wrap(_merge_groups(oh), (q, k, v), bwd)


def attend(q, k, v, heads: int = 1) -> Tensor:
    """softmax(q k^T / sqrt(d)) v.

    With ``heads`` > 1 the columns of q, k and v split into that many
    equal groups; group h attends with q, k and v's group h (d is the
    group width of q), and the outputs sit side by side in column order.
    """
    q = q if type(q) is Tensor else as_tensor(q)
    k = k if type(k) is Tensor else as_tensor(k)
    v = v if type(v) is Tensor else as_tensor(v)
    qd, kd, vd = q.data, k.data, v.data
    if qd.ndim != 2 or kd.ndim != 2 or vd.ndim != 2:
        raise ShapeError("attend requires 2-D q, k, v")
    if qd.shape[1] != kd.shape[1]:
        raise ShapeError(f"query/key widths disagree: {qd.shape} vs {kd.shape}")
    if kd.shape[0] != vd.shape[0]:
        raise ShapeError(f"key/value lengths disagree: {kd.shape} vs {vd.shape}")
    if heads < 1 or qd.shape[1] % heads or vd.shape[1] % heads:
        raise ConfigError(f"widths {qd.shape[1]} and {vd.shape[1]} must be divisible "
                          f"by heads={heads}")
    return _fused_attention(q, k, v, heads)


def multi_head_pooled(x, params: AttentionParams, pair: tuple) -> Tensor:
    """Multi-head attention over x, pooled before projecting: for the
    factor pair ``(s_k, s_q)``, the order ``CompressionConfig.per_layer``
    stores it in, queries by s_q and keys and values by s_k; the output is
    upsampled back to len(x)."""
    x = x if type(x) is Tensor else as_tensor(x)
    shape = x.data.shape
    width = params.w_q.data.shape[0]
    if len(shape) != 2 or shape[1] != width:
        raise ShapeError(f"input width must be {width}, got shape {shape}")
    n = shape[0]
    s_k, s_q = pair
    if s_k < 1 or s_q < 1:
        raise ConfigError(f"pooling factors (s_k, s_q) must be >= 1, got {pair}")
    x_q = downsample(x, s_q)
    x_kv = x_q if s_k == s_q else downsample(x, s_k)
    with mac_scope("attn_proj"):
        q = matmul(x_q, params.w_q)
        k = matmul(x_kv, params.w_k)
        v = matmul(x_kv, params.w_v)
    with mac_scope("attn_scores"):
        out = attend(q, k, v, params.heads)
    with mac_scope("attn_proj"):
        out = matmul(out, params.w_o)
    return upsample(out, s_q, truncate_to=n)
