"""Plain and pooled attention: oracles, degenerate cases, gradients."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stochpool import attention, encoder, verify
from stochpool.attention import (_EXP_LIMIT, _SHIFT_FREE, AttentionParams, _query_blocks,
                                 _shift_free, attend, multi_head_pooled)
from stochpool.encoder import EncoderModel, preset
from stochpool.errors import ConfigError, ShapeError
from stochpool.gradcheck import check_gradients
from stochpool.pooling import downsample, upsample
from stochpool.stochastic import Rng, fixed_config
from stochpool.tensor import Tape, Tensor, backward, matmul, mul, sum_all


def rand(seed, *shape):
    return Rng(seed).fork("attn").normal(int(np.prod(shape))).reshape(shape)


def params_for(seed, e, heads):
    r = Rng(seed).fork("params")
    def w(tag):
        return Tensor(r.fork(tag).normal(e * e).reshape(e, e) / np.sqrt(e))
    return AttentionParams(w_q=w("q"), w_k=w("k"), w_v=w("v"), w_o=w("o"), heads=heads)


class TestAttend:
    def test_single_key_returns_value_row(self):
        q = rand(0, 3, 4)
        k = rand(1, 1, 4)
        v = rand(2, 1, 4)
        out = attend(Tensor(q), Tensor(k), Tensor(v)).data
        assert np.allclose(out, np.tile(v, (3, 1)))

    def test_identical_keys_give_masked_mean_of_values(self):
        # identical keys weigh their values equally: attending over the keys a
        # boolean selection keeps returns the mean of the kept values
        q = rand(3, 2, 4)
        k = np.tile(rand(4, 1, 4), (5, 1))
        v = rand(5, 5, 4)
        keep = np.array([True, True, False, True, False])
        out = attend(Tensor(q), Tensor(k[keep]), Tensor(v[keep])).data
        want = v[keep].mean(axis=0)
        assert np.abs(out - want).max() < 1e-12

    def test_against_scalar_loop_oracle(self):
        q, k, v = rand(6, 4, 2), rand(7, 4, 2), rand(8, 4, 2)
        got = attend(Tensor(q), Tensor(k), Tensor(v)).data
        want = np.zeros((4, 2))
        for i in range(4):
            logits = np.array([q[i] @ k[j] / np.sqrt(2.0) for j in range(4)])
            w = np.exp(logits - logits.max())
            w = w / w.sum()
            for j in range(4):
                want[i] += w[j] * v[j]
        assert np.abs(got - want).max() < 1e-12

    def test_convexity_bound(self):
        q, k, v = rand(12, 6, 4), rand(13, 5, 4), rand(14, 5, 3)
        out = attend(Tensor(q), Tensor(k), Tensor(v)).data
        assert np.all(out <= v.max(axis=0) + 1e-12)
        assert np.all(out >= v.min(axis=0) - 1e-12)


def whole_buffer_attention(q, k, v, heads, g):
    """The op with all logits in one (H, Tq, Tk) buffer, as it ran before its
    queries were blocked: the output and the q, k, v gradients of <out, g>."""
    c = 1.0 / math.sqrt(q.shape[1] // heads)
    qs = q * c
    shift = not _shift_free(qs, k, v)
    qh, kh, vh, gh = (a.reshape(len(a), heads, -1).transpose(1, 0, 2) for a in (qs, k, v, g))
    p = qh @ kh.transpose(0, 2, 1)
    if shift:
        p -= np.maximum.reduce(p, axis=2, keepdims=True)
    np.exp(p, out=p)
    row_sums = np.add.reduce(p, axis=2, keepdims=True)
    oh = p @ vh
    oh /= row_sums
    p /= row_sums
    dv = p.transpose(0, 2, 1) @ gh
    ds = gh @ vh.transpose(0, 2, 1)
    ds -= np.add.reduce(gh * oh, axis=2, keepdims=True)
    ds *= p
    dq = ds @ kh
    dq *= c
    return [a.transpose(1, 0, 2).reshape(len(q), -1)
            for a in (oh, dq, ds.transpose(0, 2, 1) @ qh, dv)]


class TestQueryBlocks:
    """The op walks its queries in blocks; every block count gives the
    whole-buffer result, and a single block gives it bit for bit."""

    T = 37
    ROWS = 10  # blocks of 10, 10, 10 and 7 query rows

    def run_op(self, q, k, v, heads, g):
        """Output and q, k, v gradients under a tape, plus the no-tape output."""
        inputs = [Tensor(a) for a in (q, k, v)]
        with Tape():
            out = attend(*inputs, heads)
            loss = sum_all(mul(out, Tensor(g)))
        grads = backward(loss)
        return [out.data] + [grads[t] for t in inputs], attend(q, k, v, heads).data

    # the "no-mask" in each id is the name the case had while attend took a key mask
    @pytest.mark.parametrize("heads", [1, 4], ids=lambda h: f"no-mask-{h}")
    @pytest.mark.parametrize("shift", [False, True], ids=["shift-free", "shifted"])
    def test_blocks_match_the_whole_buffer(self, monkeypatch, heads, shift):
        n, e = self.T, 16
        q, k, v, g = rand(80, n, e), rand(81, n, e), rand(82, n, e), rand(83, n, e)
        if shift:
            # head 0's logits carry a row offset of 1000 or more, past exp's float64
            # range: B passes the limit L = 300 and only the max shift keeps them finite
            q[:, 0], k[:, 0] = 400.0, 10.0
        assert decision(q, k, v, heads) is not shift
        want = whole_buffer_attention(q, k, v, heads, g)

        assert len(_query_blocks(n, n, heads, 8)) == 1
        taped, untaped = self.run_op(q, k, v, heads, g)
        for name, a, b in zip(("out", "q", "k", "v"), taped, want):
            assert np.array_equal(a, b), name
        assert np.array_equal(untaped, want[0])

        monkeypatch.setattr(attention, "_LOGITS_BLOCK_BYTES", self.ROWS * heads * n * 8)
        blocks = _query_blocks(n, n, heads, 8)
        assert blocks.step == self.ROWS and len(blocks) >= 3 and n % blocks.step
        taped, untaped = self.run_op(q, k, v, heads, g)
        for name, a, b in zip(("out", "q", "k", "v", "untaped out"), taped + [untaped],
                              want + want[:1]):
            err = np.abs(a - b).max() / np.abs(b).max()
            assert err <= 1e-12, f"{name}: relative error {err:.3g}"

    def test_no_tape_forward_holds_one_block(self):
        # the whole float32 (4, 2048, 2048) logits buffer would take 64 MiB
        n, e = 2048, 64
        rng = np.random.default_rng(84)
        q, k, v = (rng.standard_normal((n, e), dtype=np.float32) for _ in range(3))
        tracemalloc.start()
        try:
            out = attend(q, k, v, heads=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (n, e) and np.all(np.isfinite(out.data))
        assert peak < 16 << 20, f"no-tape attention peaked at {peak / 2**20:.1f} MiB"


class TestHeadSplit:
    """Inside a forward's worker block (``attention._Worker``) the op runs
    the two halves of its heads on two threads, with the bits of one thread;
    elsewhere it runs on the calling thread."""

    TK = 128
    TQ = (1 << 20) // (4 * TK)  # 4 heads, TQ queries and TK keys: 2^20 logits

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shift", [False, True], ids=["shift-free", "shifted"])
    def test_split_matches_the_whole_buffer(self, started, halves, monkeypatch, dtype, shift):
        n, heads, itemsize = self.TQ, 4, np.dtype(dtype).itemsize
        # one query block holds the whole call (in float32 it does so unpatched)
        monkeypatch.setattr(attention, "_LOGITS_BLOCK_BYTES", heads * n * self.TK * itemsize)
        q, k, v = (rand(seed, rows, 16).astype(dtype)
                   for seed, rows in ((85, n), (86, self.TK), (87, self.TK)))
        if shift:  # as in TestQueryBlocks: head 0's logits pass both dtypes' limits
            q[:, 0], k[:, 0] = 400.0, 10.0
        assert decision(q, k, v, heads) is not shift
        assert len(_query_blocks(n, self.TK, heads, itemsize)) == 1
        with attention._Worker({0, 1}):
            out = attend(q, k, v, heads).data
        assert len(started) == 1 and [n for _, n in halves] == [heads]
        assert out.dtype == dtype
        assert np.array_equal(out, whole_buffer_attention(q, k, v, heads, np.zeros_like(q))[0])

    def test_split_blocks_match_one_thread(self, started, halves):
        q, k, v = (rand(seed, rows, 16).astype(np.float32)
                   for seed, rows in ((97, 2 * self.TQ), (98, 2 * self.TK), (99, 2 * self.TK)))
        assert len(_query_blocks(len(q), len(k), 4, 4)) == 4
        with attention._Worker({0, 1}):
            split = attend(q, k, v, 4).data
        assert len(started) == 1 and [n for _, n in halves] == [4]
        assert np.array_equal(split, attend(q, k, v, 4).data)
        assert len(started) == 1 and [n for _, n in halves] == [4]

    def test_a_direct_call_starts_no_thread(self, started):
        attend(rand(88, self.TQ, 8), rand(89, self.TK, 8), rand(90, self.TK, 8), 4)
        assert started == []

    @pytest.mark.parametrize("heads, cpus, taped, splits", [
        (4, 2, False, True),
        (1, 2, False, False),  # one head has no halves
        (4, 1, False, False),  # one usable CPU
        (4, 2, True, False),   # a taped forward stays on one thread
    ], ids=["four-heads", "one-head", "one-cpu", "taped"])
    def test_splits_only_from_the_threshold(self, started, halves, monkeypatch, heads, cpus,
                                            taped, splits):
        """A forward of ``_SPLIT_ROWS`` rows splits its attention heads unless
        it has one head, one usable CPU or a tape."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        model = EncoderModel(replace(preset("tiny"), heads=heads), seed=29)
        depth, rows = model.config.depth, encoder._SPLIT_ROWS
        feats, config = Tensor(rand(30, rows, 64)), fixed_config(1, 1, 1, depth)
        if taped:
            with Tape():
                model.forward(feats, config)
        else:
            model.forward(feats, config)
        assert [n for _, n in halves].count(heads) == depth * splits
        assert len(started) == (cpus > 1 and not taped)

    def test_second_thread_leaves_the_callers_cpu(self, started, monkeypatch):
        moves = []
        monkeypatch.setattr(attention, "_sched_getcpu", lambda: 1)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: moves.append(
            (pid, set(cpus), threading.current_thread())), raising=False)
        with attention._Worker({0, 1}):
            attend(rand(94, self.TQ, 8), rand(95, self.TK, 8), rand(96, self.TK, 8), 4)
        assert moves == [(0, {0}, started[0])]

    @pytest.mark.parametrize("on_worker", [True, False], ids=["worker-raises", "caller-raises"])
    def test_a_failing_half_raises_in_the_caller(self, started, monkeypatch, on_worker):
        real_exp = np.exp

        def exp(*args, **kwargs):
            if (threading.current_thread() is threading.main_thread()) is not on_worker:
                raise FloatingPointError("exp failed")
            return real_exp(*args, **kwargs)

        monkeypatch.setattr(np, "exp", exp)
        q, k, v = rand(91, self.TQ, 8), rand(92, self.TK, 8), rand(93, self.TK, 8)
        with pytest.raises(FloatingPointError, match="exp failed"):
            with attention._Worker({0, 1}):
                attend(q, k, v, 4)
        assert len(started) == 1


def test_importing_stochpool_starts_no_thread_or_process():
    script = ("import os, threading, stochpool\n"
              "assert threading.active_count() == 1, threading.enumerate()\n"
              "try:\n"
              "    os.waitpid(-1, os.WNOHANG)\n"
              "except ChildProcessError:\n"
              "    pass\n"
              "else:\n"
              "    raise AssertionError('importing stochpool started a child process')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(attention.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


class TestPooledAttend:
    def test_factor_one_bit_identical(self):
        for seed in range(3):
            verify._check_pooled_degenerate(seed)

    def test_two_rows_fully_pooled(self):
        x = rand(25, 2, 4)
        params = params_for(26, 4, 2)
        out = multi_head_pooled(Tensor(x), params, (2, 2)).data
        # single pooled key -> its value row, projected by w_o and replicated
        want = x.mean(axis=0) @ params.w_v.data @ params.w_o.data
        assert np.abs(out - want).max() < 1e-12
        assert np.array_equal(out[0], out[1])

    def test_composition_oracle(self):
        for seed in range(3):
            verify._check_pooled_composition(seed)

    def test_query_pool_blockwise_constant(self):
        x = rand(31, 8, 4)
        out = multi_head_pooled(Tensor(x), params_for(32, 4, 2), (1, 2)).data
        for i in range(0, 8, 2):
            assert np.array_equal(out[i], out[i + 1])

    def test_factor_validation(self):
        for pair in ((1, 0), (0, 1)):  # (s_k, s_q)
            with pytest.raises(ConfigError):
                multi_head_pooled(Tensor(rand(33, 4, 4)), params_for(32, 4, 2), pair)


def project_then_pool(x, params, pair):
    """The reference order: project at full length, pool the projections,
    attend, upsample, then apply w_o at full length."""
    n = x.shape[0]
    s_k, s_q = pair
    q, k, v = (matmul(x, w) for w in (params.w_q, params.w_k, params.w_v))
    if s_q > 1:
        q = downsample(q, s_q)
    if s_k > 1:
        k, v = downsample(k, s_k), downsample(v, s_k)
    out = attend(q, k, v, params.heads)
    if s_q > 1:
        out = upsample(out, s_q, truncate_to=n)
    return matmul(out, params.w_o)


def output_and_gradients(fn, x, params, pair, target):
    """fn's output and the gradients of <fn(x), target> for x and the four weights."""
    inputs = [Tensor(x)] + [Tensor(getattr(params, w).data)
                            for w in ("w_q", "w_k", "w_v", "w_o")]
    xt, wq, wk, wv, wo = inputs
    p = AttentionParams(w_q=wq, w_k=wk, w_v=wv, w_o=wo, heads=params.heads)
    with Tape():
        out = fn(xt, p, pair)
        loss = sum_all(mul(out, Tensor(target)))
    grads = backward(loss)
    return [out.data] + [grads[t] for t in inputs]


class TestPoolOrder:
    """Pooling before projecting equals the project-then-pool reference."""

    @pytest.mark.parametrize("s_q, s_k", [(1, 1), (1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("heads", [1, 4])
    # the "no-mask" in each id is the name the case had while attention took a key mask
    @pytest.mark.parametrize("n", [7, 8], ids=lambda n: f"no-mask-{n}")
    def test_matches_project_then_pool(self, s_q, s_k, heads, n):
        e = 8
        x = rand(70 + n, n, e)
        params = params_for(71, e, heads)
        target = rand(72 + n, n, e)
        got = output_and_gradients(multi_head_pooled, x, params, (s_k, s_q), target)
        want = output_and_gradients(project_then_pool, x, params, (s_k, s_q), target)
        for name, a, b in zip(("out", "x", "w_q", "w_k", "w_v", "w_o"), got, want):
            if (s_q, s_k) == (1, 1):
                assert np.array_equal(a, b), name
            else:
                err = np.abs(a - b).max() / np.abs(b).max()
                assert err <= 1e-12, f"{name}: relative error {err:.3g}"


class TestMultiHeadPooled:
    def test_factor_one_equals_standard_multi_head(self):
        # a head width of 6 makes 1/sqrt(d) inexact, which pins where the scaling happens
        for e, heads, n in ((8, 2, 6), (24, 4, 6)):
            x = rand(34, n, e)
            params = params_for(35, e, heads)
            got = multi_head_pooled(Tensor(x), params, (1, 1)).data
            # independent composition: project, split heads, attend, concat, project
            xt = Tensor(x)
            q = matmul(xt, params.w_q)
            k = matmul(xt, params.w_k)
            v = matmul(xt, params.w_v)
            dk = e // heads
            heads_out = [attend(q.data[:, h * dk:(h + 1) * dk],
                                k.data[:, h * dk:(h + 1) * dk],
                                v.data[:, h * dk:(h + 1) * dk])
                         for h in range(heads)]
            want = matmul(np.concatenate([h.data for h in heads_out], axis=1), params.w_o).data
            assert np.array_equal(got, want)

    def test_output_shape_for_all_factor_pairs(self):
        e = 12
        params = params_for(36, e, 3)
        for n in (1, 2, 5, 7):
            x = Tensor(rand(37 + n, n, e))
            for s_q in (1, 2, 3):
                for s_k in (1, 2, 3):
                    out = multi_head_pooled(x, params, (s_k, s_q))
                    assert out.shape == (n, e)
                    assert np.all(np.isfinite(out.data))

    def test_parameter_count_independent_of_factors(self):
        params = params_for(50, 8, 2)
        count = sum(getattr(params, name).data.size for name in ("w_q", "w_k", "w_v", "w_o"))
        assert count == 4 * 8 * 8  # pooling adds nothing for any factor choice

    def test_width_mismatch_rejected(self):
        params = params_for(51, 8, 2)
        with pytest.raises(ShapeError):
            multi_head_pooled(Tensor(rand(52, 4, 6)), params, (1, 1))

    def test_heads_must_divide_width(self):
        r = Rng(53)
        w = Tensor(r.normal(64).reshape(8, 8))
        with pytest.raises(ConfigError):
            AttentionParams(w_q=w, w_k=w, w_v=w, w_o=w, heads=3)

    def test_gradients_all_factor_pairs(self):
        e, n = 8, 6
        x = rand(54, n, e)
        base = params_for(55, e, 2)
        tgt = Tensor(rand(56, n, e))
        for s_q in (1, 2):
            for s_k in (1, 2):
                def fn(xt, wq, wk, wv, wo):
                    p = AttentionParams(w_q=wq, w_k=wk, w_v=wv, w_o=wo, heads=2)
                    out = multi_head_pooled(xt, p, (s_k, s_q))
                    return sum_all(mul(out, tgt))

                check_gradients(fn, [x, base.w_q.data, base.w_k.data,
                                     base.w_v.data, base.w_o.data])

    def test_tape_records_independent_of_heads(self):
        # all heads run as one fused op, so the head count adds no tape records
        e = 8
        x = Tensor(rand(59, 7, e))
        for pair in ((1, 1), (2, 2)):
            counts = []
            for heads in (1, 4):
                with Tape() as tape:
                    multi_head_pooled(x, params_for(60, e, heads), pair)
                counts.append(len(tape._records))
            assert counts[0] == counts[1], f"records per heads (1, 4): {counts}"


def softmax_oracle(q, k, v):
    """softmax(q k^T / sqrt(d)) v, one float64 scalar at a time, each row
    shifted by its max logit."""
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    out = np.zeros((len(q), v.shape[1]))
    for i in range(len(q)):
        logits = [math.fsum(q[i] * k[j]) / math.sqrt(q.shape[1]) for j in range(len(k))]
        top = max(logits)
        weights = [math.exp(s - top) for s in logits]
        total = math.fsum(weights)
        for col in range(v.shape[1]):
            out[i, col] = math.fsum(w * v[j, col] for j, w in enumerate(weights)) / total
    return out


def decision(q, k, v, heads=1):
    """The op's shift decision, made on the same arrays as the op makes it."""
    return _shift_free(q * (1.0 / math.sqrt(q.shape[1] // heads)), k, v)


# d = 4, so 1/sqrt(d) = 1/2 and every logit below is exact in float32: each row
# has at most two nonzero entries, each a power of two times a or b
Q_ROWS = np.array([[1, 0, 0, 0], [-1, 0, 0, 0], [1 / 64, 0, 0, 0], [1 / 16, 1 / 16, 0, 0],
                   [0, 0, 0, 0]])
K_ROWS = np.array([[1, 0, 0, 0], [0.5, 0, 0, 0], [-0.25, 0.5, 0, 0], [-1, 0, 0, 0],
                   [0.125, 0, 0, 0]])
V_ROWS = np.array([[1.0, -2.0, 0.5, 3.0], [0.25, 1.5, -1.0, 2.0], [-3.0, 0.5, 2.5, -0.75],
                   [2.0, 2.0, -0.5, 1.0], [-1.5, -0.25, 1.0, 0.5]])
KEPT_KEYS = np.array([False, True, True, False, True])  # drops both +-bound logits of rows 0, 1
F32_TOLERANCE = 2e-6  # of max |v|: exp, the row sums and p @ v each round in float32


def bounded_case(dtype, bound, value_scale=1.0):
    """q, k, v whose Cauchy-Schwarz bound max |q_i / 2| max |k_j| is exactly ``bound``;
    rows 0 and 1 reach logits of +-bound."""
    b = 8.0
    q = (2.0 * bound / b) * Q_ROWS
    return (q.astype(dtype), (b * K_ROWS).astype(dtype), (value_scale * V_ROWS).astype(dtype))


def assert_matches_oracle(q, k, v):
    got = attend(Tensor(q), Tensor(k), Tensor(v)).data
    assert np.all(np.isfinite(got))
    tolerance = 1e-12 if q.dtype == np.float64 else F32_TOLERANCE
    err = np.abs(got - softmax_oracle(q, k, v)).max() / np.abs(v).max()
    assert err <= tolerance, f"{q.dtype}: error {err:.3g} of max |v|"


class TestShiftDecision:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_limit_keeps_weights_in_range(self, dtype):
        # the module docstring's bounds, for the largest weight e^(L+1) with rounding slack
        limit, v_lo, v_hi = _SHIFT_FREE[np.dtype(dtype)]
        info = np.finfo(dtype)
        with np.errstate(all="raise"):
            top = np.exp(dtype(limit + 1))
            assert np.exp(dtype(-limit - 1)) >= info.tiny
            assert top * dtype(2 ** 30) < info.max  # row sums of 2^30 keys stay finite
        assert v_lo < 1e-6 and v_hi > 1e6  # ordinary values never force the shift

    # "all-keys" ids: these cases attend over every key of bounded_case, and a
    # "masked" case over the KEPT_KEYS subset (the ids date from attend's key mask)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["all-keys-float32", "all-keys-float64"])
    def test_just_under_and_just_over_the_limit(self, dtype):
        limit = _EXP_LIMIT[np.dtype(dtype)]
        for bound, shift_free in ((limit - 0.125, True), (limit + 0.125, False)):
            q, k, v = bounded_case(dtype, bound)
            assert decision(q, k, v) is shift_free
            assert_matches_oracle(q, k, v)

    @pytest.mark.parametrize("dtype, bound", [(np.float32, 1024.0), (np.float64, 10240.0)])
    @pytest.mark.parametrize("keep", [None, KEPT_KEYS], ids=["all-keys", "masked"])
    def test_huge_logits_take_the_shift(self, dtype, bound, keep):
        q, k, v = bounded_case(dtype, bound)
        if keep is not None:
            k, v = k[keep], v[keep]
        assert decision(q, k, v) is False
        assert_matches_oracle(q, k, v)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_large_values_take_the_shift(self, dtype):
        # eight equal keys: row 0 weighs each with e^(L - 1/8), so p @ v would
        # overflow unshifted although the bound is below L and |v| <= v_hi
        limit, _, v_hi = _SHIFT_FREE[np.dtype(dtype)]
        q = bounded_case(dtype, limit - 0.125)[0]
        k = np.tile(8.0 * K_ROWS[0], (8, 1)).astype(dtype)
        ramp = np.linspace(-1.0, 1.0, 8)
        v = (0.9 * v_hi * np.column_stack([np.ones(8), ramp, -ramp, np.full(8, 0.25)])).astype(dtype)
        assert decision(q, k, v) is False
        assert_matches_oracle(q, k, v)

    @pytest.mark.parametrize("dtype, scale", [(np.float32, 1e-30), (np.float64, 1e-200)],
                             ids=["all-keys-float32-1e-30", "all-keys-float64-1e-200"])
    def test_tiny_values_take_the_shift(self, dtype, scale):
        # every logit is -(L - 1/8): unshifted, the products e^-(L - 1/8) * v would underflow
        bound = _EXP_LIMIT[np.dtype(dtype)] - 0.125
        q = np.tile(-bound / 4.0 * Q_ROWS[0], (5, 1)).astype(dtype)
        k = np.tile(8.0 * K_ROWS[0], (5, 1)).astype(dtype)
        v = (scale * V_ROWS).astype(dtype)
        assert decision(q, k, v) is False
        got = attend(Tensor(q), Tensor(k), Tensor(v)).data
        want = softmax_oracle(q, k, v)
        tolerance = 1e-12 if dtype == np.float64 else F32_TOLERANCE
        assert np.abs(got - want).max() <= tolerance * np.abs(want).max()

    def test_non_finite_inputs_take_the_shift(self):
        q, k, v = bounded_case(np.float64, 1.0)
        for bad in (np.inf, np.nan):
            k_bad = k.copy()
            k_bad[2, 3] = bad
            assert decision(q, k_bad, v) is False

    @pytest.mark.parametrize("keep", [None, np.array([True, False, True, True, False, True])],
                             ids=["all-keys", "masked"])
    def test_gradients_on_both_sides(self, keep):
        q, k, v = rand(61, 5, 4), rand(62, 6, 4), rand(63, 6, 4)
        # large orthogonal parts push the bound past the float64 limit while the
        # logits stay near 1, so finite differences remain well conditioned
        q_far, k_far = q * 0.05, k * 0.05
        q_far[:, 0] += 40.0
        k_far[:, 1] += 40.0
        if keep is not None:
            k, k_far, v = k[keep], k_far[keep], v[keep]
        for qa, ka, shift_free in ((q, k, True), (q_far, k_far, False)):
            assert decision(qa, ka, v, heads=2) is shift_free
            check_gradients(lambda qt, kt, vt: sum_all(attend(qt, kt, vt, heads=2)),
                            [qa, ka, v])
