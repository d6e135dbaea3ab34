"""Tensor engine: operator semantics, tape behavior, gradient oracles."""

import itertools

import numpy as np
import pytest

from stochpool.attention import attend
from stochpool.encoder import EncoderModel, preset
from stochpool.errors import ConfigError, ShapeError, UsageError
from stochpool.gradcheck import check_gradients
from stochpool.stochastic import Rng, fixed_config
from stochpool.tensor import (
    Tape,
    Tensor,
    add,
    backward,
    conv1d,
    count_macs,
    gelu,
    layer_norm,
    matmul,
    mul,
    no_grad,
    sum_all,
)


def rand(seed, *shape):
    return Rng(seed).fork("test").normal(int(np.prod(shape))).reshape(shape)


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(eye, x).data, x.data)

    def test_selector_row(self):
        got = matmul(Tensor([[1.0, 0.0]]), Tensor([[2.0], [5.0]]))
        assert np.array_equal(got.data, [[2.0]])

    def test_against_scalar_triple_loop(self):
        a, b = rand(1, 3, 4), rand(2, 4, 2)
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        assert np.abs(matmul(Tensor(a), Tensor(b)).data - want).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_associativity(self):
        a, b, c = rand(3, 4, 3), rand(4, 3, 5), rand(5, 5, 2)
        left = matmul(matmul(Tensor(a), Tensor(b)), Tensor(c)).data
        right = matmul(Tensor(a), matmul(Tensor(b), Tensor(c))).data
        assert np.abs(left - right).max() < 1e-10


class TestLayerNorm:
    def test_constant_row_zeroed_by_eps(self):
        y = layer_norm(Tensor([[3.0, 3.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.abs(y.data).max() < 1e-6

    def test_already_normalized(self):
        y = layer_norm(Tensor([[-1.0, 1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.abs(y.data - [[-1.0, 1.0]]).max() < 1e-4  # eps correction only

    def test_against_direct_formula(self):
        x = rand(11, 1, 8)
        y = layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        mu, var = x.mean(), ((x - x.mean()) ** 2).mean()
        want = (x - mu) / np.sqrt(var + 1e-5)
        assert np.abs(y - want).max() < 1e-12

    def test_affine_shape_check(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(4)), Tensor(np.zeros(3)))


class TestElementwiseSuite:
    def test_conv1d_counting_example(self):
        x = Tensor(np.ones((10, 1)))
        w = Tensor(np.ones((1, 1, 2)))
        out = conv1d(x, w, stride=2)
        assert out.shape == (5, 1)
        assert np.array_equal(out.data, np.full((5, 1), 2.0))

    def test_conv1d_bad_stride_and_kernel(self):
        x, w = Tensor(np.ones((8, 2))), Tensor(np.ones((2, 2, 3)))
        with pytest.raises(ConfigError):
            conv1d(x, w, stride=0)
        with pytest.raises(ConfigError):
            conv1d(x, Tensor(np.ones((2, 2, 0))))
        with pytest.raises(ConfigError, match="pad"):
            conv1d(x, w, pad=-1)

    def test_conv1d_group_validation(self):
        x = Tensor(np.ones((8, 4)))
        with pytest.raises(ConfigError):
            conv1d(x, Tensor(np.ones((3, 2, 2))), groups=2)  # c_out not divisible
        with pytest.raises(ShapeError):
            conv1d(x, Tensor(np.ones((4, 4, 2))), groups=2)  # wrong c_in per group

    def test_gelu_zero(self):
        assert gelu(Tensor([[0.0]])).data[0, 0] == 0.0

    def test_no_general_broadcasting(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 1))))
        with pytest.raises(ShapeError):
            mul(Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)))

    def test_bias_add_over_rows(self):
        x, b = rand(20, 4, 3), rand(21, 3)
        assert np.array_equal(add(Tensor(x), Tensor(b)).data, x + b)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(rand(30, 3, 4))
        with Tape():
            loss = sum_all(x)
        assert np.array_equal(backward(loss)[x], np.ones((3, 4)))

    def test_sum_of_squares_gradient(self):
        data = rand(31, 3, 4)
        x = Tensor(data)
        with Tape():
            loss = sum_all(mul(x, x))
        assert np.allclose(backward(loss)[x], 2 * data)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(rand(32, 2, 2))
        with Tape():
            y = mul(x, x)
        with pytest.raises(UsageError, match="scalar"):
            backward(y)

    def test_loss_without_tape_rejected(self):
        x = Tensor(rand(33, 2, 2))
        y = sum_all(x)  # no tape active
        with pytest.raises(UsageError):
            backward(y)

    def test_tape_consumed_after_backward(self):
        x = Tensor(rand(34, 2, 2))
        with Tape() as tape:
            loss = sum_all(x)
        tape.gradients(loss)
        with pytest.raises(UsageError):
            tape.gradients(loss)

    def test_fanout_accumulates_additively(self):
        data = rand(35, 3, 3)
        x = Tensor(data)
        with Tape():
            loss = sum_all(add(mul(x, x), mul(x, x)))
        assert np.allclose(backward(loss)[x], 4 * data)

    def test_bias_gradient_sums_rows(self):
        x, b = Tensor(rand(36, 5, 3)), Tensor(rand(37, 3))
        with Tape():
            loss = sum_all(add(x, b))
        grads = backward(loss)
        assert np.array_equal(grads[b], np.full(3, 5.0))

    def test_no_grad_suspends_recording_for_its_block(self):
        x = Tensor(rand(38, 2, 2))
        with Tape() as tape:
            with no_grad():
                hidden = mul(x, x)
            seen = mul(x, x)
        assert hidden.tape is None and seen.tape is tape

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(UsageError):
                with Tape():
                    pass


class TestGradientOracles:
    """Central finite differences against every differentiable op."""

    def test_all_ops_pass_fd(self):
        rng = Rng(99)
        tgt = Tensor(rand(98, 4, 4))
        cases = [
            (lambda a, b: sum_all(matmul(a, b)), [rand(50, 4, 3), rand(51, 3, 4)]),
            (lambda a, b: sum_all(mul(add(a, b), add(a, b))), [rand(52, 4, 4), rand(53, 4, 4)]),
            (lambda a, b: sum_all(mul(add(a, b), add(a, b))), [rand(54, 4, 4), rand(55, 4)]),
            (lambda a: sum_all(gelu(a)), [rand(59, 5, 5)]),
            (lambda a, g, b: sum_all(mul(layer_norm(a, g, b), tgt)),
             [rand(64, 4, 4), 1.0 + 0.2 * rand(65, 4), 0.2 * rand(66, 4)]),
            (lambda a, w: sum_all(mul(conv1d(a, w, stride=2), conv1d(a, w, stride=2))),
             [rand(67, 8, 3), rand(68, 4, 3, 3)]),
            (lambda a, w: sum_all(conv1d(a, w, stride=1, groups=2)),
             [rand(69, 6, 4), rand(70, 4, 2, 2)]),
        ]
        del rng
        for fn, arrays in cases:
            check_gradients(fn, arrays)  # raises above 1e-4

    def test_probing_every_coordinate_equals_the_full_sweep(self):
        tgt = Tensor(rand(97, 4, 4))

        def fn(a, g, b):
            return sum_all(mul(layer_norm(gelu(a), g, b), tgt))

        arrays = [rand(71, 4, 4), 1.0 + 0.2 * rand(72, 4), 0.2 * rand(73, 4)]
        full = check_gradients(fn, arrays)
        assert full > 0.0
        for seed in (0, 1):
            assert check_gradients(fn, arrays, coords_per_array=16, seed=seed) == full
            assert check_gradients(fn, arrays, coords_per_array=40, seed=seed) == full
        assert check_gradients(fn, arrays, coords_per_array=3, seed=2) <= full

    def test_tape_determinism_bit_identical(self):
        def run():
            a, b = Tensor(rand(80, 5, 5)), Tensor(rand(81, 5, 5))
            with Tape():
                loss = sum_all(mul(attend(a, b, matmul(a, b)), matmul(a, b)))
            g = backward(loss)
            return g[a].copy(), g[b].copy()

        first, second = run(), run()
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])


class TestDtypeAndInvariants:
    def test_float32_preserved_through_ops(self):
        x = Tensor(rand(90, 4, 4), dtype=np.float32)
        y = attend(x, x, matmul(x, x))
        assert y.dtype == np.float32
        z = gelu(mul(y, np.full(y.shape, 2.0, dtype=np.float32)))
        assert z.dtype == np.float32

    def test_finite_outputs_from_finite_inputs(self):
        x = Tensor(rand(91, 6, 6) * 50)
        for out in (attend(x, x, x), gelu(x)):
            assert np.all(np.isfinite(out.data))

    def test_shape_matches_data_size(self):
        x = Tensor(rand(92, 3, 7))
        assert int(np.prod(x.shape)) == x.data.size


class TestMacCounter:
    def test_matmul_and_conv_counted(self):
        with count_macs() as counter:
            matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 5))))
            conv1d(Tensor(np.zeros((10, 2))), Tensor(np.zeros((6, 1, 3))), stride=2, groups=2)
        conv_out = (10 - 3) // 2 + 1
        assert counter.total == 3 * 4 * 5 + conv_out * 6 * 1 * 3

    def test_elementwise_not_counted(self):
        with count_macs() as counter:
            x = Tensor(np.ones((8, 8)))
            gelu(layer_norm(mul(x, x), Tensor(np.ones(8)), Tensor(np.zeros(8))))
        assert counter.total == 0


def conv1d_loop(x, w, stride, groups):
    """Naive oracle: each output frame and channel as its own window sum."""
    c_out, c_in_g, k = w.shape
    l_out = (x.shape[0] - k) // stride + 1
    co_g = c_out // groups
    out = np.zeros((l_out, c_out), dtype=np.float64)
    for t in range(l_out):
        window = x[t * stride:t * stride + k].astype(np.float64)  # (k, C_in)
        for o in range(c_out):
            g = o // co_g
            out[t, o] = np.sum(window[:, g * c_in_g:(g + 1) * c_in_g].T * w[o])
    return out


# (L, C_in, C_out, k, stride, groups): the compact feature extractor's layers
# at 4 base channels (the first with C_in = 1), the positional conv (groups 4,
# k 15), and lengths where (L - k) % stride != 0
CONV_SHAPES = [
    (203, 1, 4, 10, 5, 1),
    (40, 4, 4, 3, 2, 1),
    (19, 4, 8, 3, 2, 1),
    (12, 8, 8, 3, 2, 1),
    (9, 8, 16, 3, 2, 1),
    (8, 16, 16, 2, 2, 1),
    (5, 16, 32, 2, 2, 1),
    (30, 16, 16, 15, 1, 4),
    (31, 6, 9, 4, 3, 3),
    (17, 4, 6, 4, 4, 2),
]


def gelu_formula(x):
    """GELU written out with temporaries, the oracle for the in-place forward."""
    inner = 0.7978845608028654 * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    y = 0.5 * x * (1.0 + t)

    def grad(g):
        return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * 0.7978845608028654
                    * (1.0 + 3.0 * 0.044715 * x * x))

    return y, grad


def gelu_backward_written(x, g):
    """The GELU backward written out, with 1 - t^2 as (2 - s) s for s = 1 + t:
    the in-place backward must round exactly like this expression."""
    s = 1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * (x * x * x)))
    return 0.5 * g * (s + x * 0.7978845608028654 * (1.0 + 3.0 * 0.044715 * x * x)
                      * (2.0 - s) * s)


def layer_norm_formula(x, gamma, beta, eps=1e-5):
    """Layer norm written out with temporaries, the oracle for the in-place forward."""
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x - mu) * inv

    def grad(g):
        dy = g * gamma
        dx = inv * (dy - dy.mean(axis=1, keepdims=True)
                    - y * (dy * y).mean(axis=1, keepdims=True))
        return dx, (g * y).sum(axis=0), g.sum(axis=0)

    return y * gamma + beta, grad


def tape_grads(fn, arrays, upstream):
    tensors = [Tensor(a) for a in arrays]
    with Tape():
        loss = sum_all(mul(fn(*tensors), Tensor(upstream)))
    grads = backward(loss)
    return [grads[t] for t in tensors]


class TestConv1dOracle:
    @pytest.mark.parametrize("shape", CONV_SHAPES + [(1000, 64, 64, 15, 1, 4)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv1d_equals_strided_view_gemms(self, shape, dtype):
        """Packing the windows before each GEMM rounds like handing numpy the
        overlapping strided view, in the forward and in dw."""
        length, c_in, c_out, k, stride, groups = shape
        x = rand(500 + length, length, c_in).astype(dtype)
        w = (rand(600 + k, c_out, c_in // groups, k) / np.sqrt(k * c_in // groups)).astype(dtype)
        l_out = (length - k) // stride + 1
        up = rand(700 + k, l_out, c_out).astype(dtype)
        c_in_g, co_g = c_in // groups, c_out // groups
        xg = np.ascontiguousarray(x.reshape(length, groups, c_in_g).transpose(1, 0, 2))
        rows = np.lib.stride_tricks.as_strided(
            xg, (groups, l_out, k * c_in_g),
            (xg.strides[0], stride * c_in_g * xg.itemsize, xg.itemsize), writeable=False)
        want = np.empty((l_out, c_out), dtype=dtype)
        want_dw = np.empty_like(w)
        for gi in range(groups):
            cols = slice(gi * co_g, (gi + 1) * co_g)
            taps = w[cols].transpose(2, 1, 0).reshape(k * c_in_g, co_g)
            np.matmul(rows[gi], taps, out=want[:, cols])
            want_dw[cols] = (rows[gi].T @ up[:, cols]).reshape(k, c_in_g, co_g).transpose(2, 1, 0)
        xt, wt = Tensor(x), Tensor(w)
        with Tape():
            out = conv1d(xt, wt, stride=stride, groups=groups)
            loss = sum_all(mul(out, Tensor(up)))
        assert np.array_equal(out.data, want)
        assert np.array_equal(backward(loss)[wt], want_dw)

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_against_frame_loop(self, shape, dtype):
        length, c_in, c_out, k, stride, groups = shape
        x = rand(100 + length, length, c_in)
        w = rand(200 + k, c_out, c_in // groups, k) / np.sqrt(k * c_in // groups)
        got = conv1d(Tensor(x, dtype=dtype), Tensor(w, dtype=dtype), stride=stride,
                     groups=groups)
        want = conv1d_loop(x.astype(dtype), w.astype(dtype), stride, groups)
        assert got.dtype == dtype
        assert got.shape == want.shape == ((length - k) // stride + 1, c_out)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        assert np.abs(got.data - want).max() < tol

    @pytest.mark.parametrize("groups", [1, 4])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pad_equals_explicit_zero_rows(self, groups, stride, dtype):
        """pad=p is bit for bit the conv over p zero rows on each side: the
        output, dw, and dx as the real rows of the padded input's gradient."""
        length, pad, k = 20, 3, 7
        x = rand(800 + groups, length, 8).astype(dtype)
        w = rand(810 + stride, 8, 8 // groups, k).astype(dtype)
        zeros = np.zeros((pad, 8), dtype=dtype)
        padded = np.concatenate([zeros, x, zeros])
        got = conv1d(x, w, stride, groups, pad=pad)
        want = conv1d(padded, w, stride, groups)
        assert got.dtype == dtype and np.array_equal(got.data, want.data)
        up = rand(820, *want.shape).astype(dtype)
        dx, dw = tape_grads(lambda a, b: conv1d(a, b, stride, groups, pad=pad), [x, w], up)
        d_padded, want_dw = tape_grads(lambda a, b: conv1d(a, b, stride, groups), [padded, w], up)
        assert np.array_equal(dw, want_dw)
        assert np.array_equal(dx, d_padded[pad:pad + length])

    @pytest.mark.parametrize("stride,groups", [(2, 1), (3, 3), (2, 2), (1, 4)])
    def test_dx_and_dw_pass_fd(self, stride, groups):
        x = rand(300 + stride, 14, 12)
        w = rand(310 + groups, 12, 12 // groups, 3)
        target = rand(320, (14 - 3) // stride + 1, 12)
        check_gradients(lambda a, b: sum_all(mul(conv1d(a, b, stride=stride, groups=groups),
                                                 Tensor(target))), [x, w])


class TestInPlaceElementwise:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_forward_bit_identical_to_formula(self, dtype):
        x = (rand(400, 64, 48) * 3).astype(dtype)
        want, _ = gelu_formula(x)
        assert np.array_equal(gelu(Tensor(x)).data, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_forward_bit_identical_to_formula(self, dtype):
        x = (rand(401, 64, 48) * 2 + 1).astype(dtype)
        gamma = (1.0 + 0.3 * rand(402, 48)).astype(dtype)
        beta = (0.3 * rand(403, 48)).astype(dtype)
        want, _ = layer_norm_formula(x, gamma, beta)
        got = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        assert got.dtype == dtype
        assert np.array_equal(got, want)

    def test_gelu_backward_matches_formula(self):
        x, g = rand(404, 20, 16) * 3, rand(405, 20, 16)
        _, grad = gelu_formula(x)
        (got,) = tape_grads(gelu, [x], g)
        assert np.abs(got - grad(g)).max() < 1e-12
        for dtype in (np.float32, np.float64):
            xd, gd = x.astype(dtype), g.astype(dtype)
            (got,) = tape_grads(gelu, [xd], gd)
            assert got.dtype == dtype
            assert np.array_equal(got, gelu_backward_written(xd, gd))

    def test_layer_norm_backward_matches_formula(self):
        x, g = rand(406, 20, 16) * 2 + 1, rand(407, 20, 16)
        gamma, beta = 1.0 + 0.3 * rand(408, 16), 0.3 * rand(409, 16)
        for dtype in (np.float32, np.float64):
            arrays = [a.astype(dtype) for a in (x, gamma, beta)]
            _, grad = layer_norm_formula(*arrays)
            got = tape_grads(layer_norm, arrays, g.astype(dtype))
            for a, b in zip(got, grad(g.astype(dtype))):
                assert a.dtype == dtype
                assert np.array_equal(a, b)

    def test_inputs_not_written(self):
        x = rand(410, 6, 5)
        before = x.copy()
        gelu(Tensor(x))
        layer_norm(Tensor(x), Tensor(np.ones(5)), Tensor(np.zeros(5)))
        conv1d(Tensor(x), Tensor(rand(411, 4, 5, 2)))
        assert np.array_equal(x, before)


class TestConstants:
    """Arrays handed to ops are constants: never recorded on their own,
    never given a gradient, and skipped by the products that would feed one."""

    # "dense": every frame is real, the name the case had while forward took a validity mask
    @pytest.mark.parametrize("factors", list(itertools.product((1, 2), repeat=3)),
                             ids=lambda f: "-".join(map(str, f)) + "-dense")
    def test_forward_from_array_matches_forward_from_tensor(self, factors):
        model = EncoderModel(preset("tiny"), seed=5)
        config = fixed_config(*factors, model.config.depth)
        feats = rand(800, 21, model.config.model_dim)
        up = rand(801, 21, model.config.model_dim)

        def param_grads(features):
            with Tape():
                loss = sum_all(mul(model.forward(features, config), up))
            return backward(loss)

        leaf = Tensor(feats)
        from_tensor, from_array = param_grads(leaf), param_grads(feats)
        params = {p.grad_id for p in model.params.values()}
        assert set(from_tensor._by_id) - params == {leaf.grad_id}
        assert set(from_array._by_id) <= params
        for name, p in model.params.items():
            assert (p in from_array) == (p in from_tensor), name
            if p in from_tensor:
                assert np.array_equal(from_array[p], from_tensor[p]), name

    def test_op_on_constants_is_not_recorded(self):
        x = Tensor(rand(810, 3, 4))
        with Tape() as tape:
            const = gelu(matmul(rand(811, 3, 3), rand(812, 3, 4)))
            assert const.grad_id is None and const.tape is None
            assert tape._records == []
            mixed = add(x, const)
            assert mixed.tape is tape and len(tape._records) == 1
            loss = sum_all(mixed)
        assert np.array_equal(backward(loss)[x], np.ones((3, 4)))

    def test_backward_from_constants_only_rejected(self):
        with Tape():
            loss = sum_all(mul(rand(813, 2, 2), rand(814, 2, 2)))
        assert loss.grad_id is None
        with pytest.raises(UsageError):
            backward(loss)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matmul_constant_operand(self, dtype):
        a, b = rand(820, 5, 3).astype(dtype), rand(821, 3, 4).astype(dtype)
        up = rand(822, 5, 4).astype(dtype)
        da, db = tape_grads(matmul, [a, b], up)
        (only_a,) = tape_grads(lambda t: matmul(t, b), [a], up)
        (only_b,) = tape_grads(lambda t: matmul(a, t), [b], up)
        assert np.array_equal(only_a, da) and np.array_equal(only_b, db)

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv1d_constant_operand(self, shape, dtype):
        length, c_in, c_out, k, stride, groups = shape
        x = rand(830 + length, length, c_in).astype(dtype)
        w = (rand(840 + k, c_out, c_in // groups, k) / np.sqrt(k * c_in // groups)).astype(dtype)
        up = rand(850 + k, (length - k) // stride + 1, c_out).astype(dtype)

        def conv(a, b):
            return conv1d(a, b, stride=stride, groups=groups)

        dx, dw = tape_grads(conv, [x, w], up)
        (only_w,) = tape_grads(lambda t: conv(x, t), [w], up)
        (only_x,) = tape_grads(lambda t: conv(t, w), [x], up)
        assert np.array_equal(only_w, dw) and np.array_equal(only_x, dx)
