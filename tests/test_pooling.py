"""Mean-pool downsampling / replicate upsampling operator laws."""

import numpy as np
import pytest

from stochpool.errors import ConfigError, ShapeError
from stochpool.gradcheck import check_gradients
from stochpool.pooling import downsample, output_length, pool_mask, upsample
from stochpool.stochastic import Rng
from stochpool.tensor import Tape, Tensor, backward, mul, sum_all


def rand(seed, rows, cols):
    return Rng(seed).fork("pool").normal(rows * cols).reshape(rows, cols)


class TestDownsample:
    def test_pair_means(self):
        got = downsample(Tensor([[1.0], [2.0], [3.0], [4.0]]), 2).data
        assert np.array_equal(got, [[1.5], [3.5]])

    def test_factor_one_identity(self):
        x = rand(0, 7, 3)
        assert np.array_equal(downsample(Tensor(x), 1).data, x)

    def test_partial_tail_mean(self):
        got = downsample(Tensor([[1.0], [2.0], [3.0], [4.0], [5.0]]), 2).data
        assert np.array_equal(got, [[1.5], [3.5], [5.0]])

    def test_invalid_factor(self):
        with pytest.raises(ConfigError):
            downsample(Tensor([[1.0]]), 0)


class TestUpsample:
    def test_replication(self):
        got = upsample(Tensor([[1.0], [2.0]]), 2).data
        assert np.array_equal(got, [[1.0], [1.0], [2.0], [2.0]])

    def test_factor_one_identity(self):
        x = rand(1, 5, 2)
        assert np.array_equal(upsample(Tensor(x), 1).data, x)

    def test_truncation(self):
        got = upsample(Tensor([[1.0], [2.0]]), 2, truncate_to=3).data
        assert np.array_equal(got, [[1.0], [1.0], [2.0]])

    def test_truncate_beyond_full_length_rejected(self):
        with pytest.raises(ShapeError):
            upsample(Tensor([[1.0], [2.0]]), 2, truncate_to=5)


class TestOperatorLaws:
    def test_length_law(self):
        for n in range(1, 65):
            x = rand(n, n, 2)
            for s in range(1, 5):
                assert downsample(Tensor(x), s).shape[0] == -(-n // s)
                assert output_length(n, s) == -(-n // s)

    def test_round_trip_exact(self):
        for n in range(1, 65):
            for s in range(1, 5):
                rows = -(-n // s)
                y = rand(1000 + 16 * n + s, rows, 3)
                back = downsample(upsample(Tensor(y), s), s).data
                assert np.array_equal(back, y), f"round trip broken at N={n}, s={s}"

    def test_mean_preservation_when_factor_divides(self):
        x = rand(5, 24, 4)
        for s in (2, 3, 4):
            pooled = downsample(Tensor(x), s).data
            assert abs(pooled.mean() - x.mean()) < 1e-12

    def test_linearity(self):
        x, y = rand(6, 13, 3), rand(7, 13, 3)
        for op, s in [(downsample, 2), (downsample, 3), (downsample, 4)]:
            mixed = op(Tensor(1.75 * x - 0.5 * y), s).data
            split = 1.75 * op(Tensor(x), s).data - 0.5 * op(Tensor(y), s).data
            assert np.abs(mixed - split).max() < 1e-12
        xu, yu = x[:5], y[:5]
        for s in (2, 3):
            mixed = upsample(Tensor(1.75 * xu - 0.5 * yu), s).data
            split = 1.75 * upsample(Tensor(xu), s).data - 0.5 * upsample(Tensor(yu), s).data
            assert np.abs(mixed - split).max() < 1e-12


class TestAdjoints:
    def test_downsample_backward_spreads_over_blocks(self):
        x = Tensor(rand(8, 4, 1))
        with Tape():
            loss = sum_all(downsample(x, 2))
        grads = backward(loss)
        assert np.array_equal(grads[x], np.full((4, 1), 0.5))

    def test_upsample_backward_sums_pairs(self):
        x = Tensor(rand(9, 2, 1))
        with Tape():
            loss = sum_all(upsample(x, 2))
        grads = backward(loss)
        assert np.array_equal(grads[x], np.full((2, 1), 2.0))

    def test_adjoints_pass_finite_differences(self):
        tgt_d = Tensor(rand(10, 3, 2))
        tgt_u = Tensor(rand(11, 7, 2))
        check_gradients(lambda a: sum_all(mul(downsample(a, 3), tgt_d)),
                        [rand(12, 8, 2)], tolerance=1e-6)
        check_gradients(lambda a: sum_all(mul(upsample(a, 3, truncate_to=7), tgt_u)),
                        [rand(13, 3, 2)], tolerance=1e-6)

    def test_truncated_upsample_drops_tail_gradient(self):
        x = Tensor(rand(14, 3, 1))
        with Tape():
            loss = sum_all(upsample(x, 2, truncate_to=3))
        grads = backward(loss)
        assert np.array_equal(grads[x], [[2.0], [1.0], [0.0]])


def loop_masked_mean(x, factor, valid):
    """Each block's mean over its valid rows (zeros when it has none), one
    block at a time, and the gradient of the sum of its outputs."""
    out = np.zeros((-(-len(x) // factor), x.shape[1]))
    grad = np.zeros_like(x)
    for b, start in enumerate(range(0, len(x), factor)):
        rows = [r for r in range(start, min(start + factor, len(x))) if valid[r]]
        for r in rows:
            out[b] += x[r] / len(rows)
            grad[r] = 1.0 / len(rows)
    return out, grad


class TestMaskedDownsample:
    def test_any_valid_rule_and_partial_mean(self):
        x = Tensor(np.array([[2.0], [4.0], [6.0], [8.0], [10.0]]))
        valid = np.array([True, False, False, False, True])
        pooled = downsample(x, 2, valid)
        assert np.array_equal(pool_mask(valid, 2), [True, False, True])
        assert pooled.data[0, 0] == 2.0  # mean over valid rows only
        assert pooled.data[1, 0] == 0.0  # fully masked block placeholder
        assert pooled.data[2, 0] == 10.0

    def test_matches_plain_downsample_when_all_valid(self):
        x = rand(15, 9, 3)
        plain = downsample(Tensor(x), 2).data
        valid = np.ones(9, dtype=bool)
        assert np.array_equal(downsample(Tensor(x), 2, valid).data, plain)
        assert pool_mask(valid, 2).all()

    def test_gradient_skips_invalid_rows(self):
        valid = np.array([True, False, True, True])
        x = Tensor(rand(16, 4, 2))
        with Tape():
            loss = sum_all(downsample(x, 2, valid))
        grads = backward(loss)
        assert np.array_equal(grads[x][1], [0.0, 0.0])
        assert np.array_equal(grads[x][0], [1.0, 1.0])  # alone in its block
        assert np.array_equal(grads[x][2], [0.5, 0.5])

    def test_mask_shape_validated(self):
        with pytest.raises(ShapeError):
            downsample(Tensor(rand(17, 4, 2)), 2, np.ones(3, dtype=bool))

    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_matches_a_loop_over_the_valid_rows(self, factor):
        # every pattern of 11 rows whose validity changes at most every
        # other row: empty, partial and full blocks, and a partial tail
        for pattern in range(64):
            valid = np.repeat([bool(pattern >> i & 1) for i in range(6)], 2)[:11]
            x = Tensor(rand(100 + pattern, 11, 3))
            with Tape():
                pooled = downsample(x, factor, valid)
                loss = sum_all(pooled)
            grad = backward(loss)[x]
            want, want_grad = loop_masked_mean(x.data, factor, valid)
            assert np.abs(pooled.data - want).max() <= 1e-12, pattern
            assert np.abs(grad - want_grad).max() <= 1e-12, pattern
