"""Mean-pool downsampling / replicate upsampling operator laws."""

import numpy as np
import pytest

from stochpool.errors import ConfigError, ShapeError
from stochpool.gradcheck import check_gradients
from stochpool.pooling import downsample, output_length, upsample
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


class TestFactorOne:
    def test_returns_its_input_and_records_nothing(self):
        t = Tensor(rand(2, 6, 3))
        with Tape() as tape:
            assert downsample(t, 1) is t
            assert upsample(t, 1) is t
            assert upsample(t, 1, truncate_to=6) is t
        assert tape._records == []


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
