"""Counter-based RNG and compression-configuration sampling."""

import numpy as np
import pytest

from stochpool.errors import ConfigError
from stochpool.stochastic import (
    CompressionConfig,
    FactorSets,
    Rng,
    fixed_config,
    parse_triplet,
    sample_config,
)

CHI2_CRIT = {1: 10.828, 2: 13.816, 3: 16.266}  # significance 0.001


class TestRng:
    def test_same_seed_same_stream(self):
        a = [Rng(7).u64() for _ in range(1)]
        r1, r2 = Rng(123), Rng(123)
        assert [r1.u64() for _ in range(50)] == [r2.u64() for _ in range(50)]
        del a

    def test_scalar_and_vector_paths_agree(self):
        r1, r2 = Rng(9), Rng(9)
        assert [r1.u64() for _ in range(33)] == [int(v) for v in r2.u64_array(33)]

    def test_fork_does_not_consume_parent_draws(self):
        r1, r2 = Rng(5), Rng(5)
        r1.fork("a")
        r1.fork("b").u64()
        assert r1.u64() == r2.u64()

    def test_forks_are_label_deterministic_and_distinct(self):
        assert Rng(5).fork("x").u64() == Rng(5).fork("x").u64()
        assert Rng(5).fork("x").u64() != Rng(5).fork("y").u64()

    def test_uniform_range(self):
        vals = Rng(11).uniform(10_000)
        assert vals.min() >= 0.0 and vals.max() < 1.0
        assert abs(vals.mean() - 0.5) < 0.02

    def test_normal_moments(self):
        vals = Rng(13).normal(50_000)
        assert abs(vals.mean()) < 0.02
        assert abs(vals.std() - 1.0) < 0.02

    def test_integer_bounds(self):
        r = Rng(17)
        draws = {r.integer(5) for _ in range(500)}
        assert draws == {0, 1, 2, 3, 4}

    def test_empty_choice_rejected(self):
        with pytest.raises(ConfigError):
            Rng(0).choice(())


class TestFactorSets:
    def test_empty_set_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            FactorSets((), (1,), (1,))

    def test_nonpositive_members_rejected(self):
        with pytest.raises(ConfigError):
            FactorSets((1,), (0,), (1,))


class TestSampleConfig:
    def test_singleton_sets_always_identity(self):
        sets = FactorSets((1,), (1,), (1,))
        rng = Rng(0).fork("cfg")
        for _ in range(20):
            config = sample_config(sets, 3, rng)
            assert config.s_f == 1
            assert config.per_layer == ((1, 1), (1, 1), (1, 1))

    def test_squeeze_frequency_binomial_bound(self):
        sets = FactorSets((1, 2), (1,), (1,))
        rng = Rng(42).fork("freq")
        draws = 10_000
        twos = sum(sample_config(sets, 1, rng).s_f == 2 for _ in range(draws))
        assert 0.485 <= twos / draws <= 0.515

    def test_seed_42_reproducible(self):
        sets = FactorSets((1, 2), (1, 2), (1, 2))
        a = sample_config(sets, 4, Rng(42).fork("cfg"))
        b = sample_config(sets, 4, Rng(42).fork("cfg"))
        assert a == b

    def test_chi_square_uniformity(self):
        for values in ((1, 2), (1, 2, 3), (1, 2, 3, 4)):
            rng = Rng(1000 + len(values)).fork("chi")
            draws = 100_000
            counts = dict.fromkeys(values, 0)
            for _ in range(draws):
                counts[rng.choice(values)] += 1
            expected = draws / len(values)
            chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
            assert chi2 < CHI2_CRIT[len(values) - 1], f"set {values}: chi2={chi2:.2f}"

    def test_per_layer_independence(self):
        sets = FactorSets((1,), (1, 2), (1, 2))
        rng = Rng(77).fork("indep")
        n = 100_000
        layer0 = np.empty(n)
        layer1 = np.empty(n)
        for i in range(n):
            config = sample_config(sets, 2, rng)
            layer0[i] = config.per_layer[0][0]
            layer1[i] = config.per_layer[1][0]
        corr = np.corrcoef(layer0, layer1)[0, 1]
        assert abs(corr) < 0.02

    def test_stream_separation(self):
        # configs for a given step never depend on other components' draws
        def configs_with_noise(extra_draws):
            root = Rng(3)
            other = root.fork("data")
            for _ in range(extra_draws):
                other.u64()
            return [sample_config(FactorSets((1, 2), (1, 2), (1, 2)), 2,
                                  root.fork("configs").fork(f"step{i}")).describe()
                    for i in range(10)]

        assert configs_with_noise(0) == configs_with_noise(500)

    def test_depth_validation(self):
        with pytest.raises(ConfigError):
            sample_config(FactorSets((1,), (1,), (1,)), 0, Rng(0))


class TestFixedConfig:
    def test_identity_configuration(self):
        config = fixed_config(1, 1, 1, 3)
        assert config.s_f == 1 and config.per_layer == ((1, 1),) * 3

    def test_squeeze_only_equivalent(self):
        config = fixed_config(2, 1, 1, 3)
        assert config.s_f == 2 and config.per_layer == ((1, 1),) * 3

    def test_depth_two_replication(self):
        assert fixed_config(2, 2, 2, 2).per_layer == ((2, 2), (2, 2))

    def test_invalid_factors(self):
        with pytest.raises(ConfigError):
            fixed_config(0, 1, 1, 2)
        with pytest.raises(ConfigError):
            CompressionConfig(1, ((1, 0),))


class TestRendering:
    def test_uniform_triplet_string(self):
        assert fixed_config(2, 2, 1, 3).describe() == "2-2-1"

    def test_heterogeneous_string(self):
        config = CompressionConfig(2, ((2, 1), (1, 2)))
        assert config.describe() == "2-(2,1)-(1,2)"

    def test_parse_triplet(self):
        assert parse_triplet("2-2-1") == (2, 2, 1)

    def test_parse_triplet_errors_name_position(self):
        with pytest.raises(ConfigError, match="component 2"):
            parse_triplet("2-x-1")
        with pytest.raises(ConfigError, match="S_f-S_k-S_q"):
            parse_triplet("2-1")
