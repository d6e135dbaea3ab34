"""Encoder pipeline: feature extractor, squeeze network, checkpoints."""

import hashlib
import threading

import numpy as np
import pytest

from stochpool import encoder as encoder_module
from stochpool.attention import AttentionParams, _blas_pinned_to_one_thread, multi_head_pooled
from stochpool.encoder import (
    EncoderConfig,
    EncoderModel,
    FeatureExtractorConfig,
    _parameter_total,
    load_checkpoint,
    parameter_spec,
    preset,
    save_checkpoint,
)
from stochpool.data import SAMPLE_RATE, synth_audio
from stochpool.errors import ConfigError, InputError, ShapeError
from stochpool.gradcheck import check_gradients
from stochpool.stochastic import STANDARD_CONFIGS, Rng, fixed_config, parse_triplet
from stochpool.tensor import (Tape, Tensor, add, as_tensor, backward, conv1d, count_macs, gelu,
                              layer_norm, mac_scope, matmul, mul, sum_all)
from stochpool.training import make_head


def rand(seed, *shape):
    return Rng(seed).fork("enc").normal(int(np.prod(shape))).reshape(shape)


class TestFeatureExtractorConfig:
    def test_compact_stack_shape(self):
        fe = FeatureExtractorConfig(64)
        assert [c for _, _, c in fe.layers] == [64, 64, 128, 128, 256, 256, 512]
        assert fe.receptive_field == 400

    def test_pattern_strides_reach_50_hz(self):
        assert np.prod([s for _, s, _ in encoder_module._COMPACT_PATTERN]) == 320

    def test_pattern_doubles_channels_exactly_at_each_4x_point(self):
        pattern = encoder_module._COMPACT_PATTERN
        cum = ref = pattern[0][1]
        for (_, s, m), (_, _, prev) in zip(pattern[1:], pattern):
            cum *= s
            if cum >= 4 * ref:
                assert m == 2 * prev, f"no doubling at cumulative stride {cum}"
                ref = cum
            else:
                assert m == prev, f"width changes between 4x points, at stride {cum}"

    def test_base_channels_below_one_rejected(self):
        with pytest.raises(ConfigError, match="base_channels"):
            EncoderConfig(model_dim=16, depth=1, heads=2, base_channels=0)

    @pytest.mark.parametrize("field,value,message", [
        ("pos_conv_groups", 0, "pos_conv_groups must be >= 1"),
        ("depth", 1.5, "depth must be an integer"),
        ("heads", True, "heads must be an integer"),
        ("model_dim", "16", "model_dim must be an integer"),
        ("ffn_dim", -1, "ffn_dim must be >= 0"),
    ])
    def test_fields_must_be_ints_in_range(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            EncoderConfig(**{"model_dim": 16, "depth": 1, "heads": 2, field: value})

    def test_frames_samples_inverse(self):
        model = EncoderModel(preset("tiny"), seed=0)
        for frames in (1, 2, 7, 49, 100):
            samples = model.fe.samples_for_frames(frames)
            assert model.extract_features(np.zeros(samples)).shape[0] == frames
            if frames > 1:  # the shortest such audio
                assert model.extract_features(np.zeros(samples - 1)).shape[0] == frames - 1


class TestExtractFeatures:
    def test_one_second_frame_count_frozen(self):
        model = EncoderModel(preset("tiny"), seed=0)
        feats = model.extract_features(rand(0, 16000).ravel())
        assert feats.shape == (49, 64)  # 50 Hz rate, valid-conv trimming

    def test_zero_audio_finite(self):
        model = EncoderModel(preset("tiny"), seed=0)
        feats = model.extract_features(np.zeros(16000))
        assert np.all(np.isfinite(feats.data))

    def test_doubling_audio_roughly_doubles_frames(self):
        model = EncoderModel(preset("tiny"), seed=0)
        one = model.extract_features(rand(1, 16000).ravel()).shape[0]
        two = model.extract_features(rand(2, 32000).ravel()).shape[0]
        assert abs(two - 2 * one) <= 1

    def test_too_short_audio_rejected(self):
        model = EncoderModel(preset("tiny"), seed=0)
        with pytest.raises(InputError, match="receptive field"):
            model.extract_features(np.zeros(399))


def plain_post_ln_encoder(model, feats):
    """Independently composed plain transformer: the (1,1,1) oracle."""
    p = model.params
    cfg = model.config
    pad = (cfg.pos_conv_kernel - 1) // 2
    zeros = np.zeros((pad, cfg.model_dim))
    x = Tensor(feats)
    pos = conv1d(np.concatenate([zeros, feats, zeros]), p["pos_conv.weight"],
                 stride=1, groups=cfg.pos_conv_groups)
    x = add(x, gelu(pos))
    x = layer_norm(x, p["input_norm.gamma"], p["input_norm.beta"])
    for i in range(cfg.depth):
        w = {k: p[f"layer{i}.attn.{k}"] for k in ("w_q", "w_k", "w_v", "w_o")}
        attn = multi_head_pooled(x, AttentionParams(heads=cfg.heads, **w), (1, 1))
        x = layer_norm(add(x, attn), p[f"layer{i}.norm1.gamma"], p[f"layer{i}.norm1.beta"])
        h = gelu(add(matmul(x, p[f"layer{i}.ffn.w1"]), p[f"layer{i}.ffn.b1"]))
        h = add(matmul(h, p[f"layer{i}.ffn.w2"]), p[f"layer{i}.ffn.b2"])
        x = layer_norm(add(x, h), p[f"layer{i}.norm2.gamma"], p[f"layer{i}.norm2.beta"])
    return x.data


class TestForward:
    def test_plain_encoder_regression_at_identity_config(self):
        model = EncoderModel(preset("tiny"), seed=3)
        feats = rand(4, 20, 64)
        got = model.forward(feats, fixed_config(1, 1, 1, model.config.depth)).data
        want = plain_post_ln_encoder(model, feats)
        assert np.abs(got - want).max() < 1e-12

    def test_squeeze_halves_internal_length(self):
        model = EncoderModel(preset("tiny"), seed=5)
        feats = rand(6, 50, 64)
        with count_macs() as counter:
            out = model.forward(feats, fixed_config(2, 1, 1, model.config.depth))
        assert out.shape == (50, 64)
        e = model.config.model_dim
        # projections run on the squeezed length: 4 * 25 * E^2 per layer
        assert counter.by_scope["attn_proj"] == model.config.depth * 4 * 25 * e * e

    def test_identity_squeeze_skips_upsample_head(self):
        model = EncoderModel(preset("tiny"), seed=7)
        feats = rand(8, 12, 64)
        with count_macs() as counter:
            model.forward(feats, fixed_config(1, 2, 2, model.config.depth))
        assert "upsample" not in counter.by_scope

    def test_shape_law_all_small_configs(self):
        model = EncoderModel(preset("tiny"), seed=9)
        feats = rand(10, 13, 64)
        for s_f in (1, 2):
            for s_k in (1, 2):
                for s_q in (1, 2):
                    out = model.forward(feats, fixed_config(s_f, s_k, s_q, 2))
                    assert out.shape == (13, 64)
                    assert np.all(np.isfinite(out.data))

    def test_length_preservation_full_sweep(self):
        import itertools

        config = EncoderConfig(model_dim=16, depth=2, heads=2, base_channels=4,
                               max_squeeze=3, max_kv_pool=3, max_q_pool=3)
        model = EncoderModel(config, seed=11)
        for t in range(1, 65):
            feats = rand(100 + t, t, 16)
            for s_f, s_k, s_q in itertools.product((1, 2, 3), repeat=3):
                out = model.forward(feats, fixed_config(s_f, s_k, s_q, 2))
                assert out.shape == (t, 16), f"T={t} cfg={s_f}-{s_k}-{s_q}"

    def test_factor_ceiling_enforced(self):
        model = EncoderModel(preset("tiny"), seed=12)
        feats = rand(13, 8, 64)
        with pytest.raises(ConfigError, match="ceiling"):
            model.forward(feats, fixed_config(3, 1, 1, 2))
        with pytest.raises(ConfigError, match="ceiling"):
            model.forward(feats, fixed_config(1, 3, 1, 2))

    def test_depth_mismatch_rejected(self):
        model = EncoderModel(preset("tiny"), seed=13)
        with pytest.raises(ConfigError):
            model.forward(rand(14, 8, 64), fixed_config(1, 1, 1, 5))

    def test_deterministic_forward(self):
        model = EncoderModel(preset("tiny"), seed=15)
        feats = rand(16, 11, 64)
        config = fixed_config(2, 2, 2, 2)
        assert np.array_equal(model.forward(feats, config).data,
                              model.forward(feats, config).data)

    def test_post_ln_residual_guard(self, monkeypatch):
        """The forward's layers end in LN(x1 + FFN(x1)), the post-LN residual,
        not in LN(FFN(x1)): checked against the op chain in this file."""
        model = EncoderModel(preset("tiny"), seed=17)
        feats = rand(18, 10, 64)
        config = fixed_config(1, 1, 1, 2)
        normal = model.forward(feats, config).data
        monkeypatch.setattr(encoder_module, "_tail", chain_tail)
        assert np.array_equal(model.forward(feats, config).data, normal)
        monkeypatch.setattr(encoder_module, "_tail",
                            lambda x, attn_out, layer: chain_tail(x, attn_out, layer, False))
        assert np.abs(model.forward(feats, config).data - normal).max() > 1e-6


def chain_tail(x, attn_out, layer, residual=True):
    """The reference for ``encoder._tail``: one layer after its attention as a
    chain of tensor ops, with the feed-forward residual or without it."""
    x = layer_norm(add(x, attn_out), layer.norm1_gamma, layer.norm1_beta)
    with mac_scope("ffn"):
        h = gelu(add(matmul(x, layer.ffn_w1), layer.ffn_b1))
        h = add(matmul(h, layer.ffn_w2), layer.ffn_b2)
    return layer_norm(add(x, h) if residual else h, layer.norm2_gamma, layer.norm2_beta)


def tail_calls(dtype) -> list:
    """(label, x, attn_out, layer) of every tail call in untaped tiny-preset
    forwards of 1, 17, 37 and 300 frames at the four standard configs."""
    model = EncoderModel(preset("tiny"), seed=61).astype(dtype)
    real, calls = encoder_module._tail, []

    with pytest.MonkeyPatch.context() as patch:
        for t in (1, 17, 37, 300):
            for name in STANDARD_CONFIGS:
                def spy(x, attn_out, layer, label=f"T={t} {name}"):
                    calls.append((label, x.data, attn_out.data, layer))
                    return real(x, attn_out, layer)

                patch.setattr(encoder_module, "_tail", spy)
                model.forward(rand(62 + t, t, 64),
                              fixed_config(*parse_triplet(name), model.config.depth))
    return calls


class TestTailOp:
    """``encoder._tail`` is one op with the output, the ten input gradients
    and the MAC count of the op chain it fuses, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_untaped_and_counted_output_is_the_chains(self, dtype):
        for label, xd, ad, layer in tail_calls(dtype):
            x, attn_out = as_tensor(xd), as_tensor(ad)
            want = chain_tail(x, attn_out, layer).data
            assert np.array_equal(encoder_module._tail(x, attn_out, layer).data, want), label
            with count_macs() as fused:
                got = encoder_module._tail(x, attn_out, layer).data
            with count_macs() as chain:
                chain_tail(x, attn_out, layer)
            assert np.array_equal(got, want), label
            assert fused.by_scope == chain.by_scope == {
                "ffn": 2 * xd.shape[0] * xd.shape[1] * layer.ffn_w1.shape[1]}, label

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_taped_output_and_gradients_are_the_chains(self, dtype):
        for label, xd, ad, layer in tail_calls(dtype):
            inputs = (Tensor(xd), Tensor(ad), *layer)
            target = as_tensor(rand(63, *xd.shape), dtype=dtype)
            results = []
            for tail in (encoder_module._tail, chain_tail):
                with Tape():
                    out = tail(inputs[0], inputs[1], encoder_module._Layer(*inputs[2:]))
                    loss = sum_all(mul(out, target))
                grads = backward(loss)
                results.append((out.data, [grads[t] for t in inputs]))
            (got, got_grads), (want, want_grads) = results
            assert np.array_equal(got, want), label
            assert len(got_grads) == 10
            for i, (g, w) in enumerate(zip(got_grads, want_grads)):
                assert g.dtype == w.dtype and np.array_equal(g, w), f"{label}, input {i}"


class TestRowSplit:
    """A forward without a tape or MAC counter runs each layer's tail in two
    row halves from ``_split_rows`` rows on, with the bits of one thread."""

    MIN_ROWS = 2 * encoder_module._GEMM_ROWS  # the threshold's floor: halves of 16 rows

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_split_on_every_layer_matches_one_thread(self, started, halves, monkeypatch,
                                                     dtype):
        model = EncoderModel(preset("small"), seed=23).astype(dtype)
        depth = model.config.depth
        # at s_f = 2, T = 383/384/385 squeeze to 192/192/193 rows and
        # T = 767/768/769 to 384/384/385: both sides of the default
        # threshold on the small and the tiny preset
        for t in (37, 300, 333, 383, 384, 385, 513, 767, 768, 769, 1000):
            feats = rand(24 + t, t, model.config.model_dim)
            for name in STANDARD_CONFIGS:
                config = fixed_config(*parse_triplet(name), depth)
                monkeypatch.setattr(encoder_module, "_SPLIT_VALUES", 10 ** 9)
                with _blas_pinned_to_one_thread():  # as a split region pins it
                    one = model.forward(feats, config).data
                monkeypatch.setattr(encoder_module, "_SPLIT_VALUES", 1)
                splits = len(halves)
                split = model.forward(feats, config).data
                assert np.array_equal(split, one), f"T={t} {name} {np.dtype(dtype).name}"
                # at T = 37 and s_f = 2 the 19 rows would make halves of 9 and 10
                assert (len(halves) > splits) == (-(-t // config.s_f) >= self.MIN_ROWS)

    @pytest.mark.parametrize("rows", [MIN_ROWS - 1, 19])
    def test_halves_below_sixteen_rows_stay_on_one_thread(self, started, monkeypatch, rows):
        monkeypatch.setattr(encoder_module, "_SPLIT_VALUES", 1)
        model = EncoderModel(preset("tiny"), seed=25)
        model.forward(rand(26, rows, 64), fixed_config(1, 1, 1, model.config.depth))
        assert started == []


class TestForwardWorker:
    """A forward from ``_split_rows`` rows hands its attention halves and its
    row halves to the process's one worker thread."""

    ROWS = 600

    @pytest.fixture
    def model(self):
        return EncoderModel(preset("tiny"), seed=27)

    def forward(self, model, config="1-1-1"):
        return model.forward(rand(28, self.ROWS, 64),
                             fixed_config(*parse_triplet(config), model.config.depth))

    def test_one_thread_for_attention_and_rows(self, started, halves, model):
        assert self.ROWS >= encoder_module._split_rows(model.config.model_dim)
        self.forward(model)
        assert len(started) == 1
        heads, depth = model.config.heads, model.config.depth
        assert [n for _, n in halves] == [heads, self.ROWS] * depth
        assert len({id(worker) for worker, _ in halves}) == 1

    def test_small_attention_calls_split_with_the_rows(self, started, halves, monkeypatch,
                                                       model):
        # at 1-2-2 each head's logits are 300 x 300: the forward's row count,
        # not the attention call's size, decides
        split = self.forward(model, "1-2-2").data
        heads, depth = model.config.heads, model.config.depth
        assert heads * (self.ROWS // 2) ** 2 < 1 << 20
        assert [n for _, n in halves] == [heads, self.ROWS] * depth
        monkeypatch.setattr(encoder_module, "_SPLIT_VALUES", 10 ** 9)
        with _blas_pinned_to_one_thread():
            assert np.array_equal(split, self.forward(model, "1-2-2").data)
        assert len(started) == 1

    @pytest.mark.parametrize("config", ["1-1-1", "2-2-2"])
    def test_the_default_threshold_is_the_first_split_row(self, started, halves, config):
        """384 rows on the tiny preset (width 64) and 192 on the small one
        (width 128): the same number of squeezed values."""
        triplet = parse_triplet(config)
        for name, rows in (("tiny", 384), ("small", 192)):
            model = EncoderModel(preset(name), seed=27)
            e = model.config.model_dim
            assert encoder_module._split_rows(e) == rows
            for t, splits in ((triplet[0] * (rows - 1), False), (triplet[0] * rows, True)):
                before = len(halves)
                model.forward(rand(29, t, e), fixed_config(*triplet, model.config.depth))
                assert (len(halves) > before) == splits, f"{name}, {t} frames at {config}"
        assert len(started) == 1

    @pytest.mark.parametrize("config", STANDARD_CONFIGS)
    def test_benchmark_length_splits_at_every_standard_config(self, started, halves, config):
        # the shape of an infer-long request: the small preset at T = 1000
        model = EncoderModel(preset("small"), seed=31).astype(np.float32)
        triplet = parse_triplet(config)
        model.forward(rand(32, 1000, model.config.model_dim),
                      fixed_config(*triplet, model.config.depth))
        assert len(started) == 1
        rows = -(-1000 // triplet[0])
        assert [n for _, n in halves] == [model.config.heads, rows] * model.config.depth

    @pytest.mark.parametrize("on_worker", [True, False], ids=["worker-raises", "caller-raises"])
    def test_a_failing_half_raises_in_the_caller(self, started, monkeypatch, model, on_worker):
        real = encoder_module._gelu_forward

        def gelu_forward(*args):
            if (threading.current_thread() is threading.main_thread()) is not on_worker:
                raise FloatingPointError("gelu failed")
            return real(*args)

        monkeypatch.setattr(encoder_module, "_gelu_forward", gelu_forward)
        with pytest.raises(FloatingPointError, match="gelu failed"):
            self.forward(model)
        assert len(started) == 1

    def test_no_thread_under_a_tape_or_counter(self, started, model):
        with _blas_pinned_to_one_thread(), Tape():
            taped = self.forward(model)
        with _blas_pinned_to_one_thread(), count_macs():
            counted = self.forward(model)
        assert started == []
        assert np.array_equal(taped.data, counted.data)
        assert np.array_equal(self.forward(model).data, counted.data)
        assert len(started) == 1


class TestFrontEndSplit:
    """Without a tape or MAC counter, a clip of ``_FE_SPLIT_FRAMES`` output
    frames or more runs its front end in two halves of frames on the
    process's worker, with the bits of the whole clip."""

    def features(self, model, monkeypatch, audio, least):
        """(split, whole): the clip's features with the front end's
        threshold at ``least`` frames, and with no split."""
        monkeypatch.setattr(encoder_module, "_FE_SPLIT_FRAMES", least)
        split = model.extract_features(audio).data
        monkeypatch.setattr(encoder_module, "_FE_SPLIT_FRAMES", 10 ** 9)
        with _blas_pinned_to_one_thread():  # as a split region pins it
            return split, model.extract_features(audio).data

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ["tiny", "small"])
    def test_split_matches_the_whole_clip(self, started, halves, monkeypatch, name, dtype):
        model = EncoderModel(preset(name), seed=51).astype(dtype)
        least = encoder_module._FE_SPLIT_FRAMES
        # (frames, samples past the last whole frame): the shortest clip, both
        # sides of the threshold, odd frame counts and clips with a partial hop
        for frames, extra in ((1, 0), (least - 1, 319), (least, 0), (least + 1, 0),
                              (333, 17), (501, 319), (1000, 0)):
            audio = synth_audio(frames + extra, seconds=(
                model.fe.samples_for_frames(frames) + extra) / SAMPLE_RATE)
            before = len(halves)
            split, whole = self.features(model, monkeypatch, audio, least)
            assert [n for _, n in halves[before:]] == [frames] * (frames >= least)
            assert split.shape == (frames, model.config.model_dim) and split.dtype == dtype
            assert np.array_equal(split, whole), f"{frames} frames + {extra} samples"
        assert len(started) == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_shortest_split_clip(self, started, halves, monkeypatch, dtype):
        """Each half needs 16 frames for its projection (``_GEMM_ROWS``): 32
        frames is the shortest clip that splits, whatever the threshold."""
        model = EncoderModel(preset("tiny"), seed=52).astype(dtype)
        for frames in (31, 32, 33):
            audio = synth_audio(frames, seconds=model.fe.samples_for_frames(frames) / SAMPLE_RATE)
            before = len(halves)
            split, whole = self.features(model, monkeypatch, audio, 1)
            assert len(halves) - before == (frames >= 32)
            assert np.array_equal(split, whole), f"{frames} frames"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_whole_clip_row_function_matches_the_ops(self, monkeypatch, dtype):
        """Below the threshold a clip runs the row function on the calling
        thread; under a MAC counter it runs the tensor ops, with the same bits."""
        monkeypatch.setattr(encoder_module, "_FE_SPLIT_FRAMES", 10 ** 9)
        model = EncoderModel(preset("small"), seed=55).astype(dtype)
        for frames in (1, 17, 100, 299):
            audio = synth_audio(56 + frames, seconds=(
                model.fe.samples_for_frames(frames) + 100) / SAMPLE_RATE)
            with count_macs():
                counted = model.extract_features(audio)
            rows = model.extract_features(audio)
            assert rows.grad_id is None and rows.data.dtype == dtype
            assert np.array_equal(rows.data, counted.data), f"{frames} frames"

    def test_no_split_under_a_tape_or_counter(self, started, halves):
        model = EncoderModel(preset("tiny"), seed=53)
        audio = synth_audio(54, seconds=7.0)
        with _blas_pinned_to_one_thread(), Tape():
            taped = model.extract_features(audio).data
        with _blas_pinned_to_one_thread(), count_macs():
            counted = model.extract_features(audio).data
        assert started == [] and halves == []
        assert np.array_equal(model.extract_features(audio).data, counted)
        assert np.array_equal(taped, counted)
        assert len(started) == 1 and len(halves) == 1


def parameter_count(model) -> int:
    return sum(t.data.size for t in model.params.values())


class TestParameterLaws:
    def test_pooling_never_changes_parameter_count(self):
        base = EncoderConfig(model_dim=32, depth=2, heads=2, base_channels=4)
        more = EncoderConfig(model_dim=32, depth=2, heads=2, base_channels=4,
                             max_kv_pool=4, max_q_pool=4)
        assert parameter_count(EncoderModel(base, seed=0)) == parameter_count(
            EncoderModel(more, seed=0))

    def test_enabling_squeeze_adds_exactly_upsample_head(self):
        no_squeeze = EncoderConfig(model_dim=32, depth=2, heads=2, base_channels=4,
                                   max_squeeze=1)
        squeeze = EncoderConfig(model_dim=32, depth=2, heads=2, base_channels=4,
                                max_squeeze=2)
        delta = (parameter_count(EncoderModel(squeeze, seed=0))
                 - parameter_count(EncoderModel(no_squeeze, seed=0)))
        assert delta == 32 * 32 + 32

    def test_init_is_seed_deterministic_per_name(self):
        a = EncoderModel(preset("tiny"), seed=4)
        b = EncoderModel(preset("tiny"), seed=4)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)


class TestGradients:
    def test_full_model_gradient_check_tiny(self):
        model = EncoderModel(preset("tiny"), seed=19)
        feats = rand(20, 10, 64)
        tgt = rand(21, 10, 64)
        names = list(model.params)
        for triplet in ((1, 1, 1), (2, 2, 2)):
            config = fixed_config(*triplet, model.config.depth)

            def fn(*tensors):
                trial = EncoderModel(model.config, params=dict(zip(names, tensors)))
                out = trial.forward(Tensor(feats), config)
                from stochpool.tensor import mul, sum_all

                return sum_all(mul(out, Tensor(tgt)))

            check_gradients(fn, [model.params[n].data for n in names],
                            coords_per_array=3, seed=22)


class TestPresets:
    def test_full_size_presets(self):
        table = {name: preset(name) for name in ("B", "L", "tiny", "small")}
        assert table["B"].model_dim == 768 and table["B"].depth == 12
        assert table["L"].model_dim == 1024 and table["L"].depth == 24
        assert table["tiny"].model_dim == 64 and table["tiny"].depth == 2
        assert table["small"].model_dim == 128 and table["small"].depth == 4

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset("huge")


class TestCheckpoint:
    def test_round_trip_byte_identical(self, tmp_path):
        model = EncoderModel(preset("tiny"), seed=23)
        extras = {"head.weight": Tensor(rand(24, 64, 5)), "head.bias": Tensor(rand(25, 5))}
        path = tmp_path / "model.stpl"
        save_checkpoint(path, model.config, {**model.params, **extras},
                        meta={"phase": "finetune", "vocab_size": 4})
        original = path.read_bytes()
        ck = load_checkpoint(path)
        path2 = tmp_path / "again.stpl"
        save_checkpoint(path2, ck.config, ck.params, ck.meta)
        assert path2.read_bytes() == original

    def test_saved_bytes_match_golden(self, tmp_path):
        # recorded digest: pins the on-disk format (header JSON, tensor order, float32 bytes)
        model = EncoderModel(preset("tiny"), seed=31)
        path = tmp_path / "model.stpl"
        save_checkpoint(path, model.config, {**model.params, **make_head(64, 4, seed=32)},
                        meta={"phase": "finetune", "vocab_size": 4,
                              "token_vocab": {"a": 1, "b": 2}})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ae0a1c7be345feff2982d8c20d5b24059a05a4d0510891a3fed7a75ae9967309")

    def test_rebuild_model_and_extras(self, tmp_path):
        model = EncoderModel(preset("tiny"), seed=26)
        extras = {"head.weight": Tensor(rand(27, 64, 5))}
        path = tmp_path / "model.stpl"
        save_checkpoint(path, model.config, {**model.params, **extras}, meta={})
        rebuilt, extra = load_checkpoint(path).build_model()
        assert rebuilt.config == model.config
        assert set(extra) == {"head.weight"}
        for name, tensor in model.params.items():
            stored_f32 = tensor.data.astype(np.float32).astype(np.float64)
            assert np.array_equal(rebuilt.params[name].data, stored_f32)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.stpl"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(InputError, match="magic"):
            load_checkpoint(path)

    def test_truncated_or_padded_file_rejected(self, tmp_path):
        # a complete checkpoint of a deliberately small encoder, so the loop stays short
        path = tmp_path / "small.stpl"
        config = EncoderConfig(model_dim=4, depth=1, heads=1, base_channels=1,
                               pos_conv_kernel=1, pos_conv_groups=1, max_squeeze=1)
        params = {**EncoderModel(config, seed=30).params,
                  "head.weight": rand(30, 4, 2), "head.bias": rand(31, 1, 2).ravel()}
        save_checkpoint(path, config, params, meta={"phase": "finetune"})
        blob = path.read_bytes()
        assert set(load_checkpoint(path).params) == set(params)
        cut = tmp_path / "cut.stpl"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(InputError):
                load_checkpoint(cut)
        cut.write_bytes(blob + b"\x00")
        with pytest.raises(InputError, match="trailing"):
            load_checkpoint(cut)

    def test_parameter_total_matches_spec(self):
        configs = [preset(name) for name in ("tiny", "small", "B")] + [
            EncoderConfig(model_dim=12, depth=3, heads=3, ffn_dim=7, base_channels=2,
                          pos_conv_kernel=5, pos_conv_groups=6, max_squeeze=1)]
        for config in configs:
            spec = parameter_spec(config)
            assert _parameter_total(config) == sum(int(np.prod(s)) for s in spec.values())

    def test_given_tensors_kept_when_dtype_matches(self):
        model = EncoderModel(preset("tiny"), seed=6)
        same = EncoderModel(model.config, params=model.params)
        assert all(same.params[n] is t for n, t in model.params.items())
        assert same.attention[0].w_q is model.params["layer0.attn.w_q"]
        cast = EncoderModel(model.config, dtype=np.float32, params=model.params)
        for name, t in model.params.items():
            assert cast.params[name].dtype == np.float32
            assert np.array_equal(cast.params[name].data, t.data.astype(np.float32))

    def test_missing_parameter_rejected(self):
        model = EncoderModel(preset("tiny"), seed=28)
        partial = dict(list(model.params.items())[:-1])
        with pytest.raises(InputError, match="missing parameter"):
            EncoderModel(model.config, params=partial)

    def test_parameter_spec_matches_model(self):
        config = preset("tiny")
        spec = parameter_spec(config)
        model = EncoderModel(config, seed=29)
        assert list(spec) == list(model.params)
        for name, shape in spec.items():
            assert model.params[name].shape == shape
