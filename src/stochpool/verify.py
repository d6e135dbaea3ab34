"""Self-contained verification suite behind the `verify` CLI command.

Every check pairs an implementation path with an independent oracle:
scalar reference loops, central finite differences, brute-force
enumeration, or an algebraic identity. Checks raise AssertionError with a
diagnostic on failure; the runner collects results into a pass/fail table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .attention import AttentionParams, _shift_free, attend, multi_head_pooled
from .ctc import ctc_loss, ctc_loss_bruteforce, greedy_decode
from .data import synth_audio
from .encoder import EncoderModel, preset
from .gradcheck import check_gradients
from .pooling import downsample, upsample
from .stochastic import (STANDARD_CONFIGS, FactorSets, Rng, fixed_config, parse_triplet,
                         sample_config)
from .tensor import (
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
    sum_all,
)

# critical chi-square values at significance 0.001 for df 1..3
_CHI2_CRIT = {1: 10.828, 2: 13.816, 3: 16.266}


@dataclass
class CheckResult:
    group: str
    name: str
    ok: bool
    detail: str
    seconds: float


def _rand(rng: Rng, *shape):
    size = int(np.prod(shape))
    return rng.normal(size).reshape(shape)


# ---------------------------------------------------------------------------
# tensor checks
# ---------------------------------------------------------------------------


def _check_matmul_oracle(seed):
    rng = Rng(seed).fork("matmul")
    a = _rand(rng, 3, 4)
    b = _rand(rng, 4, 2)
    got = matmul(Tensor(a), Tensor(b)).data
    want = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    diff = np.abs(got - want).max()
    assert diff < 1e-12, f"matmul deviates from scalar loop by {diff:.3e}"


def _check_matmul_assoc(seed):
    rng = Rng(seed).fork("assoc")
    a, b, c = _rand(rng, 4, 3), _rand(rng, 3, 5), _rand(rng, 5, 2)
    left = matmul(matmul(Tensor(a), Tensor(b)), Tensor(c)).data
    right = matmul(Tensor(a), matmul(Tensor(b), Tensor(c))).data
    diff = np.abs(left - right).max()
    assert diff < 1e-10, f"(AB)C vs A(BC) differ by {diff:.3e}"


def _check_softmax(seed):
    # attend(q, k, I) returns the softmax weights themselves
    rng = Rng(seed).fork("softmax")
    q, k = _rand(rng, 6, 4), _rand(rng, 7, 4) * 3.0
    eye = np.eye(7)
    # attend scales the queries by 1/sqrt(d) = 0.5 before deciding
    assert _shift_free(q * 0.5, k, eye), "moderate logits should skip the shift"
    y = attend(Tensor(q), Tensor(k), Tensor(eye)).data
    assert np.abs(y.sum(axis=1) - 1.0).max() < 1e-12, "rows do not sum to 1"
    assert y.min() >= 0.0 and y.max() <= 1.0, "entries outside [0, 1]"
    # logits +-1000: only the max shift keeps exp finite
    q_big, k_big = np.array([[1000.0]]), np.array([[1.0], [1.0], [-1.0]])
    assert not _shift_free(q_big, k_big, np.eye(3)), "huge logits must take the shift"
    big = attend(Tensor(q_big), Tensor(k_big), Tensor(np.eye(3))).data
    assert np.array_equal(big, [[0.5, 0.5, 0.0]]), f"large logits give {big}"


def _check_layer_norm(seed):
    rng = Rng(seed).fork("ln")
    x = _rand(rng, 5, 8)
    gamma, beta = np.ones(8), np.zeros(8)
    y = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    want = (x - mu) / np.sqrt(var + 1e-5)
    diff = np.abs(y - want).max()
    assert diff < 1e-12, f"layer_norm deviates from direct formula by {diff:.3e}"


def _check_op_gradients(seed):
    rng = Rng(seed).fork("grads")
    target = Tensor(_rand(rng.fork("const"), 4, 6))
    cases = [
        ("matmul", lambda a, b: sum_all(matmul(a, b)), [_rand(rng, 4, 3), _rand(rng, 3, 5)]),
        ("add", lambda a, b: sum_all(mul(add(a, b), add(a, b))), [_rand(rng, 4, 3), _rand(rng, 4, 3)]),
        ("bias_add", lambda a, b: sum_all(mul(add(a, b), add(a, b))), [_rand(rng, 4, 3), _rand(rng, 3)]),
    ]
    _rand(rng, 3, 3), _rand(rng, 3, 3)  # the retired sub case's draws: later inputs stay
    cases.append(("mul", lambda a, b: sum_all(mul(a, b)), [_rand(rng, 4, 4), _rand(rng, 4, 4)]))
    _rand(rng, 3, 4)  # the retired scale case's draw
    cases.append(("gelu", lambda a: sum_all(gelu(a)), [_rand(rng, 4, 4)]))
    _rand(rng, 2, 3), _rand(rng, 4, 3)  # the retired concat case's draws
    cases += [
        ("layer_norm", lambda a, g, b: sum_all(mul(layer_norm(a, g, b), target)),
         [_rand(rng, 4, 6), 1.0 + 0.1 * _rand(rng, 6), 0.1 * _rand(rng, 6)]),
        ("conv1d", lambda a, w: sum_all(mul(conv1d(a, w, stride=2), conv1d(a, w, stride=2))),
         [_rand(rng, 9, 4), _rand(rng, 6, 4, 3)]),
        ("conv1d_grouped", lambda a, w: sum_all(conv1d(a, w, stride=1, groups=2)),
         [_rand(rng, 7, 4), _rand(rng, 4, 2, 3)]),
        ("conv1d_padded", lambda a, w: sum_all(mul(conv1d(a, w, groups=2, pad=2), target)),
         [_rand(rng, 4, 4), _rand(rng, 6, 2, 5)]),
    ]
    worst = 0.0
    for name, fn, arrays in cases:
        err = check_gradients(fn, arrays)
        worst = max(worst, err)
    assert worst < 1e-4, f"worst op gradient error {worst:.3e}"


def _check_tape_determinism(seed):
    def run():
        rng = Rng(seed).fork("det")
        a = Tensor(_rand(rng, 4, 4))
        b = Tensor(_rand(rng, 4, 4))
        with Tape():
            loss = sum_all(mul(attend(a, b, matmul(a, b)), matmul(a, b)))
        grads = backward(loss)
        return grads[a].copy(), grads[b].copy()

    ga1, gb1 = run()
    ga2, gb2 = run()
    assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2), \
        "gradients differ between identical runs"


# ---------------------------------------------------------------------------
# pooling checks
# ---------------------------------------------------------------------------


def _check_pooling_identity(seed):
    rng = Rng(seed).fork("pool-id")
    x = _rand(rng, 9, 3)
    assert np.array_equal(downsample(Tensor(x), 1).data, x), "downsample factor 1 not exact"
    assert np.array_equal(upsample(Tensor(x), 1).data, x), "upsample factor 1 not exact"


def _check_pooling_laws(seed):
    rng = Rng(seed).fork("pool-laws")
    for n in range(1, 65):
        x = _rand(rng, n, 2)
        for s in range(1, 5):
            down = downsample(Tensor(x), s).data
            expect = -(-n // s)
            assert down.shape[0] == expect, (
                f"length law broken: N={n} s={s} gave {down.shape[0]}, want {expect}")
            y = _rand(rng, down.shape[0], 2)
            round_trip = downsample(upsample(Tensor(y), s), s).data
            assert np.array_equal(round_trip, y), f"round trip broken at N={n} s={s}"
            up = upsample(Tensor(y), s, truncate_to=n).data
            assert up.shape[0] == n, f"truncation broken at N={n} s={s}"


def _check_pooling_linearity(seed):
    rng = Rng(seed).fork("pool-lin")
    x, y = _rand(rng, 11, 4), _rand(rng, 11, 4)
    for s in (2, 3):
        mix = downsample(Tensor(2.5 * x - 1.5 * y), s).data
        parts = 2.5 * downsample(Tensor(x), s).data - 1.5 * downsample(Tensor(y), s).data
        assert np.abs(mix - parts).max() < 1e-12, f"downsample not linear at s={s}"
        xu, yu = x[:4], y[:4]
        mix_u = upsample(Tensor(2.5 * xu - 1.5 * yu), s).data
        parts_u = 2.5 * upsample(Tensor(xu), s).data - 1.5 * upsample(Tensor(yu), s).data
        assert np.abs(mix_u - parts_u).max() < 1e-12, f"upsample not linear at s={s}"


def _check_pooling_adjoints(seed):
    rng = Rng(seed).fork("pool-adj")
    const = rng.fork("const")
    target_d, target_u = Tensor(_rand(const, 3, 2)), Tensor(_rand(const, 5, 2))
    err_d = check_gradients(
        lambda a: sum_all(mul(downsample(a, 2), target_d)), [_rand(rng, 5, 2)],
        tolerance=1e-6)
    err_u = check_gradients(
        lambda a: sum_all(mul(upsample(a, 2, truncate_to=5), target_u)),
        [_rand(rng, 3, 2)], tolerance=1e-6)
    assert max(err_d, err_u) < 1e-6, f"pooling adjoints off: {err_d:.3e}, {err_u:.3e}"


# ---------------------------------------------------------------------------
# attention checks
# ---------------------------------------------------------------------------


def _check_attend_oracle(seed):
    rng = Rng(seed).fork("attend")
    q, k, v = _rand(rng, 4, 2), _rand(rng, 4, 2), _rand(rng, 4, 2)
    got = attend(Tensor(q), Tensor(k), Tensor(v)).data
    want = np.zeros((4, 2))
    scale_f = 1.0 / np.sqrt(2.0)
    for i in range(4):
        logits = np.array([sum(q[i, d] * k[j, d] for d in range(2)) * scale_f
                           for j in range(4)])
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        for j in range(4):
            want[i] += weights[j] * v[j]
    diff = np.abs(got - want).max()
    assert diff < 1e-12, f"attend deviates from scalar loop by {diff:.3e}"


def _random_attention_params(rng: Rng, e: int, heads: int) -> AttentionParams:
    return AttentionParams(
        w_q=Tensor(_rand(rng.fork("wq"), e, e) / np.sqrt(e)),
        w_k=Tensor(_rand(rng.fork("wk"), e, e) / np.sqrt(e)),
        w_v=Tensor(_rand(rng.fork("wv"), e, e) / np.sqrt(e)),
        w_o=Tensor(_rand(rng.fork("wo"), e, e) / np.sqrt(e)),
        heads=heads,
    )


def _check_pooled_degenerate(seed):
    rng = Rng(seed).fork("pooled-1")
    x = Tensor(_rand(rng, 6, 4))
    params = _random_attention_params(rng, 4, 2)
    plain = matmul(attend(matmul(x, params.w_q), matmul(x, params.w_k), matmul(x, params.w_v),
                          heads=2), params.w_o).data
    pooled = multi_head_pooled(x, params, (1, 1)).data
    diff = np.abs(plain - pooled).max()
    assert diff == 0.0, f"pooled (1,1) not bit-identical, diff {diff:.3e}"


def _check_pooled_composition(seed):
    # the reference projects first and pools afterwards, the order the model does not run
    rng = Rng(seed).fork("pooled-2")
    x = Tensor(_rand(rng, 8, 4))
    params = _random_attention_params(rng, 4, 2)
    got = multi_head_pooled(x, params, (2, 2)).data
    q, k, v = (downsample(matmul(x, w), 2) for w in (params.w_q, params.w_k, params.w_v))
    composed = matmul(upsample(attend(q, k, v, heads=2), 2, truncate_to=8), params.w_o).data
    diff = np.abs(got - composed).max()
    assert diff < 1e-12, f"pooled attention differs from composed operators by {diff:.3e}"


def _check_multi_head_gradients(seed):
    rng = Rng(seed).fork("mh-grads")
    e, n = 8, 6
    x = _rand(rng.fork("x"), n, e)
    target = Tensor(_rand(rng.fork("const"), n, e))
    worst = 0.0
    for s_q in (1, 2):
        for s_k in (1, 2):
            def fn(xt, wq, wk, wv, wo):
                params = AttentionParams(w_q=wq, w_k=wk, w_v=wv, w_o=wo, heads=2)
                out = multi_head_pooled(xt, params, (s_k, s_q))
                return sum_all(mul(out, target))

            base = _random_attention_params(rng, e, 2)
            err = check_gradients(fn, [x, base.w_q.data, base.w_k.data,
                                       base.w_v.data, base.w_o.data])
            worst = max(worst, err)
    assert worst < 1e-4, f"multi-head pooled gradient error {worst:.3e}"


# ---------------------------------------------------------------------------
# encoder checks
# ---------------------------------------------------------------------------


def _check_encoder_lengths(seed):
    rng = Rng(seed).fork("enc-len")
    from .encoder import EncoderConfig

    config = EncoderConfig(model_dim=16, depth=2, heads=2, base_channels=4,
                           max_squeeze=3, max_kv_pool=3, max_q_pool=3)
    model = EncoderModel(config, seed=seed)
    for t in (1, 2, 3, 5, 17):
        feats = _rand(rng.fork(f"t{t}"), t, 16)
        for s_f in (1, 2, 3):
            for s_k in (1, 3):
                for s_q in (2, 3):
                    out = model.forward(feats, fixed_config(s_f, s_k, s_q, 2))
                    assert out.shape == (t, 16), (
                        f"length broken: T={t} cfg={s_f}-{s_k}-{s_q} -> {out.shape}")
                    assert np.all(np.isfinite(out.data)), "non-finite encoder output"


def _check_encoder_determinism(seed):
    model = EncoderModel(preset("tiny"), seed=seed)
    rng = Rng(seed).fork("enc-det")
    feats = _rand(rng, 12, 64)
    config = fixed_config(2, 2, 2, model.config.depth)
    a = model.forward(feats, config).data
    b = model.forward(feats, config).data
    assert np.array_equal(a, b), "encoder forward is not deterministic"


def _check_float32_serving(seed):
    """A float32 forward stays within 1e-3 (relative) of float64.

    Runs the small preset on a 1 s clip at every standard config, once as
    initialised and once with layer 0's w_q scaled by 32. The scaled
    layer's logits exceed float32's exp range (about 88.7), so it must take
    the max shift while the other layers skip it; the MAC counter's
    attention counts assert that both sides of the decision ran. A
    600-frame feature input at 1-1-1 spans more than one float32 query
    block per attention call, which is asserted too.
    """
    base = EncoderModel(preset("small"), seed=seed)
    audio = synth_audio(seed, seconds=1.0)

    def compare(model64, model32, feats64, feats32, triplet, what):
        """Checks one float32 forward against float64; returns its counter."""
        config = fixed_config(*triplet, base.config.depth)
        want = model64.forward(feats64, config).data
        with count_macs() as counter:
            got = model32.forward(feats32, config).data
        err = float(np.abs(got - want).max() / np.abs(want).max())
        assert err <= 1e-3, (  # NaN fails too
            f"float32 deviates by {err:.3e} relative at {triplet}, {what}")
        return counter

    calls = skips = 0
    for w_q_scale in (1.0, 32.0):
        params = {n: t.data * w_q_scale if n == "layer0.attn.w_q" else t.data
                  for n, t in base.params.items()}
        model64 = EncoderModel(base.config, params=params)
        model32 = model64.astype(np.float32)
        feats64 = model64.extract_features(audio)
        feats32 = model32.extract_features(audio)
        for triplet in map(parse_triplet, STANDARD_CONFIGS):
            counter = compare(model64, model32, feats64, feats32, triplet,
                              f"w_q x{w_q_scale:g}")
            calls += counter.attention_calls
            skips += counter.shift_skips
    assert 0 < skips < calls, (
        f"{skips} of {calls} float32 calls skipped the shift; both sides must run")
    t = 600
    feats = _rand(Rng(seed).fork("long_features"), t, base.config.model_dim)
    base32 = base.astype(np.float32)
    counter = compare(base, base32, feats, feats, (1, 1, 1), f"{t} feature frames")
    assert counter.query_blocks > counter.attention_calls, (
        f"the {t}-frame float32 forward ran {counter.query_blocks} query blocks in "
        f"{counter.attention_calls} calls; each must span more than one")


# ---------------------------------------------------------------------------
# ctc checks
# ---------------------------------------------------------------------------


def _check_ctc_oracle(seed):
    rng = Rng(seed).fork("ctc")
    checked = 0
    for trial in range(60):
        t_len = 1 + rng.integer(6)
        vocab = 1 + rng.integer(3)
        logits = _rand(rng.fork(f"logits{trial}"), t_len, vocab + 1)
        n_labels = rng.integer(t_len + 1)
        labels = tuple(1 + rng.integer(vocab) for _ in range(n_labels))
        try:
            loss = ctc_loss(Tensor(logits), labels).item()
        except Exception:
            continue
        want = ctc_loss_bruteforce(logits, labels)
        assert abs(loss - want) < 1e-9, (
            f"ctc loss {loss} vs brute force {want} (T={t_len}, labels={labels})")
        checked += 1
    assert checked >= 20, f"too few feasible CTC cases exercised ({checked})"


def _check_ctc_gradient(seed):
    rng = Rng(seed).fork("ctc-grad")
    logits = _rand(rng, 5, 4)
    err = check_gradients(lambda x: ctc_loss(x, (1, 2)), [logits])
    assert err < 1e-4, f"ctc gradient error {err:.3e}"


def _check_greedy_decode(seed):
    frames = np.array([
        [0.1, 2.0, 0.0],   # a
        [0.0, 3.0, 0.1],   # a
        [5.0, 0.0, 0.0],   # blank
        [0.0, 0.1, 2.0],   # b
    ])
    assert greedy_decode(frames) == [1, 2], "collapse rule broken"
    blanks = np.tile([1.0, 0.0, 0.0], (4, 1))
    assert greedy_decode(blanks) == [], "all-blank should decode empty"
    repeat = np.array([[0.0, 2.0, 0.0], [3.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    assert greedy_decode(repeat) == [1, 1], "blank must separate repeats"


# ---------------------------------------------------------------------------
# cost model checks
# ---------------------------------------------------------------------------


def _check_cost_model_exactness(seed):
    from .cost_model import analytic_cost, instrumented_macs

    model = EncoderModel(preset("tiny"), seed=seed)
    for triplet in ((1, 1, 1), (2, 1, 1), (2, 2, 2)):
        config = fixed_config(*triplet, model.config.depth)
        analytic = analytic_cost(config, model.config, 50, from_audio=True)
        counted = instrumented_macs(model, config, 50, from_audio=True)
        assert analytic.macs_total == counted.total, (
            f"config {config.describe()}: analytic {analytic.macs_total} "
            f"!= instrumented {counted.total}")


# ---------------------------------------------------------------------------
# stochastic checks
# ---------------------------------------------------------------------------


def _check_sampler_uniformity(seed):
    rng = Rng(seed).fork("uniform")
    for values in ((1, 2), (1, 2, 3), (1, 2, 3, 4)):
        counts = {v: 0 for v in values}
        draws = 20_000
        for _ in range(draws):
            counts[rng.choice(values)] += 1
        expected = draws / len(values)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        crit = _CHI2_CRIT[len(values) - 1]
        assert chi2 < crit, f"chi-square {chi2:.2f} over set {values} exceeds {crit}"


def _check_sampler_determinism(seed):
    sets = FactorSets((1, 2), (1, 2), (1, 2))
    a = [sample_config(sets, 4, Rng(seed).fork("cfg").fork(f"s{i}")).describe()
         for i in range(20)]
    b = [sample_config(sets, 4, Rng(seed).fork("cfg").fork(f"s{i}")).describe()
         for i in range(20)]
    assert a == b, "seeded sampling is not reproducible"


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

CHECKS = [
    ("tensor", "matmul_scalar_loop_oracle", _check_matmul_oracle),
    ("tensor", "matmul_associativity", _check_matmul_assoc),
    ("tensor", "softmax_rows_simplex", _check_softmax),
    ("tensor", "layer_norm_direct_formula", _check_layer_norm),
    ("tensor", "operator_gradients_fd", _check_op_gradients),
    ("tensor", "tape_determinism", _check_tape_determinism),
    ("pooling", "factor_one_identity", _check_pooling_identity),
    ("pooling", "length_and_round_trip_laws", _check_pooling_laws),
    ("pooling", "linearity", _check_pooling_linearity),
    ("pooling", "adjoints_fd", _check_pooling_adjoints),
    ("attention", "attend_scalar_loop_oracle", _check_attend_oracle),
    ("attention", "pooled_degenerate_equivalence", _check_pooled_degenerate),
    ("attention", "pooled_composition_oracle", _check_pooled_composition),
    ("attention", "multi_head_gradients_fd", _check_multi_head_gradients),
    ("encoder", "length_preservation", _check_encoder_lengths),
    ("encoder", "forward_determinism", _check_encoder_determinism),
    ("encoder", "float32_serving_oracle", _check_float32_serving),
    ("ctc", "bruteforce_enumeration_oracle", _check_ctc_oracle),
    ("ctc", "loss_gradient_fd", _check_ctc_gradient),
    ("ctc", "greedy_decode_rules", _check_greedy_decode),
    ("cost", "analytic_vs_instrumented_macs", _check_cost_model_exactness),
    ("stochastic", "uniformity_chi_square", _check_sampler_uniformity),
    ("stochastic", "seeded_reproducibility", _check_sampler_determinism),
]


def run_checks(name_filter: str | None = None, seed: int = 0) -> list:
    """Run checks whose group or name contains ``name_filter``."""
    results = []
    for group, name, fn in CHECKS:
        if name_filter and name_filter not in group and name_filter not in name:
            continue
        started = time.perf_counter()
        try:
            fn(seed)
            results.append(CheckResult(group, name, True, "ok",
                                       time.perf_counter() - started))
        except Exception as exc:  # a failed check must not stop the table
            results.append(CheckResult(group, name, False, f"{type(exc).__name__}: {exc}",
                                       time.perf_counter() - started))
    return results
