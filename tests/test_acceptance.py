"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the PASS
lines inline). The training-based criteria share one lazily built
pipeline of artifacts; each criterion asserts its own wall-clock budget
over the stages it is responsible for.
"""

import itertools
import time
import warnings

import numpy as np
import pytest

import test_encoder
from stochpool.attention import AttentionParams, attend, multi_head_pooled
from stochpool.cost_model import analytic_cost, instrumented_macs, measure
from stochpool.ctc import collapse, ctc_loss, ctc_loss_bruteforce, greedy_decode, min_frames
from stochpool.data import SineFeatureDataset, SymbolFeatureDataset
from stochpool.encoder import EncoderModel, preset
from stochpool.errors import InfeasibleLabelError
from stochpool.gradcheck import check_gradients
from stochpool.pooling import downsample, upsample
from stochpool.stochastic import FactorSets, Rng, fixed_config, sample_config
from stochpool.tensor import (
    Tensor,
    add,
    conv1d,
    gelu,
    layer_norm,
    matmul,
    mul,
    sum_all,
)
from stochpool.training import TrainPlan, evaluate, finetune, pretrain_toy

SEEDS = (0, 1, 2)
TASK_SEED = 100
STANDARD = ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2))
SETS = FactorSets((1, 2), (1, 2), (1, 2))
CHI2_CRIT = {1: 10.828, 2: 13.816, 3: 16.266}


def rand(seed, *shape):
    return Rng(seed).fork("acc").normal(int(np.prod(shape))).reshape(shape)


def report(number, name, elapsed, budget, detail=""):
    line = f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s / budget {budget}s)"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


# ---------------------------------------------------------------------------
# shared training pipeline (criteria 7 and 8)
# ---------------------------------------------------------------------------

_PIPE = {"pretrain": None, "stochastic": {}, "deterministic": {}, "time": {}}


def _train_dataset():
    return SymbolFeatureDataset(512, 64, vocab=4, seed=TASK_SEED, split="train")


def _test_dataset():
    return SymbolFeatureDataset(16, 64, vocab=4, seed=TASK_SEED, split="test")


def _pretrained():
    """Pretrain once per seed; returns {seed: (params, loss_ratio)}."""
    if _PIPE["pretrain"] is None:
        started = time.perf_counter()
        out = {}
        for seed in SEEDS:
            model = EncoderModel(preset("tiny"), seed=seed)
            plan = TrainPlan(mode="stochastic", steps=200, batch_size=4,
                             learning_rate=0.003, seed=seed,
                             loss="masked_regression", sets=SETS)
            result = pretrain_toy(model, plan, SineFeatureDataset(64, 64, seed=seed))
            out[seed] = ({n: t.data.copy() for n, t in model.params.items()},
                         result.final_loss / result.initial_loss)
        _PIPE["pretrain"] = out
        _PIPE["time"]["pretrain"] = time.perf_counter() - started
    return _PIPE["pretrain"]


def _stochastic_ft(seed):
    """Stochastic fine-tune of the seed's pretrained checkpoint, plus its
    evaluation at the four standard configs."""
    if seed not in _PIPE["stochastic"]:
        started = time.perf_counter()
        params, _ = _pretrained()[seed]
        model = EncoderModel(preset("tiny"), params={n: v.copy() for n, v in params.items()})
        plan = TrainPlan(mode="stochastic", steps=1200, batch_size=4,
                         learning_rate=0.0015, seed=seed, loss="ctc", sets=SETS)
        result = finetune(model, plan, _train_dataset(), vocab=4)
        head = {"head.weight": result.params["head.weight"],
                "head.bias": result.params["head.bias"]}
        evals = {trip: evaluate(model, head, fixed_config(*trip, 2), _test_dataset())
                 for trip in STANDARD}
        _PIPE["stochastic"][seed] = evals
        _PIPE["time"][f"stochastic{seed}"] = time.perf_counter() - started
    return _PIPE["stochastic"][seed]


def _deterministic_ft(seed, trip):
    key = (seed, trip)
    if key not in _PIPE["deterministic"]:
        started = time.perf_counter()
        params, _ = _pretrained()[seed]
        model = EncoderModel(preset("tiny"), params={n: v.copy() for n, v in params.items()})
        plan = TrainPlan(mode="deterministic", steps=600, batch_size=4,
                         learning_rate=0.0015, seed=seed, loss="ctc",
                         fixed=fixed_config(*trip, 2))
        result = finetune(model, plan, _train_dataset(), vocab=4)
        head = {"head.weight": result.params["head.weight"],
                "head.bias": result.params["head.bias"]}
        _PIPE["deterministic"][key] = evaluate(model, head, fixed_config(*trip, 2),
                                               _test_dataset())
        _PIPE["time"][f"det{seed}{trip}"] = time.perf_counter() - started
    return _PIPE["deterministic"][key]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_degenerate_equivalence():
    started = time.perf_counter()
    # pooled attention at (1,1) vs plain attention
    worst_attend = 0.0
    for trial in range(10):
        x = Tensor(rand(3 * trial, 7, 4))
        w_q, w_k, w_v, w_o = (Tensor(w) for w in rand(3 * trial + 1, 4, 4, 4) / 2.0)
        params = AttentionParams(w_q=w_q, w_k=w_k, w_v=w_v, w_o=w_o, heads=1)
        plain = matmul(attend(matmul(x, w_q), matmul(x, w_k), matmul(x, w_v)), w_o).data
        pooled = multi_head_pooled(x, params, (1, 1)).data
        worst_attend = max(worst_attend, np.abs(plain - pooled).max())
    assert worst_attend <= 1e-14

    # full encoder at (1,1,1) vs an independently composed plain post-LN stack
    worst_encoder = 0.0
    for seed in (0, 1):
        model = EncoderModel(preset("tiny"), seed=seed)
        feats = rand(50 + seed, 18, 64)
        got = model.forward(feats, fixed_config(1, 1, 1, model.config.depth)).data
        want = test_encoder.plain_post_ln_encoder(model, feats)
        worst_encoder = max(worst_encoder, np.abs(got - want).max())
    assert worst_encoder < 1e-12
    report(1, "degenerate-equivalence", time.perf_counter() - started, 10,
           f"attend diff {worst_attend:.1e}, encoder diff {worst_encoder:.1e}")


def test_criterion_2_operator_laws():
    started = time.perf_counter()
    for n in range(1, 65):
        x = rand(200 + n, n, 3)
        for s in range(1, 5):
            down = downsample(Tensor(x), s).data
            assert down.shape[0] == -(-n // s)  # length law
            if s == 1:
                assert np.array_equal(down, x)  # identity
                assert np.array_equal(upsample(Tensor(x), 1).data, x)
            y = rand(300 + 4 * n + s, down.shape[0], 3)
            assert np.array_equal(downsample(upsample(Tensor(y), s), s).data, y)
            doubled = downsample(Tensor(2.0 * x), s).data
            assert np.abs(doubled - 2.0 * down).max() < 1e-12  # homogeneity
            z = rand(400 + 4 * n + s, n, 3)
            lin = downsample(Tensor(x + 0.5 * z), s).data
            split = down + 0.5 * downsample(Tensor(z), s).data
            assert np.abs(lin - split).max() < 1e-12  # additivity
            up_lin = upsample(Tensor(y + 0.5 * y), s).data
            assert np.abs(up_lin - 1.5 * upsample(Tensor(y), s).data).max() < 1e-12
    report(2, "operator-laws", time.perf_counter() - started, 30)


def test_criterion_3_gradient_suite():
    started = time.perf_counter()
    tgt44 = Tensor(rand(500, 4, 4))
    op_cases = [
        ("matmul", lambda a, b: sum_all(matmul(a, b)), [rand(501, 4, 3), rand(502, 3, 4)]),
        ("add", lambda a, b: sum_all(mul(add(a, b), add(a, b))),
         [rand(503, 4, 4), rand(504, 4, 4)]),
        ("bias_add", lambda a, b: sum_all(mul(add(a, b), add(a, b))),
         [rand(505, 4, 4), rand(506, 4)]),
        ("mul", lambda a, b: sum_all(mul(a, b)), [rand(509, 4, 4), rand(510, 4, 4)]),
        ("gelu", lambda a: sum_all(gelu(a)), [rand(512, 5, 5)]),
        ("layer_norm", lambda a, g, b: sum_all(mul(layer_norm(a, g, b), tgt44)),
         [rand(521, 4, 4), 1.0 + 0.2 * rand(522, 4), 0.2 * rand(523, 4)]),
        ("conv1d", lambda a, w: sum_all(mul(conv1d(a, w, 2), conv1d(a, w, 2))),
         [rand(524, 8, 3), rand(525, 4, 3, 3)]),
        ("conv1d_grouped", lambda a, w: sum_all(conv1d(a, w, 1, groups=2)),
         [rand(526, 6, 4), rand(527, 4, 2, 2)]),
        ("sum", lambda a: sum_all(mul(a, a)), [rand(528, 4, 4)]),
        ("downsample", lambda a: sum_all(mul(downsample(a, 3), downsample(a, 3))),
         [rand(530, 8, 3)]),
        ("upsample", lambda a: sum_all(mul(upsample(a, 2, truncate_to=7),
                                           upsample(a, 2, truncate_to=7))),
         [rand(531, 4, 3)]),
        ("ctc_loss", lambda a: ctc_loss(a, (1, 2)), [rand(532, 5, 3)]),
    ]
    tgt_attend = Tensor(rand(534, 6, 4))

    def pooled_loss(x, w_q, w_k, w_v, w_o, pair):
        params = AttentionParams(w_q=w_q, w_k=w_k, w_v=w_v, w_o=w_o, heads=1)
        return sum_all(mul(multi_head_pooled(x, params, pair), tgt_attend))

    for s_q, s_k in itertools.product((1, 2), repeat=2):
        op_cases.append(
            (f"multi_head_pooled_{s_q}{s_k}",
             lambda *a, f=(s_k, s_q): pooled_loss(*a, f),
             [rand(535, 6, 4)] + [rand(seed, 4, 4) / 2.0 for seed in (536, 537, 538, 539)]))
    worst = 0.0
    for name, fn, arrays in op_cases:
        worst = max(worst, check_gradients(fn, arrays))

    # full tiny model, feature path, configs (1,1,1) and (2,2,2)
    model = EncoderModel(preset("tiny"), seed=9)
    names = list(model.params)
    feats = rand(540, 10, 64)
    tgt = rand(541, 10, 64)
    for trip in ((1, 1, 1), (2, 2, 2)):
        config = fixed_config(*trip, model.config.depth)

        def model_loss(*tensors):
            trial = EncoderModel(model.config, params=dict(zip(names, tensors)))
            return sum_all(mul(trial.forward(Tensor(feats), config), Tensor(tgt)))

        worst = max(worst, check_gradients(
            model_loss, [model.params[n].data for n in names],
            coords_per_array=3, seed=42))

    # audio front-end in situ: short clip through the conv stack and encoder
    audio = rand(542, 800).ravel()

    def audio_loss(*tensors):
        trial = EncoderModel(model.config, params=dict(zip(names, tensors)))
        out = trial.forward(trial.extract_features(audio),
                            fixed_config(2, 2, 2, model.config.depth))
        return sum_all(mul(out, Tensor(rand(543, out.shape[0], 64))))

    worst = max(worst, check_gradients(
        audio_loss, [model.params[n].data for n in names],
        coords_per_array=2, seed=43))
    assert worst < 1e-4
    report(3, "gradient-suite", time.perf_counter() - started, 180,
           f"worst relative error {worst:.2e}")


def test_criterion_4_ctc_oracle():
    started = time.perf_counter()
    rng = Rng(77).fork("ctc-acceptance")
    checked = 0
    trial = 0
    worst = 0.0
    while checked < 200:
        trial += 1
        t_len = 1 + rng.integer(6)
        vocab = 1 + rng.integer(3)
        labels = tuple(1 + rng.integer(vocab) for _ in range(rng.integer(t_len + 1)))
        if t_len < min_frames(labels):
            continue
        logits = rand(1000 + trial, t_len, vocab + 1)
        got = ctc_loss(Tensor(logits), labels).item()
        want = ctc_loss_bruteforce(logits, labels)
        worst = max(worst, abs(got - want))
        checked += 1
    assert worst < 1e-9

    # greedy collapse rules on enumerated cases
    for ids in itertools.product(range(3), repeat=5):
        logits = np.zeros((5, 3))
        logits[np.arange(5), ids] = 5.0
        decoded = greedy_decode(logits)
        assert decoded == collapse(ids)
        assert 0 not in decoded
    # feasibility is an error, not infinity
    with pytest.raises(InfeasibleLabelError):
        ctc_loss(Tensor(np.zeros((2, 3))), (1, 1, 2))
    report(4, "ctc-oracle", time.perf_counter() - started, 30,
           f"200 instances, worst |diff| {worst:.1e}")


@pytest.mark.timing
def test_criterion_5_cost_model_exactness_and_ordering():
    started = time.perf_counter()
    tiny = EncoderModel(preset("tiny"), seed=0)
    for s_f, s_k, s_q in itertools.product((1, 2), repeat=3):
        config = fixed_config(s_f, s_k, s_q, tiny.config.depth)
        for from_audio in (False, True):
            analytic = analytic_cost(config, tiny.config, 50, from_audio=from_audio)
            counted = instrumented_macs(tiny, config, 50, from_audio=from_audio)
            assert analytic.macs_total == counted.total

    totals = [analytic_cost(fixed_config(*t, tiny.config.depth), tiny.config, 50).macs_total
              for t in STANDARD]
    assert all(a > b for a, b in zip(totals, totals[1:]))

    small = EncoderModel(preset("small"), seed=0)
    dataset = SineFeatureDataset(6, 128, seed=0, min_frames=1000, max_frames=1000)
    configs = [fixed_config(*trip, small.config.depth) for trip in STANDARD]
    walls = [rep.wall_ms_median for rep in measure(small, configs, dataset, repeats=5)]
    assert all(a > b for a, b in zip(walls, walls[1:])), f"wall ordering broke: {walls}"
    report(5, "cost-exactness-and-ordering", time.perf_counter() - started, 120,
           "wall ms " + " > ".join(f"{w:.0f}" for w in walls))


def test_criterion_6_mac_ratio_consistency():
    started = time.perf_counter()
    enc = preset("B")
    base = analytic_cost(fixed_config(1, 1, 1, enc.depth), enc, 1000,
                         from_audio=True).macs_total
    squeezed = analytic_cost(fixed_config(2, 1, 1, enc.depth), enc, 1000,
                             from_audio=True).macs_total
    ratio = squeezed / base
    assert 0.4 < ratio < 0.6
    report(6, "mac-ratio-consistency", time.perf_counter() - started, 1,
           f"ratio {ratio:.3f}")


def test_criterion_7_stochastic_training_viability():
    started = time.perf_counter()
    ratios = [_pretrained()[seed][1] for seed in SEEDS]
    assert all(r < 0.5 for r in ratios), f"pretraining did not halve loss: {ratios}"
    evals = _stochastic_ft(SEEDS[0])
    for trip, ev in evals.items():
        assert np.isfinite(ev.loss), f"non-finite CTC loss at {trip}"
        assert ev.symbol_error < 1.0, f"zero accuracy at {trip}: SER {ev.symbol_error}"
    own_time = _PIPE["time"]["pretrain"] + _PIPE["time"][f"stochastic{SEEDS[0]}"]
    report(7, "stochastic-training-viability", own_time, 300,
           "halving " + "/".join(f"{r:.2f}" for r in ratios) + "; SER "
           + "/".join(f"{evals[t].symbol_error:.2f}" for t in STANDARD))
    del started


def test_criterion_8_deterministic_finetune_advantage():
    _pretrained()
    stage_keys_before = set(_PIPE["time"])
    det_median = {}
    st_median = {}
    for trip in STANDARD:
        det_median[trip] = float(np.median([_deterministic_ft(s, trip).symbol_error
                                            for s in SEEDS]))
        st_median[trip] = float(np.median([_stochastic_ft(s)[trip].symbol_error
                                           for s in SEEDS]))
    own_time = sum(v for k, v in _PIPE["time"].items() if k not in stage_keys_before)
    holds = [trip for trip in STANDARD if det_median[trip] <= st_median[trip]]
    detail = "; ".join(f"{'-'.join(map(str, t))}: det {det_median[t]:.3f} vs "
                       f"st {st_median[t]:.3f}" for t in STANDARD)
    if len(holds) >= 3:
        report(8, "deterministic-finetune-advantage", own_time, 600, detail)
    elif len(holds) == 2:
        # stochastic outcome allowed by the criterion: report, do not fail
        warnings.warn(f"deterministic advantage held in only 2/4 configs: {detail}")
        report(8, "deterministic-finetune-advantage (soft)", own_time, 600, detail)
    else:
        raise AssertionError(
            f"deterministic fine-tuning beat stochastic in only {len(holds)}/4 "
            f"configs: {detail}")


def test_criterion_9_sampler_statistics():
    started = time.perf_counter()
    for values in ((1, 2), (1, 2, 3), (1, 2, 3, 4)):
        rng = Rng(4000 + len(values)).fork("chi")
        draws = 100_000
        counts = dict.fromkeys(values, 0)
        for _ in range(draws):
            counts[rng.choice(values)] += 1
        expected = draws / len(values)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < CHI2_CRIT[len(values) - 1], f"set {values}: chi2 {chi2:.2f}"

    def draw_run():
        rng = Rng(31337).fork("configs")
        return [sample_config(SETS, 4, rng.fork(f"step{i}")).describe()
                for i in range(1000)]

    assert draw_run() == draw_run()
    report(9, "sampler-statistics", time.perf_counter() - started, 10)
