"""Training loops: determinism, logging, divergence handling, evaluation."""

import hashlib
import json

import numpy as np
import pytest

from stochpool.data import SineFeatureDataset, SymbolFeatureDataset, Utterance, synth_audio
from stochpool.encoder import EncoderModel, load_checkpoint, preset, save_checkpoint
from stochpool.errors import ConfigError, DivergenceError, InputError
from stochpool.stochastic import FactorSets, fixed_config
from stochpool.training import (
    Adam,
    TrainPlan,
    _accumulate,
    _mask_plan,
    evaluate,
    finetune,
    make_head,
    pretrain_toy,
    write_train_log,
)
from stochpool.stochastic import Rng
from stochpool.tensor import Tape, Tensor, add, backward, sum_all

SETS = FactorSets((1, 2), (1, 2), (1, 2))


def rand_matrix(seed, *shape):
    return Rng(seed).fork("adam").normal_matrix(shape)


def tiny_model(seed=0):
    return EncoderModel(preset("tiny"), seed=seed)


def pretrain_plan(steps=10, seed=0, mode="stochastic", lr=0.003):
    return TrainPlan(mode=mode, steps=steps, batch_size=2, learning_rate=lr,
                     seed=seed, loss="masked_regression",
                     sets=SETS if mode == "stochastic" else None,
                     fixed=None if mode == "stochastic" else fixed_config(2, 1, 1, 2))


def ctc_plan(steps=10, seed=0, mode="stochastic", lr=0.0015, **kw):
    return TrainPlan(mode=mode, steps=steps, batch_size=2, learning_rate=lr,
                     seed=seed, loss="ctc",
                     sets=SETS if mode == "stochastic" else None,
                     fixed=None if mode == "stochastic" else fixed_config(2, 1, 1, 2),
                     **kw)


class TestPlanValidation:
    def test_deterministic_requires_fixed(self):
        with pytest.raises(ConfigError):
            TrainPlan(mode="deterministic", steps=1, batch_size=1, learning_rate=1e-3,
                      seed=0, loss="ctc")

    def test_stochastic_requires_sets(self):
        with pytest.raises(ConfigError):
            TrainPlan(mode="stochastic", steps=1, batch_size=1, learning_rate=1e-3,
                      seed=0, loss="ctc")

    def test_deterministic_rejects_sets(self):
        with pytest.raises(ConfigError, match="ignore sets"):
            TrainPlan(mode="deterministic", steps=1, batch_size=1, learning_rate=1e-3,
                      seed=0, loss="ctc", sets=SETS, fixed=fixed_config(2, 1, 1, 2))

    def test_stochastic_rejects_fixed(self):
        with pytest.raises(ConfigError, match="ignore fixed"):
            TrainPlan(mode="stochastic", steps=1, batch_size=1, learning_rate=1e-3,
                      seed=0, loss="ctc", sets=SETS, fixed=fixed_config(2, 1, 1, 2))

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            TrainPlan(mode="sometimes", steps=1, batch_size=1, learning_rate=1e-3,
                      seed=0, loss="ctc", sets=SETS)


class TestMasking:
    def test_mask_fraction_near_target(self):
        for frames in (10, 24, 48):
            mask = _mask_plan(Rng(0).fork(f"m{frames}"), frames)
            frac = mask.sum() / frames
            assert 0.2 <= frac <= 0.55

    def test_mask_deterministic(self):
        a = _mask_plan(Rng(5).fork("m"), 30)
        b = _mask_plan(Rng(5).fork("m"), 30)
        assert np.array_equal(a, b)


class TestPretrain:
    def test_singleton_sets_log_identity_config(self):
        model = tiny_model()
        plan = TrainPlan(mode="stochastic", steps=8, batch_size=2, learning_rate=1e-3,
                         seed=0, loss="masked_regression",
                         sets=FactorSets((1,), (1,), (1,)))
        result = pretrain_toy(model, plan, SineFeatureDataset(8, 64, seed=0))
        assert all(rec.config == "1-1-1" for rec in result.log)

    def test_seeded_run_bit_reproducible(self):
        curves = []
        for _ in range(2):
            model = tiny_model(seed=4)
            result = pretrain_toy(model, pretrain_plan(steps=12, seed=4),
                                  SineFeatureDataset(8, 64, seed=4))
            curves.append([rec.loss for rec in result.log])
        assert curves[0] == curves[1]

    def test_seeded_run_matches_golden(self):
        # bit for bit: the loss's add/mul form must round as subtraction and a
        # scalar multiply do (losses as float.hex, parameters as a sha256)
        model = tiny_model(seed=5)
        plan = TrainPlan(mode="stochastic", steps=3, batch_size=2, learning_rate=0.003,
                         seed=5, loss="masked_regression", sets=SETS)
        result = pretrain_toy(model, plan, SineFeatureDataset(8, 64, seed=5))
        assert [rec.config for rec in result.log] == ["2-(1,2)-(1,2)", "1-1-(1,2)",
                                                      "2-(1,2)-(1,2)"]
        assert [rec.loss.hex() for rec in result.log] == [
            "0x1.0c1d553bb3a0dp+1", "0x1.04dd237d4641ap+1", "0x1.b238e2657569bp+0"]
        digest = hashlib.sha256()
        for name, param in result.params.items():
            digest.update(name.encode())
            digest.update(param.data.tobytes())
        assert digest.hexdigest() == (
            "1842c5cf67d9679dc3368fb7ab38276b7c39ad51f21b420c7cdfa0484a17503a")

    def test_loss_decreases_in_short_run(self):
        model = tiny_model(seed=1)
        result = pretrain_toy(model, pretrain_plan(steps=60, seed=1),
                              SineFeatureDataset(16, 64, seed=1))
        first = np.mean([r.loss for r in result.log[:10]])
        last = np.mean([r.loss for r in result.log[-10:]])
        assert last < first

    def test_all_losses_finite_and_logged(self):
        model = tiny_model(seed=2)
        result = pretrain_toy(model, pretrain_plan(steps=15, seed=2),
                              SineFeatureDataset(8, 64, seed=2))
        assert len(result.log) == 15
        assert all(np.isfinite(rec.loss) for rec in result.log)
        assert all(rec.grad_norm >= 0 for rec in result.log)

    def test_divergence_aborts_with_log(self):
        model = tiny_model(seed=3)
        plan = pretrain_plan(steps=120, seed=3, lr=1e6)
        with pytest.raises(DivergenceError) as err:
            pretrain_toy(model, plan, SineFeatureDataset(8, 64, seed=3))
        assert len(err.value.log) >= 1

    def test_runaway_loss_aborts_after_patience(self):
        # scripted losses: finite but stuck above 10x the initial value
        from stochpool.training import _run_loop
        from stochpool.tensor import sum_all

        model = tiny_model(seed=30)

        def scripted_loss(utt, config, step, slot):
            return sum_all(Tensor(np.array([[1.0 if step == 0 else 20.0]])))

        with pytest.raises(DivergenceError, match="consecutive") as err:
            _run_loop(model, {}, pretrain_plan(steps=120, seed=30),
                      SineFeatureDataset(4, 64, seed=30), scripted_loss,
                      phase="pretrain")
        assert len(err.value.log) == 51  # initial step plus 50 runaway steps

    def test_wrong_loss_kind_rejected(self):
        with pytest.raises(ConfigError):
            pretrain_toy(tiny_model(), ctc_plan(), SineFeatureDataset(4, 64, seed=0))


class TestFinetune:
    def test_zero_steps_keeps_encoder_and_adds_fresh_head(self):
        model = tiny_model(seed=5)
        before = {n: t.data.copy() for n, t in model.params.items()}
        result = finetune(model, ctc_plan(steps=0, seed=5),
                          SymbolFeatureDataset(8, 64, seed=5), vocab=4)
        for name, value in before.items():
            assert np.array_equal(result.params[name].data, value)
        assert result.params["head.weight"].shape == (64, 5)
        assert result.params["head.bias"].shape == (5,)
        assert result.log == []

    def test_parameter_count_delta_is_head_size(self):
        model = tiny_model(seed=6)
        encoder_count = sum(t.data.size for t in model.params.values())
        result = finetune(model, ctc_plan(steps=1, seed=6),
                          SymbolFeatureDataset(8, 64, seed=6), vocab=4)
        total = sum(t.data.size for t in result.params.values())
        assert total - encoder_count == 64 * 5 + 5

    def test_deterministic_mode_logs_single_config(self):
        model = tiny_model(seed=7)
        result = finetune(model, ctc_plan(steps=12, seed=7, mode="deterministic"),
                          SymbolFeatureDataset(8, 64, seed=7), vocab=4)
        assert set(rec.config for rec in result.log) == {"2-1-1"}

    def test_stochastic_mode_logs_multiple_configs(self):
        model = tiny_model(seed=8)
        result = finetune(model, ctc_plan(steps=25, seed=8),
                          SymbolFeatureDataset(8, 64, seed=8), vocab=4)
        assert len(set(rec.config for rec in result.log)) >= 2

    def test_infeasible_utterances_skipped_and_counted(self):
        class WithInfeasible:
            def __init__(self):
                self.good = SymbolFeatureDataset(4, 64, seed=9)

            def __len__(self):
                return 5

            def __getitem__(self, i):
                if i == 4:  # 2 frames cannot carry 3 labels
                    return Utterance(features=np.zeros((2, 64)), labels=(1, 2, 1))
                return self.good[i]

        model = tiny_model(seed=9)
        result = finetune(model, ctc_plan(steps=20, seed=9), WithInfeasible(), vocab=4)
        assert result.infeasible_skipped >= 1
        assert len(result.log) == 20

    def test_resume_determinism_from_checkpoint(self, tmp_path):
        model = tiny_model(seed=10)
        first = finetune(model, ctc_plan(steps=6, seed=10),
                         SymbolFeatureDataset(8, 64, seed=10), vocab=4)
        path = tmp_path / "mid.stpl"
        save_checkpoint(path, model.config, first.params, meta={})

        def resume():
            ck = load_checkpoint(path)
            m, extras = ck.build_model()
            head = {"head.weight": extras["head.weight"], "head.bias": extras["head.bias"]}
            res = finetune(m, ctc_plan(steps=6, seed=11), SymbolFeatureDataset(8, 64, seed=10),
                           vocab=4, head=head)
            return [rec.loss for rec in res.log]

        assert resume() == resume()

    @pytest.mark.parametrize("freeze", [True, False])
    def test_freeze_extractor_keeps_extractor_weights(self, freeze):
        model = tiny_model(seed=13)
        before = {n: t.data.copy() for n, t in model.params.items()}
        audio = [Utterance(audio=synth_audio(13 + i), labels=(1, 2, 3)) for i in range(2)]
        result = finetune(model, ctc_plan(steps=2, seed=13, freeze_extractor=freeze),
                          audio, vocab=4)
        changed = {n: not np.array_equal(result.params[n].data, before[n]) for n in before}
        extractor = [changed[n] for n in before if n.startswith("fe.")]
        layers = [changed[n] for n in before if n.startswith("layer")]
        assert extractor and layers
        assert not any(extractor) if freeze else all(extractor)
        assert all(layers)

    def test_validation_selection_tracks_best(self):
        model = tiny_model(seed=12)
        plan = ctc_plan(steps=12, seed=12, eval_interval=4)
        result = finetune(model, plan, SymbolFeatureDataset(8, 64, seed=12), vocab=4,
                          val_dataset=SymbolFeatureDataset(4, 64, seed=12, split="val"))
        assert result.best_val_loss is not None
        assert np.isfinite(result.best_val_loss)


class TestDataOffTape:
    """One step of each training entry point records no op on constants only,
    and the positional conv differentiates its input only where a trainable
    value (the extractor, the mask embedding) reaches it."""

    @pytest.mark.parametrize("entry", ["features", "audio", "audio-frozen", "pretrain"])
    def test_recorded_inputs(self, monkeypatch, entry):
        model = tiny_model(seed=14)
        records = []
        record = Tape._record

        def spy(tape, out, inputs, backward_fn):
            records.append(inputs)
            return record(tape, out, inputs, backward_fn)

        monkeypatch.setattr(Tape, "_record", spy)
        if entry == "pretrain":
            pretrain_toy(model, pretrain_plan(steps=1, seed=14), SineFeatureDataset(4, 64, seed=14))
        elif entry == "features":
            finetune(model, ctc_plan(steps=1, seed=14), SymbolFeatureDataset(4, 64, seed=14),
                     vocab=4)
        else:
            audio = [Utterance(audio=synth_audio(14 + i), labels=(1, 2)) for i in range(2)]
            finetune(model, ctc_plan(steps=1, seed=14, freeze_extractor=entry == "audio-frozen"),
                     audio, vocab=4)

        assert records
        assert all(any(t.grad_id is not None for t in inputs) for inputs in records)
        pos_conv = [inputs[0] for inputs in records
                    if inputs[-1] is model.params["pos_conv.weight"]]
        assert len(pos_conv) == 2  # one per utterance of the batch
        trainable_input = entry in ("audio", "pretrain")
        assert all((x.grad_id is not None) == trainable_input for x in pos_conv)
        if entry == "audio":  # the normalised audio itself is data
            first_conv = [inputs[0] for inputs in records
                          if inputs[-1] is model.params["fe.conv0.weight"]]
            assert len(first_conv) == 2 and all(x.grad_id is None for x in first_conv)


class TestEvaluate:
    def test_training_config_is_best_among_standard_soft(self):
        # soft check: a deterministically fine-tuned model should score best
        # at its own training configuration; reported, never hard-failed
        import warnings

        model = tiny_model(seed=20)
        target = (2, 2, 2)
        plan = TrainPlan(mode="deterministic", steps=250, batch_size=4,
                         learning_rate=0.0015, seed=20, loss="ctc",
                         fixed=fixed_config(*target, 2))
        result = finetune(model, plan, SymbolFeatureDataset(256, 64, seed=20), vocab=4)
        head = {"head.weight": result.params["head.weight"],
                "head.bias": result.params["head.bias"]}
        test_set = SymbolFeatureDataset(12, 64, seed=20, split="test")
        errors = {trip: evaluate(model, head, fixed_config(*trip, 2), test_set).symbol_error
                  for trip in ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2))}
        best = min(errors, key=errors.get)
        if errors[best] < errors[target]:
            warnings.warn(f"deterministic config {target} not the argmin: {errors}")

    def test_empty_dataset_rejected(self):
        class Empty:
            def __len__(self):
                return 0

        model = tiny_model()
        head = make_head(64, 4, seed=0)
        with pytest.raises(InputError):
            evaluate(model, head, fixed_config(1, 1, 1, 2), Empty())

    def test_identical_runs_identical_metrics(self):
        model = tiny_model(seed=13)
        head = make_head(64, 4, seed=13)
        ds = SymbolFeatureDataset(4, 64, seed=13)
        config = fixed_config(2, 2, 2, 2)
        a = evaluate(model, head, config, ds)
        b = evaluate(model, head, config, ds)
        assert a.loss == b.loss and a.symbol_error == b.symbol_error

    def test_no_feasible_utterance_rejected(self):
        class Infeasible:  # four frames cannot carry six labels
            def __len__(self):
                return 2

            def __getitem__(self, i):
                return Utterance(features=np.zeros((4, 64)), labels=(1, 2, 3, 4, 1, 2))

        model = tiny_model()
        head = make_head(64, 4, seed=0)
        with pytest.raises(InputError, match="feasible"):
            evaluate(model, head, fixed_config(1, 1, 1, 2), Infeasible())

    def test_unlabeled_rejected(self):
        model = tiny_model()
        head = make_head(64, 4, seed=0)
        with pytest.raises(InputError):
            evaluate(model, head, fixed_config(1, 1, 1, 2),
                     SineFeatureDataset(2, 64, seed=0))


class TestAdamAndLog:
    def test_warmup_then_constant(self):
        params = {"w": Tensor(np.zeros((2, 2)))}
        opt = Adam(params, lr=1.0, warmup_steps=4)
        assert [opt.lr_at(i) for i in range(6)] == [0.25, 0.5, 0.75, 1.0, 1.0, 1.0]

    def test_step_moves_against_gradient(self):
        w = Tensor(np.array([[1.0, -1.0]]))
        opt = Adam({"w": w}, lr=0.1)
        opt.step({"w": np.array([[1.0, -1.0]])})
        assert w.data[0, 0] < 1.0 and w.data[0, 1] > -1.0

    def test_jsonl_log_round_trip(self, tmp_path):
        model = tiny_model(seed=14)
        result = pretrain_toy(model, pretrain_plan(steps=3, seed=14),
                              SineFeatureDataset(4, 64, seed=14))
        path = tmp_path / "log.jsonl"
        write_train_log(path, result.log)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        rec = json.loads(lines[0])
        assert set(rec) == {"step", "config", "loss", "grad_norm", "wall_ms",
                            "forward_ms", "backward_ms", "optimizer_ms"}

    def test_step_time_split_within_wall_time(self):
        model = tiny_model(seed=15)
        ds = SymbolFeatureDataset(8, 64, vocab=4, seed=15, split="train")
        result = finetune(model, ctc_plan(steps=3, seed=15), ds, vocab=4)
        for rec in result.log:
            parts = (rec.forward_ms, rec.backward_ms, rec.optimizer_ms)
            assert all(p >= 0.0 for p in parts)
            assert rec.forward_ms > 0.0 and rec.backward_ms > 0.0
            assert sum(parts) <= rec.wall_ms


def adam_written(p, m, v, g, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam step written out with temporaries: (param, m, v) after it."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    update = lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    return p - update, m, v


def test_accumulate_owns_its_sums():
    """The tape hands both inputs of an add the same gradient array, so the
    in-place sums must start from copies."""
    params = {"a": Tensor(np.zeros((2, 3))), "b": Tensor(np.zeros((2, 3)))}
    total = {}
    for _ in range(2):
        with Tape():
            loss = sum_all(add(params["a"], params["b"]))
        grads = backward(loss)
        assert grads[params["a"]] is grads[params["b"]]
        _accumulate(total, params, grads)
    assert np.array_equal(total["a"], np.full((2, 3), 2.0))
    assert np.array_equal(total["b"], np.full((2, 3), 2.0))


class TestAdamInPlace:
    def test_equals_written_out_formula_over_steps(self):
        # small parameters and a large rate, so the update's last bits show
        w = 1e-3 * rand_matrix(30, 5, 3)
        b = 1e-3 * rand_matrix(31, 1, 4)[0]
        params = {"w": Tensor(w), "b": Tensor(b)}
        opt = Adam(params, lr=0.1, warmup_steps=3)
        want = {name: (t.data.copy(), np.zeros_like(t.data), np.zeros_like(t.data))
                for name, t in params.items()}
        for step in range(7):
            grads = {"w": rand_matrix(40 + step, 5, 3) * 10.0 ** (step - 3),
                     "b": rand_matrix(50 + step, 1, 4)[0]}
            lr = opt.lr_at(step)
            opt.step(grads)
            for name, g in grads.items():
                want[name] = adam_written(*want[name], g, step + 1, lr)
                assert np.array_equal(params[name].data, want[name][0])
                assert np.array_equal(opt._m[name], want[name][1])
                assert np.array_equal(opt._v[name], want[name][2])

    def test_parameter_without_gradient_keeps_value_and_moments(self):
        params = {"w": Tensor(rand_matrix(32, 2, 3)), "idle": Tensor(rand_matrix(33, 3, 2))}
        opt = Adam(params, lr=0.01)
        opt.step({"w": rand_matrix(34, 2, 3), "idle": rand_matrix(35, 3, 2)})
        idle = (params["idle"].data.copy(), opt._m["idle"].copy(), opt._v["idle"].copy())
        w_before = params["w"].data.copy()
        for step in range(3):
            opt.step({"w": rand_matrix(36 + step, 2, 3)})
        assert not np.array_equal(params["w"].data, w_before)
        assert np.array_equal(params["idle"].data, idle[0])
        assert np.array_equal(opt._m["idle"], idle[1])
        assert np.array_equal(opt._v["idle"], idle[2])

    def test_clone_arrays_never_written(self):
        model = tiny_model(seed=16)
        copy = model.astype(model.dtype)
        before = {name: t.data.copy() for name, t in model.params.items()}
        ds = SymbolFeatureDataset(8, 64, vocab=4, seed=16, split="train")
        finetune(copy, ctc_plan(steps=2, seed=16), ds, vocab=4)
        assert any(not np.array_equal(copy.params[n].data, before[n]) for n in before)
        for name, t in model.params.items():
            assert np.array_equal(t.data, before[name]), name
