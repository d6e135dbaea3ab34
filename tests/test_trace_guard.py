"""Guard: no op may be hidden from tracing by a cached function reference.

Tracing (as in ``perfbench``) wraps an op by rebinding every module-level
name in the package that is bound to it, so it sees only the calls made
through such names. Here every public op is wrapped that way, a profile
hook counts every execution of the op's own code, and a tiny training and
decoding run must execute each op at least once and only ever through its
wrapper. An op called through a reference kept on an object, in a
closure or in a container would show more executions than wrapper calls.
"""

import sys

import numpy as np

from stochpool import attention, ctc, pooling, tensor
from stochpool.data import SineFeatureDataset, Utterance, synth_audio
from stochpool.encoder import EncoderModel, preset
from stochpool.stochastic import fixed_config
from stochpool.training import TrainPlan, evaluate, finetune, make_head, pretrain_toy

OPS = (
    (tensor, ("matmul", "add", "mul", "gelu", "layer_norm", "conv1d", "sum_all",
              "mac_scope")),
    (attention, ("attend", "multi_head_pooled")),
    (pooling, ("downsample", "upsample")),
    (ctc, ("ctc_loss", "greedy_decode")),
)


def package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "stochpool" or name.startswith("stochpool."))]


def wrap_everywhere(monkeypatch, calls: dict) -> dict:
    """Rebind every package name bound to an op to a counting wrapper;
    returns each op's label keyed by its code object."""
    modules = package_modules()
    codes = {}
    for module, names in OPS:
        for name in names:
            original = getattr(module, name)
            label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            codes[original.__code__] = label
            calls[label] = 0

            def wrapper(*args, _original=original, _label=label, **kwargs):
                calls[_label] += 1
                return _original(*args, **kwargs)

            for owner in modules:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        monkeypatch.setattr(owner, attr, wrapper)
    return codes


def plan(loss: str) -> TrainPlan:
    return TrainPlan(mode="deterministic", steps=1, batch_size=1, learning_rate=1e-3, seed=3,
                     loss=loss, fixed=fixed_config(2, 2, 2, 2))


def tiny_run(model: EncoderModel):
    """Pretraining and fine-tuning steps, a forward and a decode."""
    pretrain_toy(model, plan("masked_regression"), SineFeatureDataset(1, 64, seed=3))
    audio = [Utterance(audio=synth_audio(3, seconds=0.5), labels=(1, 2))]
    head = make_head(64, 4, seed=3)
    finetune(model, plan("ctc"), audio, vocab=4, head=head)
    config = fixed_config(2, 2, 2, 2)
    with tensor.count_macs():
        model.forward(np.ones((9, 64)), config)
    evaluate(model, head, config, audio)


def traced_counts(monkeypatch, action):
    """(wrapper calls, executions) per op while ``action`` runs traced."""
    calls = {}
    codes = wrap_everywhere(monkeypatch, calls)
    executed = dict.fromkeys(calls, 0)

    def count(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            executed[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return calls, executed


def test_every_op_runs_only_through_its_traced_name(monkeypatch):
    model = EncoderModel(preset("tiny"), seed=3)  # built before tracing starts
    calls, executed = traced_counts(monkeypatch, lambda: tiny_run(model))
    assert [op for op, n in calls.items() if n == 0] == [], "ops the run never reached"
    assert executed == calls, "ops executed without passing through their traced name"


def test_a_cached_reference_is_caught(monkeypatch):
    cached = tensor.gelu  # kept before tracing starts, as a cache would be
    calls, executed = traced_counts(monkeypatch, lambda: cached(np.ones((2, 2))))
    assert calls["tensor.gelu"] == 0 and executed["tensor.gelu"] == 1
