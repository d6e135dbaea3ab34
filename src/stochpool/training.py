"""Desk-scale training loops.

Two phases: masked-frame regression pretraining (predict the original
features at masked positions from everything else) and CTC fine-tuning
with a fresh linear head. Both run either stochastically, sampling a new
compression configuration per batch, or deterministically at one fixed
configuration.

All randomness is drawn from per-purpose, per-step forks of a single
counter-based stream, so a run is a pure function of (plan, dataset) and
resuming from a checkpoint is bit-reproducible.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .ctc import ctc_loss, edit_distance, greedy_decode
from .encoder import EncoderConfig, EncoderModel
from .errors import ConfigError, DivergenceError, InfeasibleLabelError, InputError
from .stochastic import CompressionConfig, FactorSets, Rng, fixed_config, sample_config
from .tensor import (
    GradientMap,
    Tape,
    Tensor,
    add,
    as_tensor,
    backward,
    matmul,
    mul,
    no_grad,
    sum_all,
)

MASK_FRACTION = 0.3
MASK_SPAN = 3
WARMUP_FRACTION = 0.1  # of the run's steps, at least one step
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_PATIENCE = 50
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainPlan:
    """Everything that determines a training run besides the data."""

    mode: str  # "stochastic" | "deterministic"
    steps: int
    batch_size: int
    learning_rate: float
    seed: int
    loss: str  # "masked_regression" | "ctc"
    sets: FactorSets | None = None
    fixed: CompressionConfig | None = None
    eval_interval: int = 0  # 0 -> no validation-based selection
    freeze_extractor: bool = False

    def __post_init__(self):
        if self.mode not in ("stochastic", "deterministic"):
            raise ConfigError(f"mode must be stochastic or deterministic, got {self.mode!r}")
        if self.loss not in ("masked_regression", "ctc"):
            raise ConfigError(f"loss must be masked_regression or ctc, got {self.loss!r}")
        if self.mode == "deterministic" and self.fixed is None:
            raise ConfigError("deterministic mode requires a fixed CompressionConfig")
        if self.mode == "stochastic" and self.sets is None:
            raise ConfigError("stochastic mode requires FactorSets to sample from")
        if self.mode == "deterministic" and self.sets is not None:
            raise ConfigError("deterministic mode trains at fixed and would ignore sets")
        if self.mode == "stochastic" and self.fixed is not None:
            raise ConfigError("stochastic mode samples from sets and would ignore fixed")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < np.inf:  # NaN fails too
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.eval_interval < 0:
            raise ConfigError(f"eval_interval must be >= 0, got {self.eval_interval}")

    def check_fits(self, config: EncoderConfig) -> None:
        """Raise ConfigError unless the largest factors a step can draw fit
        the encoder's ceilings; a run checks this before step 0, and the CLI
        before it writes any output."""
        sets = self.sets
        (self.fixed or fixed_config(max(sets.squeeze_set), max(sets.kv_set), max(sets.q_set),
                                    config.depth)).check_fits(config)


@dataclass
class TrainLogRecord:
    """One optimizer step. ``wall_ms`` covers the whole step; the forward
    (loss) and backward (gradients and their sum) times are summed over the
    step's utterances, and ``optimizer_ms`` covers averaging the gradients
    and the Adam update."""

    step: int
    config: str
    loss: float
    grad_norm: float
    wall_ms: float
    forward_ms: float
    backward_ms: float
    optimizer_ms: float


@dataclass
class TrainResult:
    params: dict  # name -> Tensor, encoder plus auxiliary groups
    log: list
    initial_loss: float
    final_loss: float
    best_val_loss: float | None = None
    infeasible_skipped: int = 0


@dataclass
class EvalResult:
    loss: float
    symbol_error: float


def write_train_log(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(asdict(rec), sort_keys=True) + "\n")


class Adam:
    """Adam (``ADAM_BETA1``, ``ADAM_BETA2``, ``ADAM_EPS``) with linear warmup
    to a constant learning rate."""

    def __init__(self, params: dict, lr: float, warmup_steps: int = 0):
        self.params = params
        self.lr = lr
        self.warmup_steps = warmup_steps
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def lr_at(self, step: int) -> float:
        if self.warmup_steps > 0 and step < self.warmup_steps:
            return self.lr * (step + 1) / self.warmup_steps
        return self.lr

    def step(self, grads: dict):
        lr = self.lr_at(self.t)
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for name, param in self.params.items():
            g = grads.get(name)
            if g is None:
                continue  # no gradient this step: value and moments stay
            # the moments are Adam's own arrays, updated in place in the
            # rounding order of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g
            m, v = self._m[name], self._v[name]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            g2 = (1 - ADAM_BETA2) * g
            g2 *= g
            v += g2
            # lr (m / bc1) / (sqrt(v / bc2) + eps), reusing the temporaries
            update = m / bc1
            update *= lr
            denom = np.divide(v, bc2, out=g2)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            update /= denom
            # rebind, never write through: a same-dtype model copy shares arrays
            param.data = param.data - update


def _config_for_step(plan: TrainPlan, depth: int, config_rng: Rng, step: int) -> CompressionConfig:
    if plan.mode == "deterministic":
        return plan.fixed
    return sample_config(plan.sets, depth, config_rng.fork(f"step{step}"))


def _batch_indices(rng: Rng, step: int, n: int, batch_size: int) -> list:
    step_rng = rng.fork(f"step{step}")
    return [step_rng.integer(n) for _ in range(batch_size)]


def _utterance_features(model: EncoderModel, utt, freeze_extractor: bool):
    """Encoder input for one utterance: a constant, unless the extractor
    trains, in which case its output carries the extractor's gradients."""
    if utt.features is not None:
        return as_tensor(utt.features, dtype=model.dtype)
    if freeze_extractor:
        with no_grad():
            return as_tensor(model.extract_features(utt.audio).data)
    return model.extract_features(utt.audio)


def _mask_plan(rng: Rng, frames: int) -> np.ndarray:
    """Boolean mask covering ~MASK_FRACTION of frames in MASK_SPAN runs."""
    target = max(1, int(round(MASK_FRACTION * frames)))
    mask = np.zeros(frames, dtype=bool)
    guard = 0
    while mask.sum() < target and guard < 8 * frames:
        start = rng.integer(frames)
        mask[start:start + MASK_SPAN] = True
        guard += 1
    return mask


def _masked_regression_loss(model: EncoderModel, mask_embedding: Tensor,
                            features: Tensor, mask: np.ndarray,
                            config: CompressionConfig):
    frames, dim = features.shape
    keep = (~mask)[:, None].astype(features.dtype) * np.ones((1, dim), features.dtype)
    column = mask[:, None].astype(features.dtype)
    masked_input = add(mul(features, keep), matmul(column, mask_embedding))
    predicted = model.forward(masked_input, config)
    diff = add(predicted, -features.data)
    masked_sq = mul(mul(diff, diff), mask[:, None].astype(features.dtype)
                    * np.ones((1, dim), features.dtype))
    count = max(1, int(mask.sum()))
    return mul(sum_all(masked_sq), np.asarray(1.0 / (count * dim), dtype=features.dtype))


def _accumulate(total: dict, params: dict, grads: GradientMap):
    """Add one utterance's gradients into ``total``, whose arrays the loop
    owns and later adds to in place.

    A parameter's first gradient is kept as it is when the backward pass
    made it for that parameter alone, as a C-ordered array like the copy
    would be; a view of another array, or an array the tape handed to two
    parameters (both inputs of an ``add``), is copied first.
    """
    kept = set()
    for name, param in params.items():
        g = grads.get(param)
        if g is None:
            continue
        acc = total.get(name)
        if acc is not None:
            acc += g
        elif g.base is not None or not g.flags.c_contiguous or id(g) in kept:
            total[name] = g.copy()
        else:
            total[name] = g
            kept.add(id(g))


def _grad_norm(grads: dict) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.add.reduce(g * g, axis=None))
    return float(np.sqrt(total))


def _log_record(step, config, mean_loss, grads, started, forward_s, backward_s,
                optimizer_s) -> TrainLogRecord:
    norm = _grad_norm(grads)
    return TrainLogRecord(step, config.describe(), float(mean_loss), norm,
                          1000.0 * (time.perf_counter() - started),
                          1000.0 * forward_s, 1000.0 * backward_s, 1000.0 * optimizer_s)


def _run_loop(model, aux_params, plan, dataset, loss_fn, phase, val_fn=None):
    """Shared optimizer loop; loss_fn(utt, config) -> (scalar Tensor | None)."""
    if len(dataset) < 1:
        raise InputError("dataset is empty")
    plan.check_fits(model.config)
    trainable = dict(model.params)
    trainable.update(aux_params)
    root = Rng(plan.seed).fork(phase)
    config_rng = root.fork("configs")
    data_rng = root.fork("data")
    warmup = max(1, int(round(WARMUP_FRACTION * plan.steps))) if plan.steps else 0
    optimizer = Adam(trainable, plan.learning_rate, warmup_steps=warmup)
    log = []
    initial_loss = None
    final_loss = None
    best_val = None
    best_snapshot = None
    skipped = 0
    runaway = 0

    for step in range(plan.steps):
        started = time.perf_counter()
        config = _config_for_step(plan, model.config.depth, config_rng, step)
        indices = _batch_indices(data_rng, step, len(dataset), plan.batch_size)
        grad_total: dict = {}
        loss_total = 0.0
        used = 0
        forward_s = backward_s = 0.0
        for pos, index in enumerate(indices):
            utt = dataset[index]
            tick = time.perf_counter()
            with Tape():
                item_loss = loss_fn(utt, config, step=step, slot=pos)
            tock = time.perf_counter()
            forward_s += tock - tick
            if item_loss is None:
                skipped += 1
                continue
            loss_value = item_loss.item()
            grads = backward(item_loss)
            _accumulate(grad_total, trainable, grads)
            del grads, item_loss  # free this utterance's tape and gradients before the next forward
            backward_s += time.perf_counter() - tock
            loss_total += loss_value
            used += 1
        if used == 0:
            raise InputError(f"step {step}: every utterance in the batch was skipped")
        tick = time.perf_counter()
        mean_loss = loss_total / used
        for g in grad_total.values():
            g /= used
        if not np.isfinite(mean_loss):
            log.append(_log_record(step, config, mean_loss, grad_total, started,
                                   forward_s, backward_s, time.perf_counter() - tick))
            raise DivergenceError(f"non-finite loss {mean_loss} at step {step}", log=log)
        optimizer.step(grad_total)
        log.append(_log_record(step, config, mean_loss, grad_total, started,
                               forward_s, backward_s, time.perf_counter() - tick))
        if initial_loss is None:
            initial_loss = mean_loss
        final_loss = mean_loss
        if mean_loss > DIVERGENCE_FACTOR * initial_loss:
            runaway += 1
            if runaway >= DIVERGENCE_PATIENCE:
                raise DivergenceError(
                    f"loss exceeded {DIVERGENCE_FACTOR}x its initial value for "
                    f"{DIVERGENCE_PATIENCE} consecutive steps", log=log)
        else:
            runaway = 0
        if val_fn is not None and plan.eval_interval > 0 and (
                (step + 1) % plan.eval_interval == 0 or step + 1 == plan.steps):
            val_loss = val_fn()
            if best_val is None or val_loss < best_val:
                best_val = val_loss
                best_snapshot = {name: p.data.copy() for name, p in trainable.items()}

    if best_snapshot is not None:
        for name, param in trainable.items():
            param.data = best_snapshot[name]
    return TrainResult(params=trainable, log=log,
                       initial_loss=initial_loss if initial_loss is not None else float("nan"),
                       final_loss=final_loss if final_loss is not None else float("nan"),
                       best_val_loss=best_val, infeasible_skipped=skipped)


def pretrain_toy(model: EncoderModel, plan: TrainPlan, dataset,
                 mask_embedding: Tensor | None = None) -> TrainResult:
    """Masked-frame regression pretraining over feature (or audio) data."""
    if plan.loss != "masked_regression":
        raise ConfigError("pretrain_toy requires plan.loss == 'masked_regression'")
    if mask_embedding is None:
        emb = Rng(plan.seed).fork("mask-embedding").normal_matrix(
            (1, model.config.model_dim), scale=0.02)
        mask_embedding = Tensor(emb, dtype=model.dtype)
    aux = {"pretrain.mask_embedding": mask_embedding}
    mask_rng = Rng(plan.seed).fork("pretrain").fork("masks")

    def loss_fn(utt, config, step, slot):
        features = _utterance_features(model, utt, plan.freeze_extractor)
        mask = _mask_plan(mask_rng.fork(f"step{step}/slot{slot}"), features.shape[0])
        return _masked_regression_loss(model, mask_embedding, features, mask, config)

    return _run_loop(model, aux, plan, dataset, loss_fn, phase="pretrain")


def make_head(model_dim: int, vocab: int, seed: int, dtype=np.float64) -> dict:
    """Fresh linear output layer mapping model width to V labels plus blank."""
    rng = Rng(seed).fork("head")
    weight = rng.normal_matrix((model_dim, vocab + 1), scale=1.0 / np.sqrt(model_dim))
    return {"head.weight": Tensor(weight, dtype=dtype),
            "head.bias": Tensor(np.zeros(vocab + 1), dtype=dtype)}


def apply_head(encoded: Tensor, head: dict) -> Tensor:
    """Per-frame label logits: the linear output head over encoder output."""
    return add(matmul(encoded, head["head.weight"]), head["head.bias"])


def finetune(model: EncoderModel, plan: TrainPlan, dataset, vocab: int,
             val_dataset=None, head: dict | None = None) -> TrainResult:
    """CTC fine-tuning with a linear head on top of the encoder.

    Infeasible utterances (labels longer than their frame budget allows)
    are skipped and counted in the result. Model selection, when
    ``plan.eval_interval > 0`` and a validation set is given, tracks the
    best validation loss at the (1,1,1) configuration.
    """
    if plan.loss != "ctc":
        raise ConfigError("finetune requires plan.loss == 'ctc'")
    if head is None:
        head = make_head(model.config.model_dim, vocab, plan.seed, dtype=model.dtype)

    def loss_fn(utt, config, step, slot):
        if utt.labels is None:
            raise InputError("finetune requires labeled utterances")
        features = _utterance_features(model, utt, plan.freeze_extractor)
        try:
            return ctc_loss(apply_head(model.forward(features, config), head), utt.labels)
        except InfeasibleLabelError:
            return None

    def val_fn():
        return evaluate(model, head, fixed_config(1, 1, 1, model.config.depth), val_dataset).loss

    return _run_loop(model, head, plan, dataset, loss_fn, phase="finetune",
                     val_fn=val_fn if val_dataset is not None else None)


def evaluate(model: EncoderModel, head: dict, config: CompressionConfig,
             dataset) -> EvalResult:
    """Fixed-configuration inference with greedy decoding.

    Symbol error is corpus-level: total edit distance over total reference
    length. The loss is the mean CTC loss over the feasible utterances;
    a set with none raises InputError.
    """
    if len(dataset) < 1:
        raise InputError("evaluate requires a non-empty dataset")
    total_loss = 0.0
    loss_count = 0
    total_edit = 0
    total_ref = 0
    for i in range(len(dataset)):
        utt = dataset[i]
        if utt.labels is None:
            raise InputError("evaluate requires labeled utterances")
        features = _utterance_features(model, utt, freeze_extractor=False)
        logits = apply_head(model.forward(features, config), head)
        hyp = greedy_decode(logits)
        try:
            total_loss += ctc_loss(logits, utt.labels).item()
            loss_count += 1
        except InfeasibleLabelError:
            pass
        total_edit += edit_distance(hyp, utt.labels)
        total_ref += len(utt.labels)
    if loss_count == 0:
        raise InputError("no utterance of the evaluation set is feasible for CTC")
    symbol_error = total_edit / total_ref if total_ref else 0.0
    return EvalResult(loss=total_loss / loss_count, symbol_error=symbol_error)
