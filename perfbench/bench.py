"""One benchmark phase, run by ``run.py`` in a child process.

The parent pins BLAS to one thread through the environment before this
process imports numpy. The child builds the workload's inputs from the
benchmark seed, runs the closed loop for the requested time, checks every
output and prints one JSON object as its last line of standard output.
With ``--trace 1`` the public stochpool functions are wrapped by the span
tracer for the whole phase, set-up included, and put back afterwards.

Usage (normally through run.py):
    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/bench.py \
        --workload infer-long --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import stochpool
from stochpool import attention, ctc, data, encoder, pooling, tensor, training
from stochpool.cost_model import analytic_cost
from stochpool.stochastic import FactorSets, fixed_config

from metrics import CONFIGS, MAC_BUCKETS, SELF_MS
from tracer import NO_PARENT, Patches, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# set-up is repeated at least 3 times and for at least 1.5 s (at most 10
# times); setup_s is the median
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.5
SETUP_MAX_REPEATS = 10
# a run goes on until at least 100 operations are done, so that p90 has
# ten samples beyond it
MIN_OPS = 100
# Largest |float32 encoder output - float64 forward| accepted for a request.
F32_TOLERANCE = 1e-3
INFER_VOCAB = 32
INFER_FRAMES = 1000
INFER_INPUTS = 2
AUDIO_FRAMES = (100, 200, 300, 400, 500)  # 2 s to 10 s at 50 frames per second
TRAIN_EPISODE_STEPS = 80
TRAIN_PLANS = 4
TRAIN_LOSS_TAIL = 10
TRAIN_VAL_UTTERANCES = 16

TENSOR_OPS = ("matmul", "add", "sub", "mul", "scale", "gelu", "relu", "transpose",
              "reshape", "concat", "slice_rows", "slice_cols", "sum_all", "mean_all",
              "softmax_rows", "layer_norm", "conv1d")
FORWARD_SPANS = ("encoder.forward", "encoder.extract_features")
STEP_PARTS = ("tensor.backward", "training.Adam.step", "data.getitem")


def derive(seed: int, purpose: str) -> int:
    """Program-facing seed for one purpose; the benchmark seed itself is never passed on."""
    digest = hashlib.sha256(f"perfbench/{seed}/{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def config_of(name: str, depth: int):
    s_f, s_k, s_q = (int(v) for v in name.split("-"))
    return fixed_config(s_f, s_k, s_q, depth)


def request(model, head, feats, config):
    """One inference request after feature extraction: encode, output head, decode."""
    encoded = model.forward(feats, config)
    logits = tensor.add(tensor.matmul(encoded, head["head.weight"]), head["head.bias"])
    return encoded, ctc.greedy_decode(logits)


def float32_head(head: dict) -> dict:
    return {name: tensor.Tensor(t.data, dtype=np.float32) for name, t in head.items()}


class OutputCheck:
    """Checks request outputs against a float64 forward of the same input and config.

    The first output of each (input, config) pair is kept; later outputs of
    the pair are compared with it, so after the loop one float64 reference
    per pair bounds every request: |out - ref| <= |out - first| + |first - ref|.
    """

    def __init__(self):
        self.first = {}
        self.drift = {}
        self.requests = {}
        self.nonfinite = 0

    def add(self, key, encoded):
        out = encoded.data
        if not np.isfinite(out).all():
            self.nonfinite += 1
            return
        first = self.first.get(key)
        if first is None:
            self.first[key] = out.copy()
            self.drift[key] = 0.0
            self.requests[key] = 0
        elif first.shape != out.shape:
            self.drift[key] = float("inf")
        else:
            self.drift[key] = max(self.drift[key], float(np.abs(out - first).max()))
        self.requests[key] += 1

    def failures(self, reference) -> int:
        failed = self.nonfinite
        for key, first in self.first.items():
            ref = reference(key)
            err = float(np.abs(first - ref).max()) if ref.shape == first.shape else float("inf")
            if not err + self.drift[key] <= F32_TOLERANCE:
                failed += self.requests[key]
        return failed


class Run:
    """Latencies and counts of one measured loop."""

    def __init__(self, seconds: float, tracer: Tracer | None):
        self.seconds = seconds
        self.hard_stop = min(3.0 * seconds, 70.0)  # keeps a traced run within 180 s
        self.tracer = tracer
        self.request_ms = {c: [] for c in CONFIGS}
        self.step_ms = []
        self.step_frames = 0
        self.step_utts = 0
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.started = None

    def begin(self):
        self.started = time.perf_counter()

    def more(self, ops: int, cycle_done: bool) -> bool:
        elapsed = time.perf_counter() - self.started
        if elapsed >= self.hard_stop:
            return False
        return not (elapsed >= self.seconds and ops >= MIN_OPS and cycle_done)

    def set_rid(self, rid: int):
        if self.tracer is not None:
            self.tracer.current_rid = rid


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Serve:
    """Small preset in float32: one request at a time, four configs round-robin.

    Each round takes the next input and sends it at every standard config;
    a run ends on a whole cycle over the inputs, so every input is served
    equally often.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        model64 = stochpool.EncoderModel(stochpool.preset("small"), seed=derive(self.seed, "model"))
        self.model64 = model64
        self.model = model64.astype(np.float32)
        self.head = float32_head(training.make_head(
            model64.config.model_dim, INFER_VOCAB, derive(self.seed, "head")))
        self.configs = {c: config_of(c, model64.config.depth) for c in CONFIGS}
        self.inputs = self.make_inputs(model64)
        warm = min(self.inputs, key=len)
        for c in CONFIGS:  # first request at every config: fills lazy caches
            request(self.model, self.head, self.features(self.model, warm), self.configs[c])

    def measure(self, run: Run):
        check = OutputCheck()
        ops = 0
        rounds = 0
        while run.more(ops, rounds % len(self.inputs) == 0):
            i = rounds % len(self.inputs)
            for c in CONFIGS:
                ops += 1
                run.set_rid(ops)
                t0 = time.perf_counter_ns()
                feats = self.features(self.model, self.inputs[i])
                encoded, _ = request(self.model, self.head, feats, self.configs[c])
                elapsed_ms = (time.perf_counter_ns() - t0) / 1e6
                run.request_ms[c].append(elapsed_ms)
                run.step_ms.append(elapsed_ms)
                run.step_frames += encoded.shape[0]
                run.step_utts += 1
                run.attempted += 1
                check.add((i, c), encoded)
            rounds += 1
        run.set_rid(0)
        return check

    def reference(self, key):
        i, c = key
        feats = self.features(self.model64, self.inputs[i])
        return self.model64.forward(feats, self.configs[c]).data

    @staticmethod
    def training_figures() -> dict:
        return {"training.skipped_frac": 0.0, "training.loss_final": 0.0}


class InferLong(Serve):
    """1000-frame feature utterances: attention, GELU and pooling do the work."""

    name = "infer-long"

    def make_inputs(self, model):
        return [np.random.default_rng(derive(self.seed, f"input{i}")).standard_normal(
                    (INFER_FRAMES, model.config.model_dim))
                for i in range(INFER_INPUTS)]

    @staticmethod
    def features(model, feats):
        return feats  # forward casts to the model's dtype


class AudioDecode(Serve):
    """Synthetic 2-10 s clips: the conv front end runs in every request."""

    name = "audio-decode"

    def make_inputs(self, model):
        # exactly samples_for_frames(frames) samples, so the analytic MAC model
        # of the conv stack applies to each clip as generated; the seed sets
        # the content, not the lengths or their order
        return [data.synth_audio(derive(self.seed, f"clip{i}"),
                                 seconds=model.fe.samples_for_frames(frames) / data.SAMPLE_RATE)
                for i, frames in enumerate(AUDIO_FRAMES)]

    @staticmethod
    def features(model, audio):
        return model.extract_features(audio)


class StepClock:
    """The training dataset as handed to ``finetune``, timestamping step starts.

    ``finetune`` reads ``batch_size`` utterances at the start of every step,
    so every ``batch_size``-th read opens a new step. The benchmark owns this
    object; the program only sees a dataset.
    """

    def __init__(self, dataset, batch_size: int, on_step):
        self.dataset = dataset
        self.batch_size = batch_size
        self.on_step = on_step
        self.reads = 0
        self.starts = []
        self.frames = 0

    def __len__(self):
        return len(self.dataset)

    def __getitem__(self, index):
        if self.reads % self.batch_size == 0:
            self.starts.append(time.perf_counter_ns())
            self.on_step()
        self.reads += 1
        utt = self.dataset[index]
        self.frames += utt.features.shape[0]
        return utt


class TrainShort:
    """Tiny preset, float64, stochastic CTC fine-tuning episodes on synthetic-symbols.

    Episode e builds the model afresh from the seed and fine-tunes it with
    plan e mod TRAIN_PLANS (each plan its own batch order and sampled
    configs), so a run averages over several step mixes and every episode
    must reproduce the losses of the first episode with the same plan.
    After each episode the held-out utterances are decoded at the four
    standard configs on a float32 copy of the tuned model.
    """

    name = "train-short"

    def __init__(self, seed: int):
        self.seed = seed

    def _plan(self, steps: int, plan: int):
        # recipes/tiny_finetune.cfg: batch 4, factor sets {1,2}^3, lr 0.0015
        return training.TrainPlan(mode="stochastic", steps=steps, batch_size=4,
                                  learning_rate=0.0015, seed=derive(self.seed, f"plan{plan}"),
                                  loss="ctc", sets=FactorSets((1, 2), (1, 2), (1, 2)))

    def _fresh_model(self):
        return stochpool.EncoderModel(stochpool.preset("tiny"), seed=derive(self.seed, "model"))

    def setup(self):
        data_seed = derive(self.seed, "data")
        self.train = data.SymbolFeatureDataset(512, 64, vocab=4, seed=data_seed, split="train")
        # held-out utterances all have four symbols (42 frames), so the
        # latency of a request does not depend on a seed's length draw
        val = data.SymbolFeatureDataset(TRAIN_VAL_UTTERANCES, 64, vocab=4, seed=data_seed,
                                        split="val", min_symbols=4, max_symbols=4)
        self.val = [val[i] for i in range(len(val))]
        model = self._fresh_model()
        self.configs = {c: config_of(c, model.config.depth) for c in CONFIGS}
        head = float32_head(training.make_head(model.config.model_dim, 4, derive(self.seed, "head")))
        model32 = model.astype(np.float32)
        feats = tensor.Tensor(self.val[0].features, dtype=np.float32)
        for c in CONFIGS:
            request(model32, head, feats, self.configs[c])

    def measure(self, run: Run):
        check = OutputCheck()
        self.first_losses = {}
        self.models64 = {}
        self.skipped = 0
        self.utterances = 0
        steps = 0
        requests = 0
        episodes = 0
        while run.more(min(steps, requests), True):
            plan = episodes % TRAIN_PLANS
            episodes += 1
            model = self._fresh_model()

            def next_step():
                nonlocal steps
                steps += 1
                run.set_rid(steps)

            clock = StepClock(self.train, 4, next_step)
            run.set_rid(steps + 1)  # the finetune span belongs to the steps it runs
            result = training.finetune(model, self._plan(TRAIN_EPISODE_STEPS, plan), clock,
                                       vocab=4)
            ended = time.perf_counter_ns()
            run.set_rid(0)
            self._score_episode(run, plan, clock, result, ended)
            self.models64[plan] = model
            model32 = model.astype(np.float32)
            head = float32_head({n: result.params[n] for n in ("head.weight", "head.bias")})
            for i, utt in enumerate(self.val):
                feats = tensor.Tensor(utt.features, dtype=np.float32)
                for c in CONFIGS:
                    requests += 1
                    run.set_rid(-requests)
                    t0 = time.perf_counter_ns()
                    encoded, _ = request(model32, head, feats, self.configs[c])
                    run.request_ms[c].append((time.perf_counter_ns() - t0) / 1e6)
                    run.attempted += 1
                    check.add((plan, i, c), encoded)
            run.set_rid(0)
        return check

    def _score_episode(self, run: Run, plan: int, clock: StepClock, result, ended: int):
        bounds = clock.starts + [ended]
        durations = [(b - a) / 1e6 for a, b in zip(bounds, bounds[1:])]
        losses = [rec.loss for rec in result.log]
        run.attempted += len(losses)
        run.step_ms.extend(durations)
        run.step_frames += clock.frames
        run.step_utts += clock.reads
        self.skipped += result.infeasible_skipped
        self.utterances += clock.reads
        first = self.first_losses.setdefault(plan, losses)
        ok = (len(durations) == len(losses) == TRAIN_EPISODE_STEPS
              and all(np.isfinite(losses))
              and float(np.mean(losses[-TRAIN_LOSS_TAIL:])) < losses[0]
              and losses == first)
        if not ok:
            run.failed += len(losses)
            run.notes.append("an episode's train-step losses failed their checks")

    def training_figures(self) -> dict:
        """Share of utterances skipped as infeasible, and the final loss:
        the mean loss of an episode's last steps, averaged over the plans."""
        return {"training.skipped_frac": self.skipped / max(self.utterances, 1),
                "training.loss_final": float(np.mean([np.mean(losses[-TRAIN_LOSS_TAIL:])
                                                      for losses in self.first_losses.values()]))}

    def reference(self, key):
        plan, i, c = key
        return self.models64[plan].forward(self.val[i].features, self.configs[c]).data


WORKLOADS = {w.name: w for w in (InferLong, AudioDecode, TrainShort)}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class MacLog:
    """Per-call MAC counts of encoder forwards, checked against analytic_cost."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.records = []  # (rid, kind, model config, config or None, frames, itemsize, by_scope)

    def wrap_forward(self, fn):
        def forward(model, features, config, *args, **kwargs):
            with tensor.count_macs() as counter:
                out = fn(model, features, config, *args, **kwargs)
            self.records.append((self.tracer.current_rid, "forward", model.config, config,
                                 out.shape[0], out.data.dtype.itemsize, dict(counter.by_scope)))
            return out
        return forward

    def wrap_extract(self, fn):
        def extract_features(model, audio, *args, **kwargs):
            with tensor.count_macs() as counter:
                out = fn(model, audio, *args, **kwargs)
            self.records.append((self.tracer.current_rid, "extract", model.config, None,
                                 out.shape[0], out.data.dtype.itemsize, dict(counter.by_scope)))
            return out
        return extract_features

    @staticmethod
    def expected(kind, enc_config, config, frames) -> dict:
        if kind == "extract":
            one = fixed_config(1, 1, 1, enc_config.depth)
            fe = (analytic_cost(one, enc_config, frames, from_audio=True).macs_fe
                  - analytic_cost(one, enc_config, frames).macs_fe)
            return {"fe": fe}
        report = analytic_cost(config, enc_config, frames)
        buckets = {b: getattr(report, f"macs_{b}") for b in MAC_BUCKETS}
        return {b: n for b, n in buckets.items() if n}

    def mismatched_rids(self) -> set:
        return {rid for rid, kind, enc, cfg, frames, _, got in self.records
                if got != self.expected(kind, enc, cfg, frames)}

    def primary_logits_bytes(self) -> int:
        """Bytes of attention logits in the primary operations' forwards,
        computed from shapes: heads x T'q x T'k x item size per layer."""
        total = 0
        for rid, kind, enc, cfg, frames, itemsize, _ in self.records:
            if kind != "forward" or rid <= 0:
                continue
            t = -(-frames // cfg.s_f)
            for s_k, s_q in cfg.per_layer:
                total += enc.heads * (-(-t // s_q)) * (-(-t // s_k)) * itemsize
        return total


def install_tracing(tracer: Tracer, patches: Patches, macs: MacLog):
    """Wrap the public stochpool functions wherever callers look them up."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "stochpool" or name.startswith("stochpool."))]
    for module, names in ((tensor, TENSOR_OPS + ("backward",)),
                          (attention, ("attend", "pooled_attend", "multi_head_pooled")),
                          (pooling, ("downsample", "upsample", "masked_downsample")),
                          (ctc, ("ctc_loss", "greedy_decode")),
                          (training, ("finetune",))):
        layer = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            original = getattr(module, name, None)
            if original is not None:
                patches.replace_everywhere(modules, original,
                                           tracer.wrap(f"{layer}.{name}", original))

    original_scope = tensor.mac_scope

    def mac_scope(label):
        return _ScopeSpan(tracer.span(f"scope.{label}"), original_scope(label))

    patches.replace_everywhere(modules, original_scope, mac_scope)
    model_cls = encoder.EncoderModel
    patches.set(model_cls, "forward", macs.wrap_forward(
        tracer.wrap("encoder.forward", model_cls.forward)))
    patches.set(model_cls, "extract_features", macs.wrap_extract(
        tracer.wrap("encoder.extract_features", model_cls.extract_features)))
    patches.set(training.Adam, "step", tracer.wrap("training.Adam.step", training.Adam.step))
    patches.set(data.SymbolFeatureDataset, "__getitem__",
                tracer.wrap("data.getitem", data.SymbolFeatureDataset.__getitem__))


class _ScopeSpan:
    """A MAC scope that is also a span, so matmul/conv1d time lands in its bucket."""

    def __init__(self, span, scope):
        self.span = span
        self.scope = scope

    def __enter__(self):
        self.span.__enter__()
        self.scope.__enter__()

    def __exit__(self, *exc):
        self.scope.__exit__(*exc)
        return self.span.__exit__(*exc)


def layer_metrics(tracer: Tracer, macs: MacLog, ops: int) -> dict:
    """Per-layer figures per primary operation (a request, or a train step)."""
    own = tracer.self_times()
    names = tracer.names
    # a MAC scope span is bookkeeping: its own time belongs to its parent
    for i, code in enumerate(tracer.name):
        if names[code].startswith("scope.") and tracer.parent[i] != NO_PARENT:
            own[tracer.parent[i]] += own[i]
            own[i] = 0
    primary = [rid > 0 for rid in tracer.rid]
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    scope_of = tracer.ancestor_with(lambda n: n.startswith("scope."))
    forward_of = tracer.ancestor_with(lambda n: n in FORWARD_SPANS)

    self_ns = {}
    incl_ns = {}
    calls = {}
    bucket_ns = {b: 0 for b in MAC_BUCKETS}
    mac_ns = 0
    forward_ns = 0
    step_forward_ns = 0
    finetune_code = names.index("training.finetune") if "training.finetune" in names else None
    for i, code in enumerate(tracer.name):
        if not primary[i]:
            continue
        name = names[code]
        self_ns[name] = self_ns.get(name, 0) + own[i]
        incl_ns[name] = incl_ns.get(name, 0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        if name in ("tensor.matmul", "tensor.conv1d"):
            if scope_of[i] != NO_PARENT:
                label = names[tracer.name[scope_of[i]]][len("scope."):]
                if label in bucket_ns:
                    bucket_ns[label] += own[i]
            if forward_of[i] != NO_PARENT:
                mac_ns += own[i]
        parent = tracer.parent[i]
        if name in FORWARD_SPANS and (parent == NO_PARENT or forward_of[parent] == NO_PARENT):
            forward_ns += dur[i]
        if parent != NO_PARENT and tracer.name[parent] == finetune_code \
                and name not in STEP_PARTS:
            step_forward_ns += dur[i]

    per_op = 1.0 / max(ops, 1)

    def ms(ns):
        return ns / 1e6 * per_op

    out = {f"{name}.self_ms": ms(self_ns.get(name, 0)) for name in SELF_MS}
    tensor_names = {f"tensor.{op}" for op in TENSOR_OPS}
    out["tensor.other.self_ms"] = ms(sum(v for k, v in self_ns.items()
                                         if k in tensor_names and k not in SELF_MS))
    out["tensor.op_calls"] = sum(calls.get(k, 0) for k in tensor_names) * per_op
    out["nonmac_share"] = 1.0 - mac_ns / forward_ns if forward_ns else 0.0
    out["attention.attend.calls"] = calls.get("attention.attend", 0) * per_op
    out["attention.logits_bytes"] = macs.primary_logits_bytes() * per_op
    out["encoder.extract_features.ms"] = ms(incl_ns.get("encoder.extract_features", 0))
    out["training.forward_ms"] = ms(step_forward_ns)
    out["training.backward_ms"] = ms(incl_ns.get("tensor.backward", 0))
    out["training.optimizer_ms"] = ms(incl_ns.get("training.Adam.step", 0))
    out["data.getitem_ms"] = ms(incl_ns.get("data.getitem", 0))
    for b in MAC_BUCKETS:
        out[f"macs.{b}"] = sum(got.get(b, 0) for rid, *_, got in macs.records if rid > 0) * per_op
        out[f"macs.{b}.ms"] = ms(bucket_ns[b])
    return out


def write_spans(tracer: Tracer, path: Path):
    np.savez_compressed(path, names=np.array(tracer.names),
                        name=np.frombuffer(tracer.name, dtype=np.int64),
                        parent=np.frombuffer(tracer.parent, dtype=np.int64),
                        rid=np.frombuffer(tracer.rid, dtype=np.int64),
                        start_ns=np.frombuffer(tracer.start, dtype=np.int64),
                        end_ns=np.frombuffer(tracer.end, dtype=np.int64))


# ---------------------------------------------------------------------------
# one phase
# ---------------------------------------------------------------------------


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), 100 * q))


def end_to_end(run: Run, setup_times, peak_rss_kb) -> dict:
    step_total_s = sum(run.step_ms) / 1e3
    all_requests = [v for c in CONFIGS for v in run.request_ms[c]]
    metrics = {"setup_s": statistics.median(setup_times)}
    for c in CONFIGS:
        metrics[f"request_ms_p50.{c}"] = statistics.median(run.request_ms[c])
    metrics["request_ms_p90"] = quantile(all_requests, 0.9)
    metrics["frames_per_s"] = run.step_frames / step_total_s
    metrics["step_ms_p50"] = statistics.median(run.step_ms)
    metrics["step_ms_p90"] = quantile(run.step_ms, 0.9)
    metrics["utt_per_s"] = run.step_utts / step_total_s
    metrics["peak_rss_mb"] = peak_rss_kb / 1024.0
    return metrics


def run_phase(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    loaded_from = Path(stochpool.__file__).resolve()
    if ROOT / "src" not in loaded_from.parents:
        raise SystemExit(f"stochpool was imported from {loaded_from}, not from {ROOT / 'src'}")
    workload = WORKLOADS[workload_name](seed)
    tracer = Tracer() if trace else None
    patches = Patches()
    with patches:
        if trace:
            macs = MacLog(tracer)
            install_tracing(tracer, patches, macs)
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or (
                sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        run = Run(seconds, tracer)
        run.begin()
        check = workload.measure(run)
        measured_s = time.perf_counter() - run.started
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    restored = patches.restored()
    failed_outputs = check.failures(workload.reference)
    run.failed += failed_outputs
    ops = len(run.step_ms)
    notes = run.notes
    result = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "measured_s": measured_s,
        "ops": ops,
        "metrics": end_to_end(run, setup_times, peak_rss_kb),
        "samples_ms": {"step": run.step_ms, **{f"request.{c}": v for c, v in run.request_ms.items()}},
        "env": environment(),
    }
    if ops < MIN_OPS:
        notes.append(f"only {ops} operations measured; p90 has fewer than ten samples beyond it")
    if trace:
        layers = layer_metrics(tracer, macs, ops)
        bad_rids = macs.mismatched_rids()
        if bad_rids:
            notes.append(f"instrumented MACs differ from analytic_cost in {len(bad_rids)} operations")
        run.failed += len(bad_rids)
        layers.update(workload.training_figures())
        result["layers"] = layers
        result["spans"] = len(tracer)
        result["mac_checks"] = len(macs.records)
        OUT_DIR.mkdir(exist_ok=True)
        write_spans(tracer, OUT_DIR / f"spans-{workload_name}-seed{seed}.npz")
    if not restored:
        notes.append("tracing wrappers were not all removed")
    if failed_outputs:
        notes.append(f"{failed_outputs} outputs failed their check")
    result["attempted"] = run.attempted
    result["failed"] = run.failed
    result["correct"] = run.failed == 0 and restored
    result["notes"] = notes
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_phase(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
