"""Analytic multiply-accumulate model and wall-time measurement harness.

The analytic model counts exactly the MACs executed by matmul and conv1d
during a forward pass, split into five buckets:

    fe           wave feature extractor convs + projection (audio runs)
                 plus the positional convolution (every run)
    attn_proj    q/k/v/output projections, (2 n_q + 2 n_k) * E^2 per layer
    attn_scores  logits and value mixing, 2 * n_q * n_k * E per layer
    ffn          two feed-forward matmuls, 2 * T' * E * ffn_dim per layer
    upsample     shared linear head before replicate-upsampling, T' * E^2

where T' = ceil(T / s_f), n_q = ceil(T' / s_q) and n_k = ceil(T' / s_k):
attention projects rows already pooled. Softmax, layer norm, activations
and pooling are excluded from both the analytic model and the instrumented
counter; they do show up in measured wall time, and that gap is reported
rather than hidden. Timing uses the median over repeats with an excluded
warm-up pass, interleaves the configurations it compares, retakes passes
the host descheduled, runs one pass at a time, and is done on a float32
copy of the model.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, replace

import numpy as np

from .attention import _blas_pinned_to_one_thread
from .ctc import greedy_decode
from .encoder import EncoderConfig, EncoderModel, FeatureExtractorConfig
from .errors import ConfigError, InputError
from .stochastic import CompressionConfig
from .tensor import Tensor, count_macs
from .training import apply_head, evaluate

CSV_HEADER = ("config,preset,frames,macs_total,macs_attn_scores,macs_attn_proj,"
              "macs_ffn,macs_fe,macs_upsample,wall_ms_median,wall_ms_min,"
              "wall_ms_max,symbol_error")

MAC_FIELDS = ("macs_fe", "macs_attn_proj", "macs_attn_scores", "macs_ffn", "macs_upsample")

MIN_TIMER_TICKS = 100
# off-CPU share (wall minus process CPU time, over wall) above which a timed
# pass counts as descheduled and is retaken, at most RETAKES times; process
# time counts a forward's second thread, so waiting for it is not mistaken
# for being descheduled
MAX_OFF_CPU = 0.1
RETAKES = 2


@dataclass
class CostReport:
    """Analytic and (optionally) measured cost of one configuration."""

    config: str
    preset: str
    frames: int
    macs_fe: int = 0
    macs_attn_proj: int = 0
    macs_attn_scores: int = 0
    macs_ffn: int = 0
    macs_upsample: int = 0
    wall_ms_median: float | None = None
    wall_ms_min: float | None = None
    wall_ms_max: float | None = None
    decode_ms_median: float | None = None
    symbol_error: float | None = None
    timer_flagged: int = 0

    @property
    def macs_total(self) -> int:
        return sum(getattr(self, name) for name in MAC_FIELDS)

    def to_json_dict(self) -> dict:
        """The frozen schema: exactly the ``CSV_HEADER`` columns."""
        return {key: getattr(self, key) for key in CSV_HEADER.split(",")}

    def to_csv_row(self) -> str:
        def cell(value):
            if value is None:
                return ""
            if isinstance(value, float):
                return f"{value:.6g}"
            return str(value)

        return ",".join(cell(getattr(self, key)) for key in CSV_HEADER.split(","))


def _conv_stack_macs(fe: FeatureExtractorConfig, samples: int):
    """(macs, output_frames) for the feature-extractor conv table."""
    macs = 0
    length = samples
    c_in = 1
    for k, s, c_out in fe.layers:
        if length < k:
            raise InputError(f"audio of {samples} samples too short for the conv stack")
        length = (length - k) // s + 1
        macs += length * c_out * c_in * k
        c_in = c_out
    return macs, length


def analytic_cost(config: CompressionConfig, enc_config: EncoderConfig, frames: int,
                  preset: str = "custom", from_audio: bool = False) -> CostReport:
    """Exact MAC counts for one forward pass over ``frames`` input frames.

    ``from_audio`` includes the wave feature extractor (for the shortest
    audio yielding exactly ``frames`` frames); otherwise the pipeline is
    assumed to start from features and the fe bucket holds only the
    positional convolution.
    """
    if frames < 1:
        raise ConfigError(f"frames must be >= 1, got {frames}")
    config.check_fits(enc_config)

    e = enc_config.model_dim
    report = CostReport(config.describe(), preset, frames)

    if from_audio:
        fe = FeatureExtractorConfig(enc_config.base_channels)
        conv_macs, fe_frames = _conv_stack_macs(fe, fe.samples_for_frames(frames))
        if fe_frames != frames:
            raise ConfigError(f"conv table yields {fe_frames} frames, expected {frames}")
        report.macs_fe += conv_macs
        report.macs_fe += frames * fe.out_channels * e  # projection to model width

    t_squeezed = -(-frames // config.s_f)
    report.macs_fe += (t_squeezed * e * (e // enc_config.pos_conv_groups)
                       * enc_config.pos_conv_kernel)
    for s_k, s_q in config.per_layer:
        n_q = -(-t_squeezed // s_q)
        n_k = -(-t_squeezed // s_k)
        report.macs_attn_proj += (2 * n_q + 2 * n_k) * e * e
        report.macs_attn_scores += 2 * n_q * n_k * e
        report.macs_ffn += 2 * t_squeezed * e * enc_config.ffn_dim
    if config.s_f > 1:
        report.macs_upsample += t_squeezed * e * e
    return report


def analytic_cost_dataset(config: CompressionConfig, enc_config: EncoderConfig,
                          frame_lengths, preset: str = "custom") -> CostReport:
    """Sum of per-utterance analytic costs (MACs are additive)."""
    frame_lengths = list(frame_lengths)
    if not frame_lengths:
        raise InputError("frame_lengths is empty")
    total = CostReport(config.describe(), preset, 0)
    for frames in frame_lengths:
        one = analytic_cost(config, enc_config, frames, preset=preset)
        total.frames += one.frames
        for name in MAC_FIELDS:
            setattr(total, name, getattr(total, name) + getattr(one, name))
    return total


def instrumented_macs(model: EncoderModel, config: CompressionConfig, frames: int,
                      from_audio: bool = False):
    """Run a real forward pass under the MAC counter; the oracle side of
    the analytic model's exactness check."""
    if from_audio:
        inputs = np.zeros(model.fe.samples_for_frames(frames))
    else:
        inputs = np.zeros((frames, model.config.model_dim))
    with count_macs() as counter:
        model.forward(model.extract_features(inputs) if from_audio else inputs, config)
    return counter


def _median_min_max(values):
    return (float(np.median(values)), float(min(values)), float(max(values)))


def measure(model: EncoderModel, configs, dataset,
            repeats: int = 5, head: dict | None = None) -> list:
    """Median wall time of float32 forward passes over a feature dataset,
    one CostReport per configuration.

    Per utterance: one excluded warm-up pass per configuration, then
    ``repeats`` rounds that each time one pass of every configuration in
    turn, so a change in host speed falls on all of them alike rather
    than on whichever one is being timed; medians (and min/max) are
    summed over the dataset. A pass the host descheduled for more than
    ``MAX_OFF_CPU`` of its wall time is retaken (at most ``RETAKES``
    times) and the fastest attempt is the sample, as time off the CPU
    measures the host's other work, not the model.
    Decoding (output head plus greedy collapse) is timed separately when a
    head is given. Passes run one at a time from the calling thread, but
    a forward whose squeezed sequence reaches ``encoder._SPLIT_VALUES``
    values runs half of its attention heads and layer rows on the
    process's worker thread, whose CPU time counts too.
    """
    configs = list(configs)
    if repeats < 3:
        raise ConfigError(f"repeats must be >= 3, got {repeats}")
    if len(dataset) < 1:
        raise InputError("measure requires a non-empty dataset")
    bench = model.astype(np.float32)
    head32 = None
    if head is not None:
        head32 = {name: Tensor(t.data, dtype=np.float32) for name, t in head.items()}
    tick_ns = time.get_clock_info("perf_counter").resolution * 1e9
    reports = [CostReport(c.describe(), preset="custom", frames=0) for c in configs]
    sums = np.zeros((len(configs), 3))  # per config: median, min, max in ns
    decode_meds = [[] for _ in configs]
    gc_was_enabled = gc.isenabled()
    gc.disable()  # collector pauses otherwise pollute per-repeat samples
    try:
        with _blas_pinned_to_one_thread():
            for i in range(len(dataset)):
                feats = Tensor(dataset[i].features, dtype=np.float32)
                encoded = [bench.forward(feats, c) for c in configs]  # warm-up, excluded
                times = [[] for _ in configs]
                for _ in range(repeats):
                    for j, config in enumerate(configs):
                        walls = []
                        for _ in range(1 + RETAKES):
                            t0, c0 = time.perf_counter_ns(), time.process_time_ns()
                            encoded[j] = bench.forward(feats, config)
                            walls.append(time.perf_counter_ns() - t0)
                            if walls[-1] - (time.process_time_ns() - c0) <= MAX_OFF_CPU * walls[-1]:
                                break
                        times[j].append(min(walls))
                for j, report in enumerate(reports):
                    med_lo_hi = _median_min_max(times[j])
                    sums[j] += med_lo_hi
                    report.frames += feats.shape[0]
                    if med_lo_hi[0] < MIN_TIMER_TICKS * tick_ns:
                        report.timer_flagged += 1
                    if head32 is not None:
                        decode_times = []
                        for _ in range(repeats):
                            t0 = time.perf_counter_ns()
                            greedy_decode(apply_head(encoded[j], head32))
                            decode_times.append(time.perf_counter_ns() - t0)
                        decode_meds[j].append(float(np.median(decode_times)))
    finally:
        if gc_was_enabled:
            gc.enable()
    for report, (med, lo, hi), decoded in zip(reports, sums, decode_meds):
        report.wall_ms_median, report.wall_ms_min, report.wall_ms_max = (
            float(med) / 1e6, float(lo) / 1e6, float(hi) / 1e6)
        if decoded:
            report.decode_ms_median = float(sum(decoded)) / 1e6
    return reports


def sweep(model: EncoderModel, configs, dataset, preset: str = "custom",
          repeats: int = 5, head: dict | None = None, measure_time: bool = True) -> list:
    """One CostReport per configuration over a feature dataset: analytic
    MACs, optional timing (all configurations interleaved, see
    ``measure``), optional greedy symbol error when the dataset is
    labeled."""
    configs = list(configs)
    if not configs:
        raise ConfigError("sweep requires at least one configuration")
    if len(dataset) < 1:
        raise InputError("sweep requires a non-empty dataset")
    utterances = [dataset[i] for i in range(len(dataset))]
    frame_lengths = [utt.features.shape[0] for utt in utterances]
    labeled = all(utt.labels is not None for utt in utterances)
    timed = measure(model, configs, dataset, repeats=repeats, head=head) if measure_time else None
    reports = []
    for j, config in enumerate(configs):
        report = analytic_cost_dataset(config, model.config, frame_lengths, preset=preset)
        if timed is not None:
            report = replace(timed[j], preset=preset,
                             **{name: getattr(report, name) for name in MAC_FIELDS})
        if labeled and head is not None:
            report.symbol_error = evaluate(model, head, config, dataset).symbol_error
        reports.append(report)
    return reports


def write_csv(path, reports):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for report in reports:
            fh.write(report.to_csv_row() + "\n")


def write_json(path, reports):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([r.to_json_dict() for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_profile(path, reports):
    """The measurements the frozen CSV/JSON schema leaves out, one entry per
    report: summed decode median (null without a head) and the count of
    utterances whose forward median was below the timer floor; both are
    null when timing was skipped."""
    rows = [{"config": r.config, "decode_ms_median": r.decode_ms_median,
             "timer_flagged": None if r.wall_ms_median is None else r.timer_flagged}
            for r in reports]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
        fh.write("\n")
