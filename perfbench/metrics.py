"""Names of the benchmark's workloads, and names and units of its metrics.

Kept free of imports, so the parent process can read it without loading
numpy or stochpool.
"""

WORKLOADS = ("infer-long", "train-short", "audio-decode")
CONFIGS = ("1-1-1", "2-1-1", "2-2-1", "2-2-2")

END_TO_END = {
    "setup_s": "s",
    **{f"request_ms_p50.{c}": "ms" for c in CONFIGS},
    "request_ms_p90": "ms",
    "frames_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "utt_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SELF_MS = (
    "tensor.gelu", "tensor.softmax_rows", "tensor.scale", "tensor.layer_norm",
    "tensor.matmul", "tensor.conv1d", "tensor.slice_cols", "tensor.concat",
    "tensor.transpose", "tensor.add", "tensor.backward",
    "attention.attend", "attention.multi_head_pooled",
    "pooling.downsample", "pooling.upsample", "pooling.masked_downsample",
    "ctc.ctc_loss", "ctc.greedy_decode", "encoder.forward", "training.finetune",
)
MAC_BUCKETS = ("fe", "attn_proj", "attn_scores", "ffn", "upsample")
PER_LAYER = {
    **{f"{name}.self_ms": "ms" for name in SELF_MS},
    "tensor.other.self_ms": "ms",
    "tensor.op_calls": "count",
    "nonmac_share": "fraction",
    "attention.attend.calls": "count",
    "attention.logits_bytes": "bytes-computed",
    "encoder.extract_features.ms": "ms",
    "training.forward_ms": "ms",
    "training.backward_ms": "ms",
    "training.optimizer_ms": "ms",
    "data.getitem_ms": "ms",
    "training.skipped_frac": "fraction",
    "training.loss_final": "nats",
    **{f"macs.{b}": "count" for b in MAC_BUCKETS},
    **{f"macs.{b}.ms": "ms" for b in MAC_BUCKETS},
    **{f"trace_overhead.{name}": unit for name, unit in END_TO_END.items()},
}
