"""Stochastically compressed transformer speech encoder.

A desk-scale library around three ideas: mean-pool squeezing of the
encoder input sequence, query / key-value pooled attention inside every
transformer layer, and uniform sampling of the compression factors during
training so one model serves many inference operating points. Ships with
a verification suite (finite-difference gradient checks, operator
invariants, a brute-force CTC oracle) and an analytic + measured compute
cost harness.
"""

from .attention import AttentionParams, attend, multi_head_pooled
from .ctc import ctc_loss, greedy_decode
from .encoder import (
    Checkpoint,
    EncoderConfig,
    EncoderModel,
    FeatureExtractorConfig,
    load_checkpoint,
    preset,
    save_checkpoint,
)
from .errors import (
    ConfigError,
    DivergenceError,
    InfeasibleLabelError,
    InputError,
    ShapeError,
    StochpoolError,
    UsageError,
)
from .pooling import downsample, upsample
from .stochastic import (
    CompressionConfig,
    FactorSets,
    Rng,
    fixed_config,
    parse_triplet,
    sample_config,
)
from .tensor import (
    GradientMap,
    MacCounter,
    Tape,
    Tensor,
    backward,
    count_macs,
)
from .training import TrainPlan, evaluate, finetune, make_head, pretrain_toy

__version__ = "0.1.0"

__all__ = [
    "AttentionParams",
    "Checkpoint",
    "CompressionConfig",
    "ConfigError",
    "DivergenceError",
    "EncoderConfig",
    "EncoderModel",
    "FactorSets",
    "FeatureExtractorConfig",
    "GradientMap",
    "InfeasibleLabelError",
    "InputError",
    "MacCounter",
    "Rng",
    "ShapeError",
    "StochpoolError",
    "Tape",
    "Tensor",
    "TrainPlan",
    "UsageError",
    "attend",
    "backward",
    "count_macs",
    "ctc_loss",
    "downsample",
    "evaluate",
    "finetune",
    "fixed_config",
    "greedy_decode",
    "load_checkpoint",
    "make_head",
    "multi_head_pooled",
    "parse_triplet",
    "preset",
    "pretrain_toy",
    "sample_config",
    "save_checkpoint",
    "upsample",
]
