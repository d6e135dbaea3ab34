"""The full speech encoder: compact conv feature extractor, squeeze
context network, and post-layer-norm transformer stack with per-layer
pooled attention.

Pipeline for one forward pass at compression (s_f, per-layer (s_k, s_q)):

    features --mean-pool s_f--> positional conv --> transformer layers
             --> shared linear head --replicate-upsample to input length-->

Both mean pools, the squeeze by s_f and each layer's query and key-value
pooling, are ``pooling.downsample``. The head runs on the T' = ceil(T/s_f)
squeezed rows, which equals running it after the row-copying upsample.
At s_f = 1 the squeeze pool returns its input and the head is skipped,
so a (1,1,1) pass is a plain post-LN transformer encoder. The upsample
head is the only parameter the squeeze mechanism adds, and it exists
once for all squeeze factors; pooling factors never change the
parameter count.

A forward is the one place that decides to use a second CPU. When the
squeezed sequence has ``_SPLIT_ROWS`` rows or more, no tape or MAC counter
is active and the process may run on two or more CPUs, it starts one
worker thread and joins it before it returns (``attention._Worker``). Each
attention call then runs half of its heads on it, and each layer's tail
after attention (residual, layer norm, feed-forward block, residual,
layer norm) rows [T'/2, T'). Every output bit is the one a single thread
gives. Otherwise the whole forward runs on the calling thread, through
the tensor ops.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .attention import AttentionParams, _Worker, multi_head_pooled
from .errors import ConfigError, InputError, ShapeError
from .pooling import downsample, upsample
from .stochastic import CompressionConfig, Rng
from .tensor import (
    _NO_SCOPE,
    Tensor,
    _gelu_forward,
    _layer_norm_forward,
    _state,
    add,
    as_tensor,
    conv1d,
    gelu,
    layer_norm,
    mac_scope,
    matmul,
)

TARGET_TOTAL_STRIDE = 320  # 16 kHz input -> 50 Hz frames

# (kernel, stride, channel multiplier) for the compact extractor: channels
# start small and double each time the cumulative downsample grows 4x.
_COMPACT_PATTERN = (
    (10, 5, 1),
    (3, 2, 1),
    (3, 2, 2),
    (3, 2, 2),
    (3, 2, 4),
    (2, 2, 4),
    (2, 2, 8),
)


@dataclass(frozen=True)
class FeatureExtractorConfig:
    """Conv stack over raw 16 kHz audio: ``_COMPACT_PATTERN`` with its channel
    multipliers scaled by ``base_channels``."""

    base_channels: int

    @property
    def layers(self) -> tuple:
        """(kernel, stride, out_channels) per conv layer."""
        return tuple((k, s, m * self.base_channels) for k, s, m in _COMPACT_PATTERN)

    @property
    def out_channels(self) -> int:
        return self.layers[-1][2]

    @property
    def receptive_field(self) -> int:
        rf, hop = 1, 1
        for k, s, _ in self.layers:
            rf += (k - 1) * hop
            hop *= s
        return rf

    def samples_for_frames(self, frames: int) -> int:
        """Shortest audio length yielding exactly ``frames`` output frames."""
        if frames < 1:
            raise ConfigError(f"frames must be >= 1, got {frames}")
        return TARGET_TOTAL_STRIDE * (frames - 1) + self.receptive_field


@dataclass(frozen=True)
class EncoderConfig:
    """Shape of one encoder instance, including its factor capability ceilings.

    Every field must be an ``int`` (not a ``bool``), at least 1, except
    ``ffn_dim``, which may be 0 for the default 4 * model_dim.
    """

    model_dim: int
    depth: int
    heads: int
    ffn_dim: int = 0  # 0 -> 4 * model_dim
    base_channels: int = 8
    pos_conv_kernel: int = 15
    pos_conv_groups: int = 4
    max_squeeze: int = 2
    max_kv_pool: int = 2
    max_q_pool: int = 2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            least = 0 if f.name == "ffn_dim" else 1
            if value < least:
                raise ConfigError(f"{f.name} must be >= {least}, got {value}")
        if self.model_dim % self.heads:
            raise ConfigError(f"model_dim {self.model_dim} must be divisible by "
                              f"heads {self.heads}")
        if self.ffn_dim == 0:
            object.__setattr__(self, "ffn_dim", 4 * self.model_dim)
        if self.pos_conv_kernel % 2 != 1:
            raise ConfigError("positional conv kernel must be odd to preserve length")
        if self.model_dim % self.pos_conv_groups:
            raise ConfigError(f"model_dim {self.model_dim} must be divisible by "
                              f"pos_conv_groups {self.pos_conv_groups}")


_PRESETS = {
    # Full-size model dimensions.
    "B": dict(model_dim=768, depth=12, heads=12, base_channels=64),
    "L": dict(model_dim=1024, depth=24, heads=16, base_channels=64),
    # Desk-scale presets for tests and recipes.
    "tiny": dict(model_dim=64, depth=2, heads=4, base_channels=8),
    "small": dict(model_dim=128, depth=4, heads=4, base_channels=16),
}


def preset(name: str) -> EncoderConfig:
    try:
        kw = _PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(_PRESETS)}") from None
    return EncoderConfig(**kw)


def _layer_shapes(config: EncoderConfig) -> tuple:
    """(name, shape) of each parameter of one transformer layer, in order."""
    e, f = config.model_dim, config.ffn_dim
    return (("attn.w_q", (e, e)), ("attn.w_k", (e, e)), ("attn.w_v", (e, e)),
            ("attn.w_o", (e, e)), ("norm1.gamma", (e,)), ("norm1.beta", (e,)),
            ("ffn.w1", (e, f)), ("ffn.b1", (f,)), ("ffn.w2", (f, e)), ("ffn.b2", (e,)),
            ("norm2.gamma", (e,)), ("norm2.beta", (e,)))


def _outer_shapes(config: EncoderConfig) -> tuple:
    """Name -> shape maps of the parameters before the layers and after them."""
    e = config.model_dim
    before, c_in = {}, 1
    for i, (k, _, c_out) in enumerate(FeatureExtractorConfig(config.base_channels).layers):
        before[f"fe.conv{i}.weight"] = (c_out, c_in, k)
        c_in = c_out
    before.update({"fe.norm.gamma": (c_in,), "fe.norm.beta": (c_in,),
                   "fe.proj.weight": (c_in, e), "fe.proj.bias": (e,),
                   "pos_conv.weight": (e, e // config.pos_conv_groups, config.pos_conv_kernel),
                   "input_norm.gamma": (e,), "input_norm.beta": (e,)})
    after = {"upsample.weight": (e, e), "upsample.bias": (e,)} if config.max_squeeze > 1 else {}
    return before, after


def parameter_spec(config: EncoderConfig) -> dict:
    """Ordered name -> shape map for every parameter of an encoder instance."""
    before, after = _outer_shapes(config)
    layers = {f"layer{i}.{name}": shape
              for i in range(config.depth) for name, shape in _layer_shapes(config)}
    return {**before, **layers, **after}


def _parameter_total(config: EncoderConfig) -> int:
    """Number of values ``parameter_spec(config)`` describes, from the same
    tables but without unrolling the layers, so that a config from an
    untrusted header can be checked before anything its size depends on is
    built."""
    before, after = _outer_shapes(config)
    per_layer = sum(math.prod(shape) for _, shape in _layer_shapes(config))
    return (sum(math.prod(shape) for shape in (*before.values(), *after.values()))
            + config.depth * per_layer)


def _init_value(name: str, shape: tuple, rng: Rng) -> np.ndarray:
    if name.endswith(".gamma"):
        return np.ones(shape)
    if name.endswith((".beta", ".bias", ".b1", ".b2")):
        return np.zeros(shape)
    if len(shape) == 3:  # conv weight
        fan_in = shape[1] * shape[2]
    else:  # matrix, rows = fan in
        fan_in = shape[0]
    return rng.fork(name).normal_matrix(shape, scale=1.0 / np.sqrt(fan_in))


class _Layer(NamedTuple):
    """One transformer layer's parameters after its four attention
    projections, in ``_layer_shapes`` order."""

    norm1_gamma: Tensor
    norm1_beta: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    norm2_gamma: Tensor
    norm2_beta: Tensor


# Squeezed rows from which a forward without a tape or MAC counter uses a
# second CPU for its attention heads and each layer's tail
# (``_tail_in_halves``), and the fewest rows a half may have
# (``_tail_in_halves`` says why 16).
_SPLIT_ROWS = 512
_GEMM_ROWS = 16


def _tail(x: Tensor, attn_out: Tensor, layer: _Layer) -> Tensor:
    """One layer after its attention: residual and layer norm, then the
    feed-forward block with its residual and layer norm."""
    x = layer_norm(add(x, attn_out), layer.norm1_gamma, layer.norm1_beta)
    with mac_scope("ffn"):
        h = gelu(add(matmul(x, layer.ffn_w1), layer.ffn_b1))
        h = add(matmul(h, layer.ffn_w2), layer.ffn_b2)
    return layer_norm(add(x, h), layer.norm2_gamma, layer.norm2_beta)


def _tail_in_halves(x: Tensor, attn_out: Tensor, layer: _Layer) -> Tensor:
    """``_tail`` with rows [0, T/2) on the calling thread and [T/2, T) on the
    forward's worker (``attention._Worker``), without a tape.

    Both halves run ``_tail``'s arithmetic (``_layer_norm_forward`` and
    ``_gelu_forward`` are the ops' own forwards) and write their rows of one
    output that the calling thread allocates. Each half's other arrays are
    its own thread's, and so is the heap they come from: when the worker
    wrote into buffers of the caller's heap, which the caller's later
    forwards then reused, the benchmark's unsplit requests in the same
    process read 2-5% slower.

    Every op works row by row, so a row's bits do not depend on the rows
    beside it, with one exception: on numpy's bundled OpenBLAS a product of
    fewer than 16 rows, or of one row, can differ in its last bits from the
    same rows of a taller product (seen at (m, 512) @ (512, 128), float32
    and float64); pieces of 16 rows or more matched at every height tried.
    The forward splits only when each half has ``_GEMM_ROWS`` rows or more.
    """
    xd, ad = x.data, attn_out.data
    gamma1, beta1, w1, b1, w2, b2, gamma2, beta2 = (t.data for t in layer)
    out = np.empty_like(xd)

    def run(r: slice):
        s = np.add(xd[r], ad[r])
        x1 = _layer_norm_forward(s, gamma1, beta1, s)[1]
        h = np.matmul(x1, w1)
        h += b1
        h = _gelu_forward(h, None, h)[1]
        h2 = np.matmul(h, w2)
        h2 += b2
        np.add(x1, h2, out=h2)
        _layer_norm_forward(h2, gamma2, beta2, h2, out[r])

    _state.worker.halves(run, xd.shape[0])
    return as_tensor(out)


class EncoderModel:
    """Parameters plus topology; immutable during evaluation.

    Parameters live in an ordered name -> Tensor dict. The Tensor objects
    stay stable across training steps (optimizers rebind ``.data``), which
    is what lets gradient maps be looked up by tensor. ``params`` given as
    Tensors of the model's dtype are kept as they are, so a tape sees the
    caller's tensors; other values are wrapped, cast to the dtype.

    The forward paths look no parameter up by name: each layer's tensors
    are gathered once here.
    """

    def __init__(self, config: EncoderConfig, seed: int = 0, dtype=np.float64, params=None):
        self.config = config
        self.fe = FeatureExtractorConfig(config.base_channels)
        self.dtype = np.dtype(dtype)
        shapes = parameter_spec(config)
        if params is None:
            rng = Rng(seed).fork("init")
            self.params = {
                name: Tensor(_init_value(name, shape, rng), dtype=self.dtype)
                for name, shape in shapes.items()
            }
        else:
            self.params = {}
            for name, shape in shapes.items():
                if name not in params:
                    raise InputError(f"missing parameter {name!r}")
                value = params[name]
                if tuple(value.shape) != shape:
                    raise ShapeError(f"parameter {name!r} has shape {tuple(value.shape)}, "
                                     f"expected {shape}")
                if isinstance(value, Tensor) and value.dtype == self.dtype:
                    self.params[name] = value
                else:
                    data = value.data if isinstance(value, Tensor) else value
                    self.params[name] = Tensor(np.asarray(data), dtype=self.dtype)
        p = self.params
        self.attention, self._layers = [], []
        for i in range(config.depth):
            layer = [p[f"layer{i}.{name}"] for name, _ in _layer_shapes(config)]
            self.attention.append(AttentionParams(*layer[:4], heads=config.heads))
            self._layers.append(_Layer(*layer[4:]))
        self._fe_convs = [(p[f"fe.conv{i}.weight"], stride)
                          for i, (_, stride, _) in enumerate(self.fe.layers)]

    def astype(self, dtype) -> "EncoderModel":
        return EncoderModel(self.config, dtype=dtype,
                            params={n: t.data for n, t in self.params.items()})

    # ------------------------------------------------------------------
    # forward paths
    # ------------------------------------------------------------------

    def extract_features(self, audio) -> Tensor:
        """Raw 16 kHz audio -> 50 Hz frames projected to model width."""
        audio = np.asarray(audio)
        if audio.ndim != 1:
            raise InputError(f"audio must be a 1-D sample array, got shape {audio.shape}")
        rf = self.fe.receptive_field
        if audio.size < rf:
            raise InputError(f"audio of {audio.size} samples is shorter than the "
                             f"receptive field ({rf} samples)")
        # per-utterance normalization keeps conv activations in range; one
        # float64 working copy, normalised in place
        normed = np.array(audio, dtype=np.float64)
        normed -= normed.mean()
        normed /= np.sqrt(normed.var() + 1e-8)
        x = as_tensor(normed.reshape(-1, 1), dtype=self.dtype)
        del normed  # a float32 model has its own copy: free the float64 one before the convs
        p = self.params
        with mac_scope("fe"):
            for weight, stride in self._fe_convs:
                x = gelu(conv1d(x, weight, stride=stride))
            x = layer_norm(x, p["fe.norm.gamma"], p["fe.norm.beta"])
            x = add(matmul(x, p["fe.proj.weight"]), p["fe.proj.bias"])
        return x

    def _positional(self, x: Tensor) -> Tensor:
        """x + GELU(grouped conv of x), the conv zero-padded to keep x's length."""
        cfg = self.config
        with mac_scope("fe"):
            conv = conv1d(x, self.params["pos_conv.weight"], groups=cfg.pos_conv_groups,
                          pad=(cfg.pos_conv_kernel - 1) // 2)
        return add(x, gelu(conv))

    def forward(self, features, config: CompressionConfig) -> Tensor:
        """Encode a T x E feature sequence at one compression configuration.

        Output length always equals input length.
        """
        x = features if type(features) is Tensor else as_tensor(features, dtype=self.dtype)
        cfg = self.config
        shape = x.data.shape
        if len(shape) != 2 or shape[1] != cfg.model_dim:
            raise ShapeError(f"features must be T x {cfg.model_dim}, got {shape}")
        config.check_fits(cfg)
        t_in = shape[0]
        x = self._positional(downsample(x, config.s_f))
        p = self.params
        x = layer_norm(x, p["input_norm.gamma"], p["input_norm.beta"])
        worker = _NO_SCOPE
        if (x.data.shape[0] >= max(_SPLIT_ROWS, 2 * _GEMM_ROWS)
                and _state.tape is None and _state.macs is None):
            getaffinity = getattr(os, "sched_getaffinity", None)
            cpus = getaffinity(0) if getaffinity else set(range(os.cpu_count() or 1))
            if len(cpus) > 1:
                worker = _Worker(cpus)
        with worker:
            for attn, layer, pair in zip(self.attention, self._layers, config.per_layer):
                attn_out = multi_head_pooled(x, attn, pair)
                x = (_tail(x, attn_out, layer) if worker is _NO_SCOPE
                     else _tail_in_halves(x, attn_out, layer))
        if config.s_f > 1:
            with mac_scope("upsample"):
                x = add(matmul(x, p["upsample.weight"]), p["upsample.bias"])
            x = upsample(x, config.s_f, truncate_to=t_in)
        return x


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"STPL"
CHECKPOINT_VERSION = 1


@dataclass
class Checkpoint:
    """Deserialized checkpoint: config, float32 parameters, free-form meta."""

    config: EncoderConfig
    params: dict = field(default_factory=dict)  # name -> float32 ndarray
    meta: dict = field(default_factory=dict)

    def build_model(self, dtype=np.float64):
        """Instantiate the encoder; returns (model, extra_params).

        Extra parameter groups (fine-tuning head, pretraining mask
        embedding, ...) ride along in the same file and are returned cast
        to ``dtype`` for the caller to reattach.
        """
        expected = parameter_spec(self.config)
        encoder_params = {n: self.params[n] for n in expected if n in self.params}
        model = EncoderModel(self.config, dtype=dtype, params=encoder_params)
        extras = {n: Tensor(v, dtype=dtype) for n, v in self.params.items()
                  if n not in expected}
        return model, extras


def save_checkpoint(path, config: EncoderConfig, params: dict, meta: dict | None = None):
    """Write the binary checkpoint: magic, version, config JSON, float32 tensors."""
    header = json.dumps({"config": asdict(config), "meta": meta or {}},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    buf.write(struct.pack("<I", len(header)))
    buf.write(header)
    buf.write(struct.pack("<I", len(params)))
    for name, value in params.items():
        data = value.data if isinstance(value, Tensor) else np.asarray(value)
        data = np.ascontiguousarray(data, dtype="<f4")
        name_bytes = name.encode("utf-8")
        buf.write(struct.pack("<H", len(name_bytes)))
        buf.write(name_bytes)
        buf.write(struct.pack("<B", data.ndim))
        buf.write(struct.pack(f"<{data.ndim}I", *data.shape))
        buf.write(data.tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path) -> Checkpoint:
    """Read a file written by ``save_checkpoint``.

    Every read is bounds-checked: a truncated or corrupt file, or one with
    bytes after the last tensor, raises InputError naming the offset; an
    unreadable path, a ``meta`` that is not an object, a header config
    with more encoder values than the file has bytes for, or an encoder
    tensor whose shape disagrees with the header config raises InputError
    naming the path.
    """
    try:
        with open(path, "rb") as fh:
            view = memoryview(fh.read())
    except OSError as exc:
        raise InputError(f"{path}: cannot read checkpoint ({exc})") from None
    offset = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal offset
        if n > len(view) - offset:
            raise InputError(f"{path}: truncated checkpoint: {what} needs {n} bytes "
                             f"at offset {offset}, {len(view) - offset} left")
        offset += n
        return view[offset - n:offset]

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    def corrupt(what: str, exc: Exception) -> InputError:
        return InputError(f"{path}: corrupt checkpoint: {what} before offset {offset} ({exc})")

    if bytes(take(4, "magic")) != CHECKPOINT_MAGIC:
        raise InputError(f"{path}: not a checkpoint (bad magic)")
    (version,) = unpack("<I", "version")
    if version != CHECKPOINT_VERSION:
        raise InputError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = unpack("<I", "header length")
    raw_header = take(header_len, "header")
    try:
        header = json.loads(bytes(raw_header).decode("utf-8"))
        config = EncoderConfig(**header["config"])
        meta = header.get("meta", {})
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise corrupt("header", exc) from None
    if not isinstance(meta, dict):
        raise InputError(f"{path}: corrupt checkpoint: header meta is not a JSON object")
    needed = 4 * _parameter_total(config)
    if needed > len(view) - offset:
        raise InputError(f"{path}: corrupt checkpoint: the header config needs {needed} bytes "
                         f"of float32 parameters, {len(view) - offset} are left")
    (n_params,) = unpack("<I", "parameter count")
    params = {}
    for _ in range(n_params):
        (name_len,) = unpack("<H", "parameter name length")
        raw_name = take(name_len, "parameter name")
        try:
            name = bytes(raw_name).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise corrupt("parameter name", exc) from None
        (ndim,) = unpack("<B", f"rank of {name!r}")
        shape = unpack(f"<{ndim}I", f"shape of {name!r}")
        size = math.prod(shape)
        raw = take(4 * size, f"values of {name!r}")
        try:
            params[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        except ValueError as exc:  # numpy caps the rank at 64
            raise corrupt(f"shape of {name!r}", exc) from None
    if offset != len(view):
        raise InputError(f"{path}: corrupt checkpoint: {len(view) - offset} trailing bytes "
                         f"after offset {offset}")
    for name, shape in parameter_spec(config).items():
        if name in params and params[name].shape != shape:
            raise InputError(f"{path}: parameter {name!r} has shape {params[name].shape}, "
                             f"expected {shape} for the header config")
    return Checkpoint(config=config, params=params, meta=meta)
