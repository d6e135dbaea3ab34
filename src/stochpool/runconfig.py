"""Plain-text run configuration: strict `key = value` files.

Unknown keys are rejected by name; every run echoes its fully-resolved
configuration into the output directory so it can be replayed exactly.
Lines starting with `#` (and blank lines) are ignored; values never span
lines.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError


@dataclass
class RunConfig:
    """Every run-config key with its default. ``fixed_config`` alone picks
    how pretrain and finetune train: a ``S_f-S_k-S_q`` triplet trains every
    step at it, empty samples each step from ``squeeze_set``, ``kv_set``
    and ``q_set``."""

    preset: str = "tiny"
    seed: int = 0
    output_dir: str = "runs/out"
    fixed_config: str = ""
    squeeze_set: str = "1,2"
    kv_set: str = "1,2"
    q_set: str = "1,2"
    steps: int = 200
    batch_size: int = 4
    learning_rate: float = 0.002
    eval_interval: int = 0
    freeze_extractor: bool = False
    dataset: str = "synthetic-sines"  # or synthetic-symbols, or a manifest path
    dataset_size: int = 64
    val_size: int = 8
    vocab_size: int = 4
    frames: int = 1000  # synthetic frame count for sweep/cost datasets
    utterances: int = 2  # dataset size for sweep timing
    checkpoint: str = ""
    sweep_configs: str = ""  # extra triplets, comma separated
    repeats: int = 5
    measure: bool = True

    def factor_list(self, name: str) -> tuple:
        raw = getattr(self, name)
        try:
            values = tuple(int(v) for v in str(raw).split(",") if v.strip())
        except ValueError:
            raise ConfigError(f"{name} must be comma-separated integers, got {raw!r}") from None
        if not values:
            raise ConfigError(f"{name} must not be empty")
        return values

    def count(self, name: str) -> int:
        """The value of the integer key ``name``, which must be >= 1."""
        value = getattr(self, name)
        if value < 1:
            raise ConfigError(f"config key {name!r} must be >= 1, got {value}")
        return value

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


KEY_TYPES = {f.name: f.type for f in fields(RunConfig)}  # every key, by field type


def _coerce(key: str, raw: str):
    kind = KEY_TYPES[key]
    raw = raw.strip()
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"config key {key!r} expects true/false, got {raw!r}")
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {key!r} expects an integer, got {raw!r}") from None
    if kind == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"config key {key!r} expects a number, got {raw!r}") from None
    return raw


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    config = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected `key = value`, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in KEY_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        setattr(config, key, _coerce(key, raw))
    return config


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config file ({exc})") from None
    return parse_config_text(text, source=str(path))


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Apply `key=value` overrides (command-line flags win over file keys)."""
    for key, raw in overrides.items():
        if key not in KEY_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(config, key, _coerce(key, str(raw)))
    return config


def echo_effective_config(config: RunConfig, output_dir) -> Path:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "effective_config.txt"
    path.write_text(config.to_text(), encoding="utf-8")
    return path
