"""Run configuration.

Config files are flat ``key = value`` text with dotted section keys
(``model.stride = 3``, ``train.peak_lr = 1e-3``); ``#`` starts a comment.
Command-line overrides use the same ``key=value`` form and win over the file.
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError
from .policy import ModelConfig

FLOAT_WIDTHS = {"float32": np.float32, "float64": np.float64}


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters plus the model they apply to.

    The schedule is linear warmup to ``peak_lr`` followed by cosine decay to
    ``floor_lr`` at the final iteration.
    """

    model: ModelConfig = field(default_factory=ModelConfig)
    lambda_ind: float = 1.0
    lambda_bal: float = 1e-3
    warmup: int = 100
    peak_lr: float = 1e-3
    floor_lr: float = 1e-5
    iterations: int = 2000
    batch_size: int = 64
    grad_clip: float = 1.0
    weight_decay: float = 0.01
    seed: int = 0
    float_width: str = "float32"
    checkpoint_every: int = 500

    def __post_init__(self):
        if self.float_width not in FLOAT_WIDTHS:
            raise ConfigError(f"unknown float width {self.float_width!r}")
        if self.iterations < 0 or self.warmup < 0:
            raise ConfigError("iterations and warmup must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.peak_lr <= 0 or self.floor_lr < 0:
            raise ConfigError("learning rates must be positive")
        if self.grad_clip <= 0:
            raise ConfigError("grad_clip must be positive")
        if not all(v >= 0 for v in (self.checkpoint_every, self.weight_decay,
                                    self.lambda_ind, self.lambda_bal)):
            raise ConfigError("checkpoint_every, weight_decay, lambda_ind and "
                              "lambda_bal must be >= 0")

    @property
    def max_horizon(self) -> int:
        return self.model.max_horizon

    @property
    def dtype(self):
        return FLOAT_WIDTHS[self.float_width]


def parse_config_text(text: str) -> dict[str, str]:
    items: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        items[key.strip()] = value.strip()
    return items


def _coerce(name: str, value: str, kind: type):
    try:
        if kind is int:
            return int(value)
        if kind is float:
            return float(value)
        return value
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {value!r}") from exc


def apply_items(base: TrainConfig, items: dict[str, str]) -> TrainConfig:
    kinds = {"model": {f.name: type(f.default) for f in fields(ModelConfig)},
             "train": {f.name: type(f.default) for f in fields(TrainConfig)
                       if f.name != "model"}}
    updates: dict[str, dict[str, object]] = {"model": {}, "train": {}}
    for key, value in items.items():
        section, dot, name = key.partition(".")
        if not dot or section not in kinds:
            raise ConfigError(f"unknown config key {key!r} "
                              "(expected a 'model.' or 'train.' prefix)")
        if name not in kinds[section]:
            raise ConfigError(f"unknown config key {key!r}")
        updates[section][name] = _coerce(key, value, kinds[section][name])
    return replace(base, model=replace(base.model, **updates["model"]), **updates["train"])


def load_config(path=None, overrides=()) -> TrainConfig:
    """Defaults, then the file at ``path``, then ``key=value`` overrides."""
    cfg = TrainConfig()
    if path is not None:
        with open(path) as fh:
            cfg = apply_items(cfg, parse_config_text(fh.read()))
    if overrides:
        pairs: dict[str, str] = {}
        for ov in overrides:
            if "=" not in ov:
                raise ConfigError(f"override must be key=value, got {ov!r}")
            key, value = ov.split("=", 1)
            pairs[key.strip()] = value.strip()
        cfg = apply_items(cfg, pairs)
    return cfg
