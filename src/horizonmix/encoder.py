"""Observation encoder: lifts a low-dimensional observation and a task id to
a fixed-length sequence of context tokens.

An MLP, one ``tensor.mlp`` node, maps the observation vector to C tokens;
learned positional embeddings distinguish the token slots and a learned task
embedding is added to every token. Pure function of (parameters,
observation, task id).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .rng import make_rng, truncated_normal

if TYPE_CHECKING:
    from .policy import ModelConfig

INIT_STD = 0.02


def init_encoder_params(seed: int, cfg: ModelConfig, dtype=np.float32) -> dict[str, T.Tensor]:
    def proj(tag, *shape):
        rng = make_rng(seed, "encoder", tag)
        return T.param(truncated_normal(rng, shape, std=INIT_STD, dtype=dtype))

    hidden, width = cfg.encoder_hidden, cfg.context_tokens * cfg.d_model
    return {
        "encoder.w1": proj("w1", cfg.obs_dim, hidden),
        "encoder.b1": T.param(np.zeros(hidden, dtype=dtype)),
        "encoder.w2": proj("w2", hidden, width),
        "encoder.b2": T.param(np.zeros(width, dtype=dtype)),
        "encoder.pos": proj("pos", cfg.context_tokens, cfg.d_model),
        "encoder.task": proj("task", cfg.n_tasks, cfg.d_model),
    }


def encode(params: dict[str, T.Tensor], cfg: ModelConfig, obs: np.ndarray,
           task_ids: np.ndarray) -> T.Tensor:
    """(B, obs_dim) observations + (B,) integer task ids -> (B, C, d_model)."""
    obs = np.asarray(obs)
    if obs.ndim != 2 or obs.shape[1] != params["encoder.w1"].shape[0]:
        raise ConfigError(
            f"observation shape {obs.shape} incompatible with encoder input "
            f"dim {params['encoder.w1'].shape[0]}"
        )
    task_ids = np.asarray(task_ids, dtype=np.int64)
    n_tasks = params["encoder.task"].shape[0]
    lo, hi = task_ids.min(initial=0), task_ids.max(initial=0)
    if lo < 0 or hi >= n_tasks:
        raise ConfigError(
            f"task id {lo if lo < 0 else hi} outside embedding table of size {n_tasks}")
    x = T.constant(obs.astype(params["encoder.w1"].dtype))
    tokens = T.reshape(T.mlp(x, *(params[f"encoder.{n}"] for n in ("w1", "b1", "w2", "b2"))),
                       (obs.shape[0], cfg.context_tokens, cfg.d_model))
    task = T.reshape(T.take_rows(params["encoder.task"], task_ids),
                     (obs.shape[0], 1, cfg.d_model))
    return T.add(T.add(tokens, params["encoder.pos"]), task)
