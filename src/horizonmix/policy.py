"""One policy object over the three heads: owns parameters, normalization
statistics, the horizon set, and the train/infer entry points shared by the
training loop, the evaluator, and the CLI.

``Policy.loss`` runs ``heads.example_losses`` for every head, on two halves
of the batch at once. ``Policy.predict``
integrates the flow head's velocity field (``heads.flow_infer``, which needs
an rng for the noise) and reads the one-step heads directly
(``heads.head_infer``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import heads as hd
from . import tensor as T
from . import transformer as tr
from .encoder import encode, init_encoder_params
from .errors import ConfigError
from .mixture import (HorizonSet, balance_loss, build_horizon_set, init_gate_params,
                      moh_objective)


@dataclass(frozen=True)
class ModelConfig:
    head: str = "flow"
    layers: int = 4
    heads: int = 4
    d_model: int = 64
    d_ff: int = 256
    context_tokens: int = 8
    encoder_hidden: int = 128
    max_horizon: int = 30
    stride: int = 3
    obs_dim: int = 7
    n_tasks: int = 16
    d_a: int = 2
    bins: int = 64
    ode_steps: int = 10
    fusion: str = "gated"

    def __post_init__(self):
        if self.head not in hd.HEAD_TYPES:
            raise ConfigError(f"unknown head type {self.head!r}")
        if self.fusion not in ("gated", "uniform"):
            raise ConfigError(f"unknown fusion mode {self.fusion!r}")
        if min(self.layers, self.heads, self.d_model, self.d_ff, self.max_horizon,
               self.context_tokens, self.encoder_hidden, self.bins, self.obs_dim,
               self.n_tasks, self.d_a) < 1:
            raise ConfigError("model sizes must be positive")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.head == "flow" and self.d_model % 2 != 0:
            raise ConfigError(f"the flow time features need an even d_model, got {self.d_model}")
        if self.ode_steps < 1:
            raise ConfigError(f"ODE steps must be >= 1, got {self.ode_steps}")
        self.horizon_set()  # rejects a stride that does not divide max_horizon

    def horizon_set(self) -> HorizonSet:
        return build_horizon_set(self.max_horizon, self.stride)


@dataclass
class Normalization:
    obs_mean: np.ndarray
    obs_std: np.ndarray
    act_mean: np.ndarray
    act_std: np.ndarray

    @classmethod
    def identity(cls, obs_dim: int, d_a: int) -> "Normalization":
        return cls(np.zeros(obs_dim), np.ones(obs_dim), np.zeros(d_a), np.ones(d_a))

    @classmethod
    def from_data(cls, observations: np.ndarray, actions: np.ndarray) -> "Normalization":
        flat = actions.reshape(-1, actions.shape[-1])
        return cls(
            obs_mean=observations.mean(axis=0).astype(np.float64),
            obs_std=np.maximum(observations.std(axis=0), 1e-6).astype(np.float64),
            act_mean=flat.mean(axis=0).astype(np.float64),
            act_std=np.maximum(flat.std(axis=0), 1e-6).astype(np.float64),
        )

    def normalize_obs(self, obs: np.ndarray) -> np.ndarray:
        return (obs - self.obs_mean) / self.obs_std

    def normalize_actions(self, actions: np.ndarray) -> np.ndarray:
        return (actions - self.act_mean) / self.act_std

    def denormalize_actions(self, actions: np.ndarray) -> np.ndarray:
        return actions * self.act_std + self.act_mean


class Policy:
    def __init__(self, cfg: ModelConfig, params: dict[str, T.Tensor],
                 norm: Normalization, grid: hd.BinGrid | None = None):
        if cfg.head == "classification" and grid is None:
            raise ConfigError("classification head requires a fitted bin grid")
        self.cfg = cfg
        self.params = params
        self.norm = norm
        self.grid = grid
        self.horizons = cfg.horizon_set()

    @classmethod
    def init(cls, cfg: ModelConfig, seed: int | None, dtype=np.float32,
             norm: Normalization | None = None, grid: hd.BinGrid | None = None) -> "Policy":
        params: dict[str, T.Tensor] = {}
        for init in (init_encoder_params, tr.init_transformer_params, init_gate_params,
                     hd.init_head_params):
            params.update(init(seed, cfg, dtype))
        if cfg.head == "classification" and grid is None:
            grid = hd.BinGrid(lo=(-1.0,) * cfg.d_a, hi=(1.0,) * cfg.d_a, bins=cfg.bins)
        return cls(cfg, params, norm or Normalization.identity(cfg.obs_dim, cfg.d_a), grid)

    @property
    def dtype(self):
        return self.params["gate.w"].dtype

    def detached(self) -> "Policy":
        """Same weights without gradient tracking; forwards build no tape."""
        frozen = {k: T.Tensor(v.data) for k, v in self.params.items()}
        return Policy(self.cfg, frozen, self.norm, self.grid)

    def encode_context(self, obs: np.ndarray, task_ids: np.ndarray) -> T.Tensor:
        normed = self.norm.normalize_obs(np.asarray(obs, dtype=np.float64))
        return encode(self.params, self.cfg, normed.astype(self.dtype), task_ids)

    # -- training ----------------------------------------------------------
    def loss(self, obs, task_ids, chunks, valid_rows, rng,
             lambda_ind: float = 1.0, lambda_bal: float = 1e-3):
        """MoH loss breakdown and gate weights alpha (B, H, N) for one batch
        of env-scale chunks.

        The flow draws and the row weights come from the whole batch
        (``heads.loss_inputs``); the encoder, the forward and the per-row
        losses run on two halves of the rows at once (``tensor.shards``),
        and the balance loss reads the whole batch's gate weights."""
        obs = self.norm.normalize_obs(np.asarray(obs, dtype=np.float64)).astype(self.dtype)
        task_ids = np.asarray(task_ids)
        target = self.norm.normalize_actions(np.asarray(chunks, dtype=np.float64))
        inputs = hd.loss_inputs(self.cfg, target, np.asarray(valid_rows, dtype=bool), rng,
                                self.dtype)

        def shard(params, rows):
            ctx = encode(params, self.cfg, obs[rows], task_ids[rows])
            return hd.example_losses(params, self.cfg, ctx, self.grid,
                                     **{k: v[rows] for k, v in inputs.items()})

        l_mix, per_h, alpha = T.shards(shard, self.params, len(target))
        l_bal = balance_loss(alpha, self.horizons)
        return moh_objective(T.tsum(l_mix), T.tsum(per_h, axis=0), l_bal,
                             lambda_ind, lambda_bal), alpha

    # -- inference ---------------------------------------------------------
    def predict(self, obs, task_ids, rng=None, need_per_horizon: bool = True):
        """Env-scale fused chunk, per-horizon chunks, and gate weights.

        Every head computes the per-horizon chunks; ``need_per_horizon=False`` drops them.
        returns (fused (B,H,d_a), per_horizon (B,N,H,d_a) or None, alpha (B,H,N))
        """
        ctx = self.encode_context(obs, task_ids)
        if self.cfg.head == "flow":
            if rng is None:
                raise ConfigError("flow inference requires an rng for the noise draw")
            fused, per_h, alpha = hd.flow_infer(self.params, self.cfg, ctx, rng)
        else:
            fused, per_h, alpha = hd.head_infer(self.params, self.cfg, ctx, self.grid)
        per_h = self.norm.denormalize_actions(per_h) if need_per_horizon else None
        return self.norm.denormalize_actions(fused), per_h, alpha
