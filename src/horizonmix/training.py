"""Training loop: AdamW with decoupled weight decay, linear warmup plus
cosine decay, global gradient-norm clipping, and JSON-lines metrics."""

import json
import math
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import save_policy
from .config import TrainConfig
from .errors import ConfigError, TrainingDivergedError
from .heads import fit_bin_grid
from .policy import Normalization, Policy
from .rng import make_rng

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def lr_schedule(iteration: int, cfg: TrainConfig) -> float:
    """Linear warmup to ``peak_lr``, then cosine decay to ``floor_lr``."""
    if iteration < cfg.warmup:
        return cfg.peak_lr * (iteration + 1) / cfg.warmup
    span = max(1, cfg.iterations - cfg.warmup)
    progress = min(1.0, (iteration - cfg.warmup) / span)
    return cfg.floor_lr + 0.5 * (cfg.peak_lr - cfg.floor_lr) * (
        1.0 + math.cos(math.pi * progress))


class AdamW:
    """Decoupled weight decay on matrix-shaped parameters only; biases,
    gains, and other vectors are not decayed."""

    def __init__(self, params: dict[str, T.Tensor], cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, lr: float) -> float:
        """Clip by global norm, apply one update; returns the pre-clip norm.

        A non-finite norm raises TrainingDivergedError before any weight
        moves; its iteration is the number of steps taken so far, which is
        the training loop's iteration index."""
        b1, b2 = ADAM_BETAS
        total_sq = 0.0
        for p in self.params.values():
            if p.grad is not None:
                total_sq += float(np.vdot(p.grad, p.grad))
        norm = math.sqrt(total_sq)
        if not math.isfinite(norm):
            bad = [k for k, p in self.params.items()
                   if p.grad is not None and not np.isfinite(p.grad).all()]
            where = f"first in parameter {bad[0]!r}" if bad else "its square overflows"
            raise TrainingDivergedError(
                self.t, f"non-finite gradient norm at iteration {self.t}: {where}")
        scale = self.cfg.grad_clip / norm if norm > self.cfg.grad_clip else 1.0
        self.t += 1
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad * scale if scale != 1.0 else p.grad
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - b1) * (g - m)
            v += (1.0 - b2) * (g * g - v)
            update = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            if p.data.ndim >= 2 and self.cfg.weight_decay > 0.0:
                update = update + self.cfg.weight_decay * p.data
            p.data -= (lr * update).astype(p.data.dtype)
        return norm


def prepare_policy(cfg: TrainConfig, dataset) -> Policy:
    """Initialize a policy sized for the dataset, with normalization
    statistics (and, for classification, a bin grid) fitted to it."""
    model = cfg.model
    obs_dim = dataset.observations.shape[1]
    if obs_dim != model.obs_dim:
        raise ConfigError(f"dataset obs dim {obs_dim} != model {model.obs_dim}")
    if dataset.chunks.shape[1] != model.max_horizon:
        raise ConfigError(
            f"dataset chunk length {dataset.chunks.shape[1]} != "
            f"model horizon {model.max_horizon}")
    if dataset.chunks.shape[2] != model.d_a:
        raise ConfigError("dataset action dim does not match the model")
    lo, hi = int(dataset.task_ids.min()), int(dataset.task_ids.max())
    if lo < 0 or hi >= model.n_tasks:
        raise ConfigError(f"task id {lo if lo < 0 else hi} out of range "
                          f"({model.n_tasks} tasks configured)")
    real = dataset.valid.astype(bool)
    norm = Normalization.from_data(dataset.observations.astype(np.float64),
                                   dataset.chunks[real].astype(np.float64))
    grid = None
    if model.head == "classification":
        normed = norm.normalize_actions(dataset.chunks[real].astype(np.float64))
        grid = fit_bin_grid(normed, bins=model.bins)
    return Policy.init(model, seed=cfg.seed, dtype=cfg.dtype, norm=norm,
                       grid=grid)


def default_loss(policy: Policy, cfg: TrainConfig):
    def fn(obs, task_ids, chunks, valid, rng):
        breakdown, _alpha = policy.loss(obs, task_ids, chunks, valid, rng,
                                        lambda_ind=cfg.lambda_ind,
                                        lambda_bal=cfg.lambda_bal)
        return breakdown
    return fn


def train(policy: Policy, dataset, cfg: TrainConfig, metrics_path=None,
          checkpoint_dir=None, loss_fn=None):
    """Run the loop; returns (policy, metrics list).

    Writes one JSON line per iteration when ``metrics_path`` is given and,
    under ``checkpoint_dir``, ``checkpoint_<iteration>.bin`` every
    ``cfg.checkpoint_every`` iterations (0: never) and ``checkpoint.bin``
    after the last, each with the generators' states.  A non-finite loss or
    gradient norm aborts with the iteration index, before the weights move.
    """
    if loss_fn is None:
        loss_fn = default_loss(policy, cfg)
    rng_batch = make_rng(cfg.seed, "train", "batches")
    rng_draws = make_rng(cfg.seed, "train", "draws")
    opt = AdamW(policy.params, cfg)

    def save(name, iteration):
        save_policy(Path(checkpoint_dir) / name, policy, cfg, iteration,
                    {"batches": rng_batch.bit_generator.state,
                     "draws": rng_draws.bit_generator.state})

    metrics = []
    out = open(metrics_path, "w") if metrics_path is not None else None
    try:
        for it in range(cfg.iterations):
            idx = rng_batch.integers(0, len(dataset), size=cfg.batch_size)
            breakdown = loss_fn(dataset.observations[idx],
                                dataset.task_ids[idx],
                                dataset.chunks[idx].astype(np.float64),
                                dataset.valid[idx], rng_draws)
            total = breakdown.total
            if not np.isfinite(total.data):
                raise TrainingDivergedError(it)
            T.zero_grads(policy.params.values())
            T.backward(total)
            lr = lr_schedule(it, cfg)
            grad_norm = opt.step(lr)
            line = {
                "iteration": it,
                "l_mix": float(breakdown.l_mix.data),
                "l_ind": float(breakdown.l_ind.data),
                "l_bal": float(breakdown.l_bal.data),
                "l_h": breakdown.per_horizon.data.tolist(),
                "total": float(total.data),
                "grad_norm": grad_norm,
                "lr": lr,
            }
            metrics.append(line)
            if out is not None:
                out.write(json.dumps(line) + "\n")
            if (checkpoint_dir is not None and cfg.checkpoint_every > 0
                    and (it + 1) % cfg.checkpoint_every == 0
                    and (it + 1) < cfg.iterations):
                save(f"checkpoint_{it + 1:06d}.bin", it + 1)
        if checkpoint_dir is not None:
            save("checkpoint.bin", cfg.iterations)
    finally:
        if out is not None:
            out.close()
    return policy, metrics
