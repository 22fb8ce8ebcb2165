"""Interchangeable policy objectives over the shared action transformer:
flow matching (velocity field + Euler integration), one-step l1 regression,
and one-step binned classification.

The heads differ only in three places around one shared path (transformer
forward, head linear map, gate, fuse), which reads the horizon set and
every shape from ``ModelConfig``:

- tokens: the flow head feeds one noisy (B, H, d_a) chunk per example,
  which every stream reads, and a time token; the one-step heads feed a
  learnable query (``transformer.forward_multi_horizon``);
- per-row loss: squared error for flow, l1 error for regression, bin NLL
  for classification, each summed over action dimensions at every
  (example, stream, step) row and every fused (example, step) row;
- decode: one B-row forward per Euler step integrates the fused velocity,
  and each stream's velocity on the fused chunk, from noise (``flow_infer``);
  the one-step heads read actions or most likely bins (``head_infer``).

``loss_inputs`` draws the flow head's noise and weighs the rows over the
whole batch; ``example_losses`` reduces one set of examples' rows to their
shares of L_mix and of the N per-horizon losses, so ``Policy.loss`` can run
it on two halves of a batch at once. Flow losses are means over valid
positions, one-step losses are sums over valid steps and action dimensions
averaged over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from . import transformer as tr
from .mixture import fuse, gate, validity_grid
from .rng import make_rng, truncated_normal

if TYPE_CHECKING:
    from .policy import ModelConfig

HEAD_TYPES = ("flow", "regression", "classification")

PROB_FLOOR = 1e-30  # keeps log() finite if a fused bin probability underflows


def init_head_params(seed: int, cfg: ModelConfig, dtype=np.float32) -> dict[str, T.Tensor]:
    out_dim = cfg.d_a * cfg.bins if cfg.head == "classification" else cfg.d_a
    rng = make_rng(seed, "head", cfg.head)
    return {
        "head.w": T.param(truncated_normal(rng, (cfg.d_model, out_dim), std=0.02, dtype=dtype)),
        "head.b": T.param(np.zeros(out_dim, dtype=dtype)),
    }


# ---------------------------------------------------------------------------
# bin grid (classification)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinGrid:
    """Equal-width quantization grid per action dimension; bins are 1-based."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    bins: int

    def arrays(self):
        return np.asarray(self.lo), np.asarray(self.hi)

    @property
    def width(self) -> np.ndarray:
        lo, hi = self.arrays()
        return (hi - lo) / self.bins


def fit_bin_grid(actions: np.ndarray, bins: int = 64) -> BinGrid:
    """Per-dimension range from the 1st/99th percentiles, widened by 5%."""
    flat = actions.reshape(-1, actions.shape[-1]).astype(np.float64)
    lo = np.percentile(flat, 1.0, axis=0)
    hi = np.percentile(flat, 99.0, axis=0)
    span = np.maximum(hi - lo, 1e-6)
    lo = lo - 0.025 * span
    hi = hi + 0.025 * span
    return BinGrid(lo=tuple(lo.tolist()), hi=tuple(hi.tolist()), bins=bins)


def quantize(values: np.ndarray, grid: BinGrid) -> np.ndarray:
    """Clamp to the grid range, then floor to a 1-based bin index.

    Interior boundaries go to the higher bin; the range maximum goes to the
    last bin."""
    lo, hi = grid.arrays()
    x = np.clip(values, lo, hi)
    idx = np.floor((x - lo) / grid.width).astype(np.int64) + 1
    return np.minimum(idx, grid.bins)


def dequantize(indices: np.ndarray, grid: BinGrid) -> np.ndarray:
    lo, _ = grid.arrays()
    return lo + (np.asarray(indices) - 0.5) * grid.width


# ---------------------------------------------------------------------------
# shared path: forward, head map, gate, fuse
# ---------------------------------------------------------------------------


def _fused_forward(params, cfg: ModelConfig, ctx: T.Tensor,
                   chunk: np.ndarray | None = None, tau: np.ndarray | None = None):
    """One forward, one gate and one fuse over the streams of
    ``cfg.horizon_set()``.

    chunk, tau: the flow head's (B, H, d_a) noisy chunk, which every stream
    reads, at flow times (B,); None for the one-step heads.
    Streams are fused in the head's output space: velocities or actions
    (B, N, H, d_a) for flow and regression, bin probabilities
    (B, N, H, d_a, ``cfg.bins``) for classification, whose log-probabilities
    are returned as well.
    returns (per-stream outputs, fused (B, H, ...), log-probabilities or
    None, gate weights alpha (B, H, N))
    """
    hidden = tr.forward_multi_horizon(params, cfg, ctx, chunk, tau)
    out = T.linear(hidden, params["head.w"], params["head.b"])
    alpha = gate(params, hidden, cfg.horizon_set(), cfg.fusion)
    if cfg.head != "classification":
        return out, fuse(out, alpha), None, alpha
    logits = T.reshape(out, out.shape[:3] + (cfg.d_a, cfg.bins))
    logp = T.log_softmax(logits, axis=-1)
    probs = T.texp(logp)
    return probs, fuse(probs, alpha), logp, alpha


# ---------------------------------------------------------------------------
# training objective
# ---------------------------------------------------------------------------


def flow_target(eps: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Velocity of the linear noise-to-data path; constant in flow time."""
    return target - eps


def loss_inputs(cfg: ModelConfig, target: np.ndarray, valid_rows: np.ndarray, rng,
                dtype) -> dict[str, np.ndarray]:
    """The per-example inputs of ``example_losses``, drawn and weighted over
    the whole batch, each with the batch on its leading axis.

    target:     (B, H, d_a) normalized action chunks
    valid_rows: (B, H) flags; padded chunk rows carry no loss anywhere
    rng:        draws the flow time and noise (flow head only)
    returns the loss target (the flow head's is the path velocity), the row
    weights of each stream (B, N, H) and of the fused chunk (B, H) at
    ``dtype``, and for flow the noisy chunk at ``dtype`` and its flow times
    (B,). Flow weights make means over the batch's valid positions; one-step
    weights make sums over valid steps averaged over the batch.
    """
    b, _, d_a = target.shape
    out = {}
    if cfg.head == "flow":
        tau = rng.random(b)
        eps = rng.standard_normal(target.shape)
        x = (1.0 - tau)[:, None, None] * eps + tau[:, None, None] * target
        out["chunk"], out["tau"] = x.astype(dtype), tau
        target = flow_target(eps, target)
    # stream i scores the valid rows within its horizon
    mask = validity_grid(cfg.horizon_set()).T[None] & valid_rows[:, None]
    if cfg.head == "flow":
        row_w = mask / (mask.sum(axis=(0, 2), keepdims=True) * d_a)
        fused_w = valid_rows / (valid_rows.sum() * d_a)
    else:
        row_w, fused_w = mask / b, valid_rows / b
    out.update(target=target, row_w=row_w.astype(dtype), fused_w=fused_w.astype(dtype))
    return out


def example_losses(params, cfg: ModelConfig, ctx: T.Tensor, grid: BinGrid | None,
                   target: np.ndarray, row_w: np.ndarray, fused_w: np.ndarray,
                   chunk: np.ndarray | None = None, tau: np.ndarray | None = None):
    """Each example's share of L_mix and of the per-horizon losses, from the
    inputs of ``loss_inputs`` for its rows.

    Per-row losses are the squared error (flow), l1 error (regression) or bin
    NLL (classification, on ``grid``), summed over action dimensions at every
    (example, stream, step) row and every fused (example, step) row, then
    weighted and summed over steps.
    returns (L_mix terms (B,), per-horizon terms (B, N), gate weights alpha
    (B, H, N))
    """
    dtype = ctx.data.dtype
    out, fused, logp, alpha = _fused_forward(params, cfg, ctx, chunk, tau)
    if cfg.head == "classification":
        bins0 = quantize(target, grid) - 1
        neg_onehot = -(np.arange(grid.bins) == bins0[..., None]).astype(dtype)
        fused_logp = T.tlog(T.add(fused, PROB_FLOOR))
        rows = T.tsum(T.mul(logp, T.constant(neg_onehot[:, None])), axis=(-2, -1))
        fused_rows = T.tsum(T.mul(fused_logp, T.constant(neg_onehot)), axis=(-2, -1))
    else:
        err = T.sub(out, T.constant(target[:, None].astype(dtype)))
        fused_err = T.sub(fused, T.constant(target.astype(dtype)))
        row = (lambda e: T.mul(e, e)) if cfg.head == "flow" else T.tabs
        rows = T.tsum(row(err), axis=-1)
        fused_rows = T.tsum(row(fused_err), axis=-1)
    per_h = T.tsum(T.mul(rows, T.constant(row_w)), axis=2)
    l_mix = T.tsum(T.mul(fused_rows, T.constant(fused_w)), axis=1)
    return l_mix, per_h, alpha


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


def flow_infer(params, cfg: ModelConfig, ctx: T.Tensor, rng):
    """Euler integration of the learned field from noise to an action chunk,
    in ``cfg.ode_steps`` steps.

    Each step is one ``_fused_forward`` over the B context rows and the
    fused chunk x_s, which every stream reads; the gate-fused velocity
    drives x_s and the gate weights are averaged over the steps. Stream i's
    per-horizon prediction is its velocity integrated along that path from
    the same noise, ``eps + sum_s dtau * v_i(x_s)``.

    returns (fused (B,H,d_a), per_horizon (B,N,H,d_a), alpha (B,H,N))
    """
    steps = cfg.ode_steps
    b = ctx.shape[0]
    n = len(cfg.horizon_set())
    h_max = cfg.max_horizon
    dtype = ctx.data.dtype
    eps = rng.standard_normal((b, h_max, cfg.d_a))
    fused_x = eps
    own_x = np.repeat(eps[:, None], n, axis=1)
    dtau = 1.0 / steps
    alpha_acc = np.zeros((b, h_max, n))
    for s in range(steps):
        out, fused, _, alpha = _fused_forward(params, cfg, ctx, fused_x.astype(dtype),
                                              np.full(b, s * dtau))
        alpha_acc += alpha.data
        fused_x = fused_x + dtau * fused.data.astype(np.float64)
        own_x = own_x + dtau * out.data.astype(np.float64)
    return fused_x, own_x, alpha_acc / steps


def head_infer(params, cfg: ModelConfig, ctx: T.Tensor, grid: BinGrid | None):
    """One-step heads: fused and per-horizon actions from one forward.

    Regression reads the actions directly; classification takes the
    centers of the most likely bins, of the fused distribution and of each
    stream's own.
    returns (fused (B,H,d_a), per_horizon (B,N,H,d_a), alpha (B,H,N))
    """
    out, fused, _, alpha = _fused_forward(params, cfg, ctx)
    fused, per_h = fused.data, out.data
    if cfg.head == "classification":
        fused = dequantize(fused.argmax(axis=-1) + 1, grid)
        per_h = dequantize(per_h.argmax(axis=-1) + 1, grid)
    return (fused.astype(np.float64), per_h.astype(np.float64),
            alpha.data.astype(np.float64))
