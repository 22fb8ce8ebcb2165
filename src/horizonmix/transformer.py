"""Shared full-attention action transformer over multiple horizon streams.

One forward pass processes N horizon streams per example. Each stream sees
the same context tokens, an optional flow-time token, and H action-position
slots; a horizon-specific additive mask makes positions beyond the stream's
horizon invisible. Streams are isolated from each other (block-diagonal
attention with shared weights), so the batched result at valid positions is
identical to running each truncated stream alone.

Sequence layout per stream: [C context] [time token, flow heads only]
[H action positions].

One forward, ``forward_multi_horizon``, serves every head. The flow head
fills the action positions with its noisy chunk and adds the time token;
the one-step heads fill them with a learnable query and have no time token.
It returns only hidden states; which (step, horizon) pairs are valid is
``mixture.validity_grid``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .rng import make_rng, truncated_normal

INIT_STD = 0.02


@dataclass(frozen=True)
class TransformerConfig:
    layers: int = 4
    heads: int = 4
    d_model: int = 64
    d_ff: int = 256
    max_horizon: int = 30

    def __post_init__(self):
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if min(self.layers, self.heads, self.d_model, self.d_ff, self.max_horizon) < 1:
            raise ConfigError("transformer dimensions must be positive")


def init_transformer_params(seed: int, cfg: TransformerConfig, d_a: int,
                            dtype=np.float32) -> dict[str, T.Tensor]:
    p: dict[str, T.Tensor] = {}

    def proj(tag, *shape):
        rng = make_rng(seed, "transformer", tag)
        return T.param(truncated_normal(rng, shape, std=INIT_STD, dtype=dtype))

    def zeros(*shape):
        return T.param(np.zeros(shape, dtype=dtype))

    def ones(*shape):
        return T.param(np.ones(shape, dtype=dtype))

    d = cfg.d_model
    for i in range(cfg.layers):
        for name in ("wq", "wk", "wv", "wo"):
            p[f"blocks.{i}.attn.{name}"] = proj(f"{i}.attn.{name}", d, d)
            p[f"blocks.{i}.attn.{name}_b"] = zeros(d)
        p[f"blocks.{i}.ln1.g"], p[f"blocks.{i}.ln1.b"] = ones(d), zeros(d)
        p[f"blocks.{i}.ffn.w1"] = proj(f"{i}.ffn.w1", d, cfg.d_ff)
        p[f"blocks.{i}.ffn.b1"] = zeros(cfg.d_ff)
        p[f"blocks.{i}.ffn.w2"] = proj(f"{i}.ffn.w2", cfg.d_ff, d)
        p[f"blocks.{i}.ffn.b2"] = zeros(d)
        p[f"blocks.{i}.ln2.g"], p[f"blocks.{i}.ln2.b"] = ones(d), zeros(d)
    p["final_ln.g"], p["final_ln.b"] = ones(d), zeros(d)
    p["action_lift.w"] = proj("action_lift.w", d_a, d)
    p["action_lift.b"] = zeros(d)
    p["action_pos"] = proj("action_pos", cfg.max_horizon, d)
    p["time_lift.w"] = proj("time_lift.w", d, d)
    p["time_lift.b"] = zeros(d)
    p["query"] = proj("query", d)
    return p


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------


def build_stream_masks(horizons, n_context: int, max_horizon: int, with_time: bool,
                       dtype=np.float32):
    """Additive attention masks, one per horizon stream.

    Returns masks (N, 1, L, L) ready to broadcast over batch and heads.
    Which action positions are valid is ``mixture.validity_grid``.

    Visibility rules: context rows attend to context only, so the context
    encoding is the same in every stream and independent of horizon; the time
    token attends to context and itself; a valid action position attends to
    context, the time token, and every valid action position; an invalid
    position attends only to itself (its output is discarded, but a fully
    blocked row has no softmax).
    """
    horizons = list(horizons)
    if max(horizons) > max_horizon:
        raise ConfigError(f"horizon {max(horizons)} exceeds max horizon {max_horizon}")
    n = len(horizons)
    t = 1 if with_time else 0
    length = n_context + t + max_horizon
    a0 = n_context + t
    masks = np.full((n, 1, length, length), T.NEG_INF, dtype=dtype)
    for i, h in enumerate(horizons):
        m = masks[i, 0]
        m[:n_context, :n_context] = 0.0
        if with_time:
            m[n_context, :n_context] = 0.0
            m[n_context, n_context] = 0.0
        rows = np.arange(a0, a0 + h)
        m[np.ix_(rows, np.arange(0, a0))] = 0.0
        m[np.ix_(rows, rows)] = 0.0
        idx = np.arange(a0 + h, length)
        m[idx, idx] = 0.0
    return masks


def sinusoidal_features(tau: np.ndarray, dim: int, scale: float = 100.0) -> np.ndarray:
    """Fixed sin/cos features of the flow time, position = tau * scale."""
    if dim % 2 != 0:
        raise ConfigError(f"time feature dim must be even, got {dim}")
    pos = np.asarray(tau, dtype=np.float64).reshape(-1, 1) * scale
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = pos * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def _split_heads(x: T.Tensor, heads: int) -> T.Tensor:
    b, n, length, d = x.shape
    return T.transpose(T.reshape(x, (b, n, length, heads, d // heads)), (0, 1, 3, 2, 4))


def _merge_heads(x: T.Tensor) -> T.Tensor:
    b, n, heads, length, hd = x.shape
    return T.reshape(T.transpose(x, (0, 1, 3, 2, 4)), (b, n, length, heads * hd))


def _block(params, i: int, x: T.Tensor, mask: np.ndarray, heads: int) -> T.Tensor:
    pre = T.layer_norm(x, params[f"blocks.{i}.ln1.g"], params[f"blocks.{i}.ln1.b"])
    q = _split_heads(T.linear(pre, params[f"blocks.{i}.attn.wq"], params[f"blocks.{i}.attn.wq_b"]), heads)
    k = _split_heads(T.linear(pre, params[f"blocks.{i}.attn.wk"], params[f"blocks.{i}.attn.wk_b"]), heads)
    v = _split_heads(T.linear(pre, params[f"blocks.{i}.attn.wv"], params[f"blocks.{i}.attn.wv_b"]), heads)
    att = _merge_heads(T.attention(q, k, v, mask))
    x = T.add(x, T.linear(att, params[f"blocks.{i}.attn.wo"], params[f"blocks.{i}.attn.wo_b"]))
    pre2 = T.layer_norm(x, params[f"blocks.{i}.ln2.g"], params[f"blocks.{i}.ln2.b"])
    ffn = T.linear(T.gelu(T.linear(pre2, params[f"blocks.{i}.ffn.w1"], params[f"blocks.{i}.ffn.b1"])),
                   params[f"blocks.{i}.ffn.w2"], params[f"blocks.{i}.ffn.b2"])
    return T.add(x, ffn)


def _run(params, cfg: TransformerConfig, ctx: T.Tensor, action_tokens: T.Tensor,
         time_token: T.Tensor | None, masks: np.ndarray) -> T.Tensor:
    """Core pass over (B, N, L, d_model) sequences; returns action hiddens."""
    b, n = action_tokens.shape[0], action_tokens.shape[1]
    c = ctx.shape[1]
    ctx_rep = T.broadcast_to(T.reshape(ctx, (b, 1, c, cfg.d_model)), (b, n, c, cfg.d_model))
    parts = [ctx_rep]
    if time_token is not None:
        parts.append(T.broadcast_to(T.reshape(time_token, (b, 1, 1, cfg.d_model)),
                                    (b, n, 1, cfg.d_model)))
    parts.append(action_tokens)
    x = T.concat(parts, axis=2)
    mask = masks[None]  # broadcast over batch; heads axis already singleton
    for i in range(cfg.layers):
        x = _block(params, i, x, mask, cfg.heads)
    x = T.layer_norm(x, params["final_ln.g"], params["final_ln.b"])
    a0 = c + (0 if time_token is None else 1)
    return x[:, :, a0:, :]


def forward_multi_horizon(params, cfg: TransformerConfig, ctx: T.Tensor, horizons,
                          chunks: T.Tensor | None = None, tau: np.ndarray | None = None):
    """Hidden states of one stream per horizon over a shared context.

    ctx:      (B, C, d_model)
    horizons: the horizon of each stream, N in all
    chunks:   (B, N, H, d_a) noisy chunks of the flow head, padded to H
              (padding content is irrelevant), read at flow times tau (B,)
              through the time token; None feeds the one-step heads'
              learnable query, expanded to chunk length, and no time token
    returns hidden states (B, N, H, d_model) at the action positions
    """
    horizons = list(horizons)
    masks = build_stream_masks(horizons, ctx.shape[1], cfg.max_horizon,
                               with_time=chunks is not None, dtype=ctx.dtype)
    if chunks is None:
        b, n = ctx.shape[0], len(horizons)
        q = T.broadcast_to(T.reshape(params["query"], (1, 1, 1, cfg.d_model)),
                           (b, n, cfg.max_horizon, cfg.d_model))
        return _run(params, cfg, ctx, T.add(q, params["action_pos"]), None, masks)
    tokens = T.add(T.linear(chunks, params["action_lift.w"], params["action_lift.b"]),
                   params["action_pos"])
    feats = T.constant(sinusoidal_features(tau, cfg.d_model).astype(ctx.data.dtype))
    time_token = T.linear(feats, params["time_lift.w"], params["time_lift.b"])
    return _run(params, cfg, ctx, tokens, time_token, masks)
