"""Shared full-attention action transformer over multiple horizon streams.

One forward pass processes N horizon streams per example. Each stream sees
the same context tokens, an optional flow-time token, and its own h action
positions. Streams share weights but never see each other's action rows, so
the result at every valid position is the one of running each truncated
stream alone.

Streams run in lanes. A lane is one sequence::

    [C context] [time token, flow heads only] [stream a] [stream b] [pad]

``lane_layout`` sorts the streams by horizon and puts the k-th longest in a
lane with the k-th shortest; two streams of equal horizon never share one,
so a duplicated stream computes exactly what its twin does. A stride-built
set pairs to equal lengths, h + (H + stride - h): at the defaults (H=30,
stride 3) that is 5 lanes of 8 + 1 + 33 = 42 rows and no pad rows.
``lane_masks`` keeps the streams apart.

One forward, ``forward_multi_horizon``, serves every head. The flow head
fills the action slots with its noisy chunk and adds the time token; the
one-step heads fill them with a learnable query and have no time token.
It returns only hidden states, unpacked to (B, N, H, d_model) and exactly 0
past each stream's horizon; which (step, horizon) pairs are valid is
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
        if min(self.layers, self.heads, self.d_model, self.d_ff, self.max_horizon) < 1:
            raise ConfigError("transformer dimensions must be positive")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by heads {self.heads}")


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
# lanes
# ---------------------------------------------------------------------------


def lane_layout(horizons, max_horizon: int):
    """Pack horizon streams into lanes of action slots.

    Streams sorted by horizon pair outside-in: the k-th longest shares a
    lane with the k-th shortest, unless their horizons are equal, in which
    case every remaining stream gets a lane of its own.

    returns (stream, step, source):
      stream, step: (lanes, La) stream index and 0-based chunk step of each
                    action slot, -1 at pad slots
      source:       (N, max_horizon) flat slot (lane * La + slot) holding each
                    (stream, step), -1 past the stream's horizon
    """
    hs = [int(h) for h in horizons]
    if max(hs) > max_horizon:
        raise ConfigError(f"horizon {max(hs)} exceeds max horizon {max_horizon}")
    order = sorted(range(len(hs)), key=hs.__getitem__)
    lanes = []
    lo, hi = 0, len(order) - 1
    while lo < hi and hs[order[lo]] != hs[order[hi]]:
        lanes.append((order[hi], order[lo]))
        lo, hi = lo + 1, hi - 1
    lanes.extend((i,) for i in order[lo:hi + 1])
    width = max(sum(hs[i] for i in lane) for lane in lanes)
    stream = np.full((len(lanes), width), -1)
    step = np.full((len(lanes), width), -1)
    source = np.full((len(hs), max_horizon), -1)
    for j, lane in enumerate(lanes):
        at = 0
        for i in lane:
            stream[j, at:at + hs[i]] = i
            step[j, at:at + hs[i]] = np.arange(hs[i])
            source[i, :hs[i]] = j * width + np.arange(at, at + hs[i])
            at += hs[i]
    return stream, step, source


def lane_masks(stream: np.ndarray, n_context: int, with_time: bool, dtype=np.float32):
    """Additive attention masks (lanes, 1, L, L) for the lanes of ``lane_layout``.

    Context rows see context, so every lane encodes the same context; the
    time row sees context and itself; an action row sees context, the time
    token and its own stream's rows; a pad row sees only itself (nothing
    reads it, but a fully blocked row has no softmax).
    """
    a0 = n_context + (1 if with_time else 0)
    n_lanes, width = stream.shape
    sees = np.zeros((n_lanes, a0 + width, a0 + width), dtype=bool)
    sees[:, :n_context, :n_context] = True
    sees[:, n_context:a0, :a0] = True
    valid = stream >= 0
    sees[:, a0:, :a0] = valid[:, :, None]
    own = (stream[:, :, None] == stream[:, None, :]) & valid[:, :, None]
    sees[:, a0:, a0:] = own | np.eye(width, dtype=bool)
    return np.where(sees, 0.0, T.NEG_INF).astype(dtype)[:, None]


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
    chunks:   (B, N, H, d_a) constant noisy chunks of the flow head, padded
              to H (padding content is irrelevant), read at flow times tau
              (B,) through the time token; None feeds the one-step heads'
              learnable query and no time token
    returns hidden states (B, N, H, d_model) at the action positions,
    exactly 0 past each stream's horizon
    """
    stream, step, source = lane_layout(horizons, cfg.max_horizon)
    masks = lane_masks(stream, ctx.shape[1], with_time=chunks is not None, dtype=ctx.dtype)
    pos = T.take_rows(params["action_pos"], np.maximum(step, 0))
    b = ctx.shape[0]
    if chunks is None:
        tokens = T.broadcast_to(T.add(params["query"], pos), (b,) + pos.shape)
        time_token = None
    else:
        packed = np.where((stream >= 0)[..., None], chunks.data[:, stream, step], 0.0)
        tokens = T.add(T.linear(T.constant(packed), params["action_lift.w"],
                                params["action_lift.b"]), pos)
        feats = T.constant(sinusoidal_features(tau, cfg.d_model).astype(ctx.data.dtype))
        time_token = T.linear(feats, params["time_lift.w"], params["time_lift.b"])
    hidden = _run(params, cfg, ctx, tokens, time_token, masks)
    return T.gather_rows(T.reshape(hidden, (b, -1, cfg.d_model)), source)
