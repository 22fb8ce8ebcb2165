"""Shared full-attention action transformer over multiple horizon streams.

One forward pass runs the N horizon streams of ``cfg.horizon_set()`` per
example. Each stream sees the same context tokens, an optional flow-time
token, and its own h action positions. Streams share weights but never see
each other's action rows, so the result at every valid position is the one
of running each truncated stream alone.

All streams of an example run in one sequence, a shared prefix plus
lanes::

    [C context] [time row, flow heads only] [lane 0] [lane 1] ...
    lane: [stream a] [stream b] [pad]

Context rows see only context, and the time row sees context and itself,
so the prefix is the same for every stream and is encoded once. A lane's
rows see the prefix and their own stream in the lane, never another lane;
a pad row sees only itself. ``lane_layout`` puts the k-th longest stream in
a lane with the k-th shortest. A stride-built set pairs to equal lengths,
h + (H + stride - h): at the defaults (C=8, H=30, stride 3) that is a
prefix of 8 + 1 rows and 5 lanes of 33 rows, 174 rows in all and no pad
rows. ``lane_masks`` keeps the streams apart by stream index, and
``tensor.attention`` runs that layout as one node. ``lane_plan`` builds the
layout's slot steps, both masks and the gather index once per config and
caches them read-only, so a forward rebuilds none of them. Each block's
feed-forward is one ``tensor.mlp`` node, which keeps only its input and
adds the block's residual.

One forward, ``forward_multi_horizon``, serves every head and reads its
shapes from ``ModelConfig`` alone. The flow head passes one (B, H, d_a)
noisy chunk per example: the slot of (stream i, step k) reads chunk row k,
so stream i reads the chunk's first h_i rows, and the time row is added.
The one-step heads fill the slots with a learnable query and have no time
row. The forward returns only hidden states, unpacked to (B, N, H, d_model)
and exactly 0 past each stream's horizon; which (step, horizon) pairs are
valid is ``mixture.validity_grid``.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .rng import make_rng, truncated_normal

if TYPE_CHECKING:
    from .mixture import HorizonSet
    from .policy import ModelConfig

INIT_STD = 0.02


def init_transformer_params(seed: int, cfg: ModelConfig,
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
    p["action_lift.w"] = proj("action_lift.w", cfg.d_a, d)
    p["action_lift.b"] = zeros(d)
    p["action_pos"] = proj("action_pos", cfg.max_horizon, d)
    p["time_lift.w"] = proj("time_lift.w", d, d)
    p["time_lift.b"] = zeros(d)
    p["query"] = proj("query", d)
    return p


# ---------------------------------------------------------------------------
# lanes
# ---------------------------------------------------------------------------


def lane_layout(horizons: HorizonSet):
    """Pack horizon streams into lanes of action slots.

    The streams, sorted by horizon, pair outside-in: the k-th longest shares
    a lane with the k-th shortest; with N odd the median stream has a lane
    of its own.

    returns (stream, step, source):
      stream, step: (lanes, La) stream index and 0-based chunk step of each
                    action slot, -1 at pad slots
      source:       (N, H) flat slot (lane * La + slot) holding each
                    (stream, step), -1 past the stream's horizon
    """
    hs = horizons.horizons
    n = len(hs)
    lanes = [(n - 1 - j, j) for j in range(n // 2)]
    if n % 2:
        lanes.append((n // 2,))
    width = max(sum(hs[i] for i in lane) for lane in lanes)
    stream = np.full((len(lanes), width), -1)
    step = np.full((len(lanes), width), -1)
    source = np.full((n, horizons.max_horizon), -1)
    for j, lane in enumerate(lanes):
        at = 0
        for i in lane:
            stream[j, at:at + hs[i]] = i
            step[j, at:at + hs[i]] = np.arange(hs[i])
            source[i, :hs[i]] = j * width + np.arange(at, at + hs[i])
            at += hs[i]
    return stream, step, source


def lane_masks(stream: np.ndarray, n_context: int, with_time: bool, dtype=np.float32):
    """Additive attention masks of the shared prefix and the lanes of ``lane_layout``.

    Context rows see context; the time row sees context and itself; an
    action row sees the prefix and its own stream's rows in its lane; a pad
    row sees only itself (nothing reads it, but a fully blocked row has no
    softmax).

    returns the prefix mask (P, P) and the lane mask (lanes, W, P + W),
    P = n_context + 1 with the time row and W the lane width
    """
    n_pre = n_context + (1 if with_time else 0)
    n_lanes, width = stream.shape
    prefix = np.ones((n_pre, n_pre), dtype=bool)
    prefix[:n_context, n_context:] = False
    valid = stream >= 0
    lane = np.empty((n_lanes, width, n_pre + width), dtype=bool)
    lane[:, :, :n_pre] = valid[:, :, None]
    own = (stream[:, :, None] == stream[:, None, :]) & valid[:, :, None]
    lane[:, :, n_pre:] = own | np.eye(width, dtype=bool)
    return tuple(np.where(sees, 0.0, T.NEG_INF).astype(dtype) for sees in (prefix, lane))


@functools.cache
def lane_plan(horizons: HorizonSet, n_context: int, with_time: bool, dtype):
    """The constant arrays of ``forward_multi_horizon`` at one config, built
    once per process and read-only.

    returns (slot_step, masks, gather):
      slot_step: (lanes La,) chunk step each action slot reads, 0 at pad
                 slots (no row sees them)
      masks:     the prefix and lane masks of ``lane_masks``
      gather:    (N, H) row of each (stream, step) in the sequence, -1 past
                 the stream's horizon
    """
    stream, step, source = lane_layout(horizons)
    masks = lane_masks(stream, n_context, with_time, dtype)
    slot_step = np.maximum(step, 0).reshape(-1)
    gather = np.where(source >= 0, source + masks[0].shape[0], -1)
    for a in (slot_step, *masks, gather):
        a.setflags(write=False)
    return slot_step, masks, gather


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


def _block(params, i: int, x: T.Tensor, masks, heads: int) -> T.Tensor:
    pre = T.layer_norm(x, params[f"blocks.{i}.ln1.g"], params[f"blocks.{i}.ln1.b"])
    q = T.linear(pre, params[f"blocks.{i}.attn.wq"], params[f"blocks.{i}.attn.wq_b"])
    k = T.linear(pre, params[f"blocks.{i}.attn.wk"], params[f"blocks.{i}.attn.wk_b"])
    v = T.linear(pre, params[f"blocks.{i}.attn.wv"], params[f"blocks.{i}.attn.wv_b"])
    att = T.attention(q, k, v, heads, *masks)
    x = T.add(x, T.linear(att, params[f"blocks.{i}.attn.wo"], params[f"blocks.{i}.attn.wo_b"]))
    pre2 = T.layer_norm(x, params[f"blocks.{i}.ln2.g"], params[f"blocks.{i}.ln2.b"])
    return T.mlp(pre2, *(params[f"blocks.{i}.ffn.{n}"] for n in ("w1", "b1", "w2", "b2")),
                 residual=x)


def forward_multi_horizon(params, cfg: ModelConfig, ctx: T.Tensor,
                          chunk: np.ndarray | None = None, tau: np.ndarray | None = None):
    """Hidden states of the streams of ``cfg.horizon_set()`` over a shared context.

    ctx:   (B, C, d_model)
    chunk: (B, H, d_a) noisy chunk of the flow head, read by every stream at
           flow times tau (B,) through the time row; stream i reads its
           first h_i rows. None feeds the one-step heads' learnable query
           and no time row
    returns hidden states (B, N, H, d_model) at the action positions,
    exactly 0 past each stream's horizon
    """
    slot_step, masks, gather = lane_plan(cfg.horizon_set(), ctx.shape[1], chunk is not None,
                                         ctx.dtype)
    pos = T.take_rows(params["action_pos"], slot_step)
    b = ctx.shape[0]
    if chunk is None:
        parts = [ctx, T.broadcast_to(T.add(params["query"], pos), (b,) + pos.shape)]
    else:
        tokens = T.add(T.linear(T.constant(chunk[:, slot_step]),
                                params["action_lift.w"], params["action_lift.b"]), pos)
        feats = T.constant(sinusoidal_features(tau, cfg.d_model).astype(ctx.data.dtype))
        time_row = T.linear(feats, params["time_lift.w"], params["time_lift.b"])
        parts = [ctx, T.reshape(time_row, (b, 1, cfg.d_model)), tokens]
    x = T.concat(parts, axis=1)
    for i in range(cfg.layers):
        x = _block(params, i, x, masks, cfg.heads)
    x = T.layer_norm(x, params["final_ln.g"], params["final_ln.b"])
    return T.gather_rows(x, gather)
