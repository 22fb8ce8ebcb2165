"""Reference code the fused transformer path replaced, kept as test oracles.

- `matmul`, the general tape node that `tensor.linear` was built from;
- `index`, basic slicing as a tape node, which the per-lane oracles use to
  cut lanes out of flat rows;
- `gelu`, the tanh-approximation GELU as one blocked node, and `mlp_chain`,
  the linear / gelu / linear chain that `tensor.mlp` fused;
- `attention`, the one-node attention over (..., L, hd) per-lane sequences
  under a full additive mask, with its head split and merge;
- `full_lane_masks`, the (lanes, 1, L, L) masks of lanes that each carry
  their own copy of the context and time rows;
- `run`, the transformer pass over (B, N, L, d_model) sequences of that
  layout, which also runs the padded-stream and truncated-stream oracles.

And the loss that `Policy.loss` ran before it split the batch into shards:

- `unsharded_loss`, one encoder, forward and per-row loss graph over the
  whole batch, reduced over examples and steps at once.

And the scalar geometry the point-mass environment's array decisions replaced:

- `detour_point`, one point of a bowed detour curve per call;
- `chain_layout_ok`, the keep-out check of a chain layout as loops over
  obstacles, legs, sides and the 21 grid points, one `np.linalg.norm` each;
- `point_seg_dist` and `segment_hits`, the swept-segment collision test
  against one obstacle circle;
- `ScalarEnv`, the environment as one episode of scalar code: its step
  tests each circle with `segment_hits` and advances the waypoint index in
  a `while` loop, so it shares no step code with `PointMassEnv` or the
  lockstep rollouts.  Lengths are `np.linalg.norm`, which equals the
  environment's `np.sqrt(np.vecdot(v, v))` bit for bit.

And the per-episode demonstrations that lockstep generation replaced:

- `expert_action`, the expert's command for one state of one task;
- `run_expert_episode`, one demonstration rolled through `ScalarEnv`;
- `windows_from_episode` and `generate_dataset`, the dataset built episode
  by episode from those rollouts.
"""

from __future__ import annotations

import numpy as np

from horizonmix import heads as hd
from horizonmix import tensor as T
from horizonmix.envbench.dataset import Dataset, provenance
from horizonmix.envbench.env import OBS_DIM, EnvConstants, TaskSpec
from horizonmix.envbench.expert import ExpertGains
from horizonmix.errors import InvalidMaskError, ShapeMismatchError
from horizonmix.mixture import balance_loss, moh_objective, validity_grid
from horizonmix.rng import make_rng


def matmul(a, b):
    a, b = T._as_tensor(a), T._as_tensor(b)
    T._check_same_width(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a._accumulate(T._unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(T._unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

    return T._make(a.data @ b.data, (a, b), bwd)


def index(a, key):
    """Basic (slice/int) indexing; gradient scatters back into a zero array."""

    def bwd(g):
        full = np.zeros_like(a.data)
        full[key] = g
        a._accumulate(full)

    return T._make(a.data[key].copy(), (a,), bwd)


def linear_composite(x, w, b=None):
    """`tensor.linear` as the reshape / matmul / reshape / add chain it replaced."""
    out = T.reshape(matmul(T.reshape(x, (-1, x.shape[-1])), w), x.shape[:-1] + (w.shape[-1],))
    return out if b is None else T.add(out, b)


# GELU runs its elementwise chain block by block, so that the temporaries of
# one block stay in cache instead of streaming every pass through memory.
GELU_BLOCK = 1 << 16


def _blocks(size: int):
    return (slice(i, i + GELU_BLOCK) for i in range(0, size, GELU_BLOCK))


def gelu(a):
    """tanh-approximation GELU 0.5 x (1 + tanh(c (x + 0.044715 x³))), c = sqrt(2/pi).

    Keeps only x: tanh lives in a block-sized scratch, and the backward
    recomputes it block by block."""
    x = a.data.reshape(-1)
    t = np.empty(min(GELU_BLOCK, x.size), dtype=x.dtype)
    out_data = np.empty_like(x)
    for s in _blocks(x.size):
        xs, outs = x[s], out_data[s]
        ts = t[:xs.size]
        T._gelu_tanh(xs, ts)
        np.add(ts, 1.0, out=outs)
        outs *= xs
        outs *= 0.5

    def bwd(g):
        # g is this rule's own array, so it becomes the gradient in place:
        # g *= 0.5 (1 + t) + 0.5 x (1 - t²) c (1 + 3 * 0.044715 x²)
        x = a.data.reshape(-1)
        g = g.reshape(-1)
        t = np.empty(min(GELU_BLOCK, x.size), dtype=x.dtype)
        d = np.empty_like(t)
        u = np.empty_like(t)
        for s in _blocks(x.size):
            xs = x[s]
            ts, ds, us = t[:xs.size], d[:xs.size], u[:xs.size]
            T._gelu_tanh(xs, ts)
            np.multiply(xs, xs, out=ds)
            ds *= 0.134145
            ds += 1.0
            ds *= T._GELU_C
            ds *= xs
            np.multiply(ts, ts, out=us)
            np.subtract(1.0, us, out=us)
            ds *= us
            ds += ts
            ds += 1.0
            ds *= 0.5
            g[s] *= ds
        a._accumulate(g.reshape(a.shape))

    return T._make(out_data.reshape(a.shape), (a,), bwd)


def mlp_chain(x, w1, b1, w2, b2):
    """`tensor.mlp` as the linear / gelu / linear chain it replaced."""
    return T.linear(gelu(T.linear(x, w1, b1)), w2, b2)


def attention(q, k, v, additive_mask=None):
    """softmax(q kᵀ / sqrt(d) + mask) v over the last two axes, one node."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeMismatchError(f"q/k feature dims disagree: {q.shape} vs {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeMismatchError(f"k/v key counts disagree: {k.shape} vs {v.shape}")
    T._check_same_width(q, k)
    T._check_same_width(q, v)
    scale = q.data.dtype.type(1.0 / np.sqrt(q.shape[-1]))
    p = q.data @ k.data.swapaxes(-1, -2)
    p *= scale
    if additive_mask is not None:
        additive_mask = np.asarray(additive_mask, dtype=q.data.dtype)
        if np.any(np.all(additive_mask <= T.NEG_INF / 2, axis=-1)):
            raise InvalidMaskError("attention row with every key blocked")
        if np.broadcast_shapes(p.shape, additive_mask.shape) == p.shape:
            p += additive_mask
        else:
            p = p + additive_mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out_data = p @ v.data

    def bwd(g):
        if v.requires_grad:
            v._accumulate(T._unbroadcast(p.swapaxes(-1, -2) @ g, v.shape))
        if not (q.requires_grad or k.requires_grad):
            return
        ds = g @ v.data.swapaxes(-1, -2)
        ds -= np.einsum("...i,...i->...", g, out_data)[..., None]
        ds *= p
        ds *= scale
        if q.requires_grad:
            q._accumulate(T._unbroadcast(ds @ k.data, q.shape))
        if k.requires_grad:
            k._accumulate(T._unbroadcast(ds.swapaxes(-1, -2) @ q.data, k.shape))

    return T._make(out_data, (q, k, v), bwd)


def split_heads(x, heads: int):
    b, n, length, d = x.shape
    return T.transpose(T.reshape(x, (b, n, length, heads, d // heads)), (0, 1, 3, 2, 4))


def merge_heads(x):
    b, n, heads, length, hd = x.shape
    return T.reshape(T.transpose(x, (0, 1, 3, 2, 4)), (b, n, length, heads * hd))


def full_lane_masks(stream: np.ndarray, n_context: int, with_time: bool, dtype=np.float32):
    """Additive masks (lanes, 1, L, L) of lanes [C context] [time] [lane rows].

    Context rows see context, so every lane encodes the same context; the
    time row sees context and itself; an action row sees context, the time
    row and its own stream's rows; a pad row sees only itself.
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


def _block(params, i: int, x, mask: np.ndarray, heads: int):
    pre = T.layer_norm(x, params[f"blocks.{i}.ln1.g"], params[f"blocks.{i}.ln1.b"])
    q, k, v = (split_heads(T.linear(pre, params[f"blocks.{i}.attn.{n}"],
                                    params[f"blocks.{i}.attn.{n}_b"]), heads)
               for n in ("wq", "wk", "wv"))
    att = merge_heads(attention(q, k, v, mask))
    x = T.add(x, T.linear(att, params[f"blocks.{i}.attn.wo"], params[f"blocks.{i}.attn.wo_b"]))
    pre2 = T.layer_norm(x, params[f"blocks.{i}.ln2.g"], params[f"blocks.{i}.ln2.b"])
    ffn = mlp_chain(pre2, *(params[f"blocks.{i}.ffn.{n}"] for n in ("w1", "b1", "w2", "b2")))
    return T.add(x, ffn)


def run(params, cfg, ctx, action_tokens, time_token, masks: np.ndarray):
    """Pass over (B, N, L, d_model) sequences, each with its own copy of the
    context and time rows; returns the action hiddens (B, N, L - a0, d_model)."""
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
    return index(x, np.s_[:, :, a0:])


def unsharded_loss(policy, obs, task_ids, chunks, valid_rows, rng,
                   lambda_ind: float = 1.0, lambda_bal: float = 1e-3):
    """``Policy.loss`` as one graph over the whole batch: the MoH loss
    breakdown and the gate weights alpha (B, H, N)."""
    cfg, grid = policy.cfg, policy.grid
    ctx = policy.encode_context(obs, task_ids)
    target = policy.norm.normalize_actions(np.asarray(chunks, dtype=np.float64))
    valid_rows = np.asarray(valid_rows, dtype=bool)
    b, _, d_a = target.shape
    dtype = ctx.data.dtype
    chunk = tau = None
    if cfg.head == "flow":
        tau = rng.random(b)
        eps = rng.standard_normal(target.shape)
        x = (1.0 - tau)[:, None, None] * eps + tau[:, None, None] * target
        chunk = x.astype(dtype)
        target = hd.flow_target(eps, target)
    out, fused, logp, alpha = hd._fused_forward(policy.params, cfg, ctx, chunk, tau)
    if cfg.head == "classification":
        bins0 = hd.quantize(target, grid) - 1
        neg_onehot = -(np.arange(grid.bins) == bins0[..., None]).astype(dtype)
        fused_logp = T.tlog(T.add(fused, hd.PROB_FLOOR))
        rows = T.tsum(T.mul(logp, T.constant(neg_onehot[:, None])), axis=(-2, -1))
        fused_rows = T.tsum(T.mul(fused_logp, T.constant(neg_onehot)), axis=(-2, -1))
    else:
        err = T.sub(out, T.constant(target[:, None].astype(dtype)))
        fused_err = T.sub(fused, T.constant(target.astype(dtype)))
        row = (lambda e: T.mul(e, e)) if cfg.head == "flow" else T.tabs
        rows = T.tsum(row(err), axis=-1)
        fused_rows = T.tsum(row(fused_err), axis=-1)
    mask = validity_grid(cfg.horizon_set()).T[None] & valid_rows[:, None]
    if cfg.head == "flow":
        row_w = mask / (mask.sum(axis=(0, 2), keepdims=True) * d_a)
        fused_w = valid_rows / (valid_rows.sum() * d_a)
    else:
        row_w, fused_w = mask / b, valid_rows / b
    per_h = T.tsum(T.mul(rows, T.constant(row_w.astype(dtype))), axis=(0, 2))
    l_mix = T.tsum(T.mul(fused_rows, T.constant(fused_w.astype(dtype))))
    l_bal = balance_loss(alpha, policy.horizons)
    return moh_objective(l_mix, per_h, l_bal, lambda_ind, lambda_bal), alpha


def detour_point(a, b, s, mode, bulge):
    leg = b - a
    length = float(np.linalg.norm(leg))
    if length < 1e-9:
        return np.asarray(b, dtype=float).copy()
    normal = np.array([-leg[1], leg[0]]) / length
    return a + s * leg + mode * bulge * np.sin(np.pi * s) * normal


def chain_layout_ok(pts, centres, constants) -> bool:
    c = constants
    keepout = c.obstacle_radius + c.obstacle_path_gap
    grid = np.linspace(0.0, 1.0, 21)
    for k, centre in enumerate(centres):
        for j in range(len(pts) - 1):
            if j == k:
                continue
            for mode in (1.0, -1.0):
                if any(np.linalg.norm(
                        detour_point(pts[j], pts[j + 1], s, mode,
                                     c.detour_bulge) - centre) < keepout
                       for s in grid):
                    return False
        for j, p in enumerate(pts):
            if j in (k, k + 1):
                continue
            if np.linalg.norm(p - centre) < c.obstacle_waypoint_gap:
                return False
    return True


def point_seg_dist(pt, a, b) -> float:
    d = b - a
    denom = float(d @ d)
    t = 0.0 if denom == 0.0 else float(np.clip((pt - a) @ d / denom,
                                               0.0, 1.0))
    return float(np.linalg.norm(a + t * d - pt))


def segment_hits(p0, p1, obstacle) -> bool:
    """True when the swept segment p0->p1 touches the obstacle circle."""
    return point_seg_dist(np.array(obstacle[:2]), p0, p1) <= obstacle[2]


class ScalarEnv:
    """One episode of ``task``, drawing the start jitter and the noise of
    each observation from ``rng`` in the order ``PointMassEnv`` does."""

    def __init__(self, task: TaskSpec, rng: np.random.Generator,
                 constants: EnvConstants = EnvConstants()):
        self.task = task
        self.constants = constants
        self._rng = rng
        self._waypoints = np.asarray(task.waypoints, dtype=np.float64)
        jitter = rng.uniform(-constants.start_jitter, constants.start_jitter, size=2)
        self.pos = np.asarray(task.start, dtype=np.float64) + jitter
        self.vel = np.zeros(2)
        self.next_idx = 0
        self.steps = 0
        self.success = False
        self.collided = False
        self.done = False
        self.observe()  # the reset's observation

    def observe(self) -> np.ndarray:
        obs = np.empty(OBS_DIM)
        noise = self._rng.normal(0.0, self.constants.obs_noise, size=4)
        obs[0:2] = self.pos + noise[0:2]
        obs[2:4] = self.vel + noise[2:4]
        target_idx = min(self.next_idx, len(self.task.waypoints) - 1)
        obs[4:6] = self.task.waypoints[target_idx]
        obs[6] = 1.0 - self.next_idx / len(self.task.waypoints)
        return obs

    def step(self, action: np.ndarray) -> np.ndarray:
        c = self.constants
        a = np.minimum(np.maximum(np.asarray(action, dtype=np.float64),
                                  -c.action_limit), c.action_limit)
        prev = self.pos
        self.vel = c.damping * (self.vel + a * c.dt)
        self.pos = self.pos + self.vel * c.dt
        self.steps += 1
        if any(segment_hits(prev, self.pos, ob) for ob in self.task.obstacles):
            self.collided = True
            self.done = True
            return self.observe()
        wps = self._waypoints
        while (self.next_idx < len(wps)
               and np.linalg.norm(self.pos - wps[self.next_idx])
               <= self.task.radius):
            self.next_idx += 1
        if self.next_idx == len(wps):
            self.success = True
            self.done = True
        elif self.steps >= self.task.max_steps:
            self.done = True
        return self.observe()


def expert_action(task: TaskSpec, pos: np.ndarray, vel: np.ndarray,
                  next_idx: int, gains: ExpertGains = ExpertGains(),
                  constants: EnvConstants = EnvConstants(),
                  mode: float = 1.0, next_mode: float | None = None
                  ) -> np.ndarray:
    wps = np.asarray(task.waypoints)
    i = min(next_idx, len(wps) - 1)
    d = float(np.linalg.norm(wps[i] - pos))
    if task.family == "precision-reach":
        aim = wps[i]
        speed = min(gains.v_cruise, gains.k_slow * d)
    else:
        a_pt = np.asarray(task.start if i == 0 else wps[i - 1], dtype=float)
        b_pt = wps[i]
        leg = b_pt - a_pt
        leg_len = float(np.linalg.norm(leg))
        s = min(max((pos - a_pt) @ leg / max(leg_len ** 2, 1e-12), 0.0), 1.0)
        s_aim = s + gains.lookahead / max(leg_len, 1e-9)
        if s_aim <= 1.0:
            aim = detour_point(a_pt, b_pt, s_aim, mode, constants.detour_bulge)
        elif i + 1 < len(wps):
            # Cap the slide at half the radius so the cut corner still
            # passes inside it even if the tracker settles on the aim point.
            seg_len = float(np.linalg.norm(wps[i + 1] - b_pt))
            carry = min((s_aim - 1.0) * leg_len, seg_len, 0.5 * task.radius)
            aim = detour_point(b_pt, wps[i + 1], carry / max(seg_len, 1e-9),
                               mode if next_mode is None else next_mode,
                               constants.detour_bulge)
        else:
            aim = b_pt
        speed = gains.v_cruise
    offset = aim - pos
    norm = float(np.linalg.norm(offset))
    # Never step past the aim point; prevents orbiting it at cruise speed.
    speed = min(speed, norm)
    v_des = offset * (speed / norm) if norm > 1e-9 else np.zeros(2)
    a = gains.k_track * (v_des / constants.damping - vel)
    return np.minimum(np.maximum(a, -constants.action_limit),
                      constants.action_limit)


def run_expert_episode(task: TaskSpec, seed: int, episode: int,
                       gains: ExpertGains = ExpertGains(),
                       constants: EnvConstants = EnvConstants()):
    """Roll the expert to termination.

    Returns ``(obs, actions, success, steps)`` where ``obs`` is the noisy
    observation stream of shape (T, 7) and ``actions`` the expert commands
    of shape (T, 2) computed from the true state.  Each leg's detour side
    is drawn independently per episode, so at every waypoint the corpus
    demonstrates both continuations from the same approach.
    """
    rng = make_rng(seed, "demo", task.family, str(task.task_id), str(episode))
    modes = np.where(rng.random(len(task.waypoints)) < 0.5, 1.0, -1.0)
    env = ScalarEnv(task, rng, constants)
    obs = env.observe()
    obs_log, act_log = [], []
    while not env.done:
        mode = float(modes[min(env.next_idx, len(modes) - 1)])
        nxt = float(modes[min(env.next_idx + 1, len(modes) - 1)])
        a = expert_action(task, env.pos, env.vel, env.next_idx, gains,
                          constants, mode=mode, next_mode=nxt)
        obs_log.append(obs)
        act_log.append(a)
        obs = env.step(a)
    return (np.asarray(obs_log), np.asarray(act_log), env.success, env.steps)


def windows_from_episode(obs: np.ndarray, actions: np.ndarray,
                         max_horizon: int):
    """Return (chunks, valid) arrays of shape (L, H, d_a) and (L, H)."""
    steps = np.arange(len(actions))[:, None] + np.arange(max_horizon)
    chunks = actions[np.minimum(steps, len(actions) - 1)].astype(np.float32)
    return chunks, (steps < len(actions)).astype(np.float32)


def generate_dataset(tasks: list[TaskSpec], episodes_per_task: int,
                     max_horizon: int, seed: int = 0, rollouts=None) -> Dataset:
    """Run the expert and window every successful episode.

    Failed or empty episodes are skipped and counted in the manifest, which
    also records the env and expert constants the episodes ran with.
    Output is a pure function of the arguments, so regeneration with the
    same seed is bit-identical.  ``rollouts``, if given, holds the
    ``run_expert_episode`` results of every (task, episode), task-major, in
    place of running them again.
    """
    if rollouts is None:
        rollouts = [run_expert_episode(task, seed, ep)
                    for task in tasks for ep in range(episodes_per_task)]
    rollouts = iter(rollouts)
    all_obs, all_ids, all_chunks, all_valid = [], [], [], []
    skipped = 0
    n_episodes = 0
    for task in tasks:
        for ep in range(episodes_per_task):
            obs, actions, success, _steps = next(rollouts)
            if not success or len(actions) == 0:
                skipped += 1
                continue
            chunks, valid = windows_from_episode(obs, actions, max_horizon)
            all_obs.append(obs.astype(np.float32))
            all_ids.append(np.full(len(actions), task.task_id,
                                   dtype=np.int64))
            all_chunks.append(chunks)
            all_valid.append(valid)
            n_episodes += 1
    if not all_obs:
        raise ValueError("no successful expert episodes; check task budgets")
    families = sorted({t.family for t in tasks})
    manifest = {
        **provenance(seed, episodes_per_task),
        "n_tasks": len(tasks),
        "n_episodes": n_episodes,
        "skipped_episodes": skipped,
        "n_windows": int(sum(len(o) for o in all_obs)),
        "families": families,
    }
    return Dataset(observations=np.concatenate(all_obs),
                   task_ids=np.concatenate(all_ids),
                   chunks=np.concatenate(all_chunks),
                   valid=np.concatenate(all_valid),
                   manifest=manifest)
