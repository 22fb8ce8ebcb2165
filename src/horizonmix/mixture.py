"""Mixture-of-horizons core: horizon sets, the linear gating head, per-step
fused predictions, the gate balance penalty, and the combined training
objective.

Gate semantics: at chunk step k (1-based step k corresponds to row k-1), the
horizons that predict the step are exactly {h : h >= k}. A shared linear map
d_model -> 1 scores each stream's hidden state at that row; a masked softmax
over the valid horizons yields mixture weights alpha[k][h], exactly 0 at
invalid pairs. The fused action is the alpha-weighted sum of per-horizon
predictions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeMismatchError
from .rng import make_rng, truncated_normal

if TYPE_CHECKING:
    from .policy import ModelConfig


@dataclass(frozen=True)
class HorizonSet:
    horizons: tuple[int, ...]

    def __post_init__(self):
        hs = self.horizons
        if not hs:
            raise ConfigError("empty horizon set")
        if any(h < 1 for h in hs) or list(hs) != sorted(set(hs)):
            raise ConfigError(f"horizons must be strictly increasing positive ints, got {hs}")

    @property
    def max_horizon(self) -> int:
        return self.horizons[-1]

    def __len__(self):
        return len(self.horizons)

    def __iter__(self):
        return iter(self.horizons)


def build_horizon_set(max_horizon: int, stride: int) -> HorizonSet:
    if not 1 <= stride <= max_horizon:
        raise ConfigError(f"stride {stride} outside [1, {max_horizon}]")
    if max_horizon % stride != 0:
        raise ConfigError(f"max horizon {max_horizon} not divisible by stride {stride}")
    return HorizonSet(tuple(range(stride, max_horizon + 1, stride)))


@functools.cache
def validity_grid(horizons: HorizonSet) -> np.ndarray:
    """(H, N) flags: entry [k-1][i] is True iff horizon h_i covers step k.

    Built once per horizon set and read-only, like ``transformer.lane_plan``."""
    steps = np.arange(1, horizons.max_horizon + 1)[:, None]
    grid = steps <= np.asarray(horizons.horizons)[None, :]
    grid.setflags(write=False)
    return grid


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------


def init_gate_params(seed: int, cfg: ModelConfig, dtype=np.float32) -> dict[str, T.Tensor]:
    rng = make_rng(seed, "gate", "w")
    return {
        "gate.w": T.param(truncated_normal(rng, (cfg.d_model, 1), std=0.02, dtype=dtype)),
        "gate.b": T.param(np.zeros(1, dtype=dtype)),
    }


def gate(params, hidden: T.Tensor, horizons: HorizonSet, fusion: str) -> T.Tensor:
    """Mixture weights alpha (B, H, N) from per-horizon hidden states (B, N, H, d_model).

    ``fusion="gated"`` scores each hidden state with the linear gate.
    ``"uniform"`` is the ablation with no learned gate: the logits are
    constant zeros, so the horizons active at a step share its weight
    equally, nothing flows back, and the balance loss is exactly 0.
    """
    b, n, h_max = hidden.shape[:3]
    if n != len(horizons) or h_max != horizons.max_horizon:
        raise ShapeMismatchError(
            f"hidden states (N={n}, H={h_max}) do not match horizon set "
            f"(N={len(horizons)}, H={horizons.max_horizon})"
        )
    if fusion == "uniform":
        logits = T.constant(np.zeros((b, h_max, n), dtype=hidden.dtype))
    else:
        scores = T.linear(hidden, params["gate.w"], params["gate.b"])
        logits = T.transpose(T.reshape(scores, (b, n, h_max)), (0, 2, 1))
    return T.masked_softmax(logits, validity_grid(horizons), axis=-1)


def fuse(per_horizon: T.Tensor, alpha: T.Tensor) -> T.Tensor:
    """alpha-weighted per-step sum of per-horizon predictions.

    per_horizon: (B, N, H, ...) with any trailing shape, such as (d_a,)
    actions or (d_a, bins) bin probabilities; rows beyond each stream's
    horizon carry weight exactly 0 and never influence the result.
    alpha:       (B, H, N) gate weights
    returns (B, H, ...)
    """
    b, n, h_max = per_horizon.shape[:3]
    if alpha.shape != (b, h_max, n):
        raise ShapeMismatchError(
            f"gate weights {alpha.shape} do not match predictions {per_horizon.shape}"
        )
    w = T.reshape(T.transpose(alpha, (0, 2, 1)),
                  (b, n, h_max) + (1,) * (per_horizon.ndim - 3))
    return T.tsum(T.mul(per_horizon, w), axis=1)


# ---------------------------------------------------------------------------
# balance loss
# ---------------------------------------------------------------------------


def balance_loss(alpha: T.Tensor, horizons: HorizonSet, eps: float = 1e-10) -> T.Tensor:
    """Mean squared coefficient of variation of per-interval gate usage.

    Steps are partitioned at the horizon boundaries {0, h_1, ..., h_N}. In
    interval i (steps h_{i-1}+1 .. h_i) the active horizons are those with
    h > h_{i-1}; their average usage over the batch and the interval's steps
    forms a vector whose Var/Mean^2 is the interval's squared CV (population
    variance). The last interval has a single active horizon and carries no
    signal; the loss is the mean over the others.

    All intervals reduce at once over an (interval, horizon) usage matrix.
    The variance is half the mean squared pairwise difference of the active
    usages, so equal usages give exactly 0 whatever their rounding.

    eps only guards the division; usage means are bounded below by 1/N, so
    any value well under 1/N^2 leaves the statistic unchanged in practice.
    """
    n = len(horizons)
    if n < 2:
        return T.constant(np.zeros((), dtype=alpha.dtype))
    b, h_max = alpha.shape[:2]
    dtype = alpha.dtype
    interval = np.searchsorted(horizons.horizons, np.arange(1, h_max + 1))  # (H,)
    rows = interval[:, None, None] == np.arange(n - 1)[:, None]            # (H, N-1, 1)
    active = np.arange(n) >= np.arange(n - 1)[:, None]                     # (N-1, N)
    count = active.sum(axis=1)
    pairs = active[:, :, None] & active[:, None, :]
    usage = T.tsum(T.mul(T.reshape(T.tsum(alpha, axis=0), (h_max, 1, n)),
                         T.constant((rows / (b * rows.sum(axis=0))).astype(dtype))),
                   axis=0)                                                 # (N-1, N)
    diff = T.sub(T.reshape(usage, (n - 1, n, 1)), T.reshape(usage, (n - 1, 1, n)))
    pair_w = pairs / (2.0 * count[:, None, None] ** 2)
    var = T.tsum(T.mul(T.mul(diff, diff), T.constant(pair_w.astype(dtype))), axis=(1, 2))
    mean = T.tsum(T.mul(usage, T.constant((active / count[:, None]).astype(dtype))), axis=1)
    return T.tmean(T.mul(var, T.tpow(T.add(T.mul(mean, mean), eps), -1.0)))


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


@dataclass
class MoHLossBreakdown:
    l_mix: T.Tensor
    l_ind: T.Tensor
    l_bal: T.Tensor
    total: T.Tensor
    per_horizon: T.Tensor  # (N,) the per-horizon losses that l_ind sums


def moh_objective(l_mix: T.Tensor, per_horizon_losses: T.Tensor, l_bal: T.Tensor,
                  lambda_ind: float = 1.0, lambda_bal: float = 1e-3) -> MoHLossBreakdown:
    """total = L_mix + lambda_ind * sum(L^(h)) + lambda_bal * L_bal.

    per_horizon_losses: (N,) one loss per horizon.
    """
    l_ind = T.tsum(per_horizon_losses)
    total = T.add(T.add(l_mix, T.mul(l_ind, lambda_ind)), T.mul(l_bal, lambda_bal))
    return MoHLossBreakdown(l_mix=l_mix, l_ind=l_ind, l_bal=l_bal, total=total,
                            per_horizon=per_horizon_losses)

