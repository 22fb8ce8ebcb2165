"""Dynamic inference via horizon consensus.

At each chunk step the per-horizon predictions vote on the fused action; the
executed prefix extends while their gate-weighted l1 disagreement stays
under a threshold calibrated on the first n steps. Pure functions over the
prediction arrays; the executor in envbench drives the environment with the
returned prefix.

A per-horizon prediction is one stream's output on the shared input: its
actions (regression), its most likely bin centers (classification), or its
velocity on the fused chunk integrated along the fused Euler path (flow).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .mixture import HorizonSet, validity_grid


@dataclass(frozen=True)
class ConsensusConfig:
    ratio: float = 1.1
    min_steps: int = 5
    min_active: int = 5

    def __post_init__(self):
        if self.min_steps < 1 or self.min_active < 1:
            raise ConfigError("consensus minimums must be >= 1")
        if not self.ratio > 0:
            raise ConfigError(f"scaling ratio must be positive, got {self.ratio}")


@dataclass
class ConsensusTrace:
    disagreements: np.ndarray  # (H,)
    threshold: float
    k_exec: int
    active_counts: np.ndarray  # (H,)


def disagreements(fused: np.ndarray, per_horizon: np.ndarray, alpha: np.ndarray,
                  valid: np.ndarray) -> np.ndarray:
    """(H,) gate-weighted l1 distance between fused and per-horizon actions.

    Entry k-1 is step k's; only the horizons that cover the step (valid, the
    (H, N) `validity_grid`) count, added in horizon order.
    fused (H, d_a), per_horizon (N, H, d_a), alpha (H, N).
    """
    l1 = np.abs(fused[None] - per_horizon).sum(axis=-1).T
    terms = np.where(valid, alpha * l1, 0.0)
    return terms.cumsum(axis=1)[:, -1].astype(np.float64)  # cumsum adds in order


def consensus_prefix(fused: np.ndarray, per_horizon: np.ndarray, alpha: np.ndarray,
                     horizons: HorizonSet, cfg: ConsensusConfig) -> ConsensusTrace:
    """Executable prefix length from cross-horizon agreement.

    The threshold is the mean disagreement over the first min_steps steps
    scaled by ratio. Starting at k_exec = min_steps, the prefix extends one
    step at a time while enough horizons are still active and the step's
    disagreement does not exceed the threshold; the first violation stops
    extension. k_exec always lands in [min_steps, H].
    """
    h_max = horizons.max_horizon
    if cfg.min_steps > h_max:
        raise ConfigError(f"min steps {cfg.min_steps} exceeds horizon {h_max}")
    valid = validity_grid(horizons)
    d = disagreements(fused, per_horizon, alpha, valid)
    counts = valid.sum(axis=1)
    threshold = float(d[:cfg.min_steps].mean() * cfg.ratio)
    k_exec = cfg.min_steps
    for k in range(cfg.min_steps + 1, h_max + 1):
        if counts[k - 1] < cfg.min_active or d[k - 1] > threshold:
            break
        k_exec = k
    return ConsensusTrace(disagreements=d, threshold=threshold, k_exec=k_exec,
                          active_counts=counts)


def append_trace(path, trace: ConsensusTrace, **keys) -> None:
    """One JSON line per prediction, led by the ``keys`` that join it to its
    episode record (the evaluator's task_id, trial, prediction, executed)."""
    record = {
        **keys,
        "selected": trace.k_exec,
        "threshold": trace.threshold,
        "disagreements": [round(float(x), 10) for x in trace.disagreements],
        "active_counts": trace.active_counts.tolist(),
    }
    with open(path, "a") as f:
        f.write(json.dumps(record) + "\n")
