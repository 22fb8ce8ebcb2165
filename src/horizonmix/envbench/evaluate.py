"""Chunked-execution rollout evaluation.

At every replanning point the policy predicts a chunk from the latest
observation; the executor picks a prefix (a fixed ``p`` or the cross-horizon
consensus rule) and the environment runs it open loop.  ``mean_prefix`` in
the success table averages the prefix the executor *selected*; the executed
count can be shorter only when the episode terminates mid-prefix, and that
executed count is what episode records carry.

Rollouts are driven entirely by generators keyed on (seed, family, task,
trial), so tables are bit-reproducible and independent of evaluation order.
The reduction groups trials by family and averages by trial index.
"""

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from ..consensus import ConsensusConfig, append_trace, consensus_prefix
from ..errors import ConfigError
from ..rng import make_rng
from .env import OBS_DIM, EnvConstants, PointMassEnv, TaskSpec


@dataclass(frozen=True)
class FixedPrefixExecutor:
    """Execute the first ``min(prefix, policy horizon)`` steps of each chunk."""

    prefix: int = 5

    def __post_init__(self):
        if self.prefix < 1:
            raise ConfigError("prefix must be >= 1")

    @property
    def name(self) -> str:
        return f"fixed-{self.prefix}"

    needs_per_horizon = False


@dataclass(frozen=True)
class ConsensusExecutor:
    """Pick each prefix with the cross-horizon consensus rule."""

    config: ConsensusConfig = field(default_factory=ConsensusConfig)
    trace_path: str | None = None  # appended one line per prediction

    @property
    def name(self) -> str:
        return f"consensus-r{self.config.ratio:g}"

    needs_per_horizon = True


def executor_from_name(name: str, min_steps: int = ConsensusConfig.min_steps,
                       min_active: int = ConsensusConfig.min_active):
    """The executor whose ``name`` is ``name``: ``fixed-<k>`` with k >= 1, or
    ``consensus-r<ratio>`` with ratio > 0 and the given consensus minimums."""
    kind, _, value = name.partition("-")
    try:
        if kind == "fixed":
            return FixedPrefixExecutor(int(value))
        if kind == "consensus" and value.startswith("r"):
            config = ConsensusConfig(ratio=float(value[1:]), min_steps=min_steps,
                                     min_active=min_active)
            return ConsensusExecutor(config)
    except ValueError:
        pass
    raise ConfigError(f"executor {name!r} is neither fixed-<k> nor consensus-r<ratio>")


@dataclass
class EpisodeRecord:
    """One rollout: full streams plus per-prediction executed prefix lengths.

    Invariant: ``sum(prefix_lengths) == len(actions) == steps``.
    """

    task_id: int
    family: str
    observations: np.ndarray       # (steps + 1, obs_dim)
    actions: np.ndarray            # (steps, d_a)
    prefix_lengths: list[int]      # executed steps per prediction
    selected_prefixes: list[int]   # executor's choice per prediction
    success: bool
    steps: int


def run_episode(policy, task: TaskSpec, seed: int, trial: int, executor,
                constants: EnvConstants = EnvConstants()) -> EpisodeRecord:
    env = PointMassEnv(task, make_rng(seed, "eval-env", task.family,
                                      str(task.task_id), str(trial)),
                       constants)
    obs = env.observe()
    horizons = policy.horizons
    obs_log = [obs]
    act_log = []
    executed_lengths = []
    selected = []
    while not env.done:
        prediction = len(selected)
        rng = make_rng(seed, "eval-noise", str(task.task_id), str(trial),
                       str(prediction))
        fused, per_h, alpha = policy.predict(obs[None], np.array([task.task_id]),
                                             rng=rng)
        if executor.needs_per_horizon:
            trace = consensus_prefix(fused[0], per_h[0], alpha[0], horizons,
                                     executor.config)
            k = trace.k_exec
        else:
            k = min(executor.prefix, horizons.max_horizon)
        selected.append(k)
        for j in range(k):  # k >= 1 under both executors
            obs, done = env.step(fused[0, j])
            obs_log.append(obs)
            act_log.append(np.asarray(fused[0, j], dtype=np.float64))
            if done:
                break
        executed_lengths.append(j + 1)
        if executor.needs_per_horizon and executor.trace_path is not None:
            append_trace(executor.trace_path, trace, task_id=task.task_id,
                         trial=trial, prediction=prediction, executed=j + 1)
    return EpisodeRecord(task_id=task.task_id, family=task.family,
                         observations=np.asarray(obs_log),
                         actions=np.asarray(act_log),
                         prefix_lengths=executed_lengths,
                         selected_prefixes=selected,
                         success=env.success, steps=env.steps)


def evaluate(policy, tasks: list[TaskSpec], trials: int, executor,
             seed: int = 0,
             constants: EnvConstants = EnvConstants()) -> list[dict]:
    """Run ``trials`` seeded rollouts per task; return per-family rows."""
    if policy.cfg.obs_dim != OBS_DIM:
        raise ConfigError(
            f"policy expects obs_dim {policy.cfg.obs_dim}, env has {OBS_DIM}")
    if policy.cfg.d_a != 2:
        raise ConfigError("policy action dimension must be 2 for this env")
    max_id = max(t.task_id for t in tasks)
    if max_id >= policy.cfg.n_tasks:
        raise ConfigError(
            f"task id {max_id} out of range for policy with {policy.cfg.n_tasks} tasks")
    if not executor.needs_per_horizon:
        # the rows name the prefix that runs, which the policy's chunk caps
        executor = replace(executor, prefix=min(executor.prefix,
                                                policy.horizons.max_horizon))
    by_family: dict[str, list[EpisodeRecord]] = {}
    for task in tasks:
        for trial in range(trials):
            rec = run_episode(policy, task, seed, trial, executor, constants)
            by_family.setdefault(task.family, []).append(rec)
    rows = []
    for family in sorted(by_family):
        recs = by_family[family]
        prefixes = [p for r in recs for p in r.selected_prefixes]
        rows.append({
            "family": family,
            "executor": executor.name,
            "success_rate": float(np.mean([r.success for r in recs])),
            "mean_steps": float(np.mean([r.steps for r in recs])),
            "mean_prefix": float(np.mean(prefixes)),
        })
    return rows


def write_success_csv(rows: list[dict], path) -> None:
    """One line per row, in the column order of the first row's keys."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
