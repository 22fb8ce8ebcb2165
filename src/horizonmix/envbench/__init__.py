"""Synthetic point-mass benchmark: two task families with opposite horizon
preferences, scripted experts, demonstration datasets, and the chunked
rollout evaluator."""

from .env import EnvConstants, PointMassEnv, TaskSpec, make_suite
from .expert import ExpertGains, expert_action, run_expert_episodes
from .dataset import Dataset, generate_dataset, load_dataset, save_dataset
from .evaluate import (ConsensusExecutor, EpisodeRecord, FixedPrefixExecutor,
                       evaluate, run_episode, write_success_csv)

__all__ = [
    "EnvConstants", "PointMassEnv", "TaskSpec", "make_suite",
    "ExpertGains", "expert_action", "run_expert_episodes",
    "Dataset", "generate_dataset", "load_dataset", "save_dataset",
    "ConsensusExecutor", "EpisodeRecord", "FixedPrefixExecutor",
    "evaluate", "run_episode", "write_success_csv",
]
