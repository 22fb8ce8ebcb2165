"""Demonstration datasets: sliding-window chunk extraction from expert runs.

The expert rolls every demonstration of a suite in lockstep
(``run_expert_episodes``), and the windows of all successful episodes are
gathered in one indexing step.  Every episode of length L yields L windows,
one per start step.  Windows that run past the episode end repeat the last
action (padded targets stay dynamically plausible: the expert has converged
by then) and mark those rows invalid so losses skip them.

A dataset directory holds one checkpoint container, ``data.bin``: the ``ARRAYS``
with the manifest as meta.  ``provenance`` builds the entries that decide staleness.
"""

from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from ..checkpoint import load_arrays, save_arrays
from ..errors import CheckpointFormatError
from .env import EnvConstants, TaskSpec
from .expert import ExpertGains, run_expert_episodes

DATA_FILE = "data.bin"
ARRAYS = ("observations", "task_ids", "chunks", "valid")


@dataclass
class Dataset:
    """Chunk-aligned supervision: one row per (episode, start step)."""

    observations: np.ndarray  # (M, obs_dim) float32
    task_ids: np.ndarray      # (M,) int64
    chunks: np.ndarray        # (M, H, d_a) float32
    valid: np.ndarray         # (M, H) float32, 1 = real step, 0 = padding
    manifest: dict

    def __len__(self) -> int:
        return self.observations.shape[0]


def windows(observations: np.ndarray, actions: np.ndarray,
            lengths: np.ndarray, max_horizon: int):
    """Every window of every episode, episodes in row order.

    Row e of ``observations`` (E, T, obs_dim) and ``actions`` (E, T, d_a)
    holds episode e's first ``lengths[e]`` steps.  Returns (obs, chunks,
    valid, episode): float32 arrays of shape (M, obs_dim), (M, H, d_a) and
    (M, H), and each window's episode (M,), M = ``lengths.sum()``."""
    episode = np.repeat(np.arange(len(lengths)), lengths)
    start = np.arange(len(episode)) - np.repeat(np.cumsum(lengths) - lengths,
                                                lengths)
    steps = start[:, None] + np.arange(max_horizon)
    last = lengths[episode][:, None] - 1
    chunks = actions[episode[:, None], np.minimum(steps, last)]
    return (observations[episode, start].astype(np.float32),
            chunks.astype(np.float32), (steps <= last).astype(np.float32),
            episode)


def provenance(seed: int, episodes_per_task: int) -> dict:
    """The manifest entries that decide whether a stored dataset is stale.

    The chunk length is not one of them: the first h steps of a window are
    the h-step dataset's window, so any horizon up to it can train on it."""
    return {"seed": seed, "episodes_per_task": episodes_per_task,
            "env_constants": asdict(EnvConstants()), "expert_gains": asdict(ExpertGains())}


def generate_dataset(tasks: list[TaskSpec], episodes_per_task: int,
                     max_horizon: int, seed: int = 0) -> Dataset:
    """Run the expert and window every successful episode.

    Failed episodes are skipped and counted in the manifest, which
    also records the env and expert constants the episodes ran with.
    Output is a pure function of the arguments, so regeneration with the
    same seed is bit-identical.
    """
    obs, actions, lengths, success = run_expert_episodes(
        tasks, episodes_per_task, seed)
    kept = np.flatnonzero(success)
    if not len(kept):
        raise ValueError("no successful expert episodes; check task budgets")
    observations, chunks, valid, episode = windows(obs[kept], actions[kept],
                                                   lengths[kept], max_horizon)
    task_ids = np.repeat([t.task_id for t in tasks], episodes_per_task)
    manifest = {
        **provenance(seed, episodes_per_task),
        "n_tasks": len(tasks),
        "n_episodes": len(kept),
        "skipped_episodes": len(success) - len(kept),
        "n_windows": len(observations),
        "families": sorted({t.family for t in tasks}),
    }
    return Dataset(observations=observations,
                   task_ids=task_ids[kept][episode].astype(np.int64),
                   chunks=chunks, valid=valid, manifest=manifest)


def save_dataset(dataset: Dataset, path) -> None:
    """Write ``data.bin`` under directory ``path``."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    save_arrays(root / DATA_FILE, {name: getattr(dataset, name) for name in ARRAYS},
                dataset.manifest)


def load_dataset(path) -> Dataset:
    """The dataset under directory ``path``; FileNotFoundError if it has none.

    CheckpointFormatError unless ``data.bin`` holds exactly the ``ARRAYS``,
    one row per window, with ``chunks`` (M, H, d_a), ``valid`` (M, H),
    integer ``task_ids`` and a dict as its manifest."""
    file = Path(path) / DATA_FILE
    arrays, manifest = load_arrays(file)
    obs, ids, chunks, valid = (arrays.get(name, np.empty(0)) for name in ARRAYS)
    if (set(arrays) != set(ARRAYS) or not isinstance(manifest, dict) or obs.ndim != 2
            or chunks.ndim != 3 or len(chunks) != len(obs) or ids.shape != (len(obs),)
            or valid.shape != chunks.shape[:2] or ids.dtype.kind not in "iu"):
        shapes = {name: (a.dtype.str, a.shape) for name, a in arrays.items()}
        raise CheckpointFormatError(f"{file}: not a dataset (arrays {shapes}, "
                                    f"manifest a {type(manifest).__name__})")
    return Dataset(**arrays, manifest=manifest)
