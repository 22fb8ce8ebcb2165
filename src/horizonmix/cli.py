"""Command-line interface.

Commands: train, eval, gate-stats.
Relative data/output paths resolve under ``$HORIZONMIX_ROOT`` (default: the
current directory).  Exit codes: 0 success, 2 configuration/usage error,
3 runtime failure.

One ``--data`` directory serves every horizon up to its chunk length, and each
``eval`` row starts with the columns that name its checkpoint, so a horizon or
stride table is one ``train`` and one ``eval`` per policy, with the CSVs
concatenated.
"""

import argparse
import os
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import load_policy
from .config import TrainConfig, load_config
from .envbench.dataset import generate_dataset, load_dataset, provenance, save_dataset
from .envbench.env import make_suite
from .envbench.evaluate import evaluate, executor_from_name, write_success_csv
from .errors import ConfigError
from .rng import make_rng
from .training import prepare_policy, train

ROOT_ENV = "HORIZONMIX_ROOT"
DEFAULT_EPISODES_PER_TASK = 50
DEFAULT_TRIALS = 25  # per task; 8 tasks/family -> 200 episodes per family
GATE_STATS_BATCH = 64  # rows per predict; the table does not depend on it


def _root() -> Path:
    return Path(os.environ.get(ROOT_ENV, "."))


def _resolve(path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else _root() / p


def _load_or_generate_dataset(args, cfg: TrainConfig):
    """The dataset under ``--data``, generated first if it is missing, with
    its chunks cut to the model's horizon.

    The first h steps of a window are the h-step dataset's window, so a longer
    dataset serves; a shorter one is refused. So is one generated with other
    settings, or by a version with other env or expert constants, rather than
    trained on silently."""
    data_dir = _resolve(args.data)
    try:
        dataset = load_dataset(data_dir)
    except FileNotFoundError:
        print(f"dataset not found; generating at {data_dir}")
        dataset = generate_dataset(make_suite(seed=args.suite_seed), args.episodes_per_task,
                                   cfg.max_horizon, seed=args.suite_seed)
        save_dataset(dataset, data_dir)
    expected = provenance(args.suite_seed, args.episodes_per_task)
    for key, value in expected.items():
        found = dataset.manifest.get(key)
        if found != value:
            raise ConfigError(
                f"dataset at {data_dir} has {key} {found!r}, this run "
                f"generates {value!r}; delete it or pass another --data")
    length, h = dataset.chunks.shape[1], cfg.max_horizon
    if length < h:
        raise ConfigError(f"dataset at {data_dir} has {length}-step chunks, shorter than "
                          f"the model's horizon {h}; pass a --data of at least {h} steps")
    return replace(dataset, chunks=dataset.chunks[:, :h], valid=dataset.valid[:, :h])


def cmd_train(args) -> int:
    cfg = load_config(args.config and _resolve(args.config), args.set or ())
    dataset = _load_or_generate_dataset(args, cfg)
    out_dir = _resolve(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _policy, metrics = train(prepare_policy(cfg, dataset), dataset, cfg,
                             metrics_path=out_dir / "metrics.jsonl", checkpoint_dir=out_dir)
    last = metrics[-1] if metrics else {}
    print(f"trained {cfg.iterations} iterations "
          f"(final total {last.get('total', float('nan')):.4f}); "
          f"checkpoint at {out_dir / 'checkpoint.bin'}")
    return 0


def _load_policy(args):
    """The detached policy under ``--checkpoint``, and the columns that name
    it at the front of each ``eval`` row."""
    policy, cfg, meta = load_policy(_resolve(args.checkpoint))
    model = cfg.model
    columns = {"head": model.head, "fusion": model.fusion,
               "max_horizon": model.max_horizon, "stride": model.stride,
               "n_horizons": len(policy.horizons), "seed": cfg.seed,
               "iteration": meta["iteration"]}
    return policy.detached(), columns


def _refuse_repeats(executors, args, where: str = "") -> None:
    """Two executors of one name would write rows that nothing tells apart."""
    names = [e.name for e in executors]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"--executors {args.executors!r} runs "
                          f"{', '.join(repeated)} twice{where}")


def _policy_and_executors(args):
    """The checkpoint's policy, its ``eval`` columns, and the executors
    ``--executors`` names, in its order: the consensus ones with
    ``--min-steps`` and ``--min-active``, each fixed prefix capped at the
    policy's horizon. The names are checked before the checkpoint opens."""
    executors = [executor_from_name(name, args.min_steps, args.min_active)
                 for name in args.executors.split(",")]
    _refuse_repeats(executors, args)
    policy, columns = _load_policy(args)
    horizon = policy.horizons.max_horizon
    if any(e.needs_per_horizon for e in executors) and args.min_steps > horizon:
        raise ConfigError(f"--min-steps {args.min_steps} exceeds the horizon {horizon}")
    executors = [e if e.needs_per_horizon else replace(e, prefix=min(e.prefix, horizon))
                 for e in executors]
    _refuse_repeats(executors, args, f" at the checkpoint's horizon {horizon}")
    return policy, columns, executors


def cmd_eval(args) -> int:
    policy, columns, executors = _policy_and_executors(args)
    suite = make_suite(seed=args.suite_seed)
    rows = []
    # opened once every check has passed, so a refused run leaves it as it was
    with open(_resolve(args.trace), "w") if args.trace else nullcontext() as trace:
        for executor in executors:
            for row in evaluate(policy, suite, args.trials, executor, seed=args.seed,
                                trace=trace):
                print(f"{row['family']:>16}  {row['executor']:>14}  "
                      f"success {row['success_rate']:.3f}  "
                      f"steps {row['mean_steps']:.1f}  "
                      f"prefix {row['mean_prefix']:.2f}")
                rows.append({**columns, **row})
    if args.out:
        write_success_csv(rows, _resolve(args.out))
        print(f"wrote {_resolve(args.out)}")
    return 0


def cmd_gate_stats(args) -> int:
    policy, _columns = _load_policy(args)
    if len(policy.horizons) < 2:
        raise ConfigError("gate stats need a multi-horizon checkpoint")
    suite = make_suite(seed=args.suite_seed)
    dataset = generate_dataset(suite, args.episodes, policy.cfg.max_horizon,
                               seed=args.seed)
    families = sorted({t.family for t in suite})
    family_of = np.zeros(max(t.task_id for t in suite) + 1, dtype=np.int64)
    for t in suite:
        family_of[t.task_id] = families.index(t.family)
    n = min(args.samples, len(dataset))
    pick = make_rng(args.seed, "gate-stats").choice(len(dataset), size=n,
                                                    replace=False)
    family = family_of[dataset.task_ids[pick]]
    total = np.zeros((len(families), policy.cfg.max_horizon, len(policy.horizons)))
    rng = make_rng(args.seed, "gate-stats", "noise")
    for start in range(0, n, GATE_STATS_BATCH):
        idx = pick[start:start + GATE_STATS_BATCH]
        _fused, _per, alpha = policy.predict(dataset.observations[idx],
                                             dataset.task_ids[idx], rng=rng)
        np.add.at(total, family[start:start + GATE_STATS_BATCH], alpha)
    counts = np.bincount(family, minlength=len(families))
    # each family's mean over its own samples; inactive (step, horizon) pairs have weight 0
    write_success_csv([{"family": name, "step": k + 1, "horizon": h,
                        "mean_weight": f"{total[f, k, i] / counts[f]:.8f}"}
                       for f, name in enumerate(families) if counts[f]
                       for k in range(policy.cfg.max_horizon)
                       for i, h in enumerate(policy.horizons)], _resolve(args.out))
    print(f"wrote {_resolve(args.out)}")
    return 0


def positive_int(text: str) -> int:
    """argparse type of the count flags: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horizonmix",
        description="Multi-horizon action-chunking policies on point-mass "
                    "control tasks")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags that several commands share, one parent parser per group
    checkpoint = argparse.ArgumentParser(add_help=False)
    checkpoint.add_argument("--checkpoint", required=True)
    suite_seed = argparse.ArgumentParser(add_help=False)
    suite_seed.add_argument("--suite-seed", type=int, default=0)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", parents=[suite_seed], help="train a policy")
    p.add_argument("--config", default=None, help="flat key=value file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="config override, e.g. model.stride=5")
    p.add_argument("--data", default="data/default",
                   help="dataset directory (generated if missing)")
    p.add_argument("--episodes-per-task", type=positive_int,
                   default=DEFAULT_EPISODES_PER_TASK)
    p.add_argument("--out", default="runs/train")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", parents=[checkpoint, suite_seed, seed],
                       help="evaluate a checkpoint on the task suite")
    p.add_argument("--trials", type=positive_int, default=DEFAULT_TRIALS)
    p.add_argument("--executors", default="fixed-5",
                   help="comma list of fixed-<k> and consensus-r<ratio>")
    p.add_argument("--min-steps", type=int, default=5)
    p.add_argument("--min-active", type=int, default=5)
    p.add_argument("--out", default=None, help="success table CSV")
    p.add_argument("--trace", default=None,
                   help="JSON lines, one per episode of every executor: its record "
                        "and, for consensus, each prediction's trace")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gate-stats", parents=[checkpoint, suite_seed, seed],
                       help="mean gate weight per (family, step, horizon)")
    p.add_argument("--out", default="gate_stats.csv")
    p.add_argument("--episodes", type=positive_int, default=2)
    p.add_argument("--samples", type=positive_int, default=256)
    p.set_defaults(fn=cmd_gate_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
