"""Command-line interface.

Commands: train, eval, rollout, sweep-horizons, gate-stats, dyninfer-sweep.
Relative data/output paths resolve under ``$HORIZONMIX_ROOT`` (default: the
current directory).  Exit codes: 0 success, 2 configuration/usage error,
3 runtime failure.
"""

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import load_policy
from .config import TrainConfig, load_config
from .consensus import ConsensusConfig
from .envbench.dataset import generate_dataset, load_dataset, provenance, save_dataset
from .envbench.env import make_suite
from .envbench.evaluate import (ConsensusExecutor, FixedPrefixExecutor,
                                evaluate, run_episode, write_success_csv)
from .errors import ConfigError
from .rng import make_rng
from .training import prepare_policy, train

ROOT_ENV = "HORIZONMIX_ROOT"
DEFAULT_EPISODES_PER_TASK = 50
DEFAULT_TRIALS = 25  # per task; 8 tasks/family -> 200 episodes per family


def _root() -> Path:
    return Path(os.environ.get(ROOT_ENV, "."))


def _resolve(path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else _root() / p


def _load_or_generate_dataset(args, cfg: TrainConfig):
    """The dataset under ``--data``, generated first if it is missing.

    A dataset generated with other settings, or by a version with other env
    or expert constants, is refused rather than trained on silently."""
    data_dir = _resolve(args.data)
    try:
        dataset = load_dataset(data_dir)
    except FileNotFoundError:
        print(f"dataset not found; generating at {data_dir}")
        dataset = generate_dataset(make_suite(seed=args.suite_seed), args.episodes_per_task,
                                   cfg.max_horizon, seed=args.suite_seed)
        save_dataset(dataset, data_dir)
    expected = provenance(args.suite_seed, args.episodes_per_task, cfg.max_horizon)
    for key, value in expected.items():
        found = dataset.manifest.get(key)
        if found != value:
            raise ConfigError(
                f"dataset at {data_dir} has {key} {found!r}, this run "
                f"generates {value!r}; delete it or pass another --data")
    return dataset


def _train_once(cfg: TrainConfig, dataset, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    policy = prepare_policy(cfg, dataset)
    return train(policy, dataset, cfg, metrics_path=out_dir / "metrics.jsonl",
                 checkpoint_dir=out_dir)


def cmd_train(args) -> int:
    cfg = load_config(args.config and _resolve(args.config), args.set or ())
    dataset = _load_or_generate_dataset(args, cfg)
    out_dir = _resolve(args.out)
    _policy, metrics = _train_once(cfg, dataset, out_dir)
    last = metrics[-1] if metrics else {}
    print(f"trained {cfg.iterations} iterations "
          f"(final total {last.get('total', float('nan')):.4f}); "
          f"checkpoint at {out_dir / 'checkpoint.bin'}")
    return 0


def _load_policy(args, consensus: bool):
    """The detached policy under ``--checkpoint``. With ``consensus``,
    ``--min-steps`` must fit its chunk; this is checked before any episode."""
    policy, _train_cfg, _meta = load_policy(_resolve(args.checkpoint))
    h_max = policy.horizons.max_horizon
    if consensus and args.min_steps > h_max:
        raise ConfigError(f"--min-steps {args.min_steps} exceeds the checkpoint's "
                          f"horizon {h_max}")
    return policy.detached()


def _policy_and_executor(args):
    """The checkpoint's policy and the executor the flags ask for. The flags are
    checked before the checkpoint opens, and both before ``--trace`` is emptied."""
    trace_path = args.trace and str(_resolve(args.trace))
    if args.executor == "fixed":
        if trace_path:
            raise ConfigError("--trace needs --executor consensus; fixed prefixes write no trace")
        executor = FixedPrefixExecutor(args.prefix)
    else:
        config = ConsensusConfig(ratio=args.ratio, min_steps=args.min_steps,
                                 min_active=args.min_active)
        executor = ConsensusExecutor(config, trace_path=trace_path)
    policy = _load_policy(args, consensus=executor.needs_per_horizon)
    if trace_path:
        Path(trace_path).write_text("")  # never holds a line of an earlier run
    return policy, executor


def cmd_eval(args) -> int:
    policy, executor = _policy_and_executor(args)
    suite = make_suite(seed=args.suite_seed)
    rows = evaluate(policy, suite, args.trials, executor, seed=args.seed)
    for row in rows:
        print(f"{row['family']:>16}  {row['executor']:>14}  "
              f"success {row['success_rate']:.3f}  "
              f"steps {row['mean_steps']:.1f}  "
              f"prefix {row['mean_prefix']:.2f}")
    if args.out:
        write_success_csv(rows, _resolve(args.out))
        print(f"wrote {_resolve(args.out)}")
    return 0


def cmd_rollout(args) -> int:
    policy, executor = _policy_and_executor(args)
    suite = make_suite(seed=args.suite_seed)
    by_id = {t.task_id: t for t in suite}
    if args.task_id not in by_id:
        raise ConfigError(f"task id {args.task_id} not in the suite")
    rec = run_episode(policy, by_id[args.task_id], args.seed, args.trial, executor)
    summary = {
        "task_id": rec.task_id,
        "family": rec.family,
        "success": rec.success,
        "steps": rec.steps,
        "selected_prefixes": rec.selected_prefixes,
        "prefix_lengths": rec.prefix_lengths,
    }
    print(json.dumps(summary, indent=2))
    if args.out:
        full = dict(summary)
        full["observations"] = rec.observations.tolist()
        full["actions"] = rec.actions.tolist()
        with open(_resolve(args.out), "w") as fh:
            json.dump(full, fh)
        print(f"wrote {_resolve(args.out)}")
    return 0


def _family_success(rows) -> dict:
    """Success rate of each family and their mean, the mixed success."""
    rate = {r["family"]: r["success_rate"] for r in rows}
    precision, chain = rate["precision-reach"], rate["waypoint-chain"]
    return {"precision_success": precision, "chain_success": chain,
            "mixed_avg": 0.5 * (precision + chain)}


def _number_list(flag: str, text: str, kind: type) -> list:
    try:
        values = [kind(s) for s in text.split(",") if s]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"{flag} takes comma-separated numbers, got {text!r}")
    return values


def cmd_sweep_horizons(args) -> int:
    cfg = load_config(args.config and _resolve(args.config), args.set or ())
    strides = _number_list("--strides", args.strides, int)
    if len(set(strides)) < len(strides) or cfg.max_horizon in strides:
        raise ConfigError(f"--strides {args.strides!r} repeats a stride or names "
                          f"{cfg.max_horizon}, the baseline run's max_horizon")
    runs = [(f"moh-d{d}", d) for d in strides]
    runs.append((f"baseline-h{cfg.max_horizon}", cfg.max_horizon))
    # every run's config and the executor are checked before the dataset
    # or any training
    runs = [(label, replace(cfg, model=replace(cfg.model, stride=d))) for label, d in runs]
    executor = FixedPrefixExecutor(args.prefix)
    dataset = _load_or_generate_dataset(args, cfg)
    out_dir = _resolve(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    suite = make_suite(seed=args.suite_seed)
    table = []
    for label, run_cfg in runs:
        policy, _ = _train_once(run_cfg, dataset, out_dir / label)
        rows = evaluate(policy.detached(), suite, args.trials, executor,
                        seed=args.seed)
        table.append({"label": label, "stride": run_cfg.model.stride,
                      "n_horizons": len(policy.horizons), **_family_success(rows)})
        print(f"{label}: mixed {table[-1]['mixed_avg']:.3f}")
    write_success_csv(table, out_dir / "horizon_sweep.csv")
    print(f"wrote {out_dir / 'horizon_sweep.csv'}")
    return 0


def cmd_gate_stats(args) -> int:
    policy = _load_policy(args, consensus=False)
    if len(policy.horizons) < 2:
        raise ConfigError("gate stats need a multi-horizon checkpoint")
    suite = make_suite(seed=args.suite_seed)
    dataset = generate_dataset(suite, args.episodes, policy.cfg.max_horizon,
                               seed=args.seed)
    n = min(args.samples, len(dataset))
    pick = make_rng(args.seed, "gate-stats").choice(len(dataset), size=n,
                                                    replace=False)
    total = np.zeros((policy.cfg.max_horizon, len(policy.horizons)))
    # one generator: the noise follows the sample order, whatever --batch is
    rng = make_rng(args.seed, "gate-stats", "noise")
    for start in range(0, n, args.batch):
        idx = pick[start:start + args.batch]
        _fused, _per, alpha = policy.predict(dataset.observations[idx],
                                             dataset.task_ids[idx], rng=rng)
        total += alpha.sum(axis=0)
    mean = total / n  # inactive (step, horizon) pairs have weight 0
    write_success_csv([{"step": k + 1, "horizon": h, "mean_weight": f"{mean[k, i]:.8f}"}
                       for k in range(policy.cfg.max_horizon)
                       for i, h in enumerate(policy.horizons)], _resolve(args.out))
    print(f"wrote {_resolve(args.out)}")
    return 0


def cmd_dyninfer_sweep(args) -> int:
    ratios = _number_list("--ratios", args.ratios, float)
    if len(set(ratios)) < len(ratios):
        raise ConfigError(f"--ratios {args.ratios!r} repeats a ratio")
    configs = [ConsensusConfig(ratio=ratio, min_steps=args.min_steps,
                               min_active=args.min_active) for ratio in ratios]
    policy = _load_policy(args, consensus=True)
    suite = make_suite(seed=args.suite_seed)
    table = []
    for consensus in configs:
        rows = evaluate(policy, suite, args.trials, ConsensusExecutor(consensus),
                        seed=args.seed)
        table.append({"r": consensus.ratio, **_family_success(rows),
                      "mean_prefix": float(np.mean([r["mean_prefix"] for r in rows])),
                      "mean_steps": float(np.mean([r["mean_steps"] for r in rows]))})
        print(f"r={consensus.ratio:g}: " + "  ".join(
            f"{key} {value:.3f}" for key, value in list(table[-1].items())[1:]))
    write_success_csv(table, _resolve(args.out))
    print(f"wrote {_resolve(args.out)}")
    return 0


def positive_int(text: str) -> int:
    """argparse type of the count flags: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_executor_flags(p):
    p.add_argument("--executor", choices=["fixed", "consensus"], default="fixed")
    p.add_argument("--prefix", type=int, default=5,
                   help="fixed executor: steps executed per chunk")
    p.add_argument("--ratio", type=float, default=1.1)
    p.add_argument("--trace", default=None,
                   help="consensus executor: JSON-lines trace output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horizonmix",
        description="Multi-horizon action-chunking policies on point-mass "
                    "control tasks")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags that several commands share, one parent parser per group
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--config", default=None, help="flat key=value file")
    data.add_argument("--set", action="append", metavar="KEY=VALUE",
                      help="config override, e.g. model.stride=5")
    data.add_argument("--data", default="data/default",
                      help="dataset directory (generated if missing)")
    data.add_argument("--episodes-per-task", type=positive_int,
                      default=DEFAULT_EPISODES_PER_TASK)
    checkpoint = argparse.ArgumentParser(add_help=False)
    checkpoint.add_argument("--checkpoint", required=True)
    suite_seed = argparse.ArgumentParser(add_help=False)
    suite_seed.add_argument("--suite-seed", type=int, default=0)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    trials = argparse.ArgumentParser(add_help=False)
    trials.add_argument("--trials", type=positive_int, default=DEFAULT_TRIALS)
    consensus = argparse.ArgumentParser(add_help=False)
    consensus.add_argument("--min-steps", type=int, default=5)
    consensus.add_argument("--min-active", type=int, default=5)

    p = sub.add_parser("train", parents=[data, suite_seed], help="train a policy")
    p.add_argument("--out", default="runs/train")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", parents=[checkpoint, suite_seed, trials, seed, consensus],
                       help="evaluate a checkpoint on the task suite")
    p.add_argument("--out", default=None, help="success table CSV")
    _add_executor_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("rollout", parents=[checkpoint, seed, suite_seed, consensus],
                       help="run and dump a single episode")
    p.add_argument("--task-id", type=int, default=0)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--out", default=None, help="full trajectory JSON")
    _add_executor_flags(p)
    p.set_defaults(fn=cmd_rollout)

    p = sub.add_parser("sweep-horizons", parents=[data, suite_seed, trials, seed],
                       help="train at several strides plus the baseline")
    p.add_argument("--strides", default="10,5,3,2,1")
    p.add_argument("--out", default="runs/sweep")
    p.add_argument("--prefix", type=int, default=5)
    p.set_defaults(fn=cmd_sweep_horizons)

    p = sub.add_parser("gate-stats", parents=[checkpoint, suite_seed, seed],
                       help="mean gate weight per (step, horizon)")
    p.add_argument("--out", default="gate_stats.csv")
    p.add_argument("--episodes", type=positive_int, default=2)
    p.add_argument("--samples", type=positive_int, default=256)
    p.add_argument("--batch", type=positive_int, default=64)
    p.set_defaults(fn=cmd_gate_stats)

    p = sub.add_parser("dyninfer-sweep", parents=[checkpoint, suite_seed, trials, seed,
                                                  consensus],
                       help="consensus executor across scaling ratios")
    p.add_argument("--ratios", default="1.0,1.1,1.3,2.0")
    p.add_argument("--out", default="dyninfer_sweep.csv")
    p.set_defaults(fn=cmd_dyninfer_sweep)
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
