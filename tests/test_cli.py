"""Command-line entry point tests: exit codes and artifact layout."""

import argparse
import csv
import json
import re

import numpy as np
import pytest

from horizonmix import cli
from horizonmix.checkpoint import load_arrays, load_policy, save_arrays
from horizonmix.cli import main
from horizonmix.envbench.dataset import generate_dataset, load_dataset, save_dataset
from horizonmix.envbench.env import make_suite

CFG = """
model.layers = 1
model.heads = 2
model.d_model = 16
model.d_ff = 32
model.context_tokens = 2
model.encoder_hidden = 16
model.max_horizon = 6
model.stride = 3
train.iterations = 4
train.warmup = 2
train.batch_size = 8
train.checkpoint_every = 0
"""


@pytest.fixture()
def root(tmp_path, monkeypatch):
    monkeypatch.setenv("HORIZONMIX_ROOT", str(tmp_path))
    (tmp_path / "run.cfg").write_text(CFG)
    return tmp_path


def run_train(root, *extra):
    args = ["train", "--config", "run.cfg", "--out", "runs/train",
            "--suite-seed", "0", "--episodes-per-task", "2", *extra]
    assert main(args) == 0
    return root / "runs" / "train" / "checkpoint.bin"


class TestExitCodes:

    def test_bad_config_key_is_2(self, root, capsys):
        (root / "bad.cfg").write_text("train.turbo = yes\n")
        assert main(["train", "--config", "bad.cfg"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_override_is_2(self, root):
        assert main(["train", "--config", "run.cfg",
                     "--set", "model.stride=0"]) == 2

    @pytest.mark.parametrize("override", ["model.heads=3", "model.ode_steps=0",
                                          "model.bins=0", "model.context_tokens=0",
                                          "model.encoder_hidden=0", "model.obs_dim=0",
                                          "model.d_a=0", "model.n_tasks=0"])
    def test_bad_model_config_is_2_before_any_dataset(self, root, override):
        assert main(["train", "--config", "run.cfg", "--set", override]) == 2
        assert not (root / "data").exists()

    @pytest.mark.parametrize("override", [
        "train.checkpoint_every=-5", "train.weight_decay=-0.01",
        "train.lambda_ind=-1", "train.lambda_bal=-0.001"])
    def test_negative_train_weight_is_2_before_any_dataset(self, root, override):
        assert main(["train", "--config", "run.cfg", "--set", override]) == 2
        assert not (root / "data").exists()

    def test_missing_checkpoint_is_3(self, root):
        assert main(["eval", "--checkpoint", "nope.bin"]) == 3

    def test_unknown_command_is_2(self, root):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command, flag", [
        ("train", "--episodes-per-task"), ("eval", "--trials"),
        ("gate-stats", "--samples"), ("gate-stats", "--batch"),
        ("gate-stats", "--episodes")])
    def test_count_below_one_is_2_and_writes_nothing(self, root, command, flag):
        source = (["--config", "run.cfg"] if command == "train"
                  else ["--checkpoint", "nope.bin"])
        with pytest.raises(SystemExit) as err:
            main([command, *source, flag, "0"])
        assert err.value.code == 2
        assert [p.name for p in root.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("command", ["eval", "rollout"])
    def test_trace_with_fixed_executor_is_2_before_the_file(self, root, command):
        # the checkpoint is never opened: a missing one would exit 3
        trace = root / "trace.jsonl"
        trace.write_text('{"earlier": true}\n')
        assert main([command, "--checkpoint", "nope.bin", "--executors", "fixed-5",
                     "--trace", str(trace)]) == 2
        assert trace.read_text() == '{"earlier": true}\n'

    def test_trace_with_two_consensus_executors_is_2_before_the_file(self, root):
        trace = root / "trace.jsonl"
        trace.write_text('{"earlier": true}\n')
        assert main(["eval", "--checkpoint", "nope.bin", "--trace", str(trace),
                     "--executors", "consensus-r1,consensus-r1.1"]) == 2
        assert trace.read_text() == '{"earlier": true}\n'

    @pytest.mark.parametrize("command, executors", [
        ("eval", "fixed-0"), ("eval", "fixed-x"), ("eval", "median-3"), ("eval", ""),
        ("eval", "fixed-5,"), ("eval", "fixed-5,fixed-5"), ("rollout", "consensus-rx"),
        ("rollout", "fixed-3,consensus-r1.1")])
    def test_bad_executors_are_2_before_the_checkpoint(self, root, command, executors):
        # the checkpoint is never opened: a missing one would exit 3
        assert main([command, "--checkpoint", "nope.bin",
                     "--executors", executors]) == 2


class TestTrainEval:

    def test_train_writes_artifacts(self, root):
        ckpt = run_train(root)
        assert ckpt.exists()
        metrics = (root / "runs" / "train" / "metrics.jsonl").read_text()
        assert len(metrics.splitlines()) == 4
        assert [p.name for p in (root / "data" / "default").iterdir()] == ["data.bin"]
        _, cfg, meta = load_policy(ckpt)
        assert cfg.iterations == 4 and meta["iteration"] == 4

    def test_train_reuses_dataset(self, root):
        run_train(root)
        data_path = root / "data" / "default" / "data.bin"
        stamp = data_path.stat().st_mtime_ns
        run_train(root)  # second run must load, not regenerate
        assert data_path.stat().st_mtime_ns == stamp

    def test_stale_dataset_rejected(self, root, capsys):
        run_train(root)
        data_path = root / "data" / "default" / "data.bin"
        arrays, fresh = load_arrays(data_path)
        stale = [("seed", 5), ("episodes_per_task", 3),
                 ("env_constants", {**fresh["env_constants"], "detour_bulge": 0.13}),
                 ("expert_gains", {**fresh["expert_gains"], "bulge": 0.15})]
        for key, value in stale:
            save_arrays(data_path, arrays, {**fresh, key: value})
            capsys.readouterr()
            assert main(["train", "--config", "run.cfg", "--out", "runs/stale",
                         "--episodes-per-task", "2"]) == 2
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("head", ["flow", "regression", "classification"])
    def test_longer_dataset_trains_the_same_bytes(self, root, head):
        # the first 6 steps of a 12-step window are the 6-step window
        save_dataset(generate_dataset(make_suite(seed=0), 2, 12, seed=0), root / "data" / "long")
        run = ["train", "--config", "run.cfg", "--episodes-per-task", "2",
               "--set", f"model.head={head}"]
        assert main([*run, "--data", "data/long", "--out", "runs/long"]) == 0
        assert main([*run, "--data", "data/short", "--out", "runs/short"]) == 0
        assert load_dataset(root / "data" / "short").chunks.shape[1] == 6
        assert ((root / "runs" / "long" / "checkpoint.bin").read_bytes()
                == (root / "runs" / "short" / "checkpoint.bin").read_bytes())

    def test_shorter_dataset_is_2_and_writes_nothing(self, root, capsys):
        run_train(root)  # a 6-step dataset under data/default
        capsys.readouterr()
        assert main(["train", "--config", "run.cfg", "--episodes-per-task", "2",
                     "--set", "model.max_horizon=12", "--out", "runs/h12"]) == 2
        err = capsys.readouterr().err
        assert "6-step chunks" in err and "horizon 12" in err
        assert not (root / "runs" / "h12").exists()

    def test_old_format_directory_regenerates(self, root):
        # a directory written before datasets moved into data.bin
        old = root / "data" / "default"
        old.mkdir(parents=True)
        ds = generate_dataset(make_suite(seed=0), 2, 6, seed=0)
        np.savez(old / "data.npz", observations=ds.observations, task_ids=ds.task_ids,
                 chunks=ds.chunks, valid=ds.valid)
        (old / "manifest.json").write_text(json.dumps(ds.manifest))
        run_train(root)
        assert sorted(p.name for p in old.iterdir()) == ["data.bin", "data.npz",
                                                         "manifest.json"]
        back = load_dataset(old)
        with np.load(old / "data.npz") as npz:
            for name in npz.files:
                np.testing.assert_array_equal(getattr(back, name), npz[name])
                assert getattr(back, name).dtype == npz[name].dtype
        assert back.manifest == json.loads((old / "manifest.json").read_text())

    @pytest.mark.parametrize("edit", [
        lambda a: {k: v for k, v in a.items() if k != "valid"},
        lambda a: {**a, "chunks": a["chunks"][:10]},
        lambda a: {**a, "valid": a["valid"][:, :3]},
    ], ids=["missing-valid", "chunks-rows", "valid-columns"])
    def test_malformed_dataset_is_3_before_training(self, root, capsys, edit):
        run_train(root)
        data_path = root / "data" / "default" / "data.bin"
        arrays, manifest = load_arrays(data_path)
        save_arrays(data_path, edit(arrays), manifest)
        capsys.readouterr()
        assert main(["train", "--config", "run.cfg", "--out", "runs/bad",
                     "--episodes-per-task", "2"]) == 3
        assert f"error: {data_path}: not a dataset" in capsys.readouterr().err
        assert not (root / "runs" / "bad" / "metrics.jsonl").exists()

    def test_negative_task_ids_are_2_before_training(self, root, capsys):
        # numpy would wrap them around to other tasks' embeddings
        run_train(root)
        data_path = root / "data" / "default" / "data.bin"
        arrays, manifest = load_arrays(data_path)
        save_arrays(data_path, {**arrays, "task_ids": arrays["task_ids"] - 5}, manifest)
        capsys.readouterr()
        assert main(["train", "--config", "run.cfg", "--out", "runs/neg",
                     "--episodes-per-task", "2"]) == 2
        assert "task id -5 out of range" in capsys.readouterr().err
        assert not (root / "runs" / "neg" / "metrics.jsonl").exists()

    @pytest.mark.parametrize("command, extra", [
        ("eval", ["--executors", "consensus-r1.1", "--trace", "t.jsonl"]),
        ("rollout", ["--executors", "consensus-r1.1", "--trace", "t.jsonl"]),
        ("eval", ["--executors", "fixed-3,consensus-r1", "--out", "dyn.csv"])])
    def test_min_steps_above_horizon_is_2_before_any_episode(self, root, monkeypatch,
                                                             command, extra):
        ckpt = run_train(root)
        trace = root / "t.jsonl"
        trace.write_text('{"earlier": true}\n')

        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")
        monkeypatch.setattr(cli, "evaluate", no_episode)
        monkeypatch.setattr(cli, "run_episode", no_episode)
        assert main([command, "--checkpoint", str(ckpt), "--min-steps", "40",
                     *extra]) == 2
        assert trace.read_text() == '{"earlier": true}\n'
        assert not (root / "dyn.csv").exists()

    def test_eval_fixed_writes_csv(self, root):
        ckpt = run_train(root)
        out = root / "eval.csv"
        assert main(["eval", "--checkpoint", str(ckpt), "--executors", "fixed-3",
                     "--trials", "2",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["family"] for r in rows] == ["precision-reach",
                                               "waypoint-chain"]
        for r in rows:
            assert r["executor"] == "fixed-3"
            assert 0.0 <= float(r["success_rate"]) <= 1.0
            assert float(r["mean_prefix"]) == 3.0

    def test_eval_executors_rows_equal_single_runs(self, root):
        ckpt = run_train(root)
        args = ["eval", "--checkpoint", str(ckpt), "--trials", "1", "--min-steps", "3"]
        assert main([*args, "--executors", "fixed-3,consensus-r1", "--out", "both.csv"]) == 0
        assert main([*args, "--executors", "fixed-3", "--out", "fixed.csv"]) == 0
        assert main([*args, "--executors", "consensus-r1", "--out", "cons.csv"]) == 0
        both = (root / "both.csv").read_text().splitlines()
        fixed = (root / "fixed.csv").read_text().splitlines()
        cons = (root / "cons.csv").read_text().splitlines()
        assert both == fixed + cons[1:]
        assert [row["executor"] for row in csv.DictReader(both)] == (
            ["fixed-3"] * 2 + ["consensus-r1"] * 2)

    def test_eval_rows_name_their_checkpoint(self, root):
        run_train(root)
        run_train(root, "--set", "model.stride=6", "--set", "train.seed=1", "--out", "runs/b")
        lines = []
        for name in ("train", "b"):
            out = root / f"{name}.csv"
            assert main(["eval", "--checkpoint", f"runs/{name}/checkpoint.bin",
                         "--executors", "fixed-3", "--trials", "1", "--out", str(out)]) == 0
            lines.append(out.read_text().splitlines())
        assert lines[0][0] == lines[1][0]
        assert lines[0][0].split(",")[:8] == ["head", "fusion", "max_horizon", "stride",
                                               "n_horizons", "seed", "iteration", "family"]
        rows = list(csv.DictReader(lines[0] + lines[1][1:]))  # the CSVs concatenated
        assert [(r["head"], r["max_horizon"], r["stride"], r["n_horizons"], r["seed"],
                 r["iteration"]) for r in rows] == (
            [("flow", "6", "3", "2", "0", "4")] * 2 + [("flow", "6", "6", "1", "1", "4")] * 2)

    @pytest.mark.parametrize("executors", ["fixed-5,fixed-3", "fixed-3,fixed-9"])
    def test_executors_equal_at_the_horizon_are_2_before_any_episode(
            self, root, monkeypatch, capsys, executors):
        ckpt = run_train(root, "--set", "model.max_horizon=3", "--data", "data/h3")

        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")
        monkeypatch.setattr(cli, "evaluate", no_episode)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--executors", executors,
                     "--out", "dup.csv"]) == 2
        assert "fixed-3 twice at the checkpoint's horizon 3" in capsys.readouterr().err
        assert not (root / "dup.csv").exists()

    def test_eval_consensus_trace(self, root):
        ckpt = run_train(root)
        trace = root / "trace.jsonl"
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--executors", "consensus-r1.1",
                     "--trials", "1", "--trace", str(trace)]) == 0
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert lines
        for rec in lines:
            assert rec["selected"] >= 3  # never below min_steps for H=6
            assert rec["threshold"] >= 0.0
            assert len(rec["disagreements"]) == 6

    def test_trace_file_holds_one_run(self, root):
        ckpt = run_train(root)
        trace = root / "trace.jsonl"
        trace.write_text('{"stale": true}\n')
        args = ["--checkpoint", str(ckpt), "--executors", "consensus-r1.1",
                "--trace", str(trace)]
        assert main(["eval", *args, "--trials", "1"]) == 0
        once = trace.read_text()
        assert main(["eval", *args, "--trials", "1"]) == 0
        assert trace.read_text() == once
        assert "stale" not in once
        assert main(["rollout", *args, "--task-id", "3"]) == 0
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert {(r["task_id"], r["trial"]) for r in lines} == {(3, 0)}

    def test_rollout_prints_summary(self, root, capsys):
        ckpt = run_train(root)
        capsys.readouterr()  # drop training chatter
        assert main(["rollout", "--checkpoint", str(ckpt),
                     "--task-id", "0", "--trial", "0"]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out[out.index("{"):])
        assert summary["task_id"] == 0
        assert summary["steps"] == sum(summary["prefix_lengths"])


class TestSweeps:

    # a repeated ratio would evaluate one config twice
    @pytest.mark.parametrize("ratios", ["1.0,x", "1.0,0", ",", "1.1,1.1", "1.1,1.10"])
    def test_bad_ratio_is_2_before_any_run(self, root, ratios):
        executors = ",".join(f"consensus-r{r}" for r in ratios.split(","))
        # the checkpoint is never opened: a missing one would exit 3
        assert main(["eval", "--checkpoint", "nope.bin",
                     "--executors", executors, "--out", "dyn.csv"]) == 2
        assert not (root / "dyn.csv").exists()

    def test_gate_stats_requires_mixture(self, root):
        ckpt = run_train(root, "--set", "model.stride=6")
        assert main(["gate-stats", "--checkpoint", str(ckpt),
                     "--out", "gate.csv"]) == 2

    def test_gate_stats_csv(self, root):
        ckpt = run_train(root)
        assert main(["gate-stats", "--checkpoint", str(ckpt),
                     "--samples", "32", "--episodes", "1",
                     "--out", "gate.csv"]) == 0
        lines = (root / "gate.csv").read_text().splitlines()
        assert lines[0] == "family,step,horizon,mean_weight"
        assert re.fullmatch(r"precision-reach,1,3,[01]\.\d{8}", lines[1])
        rows = list(csv.DictReader((root / "gate.csv").open()))
        assert len(rows) == 24  # (family, step, horizon) triples for 2 families, H=6, N=2
        by_step = {}
        for row in rows:
            by_step.setdefault((row["family"], int(row["step"])), []).append(
                float(row["mean_weight"]))
        assert sorted(by_step) == [(family, step) for family in ("precision-reach",
                                                                 "waypoint-chain")
                                   for step in range(1, 7)]
        for weights in by_step.values():
            assert sum(weights) == pytest.approx(1.0, abs=1e-4)

    def test_gate_stats_skips_a_family_without_samples(self, root):
        ckpt = run_train(root)
        assert main(["gate-stats", "--checkpoint", str(ckpt), "--samples", "1",
                     "--episodes", "1", "--out", "gate.csv"]) == 0
        rows = list(csv.DictReader((root / "gate.csv").open()))
        assert len(rows) == 12 and len({r["family"] for r in rows}) == 1

    def test_gate_stats_table_does_not_depend_on_batch(self, root):
        ckpt = run_train(root)
        tables = []
        for batch in ("3", "8", "32"):
            assert main(["gate-stats", "--checkpoint", str(ckpt), "--samples", "32",
                         "--episodes", "1", "--batch", batch, "--out", "gate.csv"]) == 0
            tables.append((root / "gate.csv").read_bytes())
        assert tables[0] == tables[1] == tables[2]


def test_docstring_lists_every_command():
    listed = re.search(r"^Commands: (.*)\.$", cli.__doc__, re.MULTILINE).group(1)
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert listed.split(", ") == list(subparsers.choices)
