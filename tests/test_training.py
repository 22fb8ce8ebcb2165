"""Config parsing, checkpoint container, and training-loop tests."""

import hashlib
import json
import math
import os
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonmix import tensor as T
from horizonmix import transformer as tr
from horizonmix.checkpoint import (load_arrays, load_policy, save_arrays,
                                   save_policy)
from horizonmix.config import TrainConfig, apply_items, load_config, parse_config_text
from horizonmix.envbench.dataset import generate_dataset
from horizonmix.envbench.env import make_suite
from horizonmix.errors import (CheckpointFormatError, ConfigError,
                               TrainingDivergedError)
from horizonmix.heads import flow_target
from horizonmix.mixture import moh_objective
from horizonmix.policy import ModelConfig, Policy
from horizonmix.rng import make_rng
from horizonmix.training import AdamW, lr_schedule, prepare_policy, train

SMALL_MODEL = ModelConfig(head="flow", layers=1, heads=2, d_model=16, d_ff=32,
                          context_tokens=2, encoder_hidden=16, max_horizon=6,
                          stride=3, obs_dim=7, n_tasks=16, d_a=2, bins=8,
                          ode_steps=2)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(make_suite(2, 2, seed=0), episodes_per_task=4,
                            max_horizon=6, seed=0)


def small_cfg(**overrides):
    base = dict(model=SMALL_MODEL, iterations=5, warmup=2, batch_size=8,
                checkpoint_every=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestConfig:

    def test_defaults_match_contract(self):
        cfg = TrainConfig()
        assert cfg.lambda_ind == 1.0
        assert cfg.lambda_bal == 1e-3
        assert cfg.warmup == 100
        assert cfg.peak_lr == 1e-3
        assert cfg.floor_lr == 1e-5
        assert cfg.grad_clip == 1.0
        assert cfg.batch_size == 64
        assert cfg.float_width == "float32"
        assert cfg.model.head == "flow" and cfg.max_horizon == 30 and cfg.model.stride == 3

    def test_parse_and_apply(self):
        text = """
        # comment
        model.stride = 5
        model.head = regression
        train.peak_lr = 2e-3   # inline comment
        train.iterations = 7
        """
        cfg = apply_items(TrainConfig(), parse_config_text(text))
        assert cfg.model.stride == 5
        assert cfg.model.head == "regression"
        assert cfg.peak_lr == 2e-3
        assert cfg.iterations == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            apply_items(TrainConfig(), {"model.nope": "1"})
        with pytest.raises(ConfigError):
            apply_items(TrainConfig(), {"momentum": "0.9"})
        with pytest.raises(ConfigError):
            parse_config_text("just a line without equals")

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            apply_items(TrainConfig(), {"train.iterations": "many"})
        with pytest.raises(ConfigError):
            TrainConfig(float_width="float16")
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("override", ["model.ode_steps=0", "model.heads=3",
                                          "model.stride=4", "model.layers=0"])
    def test_bad_model_values_rejected_at_load(self, override):
        with pytest.raises(ConfigError):
            load_config(overrides=[override])

    def test_odd_width_rejected_for_flow_only(self):
        odd = ["model.d_model=33", "model.heads=3"]  # no sin/cos pairs for the time row
        with pytest.raises(ConfigError):
            load_config(overrides=odd)
        assert load_config(overrides=odd + ["model.head=regression"]).model.d_model == 33

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.seed = 1\ntrain.batch_size = 16\n")
        cfg = load_config(path, overrides=["train.seed=9"])
        assert cfg.seed == 9
        assert cfg.batch_size == 16


class TestLrSchedule:

    def test_warmup_then_cosine(self):
        cfg = TrainConfig(warmup=10, peak_lr=1e-3, floor_lr=1e-5,
                          iterations=110)
        assert lr_schedule(0, cfg) == pytest.approx(1e-4)
        assert lr_schedule(9, cfg) == pytest.approx(1e-3)
        mid = lr_schedule(60, cfg)
        assert 1e-5 < mid < 1e-3
        assert lr_schedule(109, cfg) == pytest.approx(
            1e-5 + 0.5 * (1e-3 - 1e-5) * (1 + math.cos(math.pi * 99 / 100)))

    def test_monotone_after_warmup(self):
        cfg = TrainConfig(warmup=5, iterations=50)
        lrs = [lr_schedule(i, cfg) for i in range(50)]
        assert all(a >= b for a, b in zip(lrs[5:], lrs[6:]))


class TestAdamW:

    def test_clip_and_step_direction(self):
        p = T.param(np.zeros(3, dtype=np.float32))
        p.grad = np.array([3.0, 0.0, 4.0], dtype=np.float32)
        opt = AdamW({"p": p}, TrainConfig(grad_clip=1.0))
        norm = opt.step(lr=0.1)
        assert norm == pytest.approx(5.0)
        assert p.data[0] < 0 and p.data[2] < 0 and p.data[1] == 0

    def test_decay_only_on_matrices(self):
        w = T.param(np.ones((2, 2), dtype=np.float32))
        b = T.param(np.ones(2, dtype=np.float32))
        w.grad = np.zeros((2, 2), dtype=np.float32)
        b.grad = np.zeros(2, dtype=np.float32)
        opt = AdamW({"w": w, "b": b}, TrainConfig(weight_decay=0.1))
        opt.step(lr=0.5)
        assert np.all(w.data < 1.0)
        np.testing.assert_array_equal(b.data, 1.0)

    def test_quadratic_converges(self):
        p = T.param(np.array([5.0], dtype=np.float32))
        opt = AdamW({"p": p}, TrainConfig(weight_decay=0.0, grad_clip=10.0))
        for _ in range(400):
            p.grad = 2.0 * p.data
            opt.step(lr=0.05)
        assert abs(float(p.data[0])) < 1e-2


class TestCheckpointContainer:

    def test_array_roundtrip(self, tmp_path):
        path = tmp_path / "c.bin"
        arrays = {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                  "b": np.array(3.5),
                  "ids": np.arange(4, dtype=np.int64)}
        save_arrays(path, arrays, {"note": "x", "k": 2})
        back, meta = load_arrays(path)
        assert meta == {"note": "x", "k": 2}
        assert list(back) == ["a", "b", "ids"]
        for k in arrays:
            np.testing.assert_array_equal(arrays[k], back[k])
            assert arrays[k].dtype == back[k].dtype
            assert arrays[k].shape == back[k].shape

    def test_byte_identical_roundtrip(self, tmp_path):
        p1, p2 = tmp_path / "1.bin", tmp_path / "2.bin"
        save_arrays(p1, {"w": np.random.default_rng(0).normal(size=(4, 5))},
                    {"iteration": 3})
        arrays, meta = load_arrays(p1)
        save_arrays(p2, arrays, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.bin"
        save_arrays(path, {"a": np.zeros(2)}, {"v": 1})
        before = path.read_bytes()

        def fail(*_args):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_arrays(path, {"a": np.ones(2)}, {"v": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.bin"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointFormatError):
            load_arrays(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        save_arrays(path, {"a": np.zeros(1)}, {})
        raw = bytearray(path.read_bytes())
        # bump the version integer inside the JSON header
        idx = raw.find(b'"version":')
        raw[idx + len(b'"version":')] = ord("9")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError):
            load_arrays(path)

    def test_truncated_policy_rejected(self, tmp_path, dataset):
        cfg = small_cfg()
        path = tmp_path / "p.bin"
        save_policy(path, prepare_policy(cfg, dataset), cfg, iteration=0)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<Q", raw[8:16])
        base = 16 + header_len
        for length in (0, 7, 8, 12, 16, base // 2, base, base + 5,
                       (base + len(raw)) // 2, len(raw) - 1):
            path.write_bytes(raw[:length])
            with pytest.raises(CheckpointFormatError):
                load_arrays(path)
            with pytest.raises(CheckpointFormatError):
                load_policy(path)

    @pytest.mark.parametrize("edit", ["offset_past_end", "shape", "trailing",
                                      "dtype_code", "dtype_subarray"])
    def test_array_table_must_match_data(self, tmp_path, edit):
        path = tmp_path / "c.bin"
        save_arrays(path, {"a": np.zeros((2, 3)), "b": np.ones(4)}, {})
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16:16 + header_len])
        data = raw[16 + header_len:]
        if edit == "offset_past_end":
            header["arrays"][1]["offset"] = len(data) + 8
        elif edit == "shape":
            header["arrays"][0]["shape"] = [2, 2]
        elif edit == "dtype_code":  # numpy parses it as code: SyntaxError
            header["arrays"][0]["dtype"] = ",f8"
        elif edit == "dtype_subarray":  # fits the bytes, but 3 values per element
            header["arrays"][0].update(dtype="3<f8", shape=[2])
        else:
            data += b"\x00" * 8
        text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(raw[:8] + struct.pack("<Q", len(text)) + text + data)
        with pytest.raises(CheckpointFormatError):
            load_arrays(path)

    @pytest.mark.parametrize("edit", ["no_train", "no_norm", "unknown_key", "zero_batch",
                                      "heads_split_unevenly", "bytes_param",
                                      "no_iteration", "negative_iteration",
                                      "float_iteration", "bool_iteration"])
    def test_non_policy_container_rejected(self, tmp_path, dataset, edit):
        cfg = small_cfg()
        path = tmp_path / "p.bin"
        save_policy(path, prepare_policy(cfg, dataset), cfg, iteration=0)
        arrays, meta = load_arrays(path)
        if edit == "no_train":
            del meta["train"]
        elif edit == "no_norm":
            del arrays["norm.act_std"]
        elif edit == "unknown_key":
            meta["train"]["model"]["momentum"] = 0.9
        elif edit == "zero_batch":  # a value TrainConfig rejects with ConfigError
            meta["train"]["batch_size"] = 0
        elif edit == "heads_split_unevenly":  # ModelConfig takes it, Policy.init does not
            meta["train"]["model"]["heads"] = 3
        elif edit == "no_iteration":  # eval reads it for every row
            del meta["iteration"]
        elif edit.endswith("_iteration"):
            meta["iteration"] = {"negative": -1, "float": 2.0, "bool": True}[
                edit.removesuffix("_iteration")]
        else:  # a dtype byte flip can turn "<f4" into "<a4"
            arrays["param.gate.b"] = arrays["param.gate.b"].view("S4")
        save_arrays(path, arrays, meta)
        with pytest.raises(CheckpointFormatError, match="not a policy checkpoint"):
            load_policy(path)

    @pytest.mark.parametrize("edit", ["missing", "shape", "width"])
    def test_params_must_match_config(self, tmp_path, dataset, edit):
        cfg = small_cfg()
        path = tmp_path / "p.bin"
        save_policy(path, prepare_policy(cfg, dataset), cfg, iteration=0)
        arrays, meta = load_arrays(path)
        if edit == "missing":
            del arrays["param.gate.w"]
        elif edit == "shape":
            arrays["param.head.w"] = arrays["param.head.w"][:, :1]
        else:
            arrays["param.gate.b"] = arrays["param.gate.b"].astype(np.float64)
        save_arrays(path, arrays, meta)
        with pytest.raises(CheckpointFormatError, match="do not match the stored config"):
            load_policy(path)

    @pytest.mark.parametrize("name", ["norm.obs_mean", "norm.obs_std", "norm.act_mean",
                                      "norm.act_std", "grid.lo", "grid.hi"])
    @pytest.mark.parametrize("edit", ["missing", "shape"])
    def test_norm_and_grid_must_match_config(self, tmp_path, dataset, name, edit):
        cfg = small_cfg(model=replace(SMALL_MODEL, head="classification"))
        path = tmp_path / "p.bin"
        save_policy(path, prepare_policy(cfg, dataset), cfg, iteration=0)
        arrays, meta = load_arrays(path)
        if edit == "missing":
            del arrays[name]
        else:
            arrays[name] = arrays[name][:1]
        save_arrays(path, arrays, meta)
        with pytest.raises(CheckpointFormatError, match="do not match the stored config"):
            load_policy(path)

    def test_policy_roundtrip_preserves_predictions(self, tmp_path, dataset):
        cfg = small_cfg()
        policy = prepare_policy(cfg, dataset)
        save_policy(tmp_path / "p.bin", policy, cfg, iteration=0)
        loaded, train_cfg, meta = load_policy(tmp_path / "p.bin")
        assert train_cfg == cfg
        assert meta["iteration"] == 0
        obs = dataset.observations[:3]
        ids = dataset.task_ids[:3]
        a1 = policy.detached().predict(obs, ids, rng=make_rng(0, "n"))[0]
        a2 = loaded.detached().predict(obs, ids, rng=make_rng(0, "n"))[0]
        np.testing.assert_array_equal(a1, a2)


@pytest.fixture(scope="module")
def policy_bytes(dataset, tmp_path_factory):
    cfg = small_cfg()
    path = tmp_path_factory.mktemp("fuzz") / "p.bin"
    save_policy(path, prepare_policy(cfg, dataset), cfg, iteration=0)
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[8:16])
    return raw, 16 + header_len, path


def _load_or_typed_error(path, raw):
    path.write_bytes(raw)
    try:
        load_arrays(path)
    except CheckpointFormatError:
        pass
    try:
        load_policy(path)
    except CheckpointFormatError:
        pass


class TestCheckpointFuzz:
    """A damaged policy file loads or fails with CheckpointFormatError, from
    load_arrays and from load_policy alike."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncation(self, policy_bytes, data):
        raw, _, path = policy_bytes
        length = data.draw(st.integers(0, len(raw) - 1))
        _load_or_typed_error(path, raw[:length])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_byte_flip(self, policy_bytes, data):
        raw, base, path = policy_bytes
        at = data.draw(st.one_of(st.integers(0, base - 1), st.integers(0, len(raw) - 1)))
        flipped = bytearray(raw)
        flipped[at] ^= data.draw(st.integers(1, 255))
        _load_or_typed_error(path, bytes(flipped))


class TestTrainLoop:

    def test_zero_iterations_keeps_initialization(self, dataset):
        cfg = small_cfg(iterations=0)
        policy = prepare_policy(cfg, dataset)
        before = {k: v.data.copy() for k, v in policy.params.items()}
        _, metrics = train(policy, dataset, cfg)
        assert metrics == []
        for k, v in policy.params.items():
            np.testing.assert_array_equal(before[k], v.data)

    def test_metrics_lines_valid_and_monotone(self, dataset, tmp_path):
        cfg = small_cfg(iterations=4)
        policy = prepare_policy(cfg, dataset)
        path = tmp_path / "metrics.jsonl"
        _, metrics = train(policy, dataset, cfg, metrics_path=path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == metrics
        assert [m["iteration"] for m in lines] == [0, 1, 2, 3]
        for m in lines:
            for key in ("l_mix", "l_ind", "l_bal", "total", "grad_norm", "lr"):
                assert isinstance(m[key], float)
            assert m["total"] == pytest.approx(
                m["l_mix"] + cfg.lambda_ind * m["l_ind"]
                + cfg.lambda_bal * m["l_bal"], rel=1e-5)

    def test_identical_seeds_bit_identical(self, dataset, tmp_path):
        digests = []
        for name in ("a", "b"):
            cfg = small_cfg(iterations=6, seed=3)
            policy = prepare_policy(cfg, dataset)
            train(policy, dataset, cfg)
            path = tmp_path / f"{name}.bin"
            save_policy(path, policy, cfg, cfg.iterations)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_different_seed_changes_weights(self, dataset):
        outs = []
        for seed in (0, 1):
            cfg = small_cfg(iterations=3, seed=seed)
            policy = prepare_policy(cfg, dataset)
            train(policy, dataset, cfg)
            outs.append(policy.params["gate.w"].data.copy())
        assert not np.array_equal(outs[0], outs[1])

    def test_nan_loss_aborts_with_iteration(self, dataset):
        cfg = small_cfg(iterations=10, peak_lr=1e9, warmup=1, grad_clip=1e9)
        policy = prepare_policy(cfg, dataset)
        policy.params["head.w"].data[:] = 1e30
        with pytest.raises(TrainingDivergedError) as err:
            with np.errstate(all="ignore"):
                train(policy, dataset, cfg)
        assert err.value.iteration >= 0

    def test_nonfinite_gradient_aborts_before_update(self, dataset):
        cfg = small_cfg(iterations=1)
        policy = prepare_policy(cfg, dataset)
        before = {k: v.data.copy() for k, v in policy.params.items()}
        bias = policy.params["gate.b"]  # zeros: sqrt is finite there, its slope is not

        def loss_fn(*_batch):
            return SimpleNamespace(total=T.tsum(T.tpow(bias, 0.5)))

        with pytest.raises(TrainingDivergedError, match="gradient.*'gate.b'") as err:
            with np.errstate(divide="ignore"):
                train(policy, dataset, cfg, loss_fn=loss_fn)
        assert err.value.iteration == 0
        for k, v in policy.params.items():
            np.testing.assert_array_equal(before[k], v.data)

    def test_periodic_checkpoints_written(self, dataset, tmp_path):
        cfg = small_cfg(iterations=5, checkpoint_every=2)
        policy = prepare_policy(cfg, dataset)
        train(policy, dataset, cfg, checkpoint_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.glob("checkpoint_*.bin"))
        assert names == ["checkpoint_000002.bin", "checkpoint_000004.bin"]
        _, _, meta = load_policy(tmp_path / "checkpoint_000002.bin")
        assert meta["iteration"] == 2
        assert meta["rng_state"]["batches"]["bit_generator"] == "Philox"

    def test_last_iteration_written_with_generator_states(self, dataset, tmp_path):
        cfg = small_cfg(iterations=3, checkpoint_every=0)
        policy = prepare_policy(cfg, dataset)
        train(policy, dataset, cfg, checkpoint_dir=tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]
        loaded, _, meta = load_policy(tmp_path / "checkpoint.bin")
        assert meta["iteration"] == 3
        for name, p in policy.params.items():
            np.testing.assert_array_equal(loaded.params[name].data, p.data)
        batches = make_rng(cfg.seed, "train", "batches")
        for _ in range(cfg.iterations):
            batches.integers(0, len(dataset), size=cfg.batch_size)
        stored = np.random.Generator(np.random.Philox())
        stored.bit_generator.state = meta["rng_state"]["batches"]
        assert stored.random() == batches.random()
        assert set(meta["rng_state"]) == {"batches", "draws"}

    def test_loss_decreases_below_zero_predictor(self, dataset):
        # Zero-velocity-field baseline: E||u||^2 with u = A - eps estimated
        # by Monte Carlo under the same normalization.
        cfg = small_cfg(iterations=250, warmup=25, batch_size=16, seed=0)
        policy = prepare_policy(cfg, dataset)
        rng = np.random.default_rng(0)
        real = dataset.valid.astype(bool)
        normed = policy.norm.normalize_actions(
            dataset.chunks[real].astype(np.float64))
        eps = rng.standard_normal(normed.shape)
        baseline = float(np.mean((normed - eps) ** 2))
        _, metrics = train(policy, dataset, cfg)
        tail = np.mean([m["l_mix"] for m in metrics[-25:]])
        assert tail < 0.9 * baseline

    def test_mismatched_dataset_rejected(self, dataset):
        cfg = small_cfg(model=replace(SMALL_MODEL, obs_dim=9))
        with pytest.raises(ConfigError):
            prepare_policy(cfg, dataset)
        cfg = small_cfg(model=replace(SMALL_MODEL, max_horizon=12, stride=3))
        with pytest.raises(ConfigError):
            prepare_policy(cfg, dataset)
        cfg = small_cfg(model=replace(SMALL_MODEL, n_tasks=2))
        with pytest.raises(ConfigError):
            prepare_policy(cfg, dataset)


def single_horizon_loss(policy: Policy, cfg: TrainConfig):
    """Plain chunk-policy objective with the mixture machinery bypassed:
    one full-length stream, no gate, no fusion, no balance term."""
    if policy.cfg.head != "flow":
        raise ConfigError("the single-horizon baseline supports the flow head")
    if len(policy.horizons) != 1:
        raise ConfigError("baseline loss requires HorizonSet {H}")

    def fn(obs, task_ids, chunks, valid, rng):
        ctx = policy.encode_context(obs, task_ids)
        target = policy.norm.normalize_actions(
            np.asarray(chunks, dtype=np.float64))
        dtype = ctx.data.dtype
        b, h_max, d_a = target.shape
        tau = rng.random(b)
        eps = rng.standard_normal(target.shape)
        x = (1.0 - tau)[:, None, None] * eps + tau[:, None, None] * target
        u = flow_target(eps, target)
        hidden = tr.forward_multi_horizon(policy.params, policy.cfg, ctx, x.astype(dtype), tau)
        v = T.linear(hidden, policy.params["head.w"], policy.params["head.b"])
        err = T.sub(T.reshape(v, u.shape), T.constant(u.astype(dtype)))
        weight = np.asarray(valid, dtype=bool).astype(dtype)
        total = T.tsum(T.mul(T.mul(err, err), T.constant(weight[..., None])))
        l = T.mul(total, 1.0 / (float(weight.sum()) * d_a))
        zero = T.constant(np.zeros((), dtype=dtype))
        return moh_objective(l, T.reshape(l, (1,)), zero, cfg.lambda_ind,
                             cfg.lambda_bal)
    return fn


class TestSingleHorizonBaseline:

    def test_requires_single_horizon(self, dataset):
        cfg = small_cfg()
        policy = prepare_policy(cfg, dataset)
        with pytest.raises(ConfigError):
            single_horizon_loss(policy, cfg)

    def test_matches_moh_on_degenerate_set(self, dataset):
        """HorizonSet {H} through the mixture path equals the plain
        single-stream implementation, iteration by iteration."""
        model = replace(SMALL_MODEL, stride=6)  # {6}: single horizon
        curves = []
        for use_baseline in (False, True):
            cfg = small_cfg(model=model, iterations=20, warmup=5, seed=1)
            policy = prepare_policy(cfg, dataset)
            loss_fn = (single_horizon_loss(policy, cfg) if use_baseline
                       else None)
            _, metrics = train(policy, dataset, cfg, loss_fn=loss_fn)
            curves.append([m["total"] for m in metrics])
        np.testing.assert_allclose(curves[0], curves[1], atol=1e-6, rtol=0)
