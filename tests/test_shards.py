"""The shard node: ``Policy.loss`` over two halves of a batch at once.

The sharded loss and its gradients must equal the one-graph loss of
``oracles.unsharded_loss``, their bits must not depend on whether the
halves ran on two threads or in turn, and nothing the shards change in the
process (the BLAS thread count, threads, numpy's error state) may outlast
them or reach the inference path.
"""

import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from horizonmix import heads as hd
from horizonmix import tensor as T
from horizonmix.config import TrainConfig
from horizonmix.envbench import (FixedPrefixExecutor, evaluate, generate_dataset,
                                 make_suite)
from horizonmix.errors import ConfigError, ShapeMismatchError
from horizonmix.policy import ModelConfig, Policy
from horizonmix.rng import make_rng
from horizonmix.training import prepare_policy, train

import oracles

CFG = ModelConfig(head="flow", layers=2, heads=2, d_model=32, d_ff=64,
                  context_tokens=4, encoder_hidden=32, max_horizon=6, stride=2,
                  obs_dim=5, n_tasks=3, d_a=2, bins=8, ode_steps=4)


def make_batch(seed, b):
    """A batch whose first half has no valid row and whose second half pads
    some chunks, except at b = 1."""
    rng = make_rng(seed, "shard-batch")
    obs = rng.standard_normal((b, CFG.obs_dim))
    task_ids = rng.integers(0, CFG.n_tasks, size=b)
    chunks = rng.standard_normal((b, CFG.max_horizon, CFG.d_a))
    valid = np.ones((b, CFG.max_horizon), dtype=bool)
    if b > 1:
        valid[:b // 2] = False
        valid[b // 2::2, -2:] = False
    return obs, task_ids, chunks, valid


def loss_and_grads(loss, policy, batch, seed):
    T.zero_grads(policy.params)
    out, alpha = loss(policy, *batch, make_rng(seed, "shard-draws"))
    T.backward(out.total)
    values = {name: getattr(out, name).data for name in
              ("l_mix", "l_ind", "l_bal", "total", "per_horizon")}
    values["alpha"] = alpha.data
    grads = {k: None if p.grad is None else p.grad.copy() for k, p in policy.params.items()}
    return values, grads


def sharded(policy, *args):
    return policy.loss(*args)


def blas_threads():
    blas = T._openblas_threads()
    return None if blas is None else blas[1]()


@pytest.fixture
def one_blas_thread():
    blas = T._openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS thread-count setter in this numpy")
    before = blas[1]()
    blas[0](1)
    yield
    blas[0](before)


@pytest.mark.parametrize("b", [1, 2, 5, 64])
@pytest.mark.parametrize("fusion", ["gated", "uniform"])
@pytest.mark.parametrize("head", hd.HEAD_TYPES)
def test_sharded_loss_equals_unsharded_oracle(head, fusion, b):
    policy = Policy.init(replace(CFG, head=head, fusion=fusion), seed=1, dtype=np.float64)
    batch = make_batch(2, b)
    got, got_grads = loss_and_grads(sharded, policy, batch, seed=3)
    ref, ref_grads = loss_and_grads(oracles.unsharded_loss, policy, batch, seed=3)
    for name in ref:
        np.testing.assert_allclose(got[name], ref[name], rtol=1e-12, atol=1e-12, err_msg=name)
    assert [k for k, g in got_grads.items() if g is None] == [
        k for k, g in ref_grads.items() if g is None]
    for name, g in ref_grads.items():
        if g is not None:
            np.testing.assert_allclose(got_grads[name], g, rtol=1e-12, atol=1e-12, err_msg=name)


def test_bits_do_not_depend_on_threads(monkeypatch, one_blas_thread):
    if T._shard_threads() is None:
        pytest.skip("the shards cannot run on two threads here")
    policy = Policy.init(replace(CFG, head="classification"), seed=4)
    batch = make_batch(5, 16)
    runs = []
    for serial in (False, True) * 5:
        with monkeypatch.context() as m:
            if serial:
                m.setattr(T, "_shard_threads", lambda: None)
            runs.append(loss_and_grads(sharded, policy, batch, seed=6))
    first_values, first_grads = runs[0]
    for values, grads in runs[1:]:
        for name, v in first_values.items():
            np.testing.assert_array_equal(values[name], v, err_msg=name)
        for name, g in first_grads.items():
            np.testing.assert_array_equal(grads[name], g, err_msg=name)


def test_concurrent_losses_keep_their_bits_and_the_blas_count():
    # four callers at once, each with its shard worker, on two cores; a
    # short switch interval interleaves them as often as the interpreter can
    policy = Policy.init(replace(CFG, head="regression"), seed=17, dtype=np.float64)
    batch = make_batch(18, 8)
    lone = loss_and_grads(sharded, policy, batch, seed=19)[0]["total"]
    before = _process_state()
    totals = []

    def call():
        out, _ = policy.loss(*batch, make_rng(19, "shard-draws"))
        totals.append(out.total.data)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call) for _ in range(4)]
        for c in callers:
            c.start()
        for c in callers:
            c.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in callers)
    assert totals == [lone] * 4
    assert _process_state() == before


def test_rows_are_two_fixed_halves():
    seen = []

    def fn(leaves, rows):
        seen.append((rows.start, rows.stop))
        return (T.constant(np.zeros(rows.stop - rows.start)),)

    for b in (1, 2, 7):
        T.shards(fn, {}, b)
    assert sorted(seen) == [(0, 1), (0, 1), (0, 3), (1, 2), (3, 7)]


def test_shadow_leaves_share_the_arrays_and_outputs_concatenate():
    w = T.param(np.arange(3.0))
    seen = []

    def fn(leaves, rows):
        seen.append(leaves["w"])
        return (T.mul(T.constant(np.arange(rows.start, rows.stop, dtype=float)[:, None]),
                      leaves["w"]),)

    (out,) = T.shards(fn, {"w": w}, 5)
    assert all(s is not w and s.data is w.data for s in seen)
    np.testing.assert_array_equal(out.data, np.arange(5.0)[:, None] * np.arange(3.0))
    T.backward(T.tsum(out))
    np.testing.assert_array_equal(w.grad, np.full(3, 10.0))
    assert all(s.grad is None for s in seen)


def test_outputs_of_two_widths_are_refused():
    def fn(leaves, rows):
        n = rows.stop - rows.start
        return T.constant(np.zeros(n, np.float32)), T.constant(np.zeros(n))

    with pytest.raises(ShapeMismatchError, match="mixed float widths"):
        T.shards(fn, {}, 4)


def test_an_output_of_the_wrong_length_is_refused():
    with pytest.raises(ShapeMismatchError, match="rows 0:2"):
        T.shards(lambda leaves, rows: (T.constant(np.zeros(3)),), {}, 4)


def test_the_worker_sees_the_callers_error_state():
    seen = []

    def fn(leaves, rows):
        seen.append(np.geterr()["over"])
        return (T.constant(np.zeros(rows.stop - rows.start)),)

    with np.errstate(over="ignore"):
        T.shards(fn, {}, 4)
    assert seen == ["ignore", "ignore"]


def test_the_worker_has_exited_when_the_shards_return():
    # only then has glibc put its malloc arena back for the next worker
    if T._shard_threads() is None or not os.path.isdir("/proc/self/task"):
        pytest.skip("no worker thread, or no per-thread entries to look at")
    ids = []

    def fn(leaves, rows):
        if rows.start:  # shard 1, on the worker
            ids.append(threading.get_native_id())
        return (T.constant(np.zeros(rows.stop - rows.start)),)

    for _ in range(20):
        T.shards(fn, {}, 2)
        assert not os.path.exists(f"/proc/self/task/{ids[-1]}")
    assert len(set(ids)) > 1


def _process_state():
    return blas_threads(), threading.active_count()


@pytest.mark.parametrize("half", [0, 1])
def test_a_raising_shard_raises_here_and_restores_the_process(half):
    policy = Policy.init(CFG, seed=7)
    obs, task_ids, chunks, valid = make_batch(8, 6)
    task_ids[3 * half] = -1
    before = _process_state()
    with pytest.raises(ConfigError, match="task id -1"):
        policy.loss(obs, task_ids, chunks, valid, make_rng(9, "d"))
    assert _process_state() == before


def test_a_raising_backward_restores_the_process():
    w = T.param(np.ones(2))

    def fail(_g):
        raise ValueError("rule failed")

    def fn(leaves, rows):
        return (T.reshape(T.tsum(T._make(leaves["w"].data.copy(), (leaves["w"],), fail)), (1,)),)

    (out,) = T.shards(fn, {"w": w}, 2)
    before = _process_state()
    with pytest.raises(ValueError, match="rule failed"):
        T.backward(T.tsum(out))
    assert _process_state() == before


def test_loss_and_its_backward_restore_the_process():
    policy = Policy.init(CFG, seed=10)
    before = _process_state()
    out, _ = policy.loss(*make_batch(11, 8), make_rng(12, "d"))
    assert _process_state() == before
    T.backward(out.total)
    assert _process_state() == before


def test_train_restores_the_process(tmp_path):
    dataset = generate_dataset(make_suite(2, 2, seed=0), episodes_per_task=2,
                               max_horizon=CFG.max_horizon, seed=0)
    cfg = TrainConfig(model=replace(CFG, obs_dim=7, n_tasks=16), iterations=2, warmup=1,
                      batch_size=6, checkpoint_every=1)
    before = _process_state()
    train(prepare_policy(cfg, dataset), dataset, cfg, metrics_path=tmp_path / "m.jsonl",
          checkpoint_dir=tmp_path)
    assert _process_state() == before


def _no_shards(*_args):
    raise AssertionError("inference reached the shard machinery")


@pytest.mark.parametrize("head", hd.HEAD_TYPES)
def test_predict_never_reaches_the_shards(monkeypatch, head):
    policy = Policy.init(replace(CFG, head=head), seed=13).detached()
    monkeypatch.setattr(T, "_run_shards", _no_shards)
    monkeypatch.setattr(T, "_shard_threads", _no_shards)
    before = _process_state()
    for b in (1, 64):
        obs, task_ids, _, _ = make_batch(14, b)
        policy.predict(obs, task_ids, rng=make_rng(15, "n"))
        assert _process_state() == before


def test_evaluate_never_reaches_the_shards(monkeypatch):
    cfg = replace(ModelConfig(head="classification"), layers=1, d_model=16, d_ff=32,
                  encoder_hidden=16, heads=2)
    policy = Policy.init(cfg, seed=16).detached()
    monkeypatch.setattr(T, "_run_shards", _no_shards)
    monkeypatch.setattr(T, "_shard_threads", _no_shards)
    before = _process_state()
    evaluate(policy, make_suite(seed=0)[::8], 1, FixedPrefixExecutor(5), seed=0)
    assert _process_state() == before


def test_import_starts_no_thread_and_finds_no_library():
    code = ("import threading\n"
            "import horizonmix, horizonmix.cli, horizonmix.training\n"
            "from horizonmix import tensor\n"
            "print(threading.active_count(), tensor._openblas_threads.cache_info().currsize)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.split() == ["1", "0"]
