"""Environment, expert, dataset, and evaluator tests."""

import copy
import csv
import hashlib
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from horizonmix.envbench import env as env_module
from horizonmix.envbench.env import (Course, EnvConstants, OBS_DIM,
                                     PointMassEnv, TaskSpec, make_suite,
                                     step_rows, swept_hits)
from horizonmix.envbench.expert import (ExpertGains, demo_draws, expert_action,
                                        run_expert_episodes)
from horizonmix.checkpoint import load_arrays, save_arrays
from horizonmix.envbench.dataset import (generate_dataset, load_dataset,
                                         save_dataset, windows)
from horizonmix.envbench.evaluate import (ConsensusExecutor, FixedPrefixExecutor,
                                          evaluate, executor_from_name, run_episode,
                                          write_success_csv)
from horizonmix.consensus import ConsensusConfig
from horizonmix.errors import CheckpointFormatError, ConfigError
from horizonmix.mixture import build_horizon_set, validity_grid
from horizonmix.policy import ModelConfig, Policy
from horizonmix.rng import make_rng

import oracles

SUITE = make_suite(8, 8, seed=0)


class ExpertOracle:
    """Expert wrapped behind the policy interface.

    Decodes position/velocity from the observation, infers waypoint progress
    from the remaining fraction, and simulates the expert forward on the
    noise-free dynamics to fill a chunk.  With zero observation noise this
    reproduces the expert exactly.
    """

    def __init__(self, tasks, max_horizon=30, stride=3,
                 constants=EnvConstants(obs_noise=0.0)):
        self.tasks = {t.task_id: t for t in tasks}
        self.horizons = build_horizon_set(max_horizon, stride)
        self.gains = ExpertGains()
        self.constants = constants
        self.cfg = SimpleNamespace(obs_dim=OBS_DIM, d_a=2,
                                   n_tasks=max(self.tasks) + 1)

    def predict(self, obs, task_ids, rng=None, need_per_horizon=True):
        c = self.constants
        batch = obs.shape[0]
        h_max = self.horizons.max_horizon
        fused = np.zeros((batch, h_max, 2))
        for b in range(batch):
            task = self.tasks[int(task_ids[b])]
            pos = obs[b, 0:2].copy()
            vel = obs[b, 2:4].copy()
            k = len(task.waypoints)
            next_idx = int(round((1.0 - obs[b, 6]) * k))
            for j in range(h_max):
                a = oracles.expert_action(task, pos, vel, min(next_idx, k - 1),
                                          self.gains, c)
                fused[b, j] = a
                vel = c.damping * (vel + a * c.dt)
                pos = pos + vel * c.dt
                while (next_idx < k and
                       np.linalg.norm(pos - np.asarray(task.waypoints[next_idx]))
                       <= task.radius):
                    next_idx += 1
        n = len(self.horizons)
        per_h = (np.repeat(fused[:, None], n, axis=1)
                 if need_per_horizon else None)
        grid = validity_grid(self.horizons).astype(np.float64)
        alpha = grid / grid.sum(axis=1, keepdims=True)
        alpha = np.broadcast_to(alpha, (batch, h_max, n)).copy()
        return fused, per_h, alpha


def small_policy(**overrides):
    base = dict(head="flow", layers=1, heads=2, d_model=16, d_ff=32,
                context_tokens=2, encoder_hidden=16, max_horizon=6, stride=3,
                obs_dim=OBS_DIM, n_tasks=16, d_a=2, bins=8, ode_steps=2)
    base.update(overrides)
    return Policy.init(ModelConfig(**base), seed=0)


def expert(task, pos, vel, next_idx, mode=1.0, constants=EnvConstants()):
    """``expert_action`` for one episode of ``task``, on a detour side of
    ``mode`` at every leg."""
    return expert_action(Course.of([task]), pos[None], vel[None],
                         np.array([next_idx]),
                         np.full((1, len(task.waypoints)), mode),
                         constants=constants)[0]


def _after_fast_step(obstacles):
    """Noise-free env from (0, 0) after one full-thrust step, which lands at
    (0.6, 0)."""
    task = TaskSpec(task_id=0, family="waypoint-chain", start=(0.0, 0.0),
                    waypoints=((1.0, 0.0),), radius=0.05, max_steps=50,
                    obstacles=obstacles)
    env = PointMassEnv(task, make_rng(0, "t"),
                       EnvConstants(obs_noise=0.0, start_jitter=0.0))
    env.step(np.array([1.0, 0.0]))
    return env


class TestEnv:

    def test_observation_layout(self):
        task = SUITE[0]
        env = PointMassEnv(task, make_rng(0, "t"),
                           EnvConstants(obs_noise=0.0, start_jitter=0.0))
        obs = env.observe()
        assert obs.shape == (OBS_DIM,)
        np.testing.assert_array_equal(obs[0:2], task.start)
        np.testing.assert_array_equal(obs[2:4], 0.0)
        np.testing.assert_array_equal(obs[4:6], task.waypoints[0])
        assert obs[6] == 1.0

    def test_noise_only_on_pos_vel(self):
        task = SUITE[0]
        env = PointMassEnv(task, make_rng(0, "t"), EnvConstants())
        obs = env.observe()
        np.testing.assert_array_equal(obs[4:6], task.waypoints[0])
        assert obs[6] == 1.0
        assert not np.array_equal(obs[0:2], env.pos)

    def test_dynamics_update(self):
        task = SUITE[0]
        c = EnvConstants(obs_noise=0.0, start_jitter=0.0)
        env = PointMassEnv(task, make_rng(0, "t"), c)
        p0 = env.pos.copy()
        env.step(np.array([0.5, -0.2]))
        vel = c.damping * np.array([0.5, -0.2])
        np.testing.assert_allclose(env.vel, vel)
        np.testing.assert_allclose(env.pos, p0 + vel)

    def test_action_clipping_keeps_state_finite(self):
        task = SUITE[0]
        env = PointMassEnv(task, make_rng(0, "t"))
        rng = np.random.default_rng(1)
        while not env.done:
            env.step(rng.normal(0.0, 50.0, size=2))
        assert np.all(np.isfinite(env.pos)) and np.all(np.isfinite(env.vel))

    def test_waypoint_advance_and_success(self):
        task = TaskSpec(task_id=0, family="waypoint-chain", start=(0.0, 0.0),
                        waypoints=((0.0, 0.0), (1.0, 1.0)), radius=0.1,
                        max_steps=10)
        env = PointMassEnv(task, make_rng(0, "t"),
                           EnvConstants(obs_noise=0.0, start_jitter=0.0))
        # Starts on top of the first waypoint but advance happens after a step.
        assert env.next_idx == 0
        env.step(np.zeros(2))
        assert env.next_idx == 1
        assert not env.done

    def test_timeout_marks_failure(self):
        task = TaskSpec(task_id=0, family="precision-reach", start=(0.0, 0.0),
                        waypoints=((0.9, 0.9),), radius=0.02, max_steps=3)
        env = PointMassEnv(task, make_rng(0, "t"))
        for _ in range(3):
            env.step(np.zeros(2))
        assert env.done and not env.success
        with pytest.raises(ConfigError):
            env.step(np.zeros(2))

    def test_same_rng_state_replays_identically(self):
        task = SUITE[3]
        runs = []
        for _ in range(2):
            env = PointMassEnv(task, make_rng(5, "replay"))
            traj = [env.observe()]
            for _ in range(10):
                obs, _ = env.step(np.array([0.1, 0.0]))
                traj.append(obs)
            runs.append(np.asarray(traj))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_suite_is_deterministic_and_in_bounds(self):
        a = make_suite(8, 8, seed=0)
        b = make_suite(8, 8, seed=0)
        assert a == b
        assert [t.task_id for t in a] == list(range(16))
        for t in a:
            for w in t.waypoints:
                assert 0.05 < w[0] < 0.95 and 0.05 < w[1] < 0.95
        chains = [t for t in a if t.family == "waypoint-chain"]
        assert all(len(t.waypoints) == 4 for t in chains)
        assert all(t.radius == EnvConstants().waypoint_radius for t in chains)
        assert all(len(t.obstacles) == len(t.waypoints) for t in chains)
        precisions = [t for t in a if t.family == "precision-reach"]
        assert all(t.radius == EnvConstants().precision_radius for t in precisions)
        assert all(t.obstacles == () for t in precisions)

    def test_bad_task_rejected(self):
        with pytest.raises(ConfigError):
            TaskSpec(task_id=0, family="juggling", start=(0.0, 0.0),
                     waypoints=((0.5, 0.5),), radius=0.1, max_steps=5)
        with pytest.raises(ConfigError):
            TaskSpec(task_id=0, family="precision-reach", start=(0.0, 0.0),
                     waypoints=(), radius=0.1, max_steps=5)

    def test_collision_terminates_as_failure(self):
        task = TaskSpec(task_id=0, family="waypoint-chain", start=(0.0, 0.0),
                        waypoints=((1.0, 0.0),), radius=0.05, max_steps=50,
                        obstacles=((0.5, 0.0, 0.1),))
        env = PointMassEnv(task, make_rng(0, "t"),
                           EnvConstants(obs_noise=0.0, start_jitter=0.0))
        while not env.done:
            env.step(np.array([0.2, 0.0]))
        assert env.collided and not env.success
        assert env.steps < task.max_steps

    def test_collision_checks_swept_segment(self):
        # A fast step that jumps across the obstacle still counts as a hit.
        env = _after_fast_step(((0.35, 0.0, 0.02),))
        assert env.collided and env.done

    def test_sweep_finds_the_one_crossed_circle_of_four(self):
        # Only the last circle is crossed, so a slip in indexing the circles
        # misses it.
        env = _after_fast_step(((0.35, 0.3, 0.02), (0.2, -0.3, 0.02),
                                (0.8, 0.0, 0.02), (0.45, 0.01, 0.02)))
        assert env.collided and env.done

    def test_step_just_clear_of_every_circle_does_not_collide(self):
        # Each circle is passed, beside the step or past its end, at just
        # over its radius.
        env = _after_fast_step(((0.15, 0.02 + 1e-12, 0.02),
                                (0.3, -0.03 - 1e-12, 0.03),
                                (0.45, 0.01 + 1e-9, 0.01),
                                (0.62 + 1e-12, 0.0, 0.02)))
        np.testing.assert_array_equal(env.pos, [0.6, 0.0])
        assert not env.collided and not env.done

    def test_collision_on_a_reaching_step_is_no_success(self):
        # A full-thrust step from (0, 0) lands at (0.6, 0), inside the
        # waypoint's radius, after crossing a circle: the episode ends as a
        # collision and keeps its waypoint index, in the env and in a
        # lockstep step beside a row whose circle is off the path.
        task = TaskSpec(task_id=0, family="waypoint-chain", start=(0.0, 0.0),
                        waypoints=((0.6, 0.0),), radius=0.05, max_steps=50,
                        obstacles=((0.35, 0.0, 0.02),))
        c = EnvConstants(obs_noise=0.0, start_jitter=0.0)
        env = PointMassEnv(task, make_rng(0, "t"), c)
        obs, done = env.step(np.array([1.0, 0.0]))
        assert done and env.collided and not env.success
        assert env.next_idx == 0
        np.testing.assert_array_equal(obs[4:], [0.6, 0.0, 1.0])
        clear = replace(task, obstacles=((0.35, 0.5, 0.02),))
        pos, _vel, next_idx, collided, success, done = step_rows(
            np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2, dtype=np.int64),
            np.array([[1.0, 0.0], [1.0, 0.0]]), 1, Course.of([task, clear]), c)
        np.testing.assert_array_equal(pos, [[0.6, 0.0], [0.6, 0.0]])
        assert collided.tolist() == [True, False]
        assert success.tolist() == [False, True]
        assert done.tolist() == [True, True]
        assert next_idx.tolist() == [0, 1]

    def test_step_ending_on_a_waypoint_radius_reaches_it(self):
        task = TaskSpec(task_id=0, family="precision-reach", start=(0.0, 0.0),
                        waypoints=((0.05, 0.0),), radius=0.05, max_steps=5)
        env = PointMassEnv(task, make_rng(0, "t"),
                           EnvConstants(obs_noise=0.0, start_jitter=0.0))
        env.step(np.zeros(2))
        assert env.success and env.next_idx == 1

    def test_one_length_rule(self):
        # Every collision, waypoint and keep-out decision compares
        # np.sqrt(np.vecdot(v, v)) with a threshold, and the scalar rules
        # it replaced compared np.linalg.norm(v) or math.sqrt(v.dot(v)).  The
        # three must be the same float for every 2-vector: random ones, tiny
        # and huge ones, and ones within a few ulps of each threshold.
        rng = np.random.default_rng(7)
        c = EnvConstants()
        thresholds = [c.obstacle_radius, c.obstacle_radius + c.obstacle_path_gap,
                      c.obstacle_waypoint_gap, c.waypoint_radius,
                      c.precision_radius, 0.1, 0.5]
        n = 25_000
        angle = rng.uniform(0.0, 2.0 * np.pi, 3 * n)
        unit = np.column_stack([np.cos(angle), np.sin(angle)])
        near = rng.choice(thresholds, n) * (
            1.0 + rng.integers(-4, 5, n) * np.finfo(float).eps)
        magnitude = np.concatenate([10.0 ** rng.uniform(-150.0, -3.0, n),
                                    10.0 ** rng.uniform(3.0, 150.0, n), near])
        v = np.concatenate([rng.uniform(-1.0, 1.0, (n, 2)),
                            magnitude[:, None] * unit])
        lengths = np.sqrt(np.vecdot(v, v))
        assert lengths.tobytes() == np.array(
            [np.linalg.norm(row) for row in v]).tobytes()
        assert lengths.tobytes() == np.array(
            [math.sqrt(row.dot(row)) for row in v]).tobytes()
        # the sample holds exact ties with every threshold
        at_threshold = [np.sum(lengths[3 * n:] == t) for t in thresholds]
        assert min(at_threshold) > 0

    def test_swept_hit_matches_scalar_rule(self):
        # Random steps against 1-4 random circles, all in one batch, so
        # shorter rows are padded.  A quarter of the steps have zero length
        # and a quarter end exactly on a circle.  In the zero-length quarter
        # and one more, one circle's radius is its scalar distance from the
        # step to within 1e-12 or a few ulps.
        rng = np.random.default_rng(0)
        tasks, starts, ends, expected = [], [], [], []
        for case in range(10_000):
            n = int(rng.integers(1, 5))
            circles = np.column_stack([rng.uniform(0.0, 1.0, (n, 2)),
                                       rng.uniform(0.01, 0.1, n)])
            p0 = rng.uniform(0.0, 1.0, 2)
            p1 = p0 + rng.normal(0.0, 0.3, 2)
            k = int(rng.integers(n))
            if case % 4 == 0:
                p1 = p0.copy()
            elif case % 4 == 1:
                angle = rng.uniform(0.0, 2.0 * np.pi)
                p1 = circles[k, :2] + circles[k, 2] * np.array(
                    [np.cos(angle), np.sin(angle)])
            if case % 4 in (0, 3):
                dist = oracles.point_seg_dist(circles[k, :2], p0, p1)
                ulp = np.spacing(dist)
                circles[k, 2] = dist + rng.choice(
                    [-1e-12, 1e-12, 0.0, ulp, -ulp, 3.0 * ulp])
            obstacles = tuple(tuple(map(float, row)) for row in circles)
            tasks.append(TaskSpec(task_id=0, family="waypoint-chain",
                                  start=(0.5, 0.5), waypoints=((1.0, 0.0),),
                                  radius=0.05, max_steps=5, obstacles=obstacles))
            starts.append(p0)
            ends.append(p1)
            expected.append(any(oracles.segment_hits(p0, p1, ob)
                                for ob in obstacles))
        hits = swept_hits(np.array(starts), np.array(ends), Course.of(tasks))
        np.testing.assert_array_equal(hits, expected)
        assert 2_000 < hits.sum() < 8_000

    def test_layout_check_matches_scalar_rule(self):
        # Two-leg layouts with the first leg's obstacle.  Two thirds of them
        # place it, to within 1e-12 or a few ulps, at the keep-out distance
        # from the apex of the second leg's detour or at the waypoint gap
        # from its end waypoint.  Every tenth second leg is degenerate
        # (shorter than 1e-9).
        rng = np.random.default_rng(1)
        c = EnvConstants()
        keepout = c.obstacle_radius + c.obstacle_path_gap
        accepted = 0
        for case in range(10_000):
            start, mid = rng.uniform(0.1, 0.9, (2, 2))
            heading = rng.uniform(0.0, 2.0 * np.pi)
            unit = np.array([np.cos(heading), np.sin(heading)])
            end = mid + (1e-10 if case % 10 == 0
                         else rng.uniform(0.34, 0.42)) * unit
            centre = 0.5 * (start + mid)
            offset = rng.choice([-1e-12, 1e-12, 0.0, 1e-17, -1e-17, 3e-17])
            if case % 3 == 1:
                mode = rng.choice([1.0, -1.0])
                apex = oracles.detour_point(mid, end, 0.5, mode, c.detour_bulge)
                outward = mode * np.array([-unit[1], unit[0]])
                centre = apex + (keepout + offset) * outward
            elif case % 3 == 2:
                centre = end + (c.obstacle_waypoint_gap + offset) * unit
            pts = [start, mid, end]
            expected = oracles.chain_layout_ok(pts, [centre], c)
            assert env_module._chain_layout_ok(pts, [centre], c) == expected
            accepted += expected
        assert 2_000 < accepted < 8_000

    def test_suite_equals_the_suite_of_the_scalar_layout_check(self, monkeypatch):
        suites = [make_suite(seed=s) for s in range(16)]
        monkeypatch.setattr(env_module, "_chain_layout_ok",
                            oracles.chain_layout_ok)
        assert suites == [make_suite(seed=s) for s in range(16)]

    def test_detour_side_passes_obstacle(self):
        task = TaskSpec(task_id=0, family="waypoint-chain", start=(0.0, 0.0),
                        waypoints=((1.0, 0.0),), radius=0.05, max_steps=50,
                        obstacles=((0.5, 0.0, 0.1),))
        env = PointMassEnv(task, make_rng(0, "t"),
                           EnvConstants(obs_noise=0.0, start_jitter=0.0))
        while not env.done:
            env.step(expert(task, env.pos, env.vel, env.next_idx, mode=-1.0))
        assert env.success and not env.collided

    def test_obstacles_clear_of_foreign_detours(self):
        # Layout sampling promise: only an obstacle's own leg must dodge it.
        for seed in range(4):
            for task in make_suite(0, 4, seed=seed):
                c = EnvConstants()
                pts = [np.asarray(task.start)] + [np.asarray(w)
                                                  for w in task.waypoints]
                for k, ob in enumerate(task.obstacles):
                    centre, r = np.asarray(ob[:2]), ob[2]
                    for j in range(len(pts) - 1):
                        if j == k:
                            continue
                        for mode in (1.0, -1.0):
                            d = min(np.linalg.norm(
                                oracles.detour_point(pts[j], pts[j + 1], s, mode,
                                                     c.detour_bulge) - centre)
                                for s in np.linspace(0.0, 1.0, 21))
                            assert d >= r + c.obstacle_path_gap

    def test_straight_line_tracker_collides_on_every_chain_task(self):
        # Averaging the two detours gives the straight line between
        # waypoints; the circle on the leg must stop a policy that flies it.
        straight = EnvConstants(detour_bulge=0.0)
        for seed in range(4):
            for task in make_suite(0, 8, seed=seed):
                env = PointMassEnv(task, make_rng(seed, "straight",
                                                  str(task.task_id)))
                while not env.done:
                    env.step(expert(task, env.pos, env.vel, env.next_idx,
                                    constants=straight))
                assert env.collided


class TestExpert:

    def test_success_rate_fixture(self):
        *_rest, success = run_expert_episodes(SUITE, 13, 2024)
        assert len(success[:200]) == 200
        assert np.mean(success[:200]) >= 0.99

    def test_zero_action_at_target(self):
        task = SUITE[0]
        pos = np.asarray(task.waypoints[0])
        a = expert(task, pos, np.zeros(2), 0)
        np.testing.assert_array_equal(a, 0.0)

    def test_precision_episodes_shorter_than_chains(self):
        _obs, _actions, steps, _success = run_expert_episodes(SUITE, 5, 11)
        chain = np.repeat([t.family == "waypoint-chain" for t in SUITE], 5)
        assert np.mean(steps[~chain]) < np.mean(steps[chain])

    def test_deadbeat_velocity_tracking(self):
        task = SUITE[0]
        c = EnvConstants(obs_noise=0.0, start_jitter=0.0)
        env = PointMassEnv(task, make_rng(0, "t"), c)
        pos = env.pos.copy()
        env.step(expert(task, pos, env.vel, env.next_idx, constants=c))
        to_t = np.asarray(task.waypoints[0]) - pos
        v_des = to_t / np.linalg.norm(to_t) * min(
            ExpertGains().v_cruise,
            ExpertGains().k_slow * np.linalg.norm(to_t))
        np.testing.assert_allclose(env.vel, v_des, atol=1e-12)


def _stored_dataset(root):
    save_dataset(generate_dataset(SUITE[:1], episodes_per_task=2, max_horizon=6,
                                  seed=1), root)
    return root / "data.bin"


# edits of a stored dataset's arrays that load_dataset must refuse
MALFORMED = {
    "missing-valid": lambda a: {k: v for k, v in a.items() if k != "valid"},
    "extra-array": lambda a: {**a, "extra": np.zeros(len(a["chunks"]))},
    "chunks-rows": lambda a: {**a, "chunks": a["chunks"][:10]},
    "observations-rows": lambda a: {**a, "observations": a["observations"][:10]},
    "task-ids-rows": lambda a: {**a, "task_ids": a["task_ids"][:10]},
    "valid-columns": lambda a: {**a, "valid": a["valid"][:, :3]},
    "chunks-2d": lambda a: {**a, "chunks": a["chunks"][:, :, 0]},
    "float-task-ids": lambda a: {**a, "task_ids": a["task_ids"].astype(np.float64)},
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# What make_suite and generate_dataset produced before they ran at array
# speed.  A stored --data directory is reused whenever its provenance
# matches, which these bits are not part of, so they must not move
# silently: a change that means to move them updates these constants and
# says so in CHANGES.md.
SUITE_DIGESTS = ["7f963d608c25181b", "f08a776c13186465", "72db78b2a96fcc43",
                 "8e652acd0ef0dee3", "afade2d564a2de4c", "1597ce11280ed971",
                 "4d3aa16bd9e16bc7", "0105d5bc1bd19911"]
DATASET_DIGESTS = {"observations": ("<f4", (438, 7), "bee133dea903470b"),
                   "task_ids": ("<i8", (438,), "5ad8d4bf59cfe7a3"),
                   "chunks": ("<f4", (438, 30, 2), "32e9c510f107afe0"),
                   "valid": ("<f4", (438, 30), "f905bf1d05eb2e7b")}


def test_suite_and_dataset_bits_are_pinned():
    assert [_digest(repr(make_suite(seed=s)).encode())
            for s in range(8)] == SUITE_DIGESTS
    dataset = generate_dataset(make_suite(seed=0), 2, 30, seed=0)
    assert {name: (a.dtype.str, a.shape, _digest(a.tobytes()))
            for name in DATASET_DIGESTS
            for a in [getattr(dataset, name)]} == DATASET_DIGESTS


class TestDataset:

    def test_window_count_and_padding_flags(self):
        obs = np.zeros((1, 7, OBS_DIM))
        actions = np.arange(14, dtype=np.float64).reshape(1, 7, 2)
        _obs, chunks, valid, _episode = windows(obs, actions, np.array([7]),
                                                max_horizon=5)
        actions = actions[0]
        assert chunks.shape == (7, 5, 2)
        # Window at start t has max(0, t + H - L) padded rows.
        for t in range(7):
            n_real = min(5, 7 - t)
            np.testing.assert_array_equal(valid[t, :n_real], 1.0)
            np.testing.assert_array_equal(valid[t, n_real:], 0.0)
            np.testing.assert_allclose(chunks[t, :n_real],
                                       actions[t:t + n_real])
            for j in range(n_real, 5):
                np.testing.assert_array_equal(chunks[t, j], actions[6])

    def test_generation_bit_identical(self):
        tasks = SUITE[:2] + SUITE[8:10]
        a = generate_dataset(tasks, episodes_per_task=3, max_horizon=10,
                             seed=4)
        b = generate_dataset(tasks, episodes_per_task=3, max_horizon=10,
                             seed=4)
        np.testing.assert_array_equal(a.observations, b.observations)
        np.testing.assert_array_equal(a.chunks, b.chunks)
        np.testing.assert_array_equal(a.valid, b.valid)
        np.testing.assert_array_equal(a.task_ids, b.task_ids)
        assert a.manifest == b.manifest
        assert a.manifest["skipped_episodes"] == 0
        assert a.manifest["n_windows"] == len(a)

    def test_failed_episodes_skipped(self):
        impossible = TaskSpec(task_id=1, family="precision-reach",
                              start=(0.1, 0.1), waypoints=((0.9, 0.9),),
                              radius=0.02, max_steps=2)
        ds = generate_dataset([SUITE[0], impossible], episodes_per_task=2,
                              max_horizon=4, seed=0)
        assert ds.manifest["skipped_episodes"] == 2
        assert np.all(ds.task_ids == SUITE[0].task_id)

    def test_save_load_roundtrip(self, tmp_path):
        ds = generate_dataset(SUITE[:1], episodes_per_task=2, max_horizon=6,
                              seed=1)
        save_dataset(ds, tmp_path / "demo")
        back = load_dataset(tmp_path / "demo")
        np.testing.assert_array_equal(ds.observations, back.observations)
        np.testing.assert_array_equal(ds.chunks, back.chunks)
        np.testing.assert_array_equal(ds.valid, back.valid)
        np.testing.assert_array_equal(ds.task_ids, back.task_ids)
        assert ds.manifest == back.manifest
        assert ds.observations.dtype == np.float32
        first = (tmp_path / "demo" / "data.bin").read_bytes()
        save_dataset(back, tmp_path / "demo")
        assert (tmp_path / "demo" / "data.bin").read_bytes() == first

    def test_missing_dataset_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nowhere")

    @pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_arrays_are_typed_error(self, tmp_path, edit):
        path = _stored_dataset(tmp_path)
        arrays, manifest = load_arrays(path)
        save_arrays(path, edit(arrays), manifest)
        with pytest.raises(CheckpointFormatError, match="data.bin: not a dataset"):
            load_dataset(tmp_path)

    def test_manifest_not_a_dict_is_typed_error(self, tmp_path):
        path = _stored_dataset(tmp_path)
        arrays, manifest = load_arrays(path)
        save_arrays(path, arrays, [manifest])
        with pytest.raises(CheckpointFormatError, match="data.bin: not a dataset"):
            load_dataset(tmp_path)


def _assert_same_dataset(a, b):
    for name in ("observations", "task_ids", "chunks", "valid"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name
    assert a.manifest == b.manifest


class TestLockstep:
    """Lockstep demonstrations equal the per-episode rollouts they replaced,
    bit for bit."""

    @staticmethod
    def assert_same_rollouts(tasks, episodes_per_task, seed, max_horizon):
        """Every float64 rollout and the dataset windowed from them."""
        rollouts = [oracles.run_expert_episode(task, seed, ep)
                    for task in tasks for ep in range(episodes_per_task)]
        obs, actions, lengths, success = run_expert_episodes(
            tasks, episodes_per_task, seed)
        for e, (ref_obs, ref_actions, ref_success, steps) in enumerate(rollouts):
            assert (lengths[e], success[e]) == (steps, ref_success)
            assert obs[e, :steps].tobytes() == ref_obs.tobytes()
            assert actions[e, :steps].tobytes() == ref_actions.tobytes()
        _assert_same_dataset(
            generate_dataset(tasks, episodes_per_task, max_horizon, seed=seed),
            oracles.generate_dataset(tasks, episodes_per_task, max_horizon,
                                     seed=seed, rollouts=rollouts))
        return lengths, success

    @pytest.mark.parametrize("seed", range(16))
    def test_dataset_equals_per_episode_rollouts(self, seed):
        self.assert_same_rollouts(make_suite(seed=seed), 4, seed, 30)

    def test_timeouts_and_collisions_equal_per_episode_rollouts(self):
        # Budgets just under the expert's episode lengths, and a chain leg
        # whose circle is wider than the detour, so episodes end in all
        # three ways within one batch of tasks with 1 and 4 waypoints.
        wall = TaskSpec(task_id=16, family="waypoint-chain", start=(0.5, 0.5),
                        waypoints=((0.85, 0.5),), radius=0.08, max_steps=30,
                        obstacles=((0.675, 0.5, 0.2),))
        tasks = [replace(SUITE[0], max_steps=6), replace(SUITE[2], max_steps=5),
                 replace(SUITE[8], max_steps=21), replace(SUITE[10], max_steps=21),
                 wall]
        lengths, success = self.assert_same_rollouts(tasks, 4, 0, 10)
        budgets = np.repeat([t.max_steps for t in tasks], 4)
        assert success.any()
        assert (~success & (lengths == budgets)).any()  # timed out
        assert (~success & (lengths < budgets)).any()   # collided

    def test_expert_action_equals_scalar_expert(self):
        # Random states of one batch: on chain legs whose Python length ** 2
        # differs from length * length, on degenerate (1e-10) second legs,
        # and on precision tasks, past both ends of a leg and before them.
        rng = np.random.default_rng(3)
        tasks = []
        while len(tasks) < 24:
            start, first, second = rng.uniform(0.1, 0.9, (3, 2))
            length = float(np.linalg.norm(first - start))
            if length ** 2 == length * length:
                continue
            if len(tasks) % 4 == 3:
                second = first + 1e-10
            family = "precision-reach" if len(tasks) % 4 == 2 else "waypoint-chain"
            tasks.append(TaskSpec(task_id=len(tasks), family=family,
                                  start=tuple(start), radius=0.08, max_steps=30,
                                  waypoints=(tuple(first), tuple(second))))
        rows = np.repeat(np.arange(len(tasks)), 50)
        course = Course.of(tasks).take(rows)
        next_idx = rng.integers(0, 3, len(rows))
        i = np.minimum(next_idx, 1)
        progress = rng.uniform(-0.2, 1.2, (len(rows), 1))
        pos = (course.leg_start[np.arange(len(rows)), i]
               + progress * course.leg[np.arange(len(rows)), i]
               + rng.normal(0.0, 0.05, (len(rows), 2)))
        vel = rng.normal(0.0, 0.05, (len(rows), 2))
        modes = rng.choice([-1.0, 1.0], (len(rows), 2))
        expected = [oracles.expert_action(tasks[r], pos[e], vel[e], next_idx[e],
                                          mode=modes[e, i[e]], next_mode=modes[e, 1])
                    for e, r in enumerate(rows)]
        got = expert_action(course, pos, vel, next_idx, modes)
        assert got.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("task", [SUITE[0], SUITE[9]], ids=lambda t: t.family)
    def test_noise_block_equals_per_observation_draws(self, task):
        c = EnvConstants()
        for ep in range(3):
            modes, jitter, noise = demo_draws(task, 5, ep)
            rng = make_rng(5, "demo", task.family, str(task.task_id), str(ep))
            np.testing.assert_array_equal(
                modes, np.where(rng.random(len(task.waypoints)) < 0.5, 1.0, -1.0))
            np.testing.assert_array_equal(
                jitter, rng.uniform(-c.start_jitter, c.start_jitter, size=2))
            np.testing.assert_array_equal(
                noise, [rng.normal(0.0, c.obs_noise, size=4)
                        for _ in range(task.max_steps + 1)])


NOISELESS = EnvConstants(obs_noise=0.0)


# What run_episode and evaluate produced when each episode stepped through
# its own scalar environment code, before the env took a leading episode
# axis; episode records, traces and tables must not move.
EPISODE_DIGESTS = {"flow": ("280b3daa3d06a225", "ff5130693e3de2f2"),
                   "classification": ("6132af2dfdb80ab6", "280809c7c48b6cb7")}


def _prediction_lines(path) -> bytes:
    """The trace as it was once written, one line per consensus prediction
    (none for a fixed prefix), rebuilt from the one line per episode."""
    out = b""
    for episode in map(json.loads, path.read_text().splitlines()):
        for p, entry in enumerate(episode["consensus"] or ()):
            out += (json.dumps({
                "task_id": episode["task_id"], "trial": episode["trial"], "prediction": p,
                "executed": episode["prefix_lengths"][p],
                "selected": episode["selected_prefixes"][p],
                "threshold": entry["threshold"], "disagreements": entry["disagreements"],
                "active_counts": entry["active_counts"]}) + "\n").encode()
    return out


@pytest.mark.parametrize("head", EPISODE_DIGESTS)
def test_episode_records_and_tables_are_pinned(head, tmp_path):
    policy = small_policy(head=head)
    executor = (ConsensusExecutor(ConsensusConfig(min_steps=2, min_active=1))
                if head == "flow" else FixedPrefixExecutor(3))
    records = hashlib.sha256()
    for task in (SUITE[0], SUITE[9]):
        for trial in range(2):
            rec = run_episode(policy, task, 4, trial, executor)
            records.update(rec.observations.tobytes() + rec.actions.tobytes())
            records.update(repr((rec.prefix_lengths, rec.selected_prefixes,
                                 rec.success, rec.steps)).encode())
    with open(tmp_path / "trace.jsonl", "w") as trace:
        rows = evaluate(policy, SUITE[:2] + SUITE[8:10], 2, executor, seed=1, trace=trace)
    tables = json.dumps(rows).encode() + _prediction_lines(tmp_path / "trace.jsonl")
    assert (records.hexdigest()[:16], _digest(tables)) == EPISODE_DIGESTS[head]


class TestEvaluate:

    def test_oracle_matches_expert(self):
        oracle = ExpertOracle(SUITE, constants=NOISELESS)
        rows = evaluate(oracle, SUITE, trials=3, executor=FixedPrefixExecutor(1),
                        seed=3, constants=NOISELESS)
        for row in rows:
            assert row["success_rate"] == 1.0
            assert row["mean_prefix"] == 1.0

    def test_single_prediction_when_prefix_covers_episode(self):
        oracle = ExpertOracle(SUITE, constants=NOISELESS)
        task = SUITE[0]
        rec = run_episode(oracle, task, seed=1, trial=0,
                          executor=FixedPrefixExecutor(30),
                          constants=NOISELESS)
        assert rec.success
        assert len(rec.prefix_lengths) == 1
        assert rec.selected_prefixes == [30]

    def test_episode_record_invariant(self):
        oracle = ExpertOracle(SUITE, constants=NOISELESS)
        for trial in range(3):
            rec = run_episode(oracle, SUITE[9], seed=7, trial=trial,
                              executor=FixedPrefixExecutor(4),
                              constants=NOISELESS)
            assert sum(rec.prefix_lengths) == len(rec.actions) == rec.steps
            assert rec.steps <= SUITE[9].max_steps
            assert rec.observations.shape == (rec.steps + 1, OBS_DIM)
            assert all(p == 4 for p in rec.selected_prefixes)

    def test_fixed_prefix_mean_equals_p(self):
        oracle = ExpertOracle(SUITE, constants=NOISELESS)
        rows = evaluate(oracle, SUITE[:2], trials=2,
                        executor=FixedPrefixExecutor(4), seed=0,
                        constants=NOISELESS)
        assert rows[0]["mean_prefix"] == 4.0

    def test_fixed_prefix_rows_name_the_prefix_run(self):
        # a max-horizon-6 policy runs 6 of the 50 steps asked for
        rows = evaluate(small_policy(), SUITE[:1], trials=1,
                        executor=FixedPrefixExecutor(50), seed=0)
        assert [r["executor"] for r in rows] == ["fixed-6"]
        assert rows[0]["mean_prefix"] == 6.0

    def test_consensus_prefix_with_agreeing_streams(self):
        # Identical per-horizon chunks never disagree, so the prefix extends
        # until fewer than min_active horizons remain: 18 for {3,...,30}.
        oracle = ExpertOracle(SUITE, constants=NOISELESS)
        executor = ConsensusExecutor(ConsensusConfig(ratio=1.1, min_steps=5,
                                                     min_active=5))
        rec = run_episode(oracle, SUITE[8], seed=2, trial=0,
                          executor=executor, constants=NOISELESS)
        assert all(p == 18 for p in rec.selected_prefixes)

    def test_consensus_mean_prefix_bounds(self):
        oracle = ExpertOracle(SUITE, constants=NOISELESS)
        executor = ConsensusExecutor(ConsensusConfig(ratio=1.3, min_steps=5,
                                                     min_active=5))
        rows = evaluate(oracle, SUITE[8:10], trials=2, executor=executor,
                        seed=0, constants=NOISELESS)
        for row in rows:
            assert 5.0 <= row["mean_prefix"] <= 30.0

    def test_evaluation_deterministic(self):
        policy = small_policy()
        rows_a = evaluate(policy, SUITE[:2], trials=2,
                          executor=FixedPrefixExecutor(3), seed=5)
        rows_b = evaluate(policy, SUITE[:2], trials=2,
                          executor=FixedPrefixExecutor(3), seed=5)
        assert rows_a == rows_b

    def test_untrained_policy_rows_valid(self):
        policy = small_policy()
        executor = ConsensusExecutor(ConsensusConfig(min_steps=2,
                                                     min_active=1))
        rows = evaluate(policy, [SUITE[0], SUITE[8]], trials=1,
                        executor=executor, seed=0)
        assert {r["family"] for r in rows} == {"precision-reach",
                                               "waypoint-chain"}
        for row in rows:
            assert 0.0 <= row["success_rate"] <= 1.0
            assert 2.0 <= row["mean_prefix"] <= 6.0

    def test_consensus_trace_lines_join_episode_records(self, tmp_path):
        policy = small_policy()
        tasks = [SUITE[0], SUITE[8]]
        consensus = ConsensusExecutor(ConsensusConfig(min_steps=2, min_active=1))
        for executor in (consensus, FixedPrefixExecutor(3)):
            with open(tmp_path / "trace.jsonl", "w") as trace:
                evaluate(policy, tasks, trials=2, executor=executor, seed=4, trace=trace)
            lines = [json.loads(line)
                     for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
            assert [(r["task_id"], r["trial"]) for r in lines] == [
                (t.task_id, trial) for t in tasks for trial in range(2)]
            for line in lines:
                task = SUITE[line["task_id"]]
                rec = run_episode(policy, task, 4, line["trial"], executor)
                assert (line["executor"], line["family"]) == (executor.name, task.family)
                assert np.array_equal(line["observations"], rec.observations)
                assert np.array_equal(line["actions"], rec.actions)
                assert line["prefix_lengths"] == rec.prefix_lengths
                assert line["selected_prefixes"] == rec.selected_prefixes
                assert (line["success"], line["steps"]) == (rec.success, rec.steps)
                if executor is consensus:
                    assert [(c["threshold"], c["active_counts"]) for c in line["consensus"]] == [
                        (t.threshold, t.active_counts.tolist()) for t in rec.traces]
                else:
                    assert line["consensus"] is None and rec.traces == []

    def test_dimension_mismatch_rejected(self):
        policy = small_policy(obs_dim=5)
        with pytest.raises(ConfigError):
            evaluate(policy, SUITE[:1], trials=1,
                     executor=FixedPrefixExecutor(2), seed=0)
        tiny = small_policy(n_tasks=2)
        with pytest.raises(ConfigError):
            evaluate(tiny, SUITE, trials=1, executor=FixedPrefixExecutor(2),
                     seed=0)

    def test_success_csv_format(self, tmp_path):
        oracle = ExpertOracle(SUITE, constants=NOISELESS)
        rows = evaluate(oracle, SUITE[:1], trials=1,
                        executor=FixedPrefixExecutor(5), seed=0,
                        constants=NOISELESS)
        path = tmp_path / "table.csv"
        write_success_csv(rows, path)
        with open(path) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["family", "executor", "success_rate",
                                         "mean_steps", "mean_prefix"]
            parsed = list(reader)
        assert parsed[0]["family"] == "precision-reach"
        assert parsed[0]["executor"] == "fixed-5"
        assert float(parsed[0]["success_rate"]) == 1.0

    def test_bad_executor_config_rejected(self):
        with pytest.raises(ConfigError):
            FixedPrefixExecutor(0)

    @pytest.mark.parametrize("executor", [
        FixedPrefixExecutor(1), FixedPrefixExecutor(30),
        *(ConsensusExecutor(ConsensusConfig(ratio=r)) for r in (1.0, 1.1, 1.3, 2))],
        ids=lambda e: e.name)
    def test_executor_name_round_trip(self, executor):
        parsed = executor_from_name(executor.name)
        assert parsed == executor and parsed.name == executor.name

    @pytest.mark.parametrize("name", ["fixed-0", "fixed-x", "fixed-2.5", "consensus-r0",
                                      "consensus-rx", "consensus-1.1", "median-3", ""])
    def test_malformed_executor_name_rejected(self, name):
        with pytest.raises(ConfigError):
            executor_from_name(name)
