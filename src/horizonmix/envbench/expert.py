"""Scripted experts for the point-mass tasks.

Both families use deadbeat velocity control: with dynamics
``vel' = damping * (vel + a)``, setting ``a = v_des / damping - vel`` reaches
the desired velocity in one step, so the expert is an exact, smooth function
of the true state and the episode's detour side.

* precision-reach: aim straight at the target with speed proportional to the
  remaining distance, which converges geometrically without overshoot.
* waypoint-chain: cruise at constant speed along the bowed detour curve of
  ``Course.detour``.  For the leg from waypoint A to B the curve is the
  straight line displaced sideways by ``mode * detour_bulge * sin(pi * s)``
  with ``s`` the fractional progress, so it passes the circle at the leg's
  midpoint on the left or on the right (``mode``) and meets both endpoints
  exactly.  Near a leg's start the two detours leave the same state heading
  for opposite sides, so the demonstrated action distribution is bimodal
  exactly where a fresh plan must commit; their average is the straight
  line, which hits the circle.  Inside the lookahead distance the aim point
  additionally slides onto the next leg, so the expert starts turning
  *before* the observation's current target switches.

The expert and its rollouts take a leading episode axis: ``expert_action``
commands every episode of a batch in one array step, and
``run_expert_episodes`` rolls all demonstrations of a suite in lockstep
through ``env.step_rows``, the step ``PointMassEnv`` takes, under the
exactness rule of ``env``.
"""

from dataclasses import dataclass

import numpy as np

from ..rng import make_rng
from .env import OBS_DIM, Course, EnvConstants, TaskSpec, observation, step_rows


@dataclass(frozen=True)
class ExpertGains:
    """Tracking gains.  The detour's bow is the environment's
    ``detour_bulge``, the curve that chain layouts keep foreign obstacles
    clear of."""

    v_cruise: float = 0.08
    k_slow: float = 0.5
    lookahead: float = 0.10
    k_track: float = 1.0


def expert_action(course: Course, pos: np.ndarray, vel: np.ndarray,
                  next_idx: np.ndarray, modes: np.ndarray,
                  gains: ExpertGains = ExpertGains(),
                  constants: EnvConstants = EnvConstants()) -> np.ndarray:
    """(n, 2) commands for n episodes from their true states.

    Row e is at ``pos[e]`` with ``vel[e]`` on course row e, heading for
    waypoint ``next_idx[e]``; ``modes[e, j]`` (+1/-1) is the side on which
    it detours around leg j."""
    c = constants
    rows = np.arange(len(pos))
    last = course.n_waypoints - 1
    i = np.minimum(next_idx, last)
    j = np.minimum(i + 1, last)
    target = course.waypoints[rows, i]
    # precision-reach: straight at the target, slowing near it
    to_target = target - pos
    slow = np.minimum(gains.v_cruise,
                      gains.k_slow * np.sqrt(np.vecdot(to_target, to_target)))
    # waypoint-chain: aim lookahead ahead on leg i's detour, or past its end
    # on leg j's, capped at half the radius so that the cut corner still
    # passes inside it even if the tracker settles on the aim point
    leg_len = course.leg_len[rows, i]
    s = np.vecdot(pos - course.leg_start[rows, i],
                  course.leg[rows, i]) / course.leg_len_sq[rows, i]
    s_aim = np.minimum(np.maximum(s, 0.0), 1.0) + (
        gains.lookahead / course.leg_len_floor[rows, i])
    on_leg = s_aim <= 1.0
    carry = np.minimum(np.minimum((s_aim - 1.0) * leg_len,
                                  course.leg_len[rows, j]), 0.5 * course.radius)
    k = np.where(on_leg, i, j)
    progress = np.where(on_leg, s_aim, carry / course.leg_len_floor[rows, j])
    side = np.where(on_leg, modes[rows, i], modes[rows, j]) * c.detour_bulge
    aim = course.detour(rows, k, progress[:, None], side[:, None])
    at_target = ~course.chain | (~on_leg & (i == last))
    aim = np.where(at_target[:, None], target, aim)
    speed = np.where(course.chain, gains.v_cruise, slow)
    offset = aim - pos
    norm = np.sqrt(np.vecdot(offset, offset))
    # Never step past the aim point; prevents orbiting it at cruise speed.
    speed = np.minimum(speed, norm)
    moving = norm > 1e-9
    v_des = np.where(moving[:, None],
                     offset * (speed / np.where(moving, norm, 1.0))[:, None], 0.0)
    a = gains.k_track * (v_des / c.damping - vel)
    return np.minimum(np.maximum(a, -c.action_limit), c.action_limit)


def demo_draws(task: TaskSpec, seed: int, episode: int,
               constants: EnvConstants = EnvConstants()):
    """An episode's random draws, from its own stream and in the order one
    rollout makes them: (modes, jitter, noise).

    ``modes`` is each leg's detour side and ``jitter`` the start offset.
    ``noise`` (max_steps + 1, 4) holds one observation's noise per row: row 0
    is the reset's observation, which the rollout does not record, and row
    t + 1 the one before step t.  The noise after the last step is never
    drawn; nothing else draws from the stream after it."""
    c = constants
    rng = make_rng(seed, "demo", task.family, str(task.task_id), str(episode))
    modes = np.where(rng.random(len(task.waypoints)) < 0.5, 1.0, -1.0)
    jitter = rng.uniform(-c.start_jitter, c.start_jitter, size=2)
    noise = rng.normal(0.0, c.obs_noise, size=(task.max_steps + 1, 4))
    return modes, jitter, noise


def run_expert_episodes(tasks: list[TaskSpec], episodes_per_task: int,
                        seed: int, gains: ExpertGains = ExpertGains(),
                        constants: EnvConstants = EnvConstants()):
    """Roll the expert through every (task, episode) in lockstep.

    Returns ``(obs, actions, lengths, success)`` with one row per episode,
    task-major: ``obs`` (E, T, 7) the noisy observation before each step,
    ``actions`` (E, T, 2) the commands computed from the true state, both
    valid for the first ``lengths[e]`` steps, and ``success`` (E,).  T is
    the largest ``max_steps``.  Each leg's detour side is drawn
    independently per episode, so at every waypoint the corpus demonstrates
    both continuations from the same approach.  Each step advances every
    unfinished episode by one array step, bit for bit as a rollout of that
    episode alone through ``PointMassEnv`` would.
    """
    draws = [demo_draws(task, seed, ep, constants)
             for task in tasks for ep in range(episodes_per_task)]
    course = Course.of(tasks).take(np.repeat(np.arange(len(tasks)),
                                             episodes_per_task))
    n, width = len(draws), course.leg.shape[1]
    horizon = max(task.max_steps for task in tasks)
    modes = np.ones((n, width))
    noise = np.zeros((n, horizon + 1, 4))
    for e, (m, _jitter, z) in enumerate(draws):
        modes[e, :len(m)] = m
        noise[e, :len(z)] = z
    obs_log = np.zeros((n, horizon, OBS_DIM))
    act_log = np.zeros((n, horizon, 2))
    lengths = np.zeros(n, dtype=np.int64)
    success = np.zeros(n, dtype=bool)

    live = np.arange(n)
    pos = course.leg_start[:, 0] + np.array([d[1] for d in draws]).reshape(n, 2)
    vel = np.zeros((n, 2))
    next_idx = np.zeros(n, dtype=np.int64)
    obs = observation(pos, vel, next_idx, course, noise[:, 1])
    for t in range(horizon):
        a = expert_action(course, pos, vel, next_idx, modes, gains, constants)
        obs_log[live, t], act_log[live, t] = obs, a
        pos, vel, next_idx, _collided, reached, done = step_rows(
            pos, vel, next_idx, a, t + 1, course, constants)
        success[live[reached]] = True
        lengths[live[done]] = t + 1
        if done.any():
            keep = ~done
            live, pos, vel, next_idx, modes = (live[keep], pos[keep], vel[keep],
                                               next_idx[keep], modes[keep])
            course = course.take(keep)
            if not len(live):
                break
        obs = observation(pos, vel, next_idx, course, noise[live, t + 2])
    return obs_log, act_log, lengths, success
