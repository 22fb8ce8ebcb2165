"""Scripted experts for the point-mass tasks.

Both families use deadbeat velocity control: with dynamics
``vel' = damping * (vel + a)``, setting ``a = v_des / damping - vel`` reaches
the desired velocity in one step, so the expert is an exact, smooth function
of the true state and the episode's detour side.

* precision-reach: aim straight at the target with speed proportional to the
  remaining distance, which converges geometrically without overshoot.
* waypoint-chain: cruise at constant speed along a bowed detour curve.  For
  the leg from waypoint A to B the curve is the straight line displaced
  sideways by ``mode * detour_bulge * sin(pi * s)`` with ``s`` the fractional
  progress, so it passes the circle at the leg's midpoint on the left or on
  the right (``mode``) and meets both endpoints exactly.  Near a leg's start
  the two detours leave the same state heading for opposite sides, so the
  demonstrated action distribution is bimodal exactly where a fresh plan must
  commit; their average is the straight line, which hits the circle.  Inside
  the lookahead distance the aim point additionally slides onto the next leg,
  so the expert starts turning *before* the observation's current target
  switches.
"""

from dataclasses import dataclass

import numpy as np

from ..rng import make_rng
from .env import EnvConstants, PointMassEnv, TaskSpec, detour_point, vector_norm


@dataclass(frozen=True)
class ExpertGains:
    """Tracking gains.  The detour's bow is the environment's
    ``detour_bulge``, the curve that chain layouts keep foreign obstacles
    clear of."""

    v_cruise: float = 0.08
    k_slow: float = 0.5
    lookahead: float = 0.10
    k_track: float = 1.0


def expert_action(task: TaskSpec, pos: np.ndarray, vel: np.ndarray,
                  next_idx: int, gains: ExpertGains = ExpertGains(),
                  constants: EnvConstants = EnvConstants(),
                  mode: float = 1.0, next_mode: float | None = None
                  ) -> np.ndarray:
    wps = np.asarray(task.waypoints)
    i = min(next_idx, len(wps) - 1)
    d = vector_norm(wps[i] - pos)
    if task.family == "precision-reach":
        aim = wps[i]
        speed = min(gains.v_cruise, gains.k_slow * d)
    else:
        a_pt = np.asarray(task.start if i == 0 else wps[i - 1], dtype=float)
        b_pt = wps[i]
        leg = b_pt - a_pt
        leg_len = vector_norm(leg)
        s = min(max((pos - a_pt) @ leg / max(leg_len ** 2, 1e-12), 0.0), 1.0)
        s_aim = s + gains.lookahead / max(leg_len, 1e-9)
        if s_aim <= 1.0:
            aim = detour_point(a_pt, b_pt, s_aim, mode,
                               constants.detour_bulge)
        elif i + 1 < len(wps):
            # Cap the slide at half the radius so the cut corner still
            # passes inside it even if the tracker settles on the aim point.
            seg_len = vector_norm(wps[i + 1] - b_pt)
            carry = min((s_aim - 1.0) * leg_len, seg_len, 0.5 * task.radius)
            aim = detour_point(b_pt, wps[i + 1],
                               carry / max(seg_len, 1e-9),
                               mode if next_mode is None else next_mode,
                               constants.detour_bulge)
        else:
            aim = b_pt
        speed = gains.v_cruise
    offset = aim - pos
    norm = vector_norm(offset)
    # Never step past the aim point; prevents orbiting it at cruise speed.
    speed = min(speed, norm)
    v_des = offset * (speed / norm) if norm > 1e-9 else np.zeros(2)
    a = gains.k_track * (v_des / constants.damping - vel)
    return np.minimum(np.maximum(a, -constants.action_limit),
                      constants.action_limit)


def run_expert_episode(task: TaskSpec, seed: int, episode: int,
                       gains: ExpertGains = ExpertGains(),
                       constants: EnvConstants = EnvConstants()):
    """Roll the expert to termination.

    Returns ``(obs, actions, success, steps)`` where ``obs`` is the noisy
    observation stream of shape (T, 7) and ``actions`` the expert commands
    of shape (T, 2) computed from the true state.  Each leg's detour side
    is drawn independently per episode, so at every waypoint the corpus
    demonstrates both continuations from the same approach.
    """
    rng = make_rng(seed, "demo", task.family, str(task.task_id), str(episode))
    modes = np.where(rng.random(len(task.waypoints)) < 0.5, 1.0, -1.0)
    env = PointMassEnv(task, rng, constants)
    obs = env.observe()
    obs_log, act_log = [], []
    while not env.done:
        pos, vel, next_idx = env.state()
        mode = float(modes[min(next_idx, len(modes) - 1)])
        nxt = float(modes[min(next_idx + 1, len(modes) - 1)])
        a = expert_action(task, pos, vel, next_idx, gains, constants,
                          mode=mode, next_mode=nxt)
        obs_log.append(obs)
        act_log.append(a)
        obs, _done = env.step(a)
    return (np.asarray(obs_log), np.asarray(act_log), env.success, env.steps)
