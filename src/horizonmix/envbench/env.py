"""Damped point-mass environment on the unit square.

Two task families share the same dynamics and observation layout but reward
opposite control styles:

* ``precision-reach``: stop inside a tiny radius around a single target.
  Success hinges on accurate low-speed corrections over the last few steps.
* ``waypoint-chain``: visit a sequence of waypoints, each leg blocked by a
  circular obstacle at the midpoint of the straight line between them.
  Demonstrations detour around either side, so the action distribution is
  bimodal on every leg, and a plan that averages the two detours flies
  straight into the obstacle.  Touching an obstacle ends the episode as a
  failure.

Dynamics (per step, dt = 1):

    vel <- damping * (vel + action * dt)
    pos <- pos + vel * dt

Actions are clipped to [-1, 1] per axis before integration.  Observations are
``[pos, vel, target, remaining]`` where ``target`` is the current waypoint,
``remaining`` is the fraction of waypoints still unvisited, and Gaussian noise
is added to the position and velocity entries only.  The true state stays
noise-free; experts read it as ``pos``, ``vel`` and ``next_idx``.

Many episodes step at once: ``Course`` holds tasks as arrays with a leading
row axis, and ``step_rows`` and ``observation`` take one row per episode.
``PointMassEnv`` runs them on a batch of one.

Exactness rule: suites, demonstrations and episodes are bit-reproducible, so
every value that reaches a waypoint, observation, action or collision keeps
the scalar arithmetic it was defined with, on one row or on many:

* a 2-vector's dot or length is ``np.vecdot`` (and ``np.sqrt``), which runs
  the BLAS dot of ``v.dot(w)`` on each row, so a length equals
  ``math.sqrt(v.dot(v))`` and ``np.linalg.norm`` bit for bit; ``x*x + y*y``
  does not;
* per-leg constants (``leg_len ** 2``, the leg normal, ``max(leg_len, 1e-9)``)
  are computed once per (task, leg) and then gathered, the squared length
  in Python: Python's ``x ** 2`` differs from ``x * x`` and
  ``np.power(x, 2.0)`` for some float64 ``x``;
* elementwise numpy (``+``, ``*``, ``/``, ``np.sin``, ``np.minimum``) gives
  the same bits on an array as on each element.

Every collision, waypoint and layout keep-out decision compares such an
exact length with its threshold, so it equals the scalar rule's decision
without a tolerance band.
"""

from dataclasses import dataclass, fields

import numpy as np

from ..errors import ConfigError
from ..rng import make_rng

OBS_DIM = 7

FAMILIES = ("precision-reach", "waypoint-chain")


@dataclass(frozen=True)
class EnvConstants:
    """Physics and sensing constants shared by every task."""

    dt: float = 1.0
    damping: float = 0.6
    obs_noise: float = 0.01
    precision_radius: float = 0.02
    waypoint_radius: float = 0.08
    chain_length: int = 4
    start_jitter: float = 0.03
    action_limit: float = 1.0
    # Each chain leg carries a circle of obstacle_radius at its midpoint.
    # Demonstrations detour around it on a curve bowed sideways by
    # detour_bulge; the straight line, which is what averaging the two
    # detours gives, runs through it.  Layout sampling keeps every circle
    # at least obstacle_path_gap clear of both nominal detour curves of
    # every OTHER leg (checked at 21 samples per curve, all samples of a
    # layout in one array expression) and away from foreign waypoints, so
    # only the circle's own leg ever has to steer around it.  Flown
    # demonstrations cut corners and can pass slightly closer than the gap
    # (see _chain_layout_ok).
    obstacle_radius: float = 0.02
    detour_bulge: float = 0.15
    obstacle_path_gap: float = 0.04
    obstacle_waypoint_gap: float = 0.12


@dataclass(frozen=True)
class TaskSpec:
    """One task instance: fixed waypoint layout, radius, and step budget.

    Layouts are fixed per ``task_id`` so a learned task embedding can absorb
    the geometry that the observation does not spell out (everything past the
    current waypoint).
    """

    task_id: int
    family: str
    start: tuple[float, float]
    waypoints: tuple[tuple[float, float], ...]
    radius: float
    max_steps: int
    # Each obstacle is a circle (x, y, r): the points within r of (x, y).
    obstacles: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown task family {self.family!r}")
        if not self.waypoints:
            raise ConfigError("task needs at least one waypoint")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be positive")


class PointMassEnv:
    """Single-episode environment; construct one per rollout.

    ``rng`` drives start jitter and observation noise, so two environments
    built with generators in the same state replay identically.  The state
    is a batch of one row, which a step advances with ``step_rows``, the
    code that steps many episodes at once.
    """

    def __init__(self, task: TaskSpec, rng: np.random.Generator,
                 constants: EnvConstants = EnvConstants()):
        self.task = task
        self.constants = constants
        self._rng = rng
        self._course = Course.of([task])
        self.reset()

    def reset(self) -> np.ndarray:
        c = self.constants
        jitter = self._rng.uniform(-c.start_jitter, c.start_jitter, size=2)
        self._pos = (np.asarray(self.task.start, dtype=np.float64) + jitter)[None]
        self._vel = np.zeros((1, 2))
        self._next_idx = np.zeros(1, dtype=np.int64)
        self.steps = 0
        self.success = False
        self.collided = False
        self.done = False
        return self.observe()

    @property
    def pos(self) -> np.ndarray:
        return self._pos[0]

    @property
    def vel(self) -> np.ndarray:
        return self._vel[0]

    @property
    def next_idx(self) -> int:
        return int(self._next_idx[0])

    def observe(self) -> np.ndarray:
        noise = self._rng.normal(0.0, self.constants.obs_noise, size=(1, 4))
        return observation(self._pos, self._vel, self._next_idx, self._course,
                           noise)[0]

    def step(self, action: np.ndarray):
        """Advance one step; returns (obs, done).

        How the episode ended is on the env: ``success``, ``collided`` and
        ``steps``."""
        if self.done:
            raise ConfigError("episode already finished; call reset()")
        self.steps += 1
        self._pos, self._vel, self._next_idx, collided, success, done = step_rows(
            self._pos, self._vel, self._next_idx,
            np.asarray(action, dtype=np.float64)[None], self.steps,
            self._course, self.constants)
        self.collided, self.success, self.done = (
            bool(collided[0]), bool(success[0]), bool(done[0]))
        return self.observe(), self.done


@dataclass(frozen=True)
class Course:
    """Tasks as arrays with a leading row axis, one row per task or, after
    ``take``, per episode, so that many episodes step at once.

    Rows are padded with NaN to the longest task, and waypoints with one
    more NaN column: no step reaches a NaN waypoint or touches a NaN circle.
    Leg j runs from point j to point j + 1 of (start, *waypoints); its
    constants are computed once per (task, leg) and gathered by the steps
    (see the exactness rule).
    """

    waypoints: np.ndarray      # (n, W + 1, 2)
    goal: np.ndarray           # (n, W + 1, 3) observed target and remaining
    n_waypoints: np.ndarray    # (n,)
    radius: np.ndarray         # (n,)
    max_steps: np.ndarray      # (n,)
    chain: np.ndarray          # (n,) True for the waypoint-chain family
    centres: np.ndarray        # (n, K, 2)
    radii: np.ndarray          # (n, K)
    leg_start: np.ndarray      # (n, W, 2)
    leg: np.ndarray            # (n, W, 2) leg end - leg start
    leg_len: np.ndarray        # (n, W) length of leg
    leg_len_sq: np.ndarray     # (n, W) max(leg_len ** 2, 1e-12)
    leg_len_floor: np.ndarray  # (n, W) max(leg_len, 1e-9)
    normal: np.ndarray         # (n, W, 2) unit left normal, 0 if degenerate

    @classmethod
    def of(cls, tasks: list[TaskSpec]) -> "Course":
        n_wp = max(len(t.waypoints) for t in tasks)
        n_ob = max(len(t.obstacles) for t in tasks)
        # points (start, *waypoints) and circles of every task, NaN-padded
        pts = np.full((len(tasks), n_wp + 2, 2), np.nan)
        circles = np.full((len(tasks), n_ob, 3), np.nan)
        for row, t in enumerate(tasks):
            pts[row, :len(t.waypoints) + 1] = (t.start,) + t.waypoints
            circles[row, :len(t.obstacles)] = np.reshape(t.obstacles, (-1, 3))
        n_waypoints = np.array([len(t.waypoints) for t in tasks])
        steps = np.arange(n_wp + 1)  # waypoints reached
        target = pts[np.arange(len(tasks))[:, None],
                     np.minimum(steps, n_waypoints[:, None] - 1) + 1]
        remaining = 1.0 - steps / n_waypoints[:, None]
        leg = pts[:, 1:-1] - pts[:, :-2]
        leg_len = np.sqrt(np.vecdot(leg, leg))
        # Python's x ** 2, which numpy's square does not always equal
        leg_len_sq = np.reshape([x ** 2 for x in leg_len.ravel().tolist()],
                                leg_len.shape)
        return cls(
            waypoints=pts[:, 1:],
            goal=np.concatenate([target, remaining[..., None]], axis=-1),
            n_waypoints=n_waypoints,
            radius=np.array([t.radius for t in tasks], dtype=np.float64),
            max_steps=np.array([t.max_steps for t in tasks]),
            chain=np.array([t.family == "waypoint-chain" for t in tasks]),
            centres=circles[..., :2], radii=circles[..., 2],
            leg_start=pts[:, :-2], leg=leg, leg_len=leg_len,
            leg_len_sq=np.maximum(leg_len_sq, 1e-12),
            leg_len_floor=np.maximum(leg_len, 1e-9),
            normal=np.divide(np.stack([-leg[..., 1], leg[..., 0]], axis=-1),
                             leg_len[..., None], out=np.zeros_like(leg),
                             where=leg_len[..., None] >= 1e-9))

    def take(self, rows) -> "Course":
        """The course of the given rows, in that order."""
        return Course(*(getattr(self, f.name)[rows] for f in fields(self)))

    def detour(self, rows, legs, s: np.ndarray, side) -> np.ndarray:
        """Points at progress ``s`` on the bowed detour curve of leg
        ``legs`` of course row ``rows``.

        The curve is the leg displaced by ``side * sin(pi * s)`` along its
        normal, ``side`` being +/-``detour_bulge`` for the left or right
        side; a degenerate leg's curve is its end waypoint.  Experts track
        it and layout sampling keeps foreign circles away from it.  ``rows``
        and ``legs`` broadcast to the points' leading axes, and ``s`` and
        ``side`` against their (..., 2) rows."""
        leg = self.leg[rows, legs]
        curve = (self.leg_start[rows, legs] + s * leg
                 + side * np.sin(np.pi * s) * self.normal[rows, legs])
        return np.where((self.leg_len[rows, legs] < 1e-9)[..., None],
                        self.waypoints[rows, legs], curve)


def step_rows(pos: np.ndarray, vel: np.ndarray, next_idx: np.ndarray,
              action: np.ndarray, steps, course: Course,
              constants: EnvConstants):
    """Every row's ``(pos, vel, next_idx, collided, success, done)`` after
    one step, the flags (n,) each; ``steps`` is the step count after it.

    The dynamics move each row with its action (n, 2), clipped per axis.
    A row whose swept segment touches a circle has collided and keeps its
    waypoint index, so it does not succeed; any other passes the waypoints
    it reached and succeeds when none is left.  A row is done once it has
    collided, succeeded or used its ``max_steps``."""
    c = constants
    a = np.minimum(np.maximum(action, -c.action_limit), c.action_limit)
    vel = c.damping * (vel + a * c.dt)
    new_pos = pos + vel * c.dt
    collided = (swept_hits(pos, new_pos, course) if course.radii.shape[1]
                else np.zeros(len(pos), dtype=bool))
    next_idx = np.where(collided, next_idx,
                        reach_waypoints(new_pos, next_idx, course))
    success = next_idx == course.n_waypoints
    done = collided | success | (steps >= course.max_steps)
    return new_pos, vel, next_idx, collided, success, done


def swept_hits(p0: np.ndarray, p1: np.ndarray, course: Course) -> np.ndarray:
    """(n,) whether row e's swept segment p0[e] -> p1[e] touches any circle
    of course row e.

    A circle is touched when the point of the segment closest to its centre
    lies within its radius, judged on the exact length of the same vector
    the scalar rule forms."""
    d = (p1 - p0)[:, None]
    p0 = p0[:, None]
    denom = np.vecdot(d, d)
    # a zero-length step is its own closest point: t = 0
    t = np.vecdot(course.centres - p0, d) / np.where(denom == 0.0, np.inf, denom)
    gap = p0 + np.minimum(np.maximum(t, 0.0), 1.0)[..., None] * d - course.centres
    return (np.sqrt(np.vecdot(gap, gap)) <= course.radii).any(axis=1)


def reach_waypoints(pos: np.ndarray, next_idx: np.ndarray,
                    course: Course) -> np.ndarray:
    """(n,) each row's next waypoint index after passing, in order, every
    waypoint whose radius holds ``pos``."""
    rows = np.arange(len(pos))
    while True:
        off = pos - course.waypoints[rows, next_idx]
        reached = np.sqrt(np.vecdot(off, off)) <= course.radius
        if not np.count_nonzero(reached):  # a third of .any()'s cost
            return next_idx
        next_idx = next_idx + reached


def observation(pos: np.ndarray, vel: np.ndarray, next_idx: np.ndarray,
                course: Course, noise: np.ndarray) -> np.ndarray:
    """(n, OBS_DIM) observations ``[pos, vel, target, remaining]``, with
    ``noise`` (n, 4) added to the position and velocity entries."""
    obs = np.concatenate([pos, vel, course.goal[np.arange(len(pos)), next_idx]],
                         axis=1)
    obs[:, :4] += noise
    return obs


def _sample_precision_task(task_id: int, rng: np.random.Generator,
                           constants: EnvConstants,
                           max_steps: int) -> TaskSpec:
    start = (0.5, 0.5)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    dist = rng.uniform(0.28, 0.42)
    target = (start[0] + dist * np.cos(angle), start[1] + dist * np.sin(angle))
    target = tuple(float(min(max(t, 0.08), 0.92)) for t in target)
    return TaskSpec(task_id=task_id, family="precision-reach", start=start,
                    waypoints=(target,), radius=constants.precision_radius,
                    max_steps=max_steps)


def _chain_layout_ok(pts: list[np.ndarray], centres: list[np.ndarray],
                     constants: EnvConstants) -> bool:
    """Obstacles may only threaten their own leg.

    Legs are allowed to cross each other; what must never happen is a
    demonstration detouring around leg i's obstacle while grazing leg j's.
    The keep-out is checked on the nominal detour curves of every other leg,
    both sides, at 21 samples each, not on flown demonstrations: the expert
    cuts corners onto the next leg, so its path can come a little closer than
    ``obstacle_path_gap`` (0.0399 from a foreign circle on suite seed 1,
    task 11). Changing the check would move every suite and dataset digest.

    Every (obstacle k, leg j != k, side, sample) point of ``Course.detour``
    and every (obstacle, foreign waypoint) gap is computed in one array, and
    its exact length compared with the keep-out.
    """
    c = constants
    course = Course.of([TaskSpec(
        task_id=0, family="waypoint-chain", start=tuple(pts[0]),
        waypoints=tuple(map(tuple, pts[1:])), radius=c.waypoint_radius,
        max_steps=1)])
    j = np.arange(len(pts))
    legs = j[:-1]
    # curves[j, m]: leg j's detour on side m, at 21 samples
    curves = course.detour(0, legs[:, None, None],
                           np.linspace(0.0, 1.0, 21)[:, None],
                           c.detour_bulge * np.array([1.0, -1.0])[:, None, None])
    circles = np.asarray(centres, dtype=float).reshape(-1, 2)
    k = np.arange(len(circles))[:, None]
    to_curves = (curves[None] - circles[:, None, None, None])[k != legs]
    to_points = (np.asarray(pts)[None] - circles[:, None])[(j != k) & (j != k + 1)]
    return not (
        (np.sqrt(np.vecdot(to_curves, to_curves))
         < c.obstacle_radius + c.obstacle_path_gap).any()
        or (np.sqrt(np.vecdot(to_points, to_points))
            < c.obstacle_waypoint_gap).any())


def _sample_chain_task(task_id: int, rng: np.random.Generator,
                       constants: EnvConstants, max_steps: int) -> TaskSpec:
    """Random walk of waypoints with bounded turn angles; the whole layout is
    rejection-sampled until every leg's obstacle is clear of the other legs."""
    start = np.array([0.5, 0.5])
    for _layout in range(2048):
        heading = rng.uniform(0.0, 2.0 * np.pi)
        pts = [start.copy()]
        for _ in range(constants.chain_length):
            for _attempt in range(64):
                # the draw rng.choice([-1.0, 1.0]) makes, without its overhead
                turn = rng.uniform(0.4, 2.2) * (-1.0, 1.0)[rng.integers(0, 2)]
                leg = rng.uniform(0.34, 0.42)
                cand_heading = heading + turn
                cand = pts[-1] + leg * np.array([np.cos(cand_heading),
                                                 np.sin(cand_heading)])
                if (cand > 0.08).all() and (cand < 0.92).all():
                    heading = cand_heading
                    pts.append(cand)
                    break
            else:
                break
        if len(pts) != constants.chain_length + 1:
            continue
        centres = [0.5 * (pts[k] + pts[k + 1]) for k in range(len(pts) - 1)]
        if not _chain_layout_ok(pts, centres, constants):
            continue
        return TaskSpec(
            task_id=task_id, family="waypoint-chain",
            start=(float(start[0]), float(start[1])),
            waypoints=tuple((float(p[0]), float(p[1])) for p in pts[1:]),
            radius=constants.waypoint_radius, max_steps=max_steps,
            obstacles=tuple((float(p[0]), float(p[1]),
                             constants.obstacle_radius) for p in centres))
    raise ConfigError("could not sample a chain layout; constants leave "
                      "too little room between obstacles")


def make_suite(n_precision: int = 8, n_chain: int = 8,
               seed: int = 0) -> list[TaskSpec]:
    """Build the fixed task suite; layouts depend only on ``seed``.

    Task ids are assigned densely from 0 so they can index an embedding
    table directly.  Precision tasks get 18 steps, chains 34.
    """
    constants = EnvConstants()
    tasks = []
    for i in range(n_precision):
        rng = make_rng(seed, "task", "precision", str(i))
        tasks.append(_sample_precision_task(len(tasks), rng, constants, 18))
    for i in range(n_chain):
        rng = make_rng(seed, "task", "chain", str(i))
        tasks.append(_sample_chain_task(len(tasks), rng, constants, 34))
    return tasks
