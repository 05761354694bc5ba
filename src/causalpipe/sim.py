"""Deterministic social-force scenario: one waypoint robot, one pedestrian.

The pedestrian accelerates toward a randomly resampled goal (slowing down on
approach), is repelled exponentially by the robot, and carries a small seeded
fluctuation force so its motion is noisy the way real walking is. The robot
tracks a fixed waypoint loop at constant speed and ignores the human. Both
agents publish AgentState streams onto the bus every integration step.

Everything is driven by a seeded generator; identical (seed, params, path,
duration) reproduce bit-identical state streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bus import MessageBus
from .state import AgentState, Pose2D, StateMerger, Velocity2D, normalize_angle

SIM_DT = 0.05
DEFAULT_MIN_GOAL_DIST = 3.0
HUMAN_START = (5.0, 2.0)  # the pedestrian's start [m]
BODY_RADIUS = 0.3  # of both agents [m]


class Bounds(NamedTuple):
    x_min: float
    y_min: float
    x_max: float
    y_max: float


DEFAULT_BOUNDS = Bounds(0.0, 0.0, 10.0, 10.0)


@dataclass(frozen=True)
class SFMParams:
    """Social-force tunables for the pedestrian.

    clearance_margin is the personal-space buffer added to the body radii in
    the repulsion term (the human starts avoiding well before contact).
    noise_accel is a small seeded fluctuation force; pause_rate/pause_min/
    pause_max give the walker occasional stop-and-go halts, standing in for
    the stop/go texture of a human operator. Both keep every feature carrying
    exogenous variation of its own. The walker reacts to the robot's current
    state, with no perception delay.
    """

    relaxation_time: float = 0.5
    desired_speed: float = 1.4
    repulsion_strength: float = 3.0
    repulsion_range: float = 1.0
    slowdown_radius: float = 1.5
    goal_radius: float = 0.3
    clearance_margin: float = 0.9
    noise_accel: float = 0.25
    pause_rate: float = 0.35
    pause_min: float = 0.4
    pause_max: float = 1.2

    def __post_init__(self) -> None:
        for name in ("relaxation_time", "desired_speed", "repulsion_strength",
                     "repulsion_range", "slowdown_radius", "goal_radius",
                     "clearance_margin"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.noise_accel < 0:
            raise ValueError(f"noise_accel must be >= 0, got {self.noise_accel}")
        if self.pause_rate < 0:
            raise ValueError(f"pause_rate must be >= 0, got {self.pause_rate}")
        if not 0 < self.pause_min <= self.pause_max:
            raise ValueError(
                f"need 0 < pause_min <= pause_max, got [{self.pause_min}, {self.pause_max}]"
            )


@dataclass(frozen=True)
class RobotPath:
    """Boustrophedon sweep over the map interior; default cruise 0.6 m/s.

    The sweep keeps the robot crossing the pedestrian's space all batch long,
    which is what makes the interaction features statistically informative.
    """

    waypoints: tuple[tuple[float, float], ...] = (
        (2.0, 2.0), (8.0, 2.0), (8.0, 4.0), (2.0, 4.0), (2.0, 6.0), (8.0, 6.0),
        (8.0, 8.0), (2.0, 8.0), (2.0, 6.0), (8.0, 6.0), (8.0, 4.0), (2.0, 4.0))
    cruise_speed: float = 0.6
    loop: bool = True

    def __post_init__(self) -> None:
        wps = tuple((float(x), float(y)) for x, y in self.waypoints)
        if len(wps) < 2:
            raise ValueError("robot path needs at least 2 waypoints")
        for a, b in zip(wps, wps[1:]):
            if math.hypot(b[0] - a[0], b[1] - a[1]) < 1e-9:
                raise ValueError(f"consecutive waypoints coincide: {a}")
        if not self.cruise_speed > 0:
            raise ValueError(f"cruise_speed must be > 0, got {self.cruise_speed}")
        object.__setattr__(self, "waypoints", wps)


@dataclass
class WorldState:
    time: float
    human: AgentState
    robot: AgentState
    bounds: Bounds
    rng: np.random.Generator


class GoalSamplingError(RuntimeError):
    """Could not place a goal satisfying the minimum-distance constraint."""


def goal_attraction_force(agent: AgentState, p: SFMParams) -> tuple[float, float]:
    """Relaxation toward the goal with speed tapering near it, as a float
    tuple (fx, fy).

    F = (v_des * e_goal - v) / relaxation_time where v_des ramps linearly
    from 0 at the goal to desired_speed at slowdown_radius. Exactly at the
    goal the force is pure braking.
    """
    gx = agent.goal[0] - agent.pose.x
    gy = agent.goal[1] - agent.pose.y
    d_goal = math.hypot(gx, gy)
    if d_goal > 0:
        v_des = p.desired_speed * min(1.0, d_goal / p.slowdown_radius)
        ex, ey = gx / d_goal, gy / d_goal
    else:
        v_des, ex, ey = 0.0, 0.0, 0.0
    return ((v_des * ex - agent.velocity.vx) / p.relaxation_time,
            (v_des * ey - agent.velocity.vy) / p.relaxation_time)


def agent_repulsion_force(human: AgentState, robot: AgentState,
                          p: SFMParams) -> tuple[float, float]:
    """Exponential repulsion pushing the human away from the robot, as a
    float tuple (fx, fy).

    F = A * exp((R - d) / B) * n with d the center distance, R the summed
    body radii plus the clearance margin, and n the unit vector from robot
    to human.
    """
    nx = human.pose.x - robot.pose.x
    ny = human.pose.y - robot.pose.y
    d = max(math.hypot(nx, ny), 1e-6)
    R = human.body_radius + robot.body_radius + p.clearance_margin
    magnitude = p.repulsion_strength * math.exp((R - d) / p.repulsion_range)
    return (magnitude * nx / d, magnitude * ny / d)


def sample_goal(rng: np.random.Generator, bounds: Bounds,
                current_pos: tuple[float, float],
                min_dist: float = DEFAULT_MIN_GOAL_DIST) -> tuple[float, float]:
    """Uniform point in bounds at least min_dist from the current position.

    Rejection sampling; after 1000 rejections the constraint is halved once,
    then sampling fails.
    """
    for attempt_min_dist in (min_dist, min_dist / 2.0):
        for _ in range(1000):
            x = float(rng.uniform(bounds.x_min, bounds.x_max))
            y = float(rng.uniform(bounds.y_min, bounds.y_max))
            if math.hypot(x - current_pos[0], y - current_pos[1]) >= attempt_min_dist:
                return (x, y)
    raise GoalSamplingError(
        f"no admissible goal >= {min_dist / 2.0} m from {current_pos} in {bounds}"
    )


def _clamp_to_bounds(x: float, y: float, vx: float, vy: float,
                     bounds: Bounds) -> tuple[float, float, float, float]:
    """Clamp position to bounds, zeroing the velocity component into the wall."""
    if x < bounds.x_min:
        x, vx = bounds.x_min, max(vx, 0.0)
    elif x > bounds.x_max:
        x, vx = bounds.x_max, min(vx, 0.0)
    if y < bounds.y_min:
        y, vy = bounds.y_min, max(vy, 0.0)
    elif y > bounds.y_max:
        y, vy = bounds.y_max, min(vy, 0.0)
    return x, y, vx, vy


class Simulator:
    """Owns the world state and advances it one step() at a time."""

    def __init__(self, sfm: SFMParams = SFMParams(), path: RobotPath = RobotPath(),
                 bounds: Bounds = DEFAULT_BOUNDS, seed: int = 0,
                 bus: MessageBus | None = None):
        self.sfm = sfm
        self.path = path
        self.bounds = bounds
        self._human_merger = StateMerger.for_human(bus=bus, body_radius=BODY_RADIUS)
        self._robot_merger = StateMerger.for_robot(bus=bus, body_radius=BODY_RADIUS)
        self._waypoint_index = 1
        self._published_initial = False
        self._paused_until = -1.0

        rng = np.random.default_rng(seed)
        goal = sample_goal(rng, bounds, HUMAN_START)
        human = AgentState(
            agent_id="human", stamp=0.0,
            pose=Pose2D(HUMAN_START[0], HUMAN_START[1], 0.0),
            velocity=Velocity2D(0.0, 0.0, 0.0),
            goal=goal, body_radius=BODY_RADIUS,
        )
        start = path.waypoints[0]
        target = path.waypoints[1]
        heading = math.atan2(target[1] - start[1], target[0] - start[0])
        robot = AgentState(
            agent_id="robot", stamp=0.0,
            pose=Pose2D(start[0], start[1], heading),
            velocity=Velocity2D(0.0, 0.0, 0.0),
            goal=target, body_radius=BODY_RADIUS,
        )
        self.world = WorldState(time=0.0, human=human, robot=robot,
                                bounds=bounds, rng=rng)

    def publish_initial(self) -> None:
        """Publish the t=0 states so samplers see both agents immediately."""
        if self._published_initial:
            return
        self._published_initial = True
        w = self.world
        self._human_merger.merge(w.human.pose, w.human.velocity, w.human.goal, 0.0)
        self._robot_merger.merge(w.robot.pose, w.robot.velocity, w.robot.goal, 0.0)

    def _step_human(self, dt: float) -> AgentState:
        w = self.world
        h = w.human
        sfm = self.sfm
        if sfm.pause_rate > 0 and w.time >= self._paused_until:
            # random() is uniform() on [0, 1): the same draw, without its
            # bounds handling
            if w.rng.random() < sfm.pause_rate * dt:
                # log-uniform halts: frequent brief stops, occasional long ones
                duration = math.exp(w.rng.uniform(math.log(sfm.pause_min),
                                                  math.log(sfm.pause_max)))
                self._paused_until = w.time + duration
        vx, vy = h.velocity.vx, h.velocity.vy
        if w.time < self._paused_until:
            # halted walker: brake toward zero instead of chasing the goal
            ax = -vx / sfm.relaxation_time
            ay = -vy / sfm.relaxation_time
        else:
            ax, ay = goal_attraction_force(h, sfm)
        rx, ry = agent_repulsion_force(h, w.robot, sfm)
        fx = ax + rx
        fy = ay + ry
        if sfm.noise_accel > 0:
            nx, ny = w.rng.standard_normal(2).tolist()
            fx = fx + sfm.noise_accel * nx
            fy = fy + sfm.noise_accel * ny
        vx = vx + fx * dt
        vy = vy + fy * dt
        speed = math.hypot(vx, vy)
        if speed > sfm.desired_speed:
            scale = sfm.desired_speed / speed
            vx *= scale
            vy *= scale
        x = h.pose.x + vx * dt
        y = h.pose.y + vy * dt
        x, y, vx, vy = _clamp_to_bounds(x, y, vx, vy, w.bounds)
        theta = math.atan2(vy, vx) if math.hypot(vx, vy) > 1e-6 else h.pose.theta
        omega = normalize_angle(theta - h.pose.theta) / dt
        goal = h.goal
        if math.hypot(goal[0] - x, goal[1] - y) <= sfm.goal_radius:
            goal = sample_goal(w.rng, w.bounds, (x, y))
        return self._human_merger.merge(Pose2D(x, y, theta), Velocity2D(vx, vy, omega),
                                        goal, w.time + dt)

    def _step_robot(self, dt: float) -> AgentState:
        w = self.world
        r = w.robot
        target = self.path.waypoints[self._waypoint_index]
        tx = target[0] - r.pose.x
        ty = target[1] - r.pose.y
        remaining = math.hypot(tx, ty)
        step = self.path.cruise_speed * dt
        if remaining <= step:
            x, y = target
            self._waypoint_index += 1
            if self._waypoint_index >= len(self.path.waypoints):
                self._waypoint_index = 0 if self.path.loop else len(self.path.waypoints) - 1
            target = self.path.waypoints[self._waypoint_index]
        else:
            x = r.pose.x + tx / remaining * step
            y = r.pose.y + ty / remaining * step
        hx = target[0] - x
        hy = target[1] - y
        heading = math.atan2(hy, hx) if math.hypot(hx, hy) > 1e-9 else r.pose.theta
        vx = self.path.cruise_speed * math.cos(heading)
        vy = self.path.cruise_speed * math.sin(heading)
        omega = normalize_angle(heading - r.pose.theta) / dt
        return self._robot_merger.merge(Pose2D(x, y, heading), Velocity2D(vx, vy, omega),
                                        target, w.time + dt)

    def step(self, dt: float = SIM_DT) -> WorldState:
        """Semi-implicit Euler step for the human, waypoint tracking for the
        robot; both updated states are published on their topics."""
        if not 0.0 < dt <= 0.1:
            raise ValueError(f"dt must be in (0, 0.1], got {dt}")
        if not self._published_initial:
            self.publish_initial()
        human = self._step_human(dt)
        robot = self._step_robot(dt)
        self.world.human = human
        self.world.robot = robot
        self.world.time += dt
        return self.world
