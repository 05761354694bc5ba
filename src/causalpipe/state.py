"""Agent state messages and the per-agent stream mergers.

Raw pose / velocity / goal inputs are fused into a single AgentState message
per agent and published on the fixed topics below. Robot and human share one
schema; the topic (and agent_id) tells them apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from math import isfinite

from .bus import MessageBus

ROBOT_TOPIC = "/roscausal/robot"
HUMAN_TOPIC = "/roscausal/human"
BODY_RADIUS = 0.3  # of both agents [m]; every merged state carries it


class ValidationError(ValueError):
    """A state message failed its invariants."""


def _require_finite(**fields: float) -> None:
    """Raise naming the first non-finite field (the messages' slow path)."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.remainder(theta, math.tau)
    if wrapped <= -math.pi:
        wrapped = math.pi
    return wrapped


# The messages are built twice a simulation step each, so each writes its own
# __init__: one isfinite test for all fields (the per-field error only when it
# fails), then one assignment per field through the slot's own setter (about
# half the cost of object.__setattr__), with no __post_init__ pass. Dataclass
# still provides frozen assignment, eq, hash, repr and fields().

@dataclass(frozen=True, slots=True, init=False)
class Pose2D:
    """Planar pose; theta is normalized to (-pi, pi] on construction."""

    x: float
    y: float
    theta: float

    def __init__(self, x: float, y: float, theta: float) -> None:
        if not (isfinite(x) and isfinite(y) and isfinite(theta)):
            _require_finite(x=x, y=y, theta=theta)
        set_x, set_y, set_theta = _POSE_SLOTS
        set_x(self, x)
        set_y(self, y)
        set_theta(self, normalize_angle(theta))


@dataclass(frozen=True, slots=True, init=False)
class Velocity2D:
    vx: float
    vy: float
    omega: float

    def __init__(self, vx: float, vy: float, omega: float) -> None:
        if not (isfinite(vx) and isfinite(vy) and isfinite(omega)):
            _require_finite(vx=vx, vy=vy, omega=omega)
        set_vx, set_vy, set_omega = _VELOCITY_SLOTS
        set_vx(self, vx)
        set_vy(self, vy)
        set_omega(self, omega)


@dataclass(frozen=True, slots=True, init=False)
class AgentState:
    """Timestamped pose, planar velocity and current goal of one agent.

    The goal is stored as a tuple of two floats; one that already is one is
    kept as it is.
    """

    agent_id: str
    stamp: float
    pose: Pose2D
    velocity: Velocity2D
    goal: tuple[float, float]
    body_radius: float

    def __init__(self, agent_id: str, stamp: float, pose: Pose2D, velocity: Velocity2D,
                 goal: tuple[float, float], body_radius: float) -> None:
        if not (isfinite(stamp) and isfinite(goal[0]) and isfinite(goal[1])
                and isfinite(body_radius)):
            _require_finite(stamp=stamp, goal_x=goal[0], goal_y=goal[1],
                            body_radius=body_radius)
        if stamp < 0:
            raise ValidationError(f"stamp must be >= 0, got {stamp}")
        if body_radius <= 0:
            raise ValidationError(f"body_radius must be > 0, got {body_radius}")
        if not (type(goal) is tuple and len(goal) == 2
                and type(goal[0]) is float and type(goal[1]) is float):
            goal = (float(goal[0]), float(goal[1]))
        set_id, set_stamp, set_pose, set_velocity, set_goal, set_radius = _STATE_SLOTS
        set_id(self, agent_id)
        set_stamp(self, stamp)
        set_pose(self, pose)
        set_velocity(self, velocity)
        set_goal(self, goal)
        set_radius(self, body_radius)


def _slot_setters(cls: type) -> tuple:
    """The `__set__` of each field's slot, in field order."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


_POSE_SLOTS = _slot_setters(Pose2D)
_VELOCITY_SLOTS = _slot_setters(Velocity2D)
_STATE_SLOTS = _slot_setters(AgentState)


class StateMerger:
    """Fuses per-agent input streams into AgentState messages.

    Stamps must be strictly increasing per merger. If a bus is attached, every
    merged state is also published on the merger's topic.
    """

    def __init__(self, agent_id: str, topic: str, bus: MessageBus | None = None):
        self.agent_id = agent_id
        self.topic = topic
        self._bus = bus
        self._last_stamp: float | None = None

    @classmethod
    def for_robot(cls, bus: MessageBus | None = None) -> "StateMerger":
        return cls("robot", ROBOT_TOPIC, bus=bus)

    @classmethod
    def for_human(cls, bus: MessageBus | None = None) -> "StateMerger":
        return cls("human", HUMAN_TOPIC, bus=bus)

    def merge(self, pose: Pose2D, velocity: Velocity2D, goal: tuple[float, float],
              stamp: float) -> AgentState:
        if self._last_stamp is not None and stamp <= self._last_stamp:
            raise ValidationError(
                f"stamps must be strictly increasing on {self.topic!r}: "
                f"{stamp} after {self._last_stamp}"
            )
        # positional: keyword arguments cost more than a field's checks
        state = AgentState(self.agent_id, stamp, pose, velocity, goal, BODY_RADIUS)
        self._last_stamp = stamp
        if self._bus is not None:
            self._bus.publish(self.topic, state, stamp)
        return state
