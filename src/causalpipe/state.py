"""Agent state messages and the per-agent stream mergers.

Raw pose / velocity / goal inputs are fused into a single AgentState message
per agent and published on the fixed topics below. Robot and human share one
schema; the topic (and agent_id) tells them apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite

from .bus import MessageBus

ROBOT_TOPIC = "/roscausal/robot"
HUMAN_TOPIC = "/roscausal/human"


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


@dataclass(frozen=True)
class Pose2D:
    """Planar pose; theta is normalized to (-pi, pi] on construction."""

    x: float
    y: float
    theta: float

    def __post_init__(self) -> None:
        if not (isfinite(self.x) and isfinite(self.y) and isfinite(self.theta)):
            _require_finite(x=self.x, y=self.y, theta=self.theta)
        object.__setattr__(self, "theta", normalize_angle(self.theta))


@dataclass(frozen=True)
class Velocity2D:
    vx: float
    vy: float
    omega: float

    def __post_init__(self) -> None:
        if not (isfinite(self.vx) and isfinite(self.vy) and isfinite(self.omega)):
            _require_finite(vx=self.vx, vy=self.vy, omega=self.omega)


@dataclass(frozen=True)
class AgentState:
    """Timestamped pose, planar velocity and current goal of one agent."""

    agent_id: str
    stamp: float
    pose: Pose2D
    velocity: Velocity2D
    goal: tuple[float, float]
    body_radius: float

    def __post_init__(self) -> None:
        goal = self.goal
        if not (isfinite(self.stamp) and isfinite(goal[0]) and isfinite(goal[1])
                and isfinite(self.body_radius)):
            _require_finite(stamp=self.stamp, goal_x=goal[0], goal_y=goal[1],
                            body_radius=self.body_radius)
        if self.stamp < 0:
            raise ValidationError(f"stamp must be >= 0, got {self.stamp}")
        if self.body_radius <= 0:
            raise ValidationError(f"body_radius must be > 0, got {self.body_radius}")
        object.__setattr__(self, "goal", (float(goal[0]), float(goal[1])))


class StateMerger:
    """Fuses per-agent input streams into AgentState messages.

    Stamps must be strictly increasing per merger. If a bus is attached, every
    merged state is also published on the merger's topic.
    """

    def __init__(self, agent_id: str, topic: str, bus: MessageBus | None = None,
                 body_radius: float = 0.3):
        self.agent_id = agent_id
        self.topic = topic
        self._bus = bus
        self._body_radius = body_radius
        self._last_stamp: float | None = None

    @classmethod
    def for_robot(cls, bus: MessageBus | None = None, body_radius: float = 0.3) -> "StateMerger":
        return cls("robot", ROBOT_TOPIC, bus=bus, body_radius=body_radius)

    @classmethod
    def for_human(cls, bus: MessageBus | None = None, body_radius: float = 0.3) -> "StateMerger":
        return cls("human", HUMAN_TOPIC, bus=bus, body_radius=body_radius)

    def merge(self, pose: Pose2D, velocity: Velocity2D, goal: tuple[float, float],
              stamp: float) -> AgentState:
        if self._last_stamp is not None and stamp <= self._last_stamp:
            raise ValidationError(
                f"stamps must be strictly increasing on {self.topic!r}: "
                f"{stamp} after {self._last_stamp}"
            )
        state = AgentState(
            agent_id=self.agent_id,
            stamp=stamp,
            pose=pose,
            velocity=velocity,
            goal=goal,
            body_radius=self._body_radius,
        )
        self._last_stamp = stamp
        if self._bus is not None:
            self._bus.publish(self.topic, state, time=stamp)
        return state
