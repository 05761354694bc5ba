"""High-level interaction features derived from raw agent states.

The standard transform ("hri_basic") maps each RawSample to three scalars:

  h_v    human planar speed [m/s]
  h_dg   distance from the human to their current goal [m]
  h_risk collision risk toward the robot [1/s]

h_risk is a smooth inverse-time-to-approach proxy: the human's closing speed
toward the robot divided by the surface gap, attenuated exponentially with
distance. It is explicitly velocity-dependent and zero whenever the human is
stationary or moving away.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .collector import RawSample
from .state import AgentState
from .timeseries import TimeSeriesBatch

log = logging.getLogger(__name__)

HRI_COLUMNS = ["time", "h_v", "h_dg", "h_risk"]


class PostprocessError(ValueError):
    """A sample could not be transformed; the whole batch is discarded."""


@dataclass(frozen=True)
class RiskParams:
    """Tunables of the collision-risk proxy."""

    margin: float = 0.3
    decay_length: float = 2.0
    epsilon: float = 0.05

    def __post_init__(self) -> None:
        for name in ("margin", "decay_length", "epsilon"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


def _check_finite(state: AgentState, what: str) -> None:
    values = (state.pose.x, state.pose.y, state.velocity.vx, state.velocity.vy,
              state.goal[0], state.goal[1])
    if not all(math.isfinite(v) for v in values):
        raise PostprocessError(f"non-finite {what} state at stamp {state.stamp}")


def human_speed(h: AgentState) -> float:
    """Planar speed, ignoring angular velocity."""
    _check_finite(h, "human")
    return math.hypot(h.velocity.vx, h.velocity.vy)


def goal_distance(h: AgentState) -> float:
    _check_finite(h, "human")
    return math.hypot(h.goal[0] - h.pose.x, h.goal[1] - h.pose.y)


def collision_risk(h: AgentState, r: AgentState, p: RiskParams = RiskParams()) -> float:
    """Closing speed over surface gap, exponentially attenuated with distance.

    With d the center distance, R the summed body radii plus margin, u the
    unit vector human->robot and v the human velocity:

        risk = max(0, v.u) * exp(-max(0, d - R) / decay_length) / max(d - R, epsilon)

    Near-coincident agents (d <= epsilon) are clamped to the epsilon gap and
    flagged in the log; the result stays finite.
    """
    _check_finite(h, "human")
    _check_finite(r, "robot")
    dx = r.pose.x - h.pose.x
    dy = r.pose.y - h.pose.y
    d = math.hypot(dx, dy)
    if d <= p.epsilon:
        log.warning("agents nearly coincident (d=%.4f <= epsilon=%.4f); risk clamped",
                    d, p.epsilon)
    radius_sum = h.body_radius + r.body_radius + p.margin
    gap = d - radius_sum
    d_safe = max(d, 1e-12)
    closing = max(0.0, (h.velocity.vx * dx + h.velocity.vy * dy) / d_safe)
    return closing * math.exp(-max(0.0, gap) / p.decay_length) / max(gap, p.epsilon)


def postprocess_batch(samples: Iterable[RawSample],
                      risk: RiskParams = RiskParams()) -> TimeSeriesBatch:
    """One row per sample, columns (time, h_v, h_dg, h_risk)."""
    samples = list(samples)
    if not samples:
        raise PostprocessError("empty sample list")
    rows = np.empty((len(samples), 4), dtype=np.float64)
    for i, s in enumerate(samples):
        rows[i] = (s.t, human_speed(s.human), goal_distance(s.human),
                   collision_risk(s.human, s.robot, risk))
    t0 = samples[0].t
    dt = samples[1].t - samples[0].t if len(samples) > 1 else 1.0
    return TimeSeriesBatch(variable_names=list(HRI_COLUMNS), t0=t0, dt=dt, rows=rows)


IDENTITY_COLUMNS = [
    "time",
    "h_x", "h_y", "h_theta", "h_vx", "h_vy", "h_omega", "h_gx", "h_gy",
    "r_x", "r_y", "r_theta", "r_vx", "r_vy", "r_omega", "r_gx", "r_gy",
]


def identity_batch(samples: Iterable[RawSample]) -> TimeSeriesBatch:
    """Raw pose/velocity/goal columns for both agents, no feature extraction."""
    samples = list(samples)
    if not samples:
        raise PostprocessError("empty sample list")
    rows = np.empty((len(samples), len(IDENTITY_COLUMNS)), dtype=np.float64)
    for i, s in enumerate(samples):
        h, r = s.human, s.robot
        rows[i] = (
            s.t,
            h.pose.x, h.pose.y, h.pose.theta, h.velocity.vx, h.velocity.vy,
            h.velocity.omega, h.goal[0], h.goal[1],
            r.pose.x, r.pose.y, r.pose.theta, r.velocity.vx, r.velocity.vy,
            r.velocity.omega, r.goal[0], r.goal[1],
        )
    t0 = samples[0].t
    dt = samples[1].t - samples[0].t if len(samples) > 1 else 1.0
    return TimeSeriesBatch(variable_names=list(IDENTITY_COLUMNS), t0=t0, dt=dt, rows=rows)


def resolve_postprocessor(name: str, risk: RiskParams = RiskParams()):
    """Look up a registered transform by config name."""
    try:
        factory = POSTPROCESSORS[name]
    except KeyError:
        raise KeyError(
            f"unknown postprocessor {name!r}; registered: {sorted(POSTPROCESSORS)}"
        ) from None
    return factory(risk)


POSTPROCESSORS = {
    "hri_basic": lambda risk: (lambda samples: postprocess_batch(samples, risk)),
    "identity": lambda risk: identity_batch,
}
