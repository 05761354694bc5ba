import math

import numpy as np
import pytest

from causalpipe.collector import RawSample
from causalpipe.postprocess import (HRI_COLUMNS, PostprocessError, RiskParams,
                                    collision_risk, goal_distance, human_speed,
                                    identity_batch, postprocess_batch,
                                    resolve_postprocessor)
from causalpipe.state import AgentState, Pose2D, Velocity2D


def agent(x=0.0, y=0.0, vx=0.0, vy=0.0, goal=(0.0, 0.0), radius=0.3,
          agent_id="human", stamp=0.0):
    return AgentState(agent_id=agent_id, stamp=stamp, pose=Pose2D(x, y, 0.0),
                      velocity=Velocity2D(vx, vy, 0.0), goal=goal,
                      body_radius=radius)


def reference_risk(h, r, p):
    # independent scalar re-derivation used as the cross-check oracle
    dx, dy = r.pose.x - h.pose.x, r.pose.y - h.pose.y
    d = math.sqrt(dx * dx + dy * dy)
    big_r = h.body_radius + r.body_radius + p.margin
    closing = (h.velocity.vx * dx + h.velocity.vy * dy) / d
    closing = closing if closing > 0 else 0.0
    gap = d - big_r
    attenuation = math.exp(-(gap if gap > 0 else 0.0) / p.decay_length)
    return closing * attenuation / (gap if gap > p.epsilon else p.epsilon)


def test_speed_zero():
    assert human_speed(agent()) == 0.0


def test_speed_euclidean_norm():
    assert human_speed(agent(vx=3.0, vy=4.0)) == pytest.approx(5.0)


def test_speed_sign_independent():
    assert human_speed(agent(vx=-1.0)) == pytest.approx(1.0)


def test_goal_distance_zero_at_goal():
    assert goal_distance(agent(x=2.0, y=3.0, goal=(2.0, 3.0))) == 0.0


def test_goal_distance_three_four_five():
    assert goal_distance(agent(goal=(3.0, 4.0))) == pytest.approx(5.0)


def test_goal_distance_translation_invariant():
    a = agent(x=1.0, y=2.0, goal=(4.0, 6.0))
    b = agent(x=11.0, y=12.0, goal=(14.0, 16.0))
    assert goal_distance(a) == pytest.approx(goal_distance(b))


def test_risk_zero_for_stationary_human():
    h = agent()
    r = agent(x=2.0, agent_id="robot")
    assert collision_risk(h, r) == 0.0


def test_risk_zero_when_moving_away():
    h = agent(vx=-1.0)
    r = agent(x=3.0, agent_id="robot")
    assert collision_risk(h, r) == 0.0


def test_risk_hand_value():
    # d=3, R=0.3+0.3+0.3=0.9, closing speed 1 -> exp(-2.1/2)/2.1
    p = RiskParams(margin=0.3, decay_length=2.0, epsilon=0.05)
    h = agent(vx=1.0)
    r = agent(x=3.0, agent_id="robot")
    expected = math.exp(-2.1 / 2.0) / 2.1
    assert collision_risk(h, r, p) == pytest.approx(expected, rel=1e-12)


def test_risk_matches_independent_implementation():
    p = RiskParams()
    rng = np.random.default_rng(3)
    for _ in range(200):
        hx, hy, rx, ry = rng.uniform(-5, 5, size=4)
        if math.hypot(rx - hx, ry - hy) < 0.2:
            continue
        vx, vy = rng.normal(0, 1.5, size=2)
        h = agent(x=hx, y=hy, vx=vx, vy=vy)
        r = agent(x=rx, y=ry, agent_id="robot")
        assert collision_risk(h, r, p) == pytest.approx(reference_risk(h, r, p), rel=1e-12)


def test_risk_clamped_near_coincident_agents():
    h = agent(vx=1.0)
    r = agent(x=0.01, agent_id="robot")
    value = collision_risk(h, r)
    assert math.isfinite(value)
    assert value > 0


def test_risk_monotone_in_closing_speed():
    p = RiskParams()
    r = agent(x=4.0, agent_id="robot")
    risks = [collision_risk(agent(vx=v), r, p) for v in np.linspace(0.1, 2.0, 15)]
    assert all(b >= a for a, b in zip(risks, risks[1:]))


def test_risk_decreases_with_distance():
    p = RiskParams()
    risks = [collision_risk(agent(vx=1.0), agent(x=d, agent_id="robot"), p)
             for d in np.linspace(1.2, 8.0, 20)]
    assert all(b <= a for a, b in zip(risks, risks[1:]))


def test_outputs_translation_invariant():
    p = RiskParams()
    h1 = agent(x=1.0, y=1.0, vx=0.7, vy=0.2, goal=(3.0, 3.0))
    r1 = agent(x=4.0, y=2.0, agent_id="robot")
    h2 = agent(x=11.0, y=11.0, vx=0.7, vy=0.2, goal=(13.0, 13.0))
    r2 = agent(x=14.0, y=12.0, agent_id="robot")
    assert human_speed(h1) == pytest.approx(human_speed(h2))
    assert goal_distance(h1) == pytest.approx(goal_distance(h2))
    assert collision_risk(h1, r1, p) == pytest.approx(collision_risk(h2, r2, p))


def test_goal_distance_decreases_on_straight_approach():
    goal = (10.0, 0.0)
    dists = [goal_distance(agent(x=x, vx=1.0, goal=goal)) for x in np.arange(0, 9, 0.5)]
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_postprocess_batch_stationary_at_goal():
    h = agent(x=1.0, y=1.0, goal=(1.0, 1.0))
    r = agent(x=9.0, y=9.0, agent_id="robot")
    batch = postprocess_batch([RawSample(t=4.2, human=h, robot=r)])
    assert batch.variable_names == HRI_COLUMNS
    np.testing.assert_allclose(batch.rows[0], [4.2, 0.0, 0.0, 0.0], atol=1e-12)


def test_postprocess_batch_preserves_order_and_count():
    samples = [RawSample(t=0.3 * i,
                         human=agent(x=float(i), vx=1.0, goal=(9.0, 0.0)),
                         robot=agent(x=9.0, y=5.0, agent_id="robot"))
               for i in range(10)]
    batch = postprocess_batch(samples)
    assert batch.n_samples == 10
    np.testing.assert_allclose(batch.column("time"), [0.3 * i for i in range(10)])


def nan_velocity_human():
    """A human state with a NaN velocity, bypassing the constructor's checks."""
    h = AgentState.__new__(AgentState)
    object.__setattr__(h, "agent_id", "human")
    object.__setattr__(h, "stamp", 0.0)
    object.__setattr__(h, "pose", Pose2D(0, 0, 0))
    object.__setattr__(h, "velocity", Velocity2D.__new__(Velocity2D))
    object.__setattr__(h.velocity, "vx", float("nan"))
    object.__setattr__(h.velocity, "vy", 0.0)
    object.__setattr__(h.velocity, "omega", 0.0)
    object.__setattr__(h, "goal", (0.0, 0.0))
    object.__setattr__(h, "body_radius", 0.3)
    return h


def test_postprocess_batch_rejects_nonfinite_sample():
    with pytest.raises(PostprocessError):
        postprocess_batch([RawSample(t=0.0, human=nan_velocity_human(), robot=agent())])


def test_postprocess_batch_names_the_time_of_a_nonfinite_row():
    # finite states whose speed overflows to inf
    robot = agent(x=5.0, agent_id="robot")
    samples = [RawSample(t=0.0, human=agent(), robot=robot),
               RawSample(t=0.3, human=agent(vx=1.5e308, vy=1.5e308), robot=robot)]
    with pytest.raises(PostprocessError, match="at time 0.3$"):
        postprocess_batch(samples)


def test_postprocess_batch_rejects_empty():
    with pytest.raises(PostprocessError):
        postprocess_batch([])


def test_identity_batch_raw_columns():
    s = RawSample(t=1.0, human=agent(x=1.0, vx=0.5, goal=(2.0, 2.0)),
                  robot=agent(x=5.0, agent_id="robot", goal=(6.0, 6.0)))
    batch = identity_batch([s])
    assert batch.column("h_x")[0] == 1.0
    assert batch.column("r_x")[0] == 5.0
    assert batch.column("h_gx")[0] == 2.0


def test_identity_batch_names_the_time_of_a_nonfinite_row():
    robot = agent(x=5.0, agent_id="robot")
    samples = [RawSample(t=0.0, human=agent(), robot=robot),
               RawSample(t=0.3, human=nan_velocity_human(), robot=robot)]
    with pytest.raises(PostprocessError, match="at time 0.3$"):
        identity_batch(samples)


def test_resolver_knows_registered_names():
    fn = resolve_postprocessor("hri_basic", RiskParams())
    assert callable(fn)
    fn = resolve_postprocessor("identity")
    assert callable(fn)
    with pytest.raises(KeyError):
        resolve_postprocessor("nope")


def test_risk_params_must_be_positive():
    with pytest.raises(ValueError):
        RiskParams(margin=0.0)
