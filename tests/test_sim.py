import math
import tracemalloc

import numpy as np
import pytest

from causalpipe.bus import MessageBus
from causalpipe.config import default_config
from causalpipe.sim import (DEFAULT_BOUNDS, Bounds, GoalSamplingError, RobotPath,
                            SFMParams, SIM_DT, Simulator, agent_repulsion_force,
                            goal_attraction_force, sample_goal)
from causalpipe.state import AgentState, HUMAN_TOPIC, Pose2D, ROBOT_TOPIC, Velocity2D
from causalpipe.stats import parcorr_test

QUIET = SFMParams(noise_accel=0.0, pause_rate=0.0)


def agent(x=0.0, y=0.0, vx=0.0, vy=0.0, goal=(0.0, 0.0), radius=0.3, agent_id="human"):
    return AgentState(agent_id=agent_id, stamp=0.0, pose=Pose2D(x, y, 0.0),
                      velocity=Velocity2D(vx, vy, 0.0), goal=goal, body_radius=radius)


# --- forces --------------------------------------------------------------------

def test_attraction_pure_braking_at_goal():
    p = QUIET
    h = agent(x=1.0, y=1.0, vx=0.5, vy=-0.25, goal=(1.0, 1.0))
    force = goal_attraction_force(h, p)
    np.testing.assert_allclose(force, [-0.5 / p.relaxation_time, 0.25 / p.relaxation_time])


def test_attraction_at_rest_far_from_goal():
    p = QUIET
    h = agent(goal=(10.0, 0.0))
    force = goal_attraction_force(h, p)
    assert np.linalg.norm(force) == pytest.approx(p.desired_speed / p.relaxation_time)
    assert force[0] > 0 and force[1] == pytest.approx(0.0)


def test_attraction_half_slowdown_radius():
    p = QUIET
    h = agent(goal=(p.slowdown_radius / 2.0, 0.0))
    force = goal_attraction_force(h, p)
    expected = (p.desired_speed / 2.0) / p.relaxation_time
    assert np.linalg.norm(force) == pytest.approx(expected)


def test_repulsion_magnitude_at_contact_radius():
    p = QUIET
    R = 0.3 + 0.3 + p.clearance_margin
    h = agent()
    r = agent(x=R, agent_id="robot")
    force = agent_repulsion_force(h, r, p)
    assert np.linalg.norm(force) == pytest.approx(p.repulsion_strength)
    assert force[0] < 0  # pushes the human away from the robot


def test_repulsion_decays_by_e_at_range():
    p = QUIET
    R = 0.6 + p.clearance_margin
    h = agent()
    r = agent(x=R + p.repulsion_range, agent_id="robot")
    force = agent_repulsion_force(h, r, p)
    assert np.linalg.norm(force) == pytest.approx(p.repulsion_strength / math.e)


def test_repulsion_negligible_far_away():
    p = QUIET
    R = 0.6 + p.clearance_margin
    h = agent()
    r = agent(x=R + 10 * p.repulsion_range, agent_id="robot")
    force = agent_repulsion_force(h, r, p)
    assert np.linalg.norm(force) < p.repulsion_strength * math.exp(-10) * 1.0001


# --- stepping ------------------------------------------------------------------

def test_speed_ramps_to_desired_speed_within_five_seconds():
    # no robot nearby, far goal straight ahead, no fluctuation force;
    # cross-checked against a fine-step reference integration of the ODE
    sfm = QUIET
    path = RobotPath(waypoints=((100.0, 100.0), (101.0, 100.0)))
    sim = Simulator(sfm=sfm, path=path, bounds=Bounds(0, 0, 1000, 1000), seed=0,
                    human_start=(5.0, 5.0), min_goal_dist=3.0)
    sim.world.human = agent(x=5.0, y=5.0, goal=(900.0, 5.0))
    for _ in range(100):  # 5 s at 0.05
        sim.step(SIM_DT)
    speed = sim.world.human.speed

    # independent reference: dv/dt = (v_max - v)/tau on the approach axis
    v_ref, dt_ref = 0.0, 0.001
    for _ in range(round(5.0 / dt_ref)):
        v_ref += (sfm.desired_speed - v_ref) / sfm.relaxation_time * dt_ref
    assert speed == pytest.approx(v_ref, rel=0.02)
    assert abs(speed - sfm.desired_speed) <= 0.05 * sfm.desired_speed


def test_zero_force_zero_velocity_stays_put():
    sfm = QUIET
    path = RobotPath(waypoints=((100.0, 100.0), (101.0, 100.0)))
    sim = Simulator(sfm=sfm, path=path, bounds=Bounds(0, 0, 1000, 1000), seed=0)
    # at the goal with zero velocity: attraction brakes (zero), repulsion ~0
    sim.world.human = agent(x=5.0, y=5.0, goal=(5.0, 5.0))
    before = sim.world.human.position
    sim.step(SIM_DT)
    after = sim.world.human.position
    assert after == pytest.approx(before, abs=1e-12)


def test_human_avoids_robot_blocking_the_line():
    # robot parked between human and goal: trajectory must deviate laterally
    sfm = SFMParams()  # default noise breaks the symmetric standoff
    path = RobotPath(waypoints=((5.0, 5.0), (5.0, 5.01)), cruise_speed=1e-6)
    sim = Simulator(sfm=sfm, path=path, seed=3, human_start=(1.0, 5.0))
    sim.world.human = agent(x=1.0, y=5.0, goal=(9.0, 5.0))
    R = 0.3 + 0.3 + sfm.clearance_margin
    max_lateral = 0.0
    min_surface = math.inf
    for _ in range(400):  # 20 s
        sim.step(SIM_DT)
        h = sim.world.human
        max_lateral = max(max_lateral, abs(h.pose.y - 5.0))
        d = math.hypot(h.pose.x - sim.world.robot.pose.x,
                       h.pose.y - sim.world.robot.pose.y)
        min_surface = min(min_surface, d - 0.6)
        if h.pose.x > 6.0:
            break
    assert max_lateral > R
    assert min_surface > 0.0


def test_speed_never_exceeds_bound():
    sim = Simulator(seed=1)
    for _ in range(2000):
        sim.step(SIM_DT)
        assert sim.world.human.speed <= sim.sfm.desired_speed + 1e-9


def test_determinism_bit_identical_streams():
    a = Simulator(seed=7)
    b = Simulator(seed=7)
    for _ in range(1000):
        wa = a.step(SIM_DT)
        wb = b.step(SIM_DT)
    assert wa.human.pose == wb.human.pose
    assert wa.human.velocity == wb.human.velocity
    assert wa.robot.pose == wb.robot.pose
    assert wa.human.goal == wb.human.goal


def test_different_seeds_differ():
    a = Simulator(seed=1)
    b = Simulator(seed=2)
    for _ in range(200):
        a.step(SIM_DT)
        b.step(SIM_DT)
    assert a.world.human.pose != b.world.human.pose


def test_goal_reached_triggers_resample():
    sim = Simulator(seed=5)
    goals = {sim.world.human.goal}
    switches = 0
    for _ in range(round(120.0 / SIM_DT)):
        old_goal = sim.world.human.goal
        sim.step(SIM_DT)
        human = sim.world.human
        goals.add(human.goal)
        if human.goal != old_goal:
            # at every switch instant the human stood within goal_radius of the old goal
            switches += 1
            assert math.hypot(old_goal[0] - human.pose.x,
                              old_goal[1] - human.pose.y) <= sim.sfm.goal_radius
    assert len(goals) >= 3
    assert switches == len(goals) - 1


def test_memory_stays_bounded_over_a_long_run():
    # the simulator runs as long as the robot does, so a step must not leave
    # anything behind (6,000 steps are 300 simulated seconds)
    config = default_config()
    sim = Simulator(sfm=config.sfm, path=config.robot_path, seed=config.seed)
    tracemalloc.start()
    try:
        for _ in range(300):
            sim.step(SIM_DT)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(6000):
            sim.step(SIM_DT)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, f"{grown} bytes kept by 6,000 steps"


def test_clearance_over_ten_seeds():
    for seed in range(10):
        sim = Simulator(seed=seed)
        min_surface = math.inf
        for _ in range(round(60.0 / SIM_DT)):
            w = sim.step(SIM_DT)
            d = math.hypot(w.human.pose.x - w.robot.pose.x,
                           w.human.pose.y - w.robot.pose.y)
            min_surface = min(min_surface, d - w.human.body_radius - w.robot.body_radius)
        assert min_surface > 0.0, f"contact at seed {seed}"


def test_agents_stay_in_bounds():
    sim = Simulator(seed=2)
    b = sim.bounds
    for _ in range(2000):
        w = sim.step(SIM_DT)
        assert b.x_min <= w.human.pose.x <= b.x_max
        assert b.y_min <= w.human.pose.y <= b.y_max


def test_robot_follows_waypoints_and_loops():
    path = RobotPath(waypoints=((2.0, 2.0), (8.0, 2.0)), cruise_speed=1.0, loop=True)
    sim = Simulator(path=path, seed=0, sfm=QUIET)
    xs = []
    for _ in range(round(14.0 / SIM_DT)):
        w = sim.step(SIM_DT)
        xs.append(w.robot.pose.x)
    assert max(xs) >= 7.9  # reached the far waypoint
    assert min(xs[round(7.0 / SIM_DT):]) <= 2.5  # and came back (loop)


def test_stamps_strictly_increase_on_bus():
    bus = MessageBus()
    bus.create_topic(ROBOT_TOPIC, AgentState)
    bus.create_topic(HUMAN_TOPIC, AgentState)
    sub = bus.subscribe(HUMAN_TOPIC, capacity=100)
    sim = Simulator(seed=0, bus=bus)
    sim.publish_initial()
    for _ in range(50):
        sim.step(SIM_DT)
    stamps = [e.payload.stamp for e in sub.drain()]
    assert all(b > a for a, b in zip(stamps, stamps[1:]))


# --- goal sampling ---------------------------------------------------------------

def test_sample_goal_deterministic():
    g1 = sample_goal(np.random.default_rng(3), DEFAULT_BOUNDS, (5.0, 5.0))
    g2 = sample_goal(np.random.default_rng(3), DEFAULT_BOUNDS, (5.0, 5.0))
    assert g1 == g2


def test_sample_goal_constraints_hold():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        x, y = sample_goal(rng, DEFAULT_BOUNDS, (0.0, 0.0), min_dist=3.0)
        assert 0.0 <= x <= 10.0 and 0.0 <= y <= 10.0
        assert math.hypot(x, y) >= 3.0


def test_sample_goal_uniform_when_unconstrained():
    from scipy import stats as sps
    # current position far outside: the min-distance constraint never binds,
    # so samples are uniform per axis over the admissible region
    rng = np.random.default_rng(1)
    pts = np.array([sample_goal(rng, DEFAULT_BOUNDS, (-100.0, -100.0))
                    for _ in range(10_000)])
    assert sps.kstest(pts[:, 0] / 10.0, "uniform").pvalue > 0.01
    assert sps.kstest(pts[:, 1] / 10.0, "uniform").pvalue > 0.01


def test_sample_goal_relaxes_then_fails():
    rng = np.random.default_rng(0)
    tiny = Bounds(0.0, 0.0, 1.0, 1.0)
    # min_dist 1.6 impossible in a 1x1 box from the center, 0.8 after halving
    # is still impossible from the center (max corner distance ~0.707)
    with pytest.raises(GoalSamplingError):
        sample_goal(rng, tiny, (0.5, 0.5), min_dist=1.6)
    # but relaxation rescues a borderline constraint: 1.2 halves to 0.6 < 0.707
    g = sample_goal(rng, tiny, (0.5, 0.5), min_dist=1.2)
    assert math.hypot(g[0] - 0.5, g[1] - 0.5) >= 0.6


# --- parameter validation ---------------------------------------------------------

def test_sfm_params_validation():
    with pytest.raises(ValueError):
        SFMParams(relaxation_time=0.0)
    with pytest.raises(ValueError):
        SFMParams(noise_accel=-0.1)
    with pytest.raises(ValueError):
        SFMParams(pause_min=2.0, pause_max=1.0)


def test_robot_path_validation():
    with pytest.raises(ValueError):
        RobotPath(waypoints=((1.0, 1.0),))
    with pytest.raises(ValueError):
        RobotPath(waypoints=((1.0, 1.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        RobotPath(cruise_speed=0.0)


def test_step_dt_validation():
    sim = Simulator(seed=0)
    with pytest.raises(ValueError):
        sim.step(0.2)
    with pytest.raises(ValueError):
        sim.step(0.0)


# --- emergent causal texture -------------------------------------------------------

def test_emergent_lag1_dependencies():
    # the scenario must actually produce the dependencies discovery relies on:
    # speed couples with goal distance, and risk couples with speed, at lag 1
    from causalpipe.collector import Collector, CollectorConfig
    from causalpipe.postprocess import postprocess_batch
    from causalpipe.timeseries import read_csv
    import tempfile
    from pathlib import Path

    bus = MessageBus()
    bus.create_topic(ROBOT_TOPIC, AgentState)
    bus.create_topic(HUMAN_TOPIC, AgentState)
    sim = Simulator(seed=0, bus=bus)
    with tempfile.TemporaryDirectory() as td:
        config = CollectorConfig(dt=0.3, batch_seconds=150.0, pool_dir=Path(td))
        collector = Collector(bus, config, postprocess_batch)
        sim.publish_initial()
        collector.tick(0.0)
        for k in range(1, 3001):
            sim.step(SIM_DT)
            collector.tick(k * SIM_DT)
        batch = read_csv(collector.files_written[0])
    _, X = batch.analysis_view()
    v, dg, risk = X[:, 0], X[:, 1], X[:, 2]
    # h_v with h_dg at lag 1 (conditioned on the self-history of the target)
    assert parcorr_test(v[:-1], dg[1:], [dg[:-1]]).p_value <= 0.05
    assert parcorr_test(dg[:-1], v[1:], [v[:-1]]).p_value <= 0.05
    # h_risk with h_v at lag 1
    assert parcorr_test(risk[:-1], v[1:], [v[:-1]]).p_value <= 0.05
