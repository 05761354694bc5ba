import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from causalpipe.bus import MessageBus
from causalpipe.config import default_config
from causalpipe.postprocess import human_speed
from causalpipe.sim import (DEFAULT_BOUNDS, MIN_GOAL_DIST, Bounds, GoalSamplingError,
                            RobotPath, SFMParams, SIM_DT, Simulator, _clamp_to_bounds,
                            agent_repulsion_force, goal_attraction_force, sample_goal)
from causalpipe.state import (AgentState, HUMAN_TOPIC, Pose2D, ROBOT_TOPIC, Velocity2D,
                              normalize_angle)
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


# --- the human step against its numpy-vector form ---------------------------------

def goal_attraction_reference(agent, p):
    gx = agent.goal[0] - agent.pose.x
    gy = agent.goal[1] - agent.pose.y
    d_goal = math.hypot(gx, gy)
    if d_goal > 0:
        v_des = p.desired_speed * min(1.0, d_goal / p.slowdown_radius)
        ex, ey = gx / d_goal, gy / d_goal
    else:
        v_des, ex, ey = 0.0, 0.0, 0.0
    return np.array([
        (v_des * ex - agent.velocity.vx) / p.relaxation_time,
        (v_des * ey - agent.velocity.vy) / p.relaxation_time,
    ])


def agent_repulsion_reference(human, robot, p):
    nx = human.pose.x - robot.pose.x
    ny = human.pose.y - robot.pose.y
    d = max(math.hypot(nx, ny), 1e-6)
    R = human.body_radius + robot.body_radius + p.clearance_margin
    magnitude = p.repulsion_strength * math.exp((R - d) / p.repulsion_range)
    return np.array([magnitude * nx / d, magnitude * ny / d])


def human_step_reference(sim, rng, dt):
    """The human's step computed on numpy 2-vectors and np.float64 scalars,
    drawing the pause from rng.uniform(); returns the new pose, velocity and
    goal and the end of the current halt. Simulator._step_human does the same
    operations in the same order on Python floats."""
    w, sfm = sim.world, sim.sfm
    h = w.human
    paused_until = sim._paused_until
    if sfm.pause_rate > 0 and w.time >= paused_until:
        if rng.uniform() < sfm.pause_rate * dt:
            duration = math.exp(rng.uniform(math.log(sfm.pause_min), math.log(sfm.pause_max)))
            paused_until = w.time + duration
    if w.time < paused_until:
        attraction = np.array([-h.velocity.vx, -h.velocity.vy]) / sfm.relaxation_time
    else:
        attraction = goal_attraction_reference(h, sfm)
    force = attraction + agent_repulsion_reference(h, w.robot, sfm)
    if sfm.noise_accel > 0:
        force = force + sfm.noise_accel * rng.standard_normal(2)
    vx = h.velocity.vx + force[0] * dt
    vy = h.velocity.vy + force[1] * dt
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
        goal = sample_goal(rng, w.bounds, (x, y))
    return Pose2D(x, y, theta), Velocity2D(vx, vy, omega), goal, paused_until


def bits(*values):
    return tuple(float(v).hex() for v in values)


def assert_step_equals_reference(sim):
    rng = copy.deepcopy(sim.world.rng)
    pose, velocity, goal, paused_until = human_step_reference(sim, rng, SIM_DT)
    human = sim.step(SIM_DT).human
    assert bits(human.pose.x, human.pose.y, human.pose.theta) == \
        bits(pose.x, pose.y, pose.theta)
    assert bits(human.velocity.vx, human.velocity.vy, human.velocity.omega) == \
        bits(velocity.vx, velocity.vy, velocity.omega)
    assert bits(*human.goal, sim._paused_until) == bits(*goal, paused_until)
    assert sim.world.rng.bit_generator.state == rng.bit_generator.state


coordinate = st.floats(0.0, 10.0)
velocity_component = st.floats(-1.4, 1.4)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), human=st.tuples(coordinate, coordinate),
       velocity=st.tuples(velocity_component, velocity_component),
       goal=st.tuples(coordinate, coordinate), robot=st.tuples(coordinate, coordinate),
       halted=st.booleans(), quiet=st.booleans(), time=st.floats(0.0, 1000.0))
@example(seed=0, human=(5.0, 5.0), velocity=(0.3, -0.2), goal=(5.0, 5.0), robot=(5.0, 5.0),
         halted=False, quiet=False, time=0.0)  # at the goal and on the robot
@example(seed=1, human=(0.0, 10.0), velocity=(-1.4, 1.4), goal=(9.0, 1.0), robot=(1.0, 9.0),
         halted=True, quiet=True, time=3.0)  # halted against a corner
def test_human_step_equals_the_vector_form(seed, human, velocity, goal, robot, halted,
                                           quiet, time):
    sim = Simulator(sfm=QUIET if quiet else SFMParams(), seed=seed)
    sim.publish_initial()
    sim.world.human = agent(*human, *velocity, goal=goal)
    sim.world.robot = agent(*robot, agent_id="robot")
    sim.world.time = time
    sim._paused_until = time + 1.0 if halted else -1.0
    assert_step_equals_reference(sim)


def test_human_steps_equal_the_vector_form_over_a_long_run():
    # 6,000 steps (300 simulated seconds) both walk and halt, and resample goals
    config = default_config()
    sim = Simulator(sfm=config.sfm, path=config.robot_path, seed=config.seed)
    halted = 0
    goals = {sim.world.human.goal}
    for _ in range(6000):
        halted += sim.world.time < sim._paused_until
        assert_step_equals_reference(sim)
        goals.add(sim.world.human.goal)
    assert 0 < halted < 6000
    assert len(goals) > 2


# --- stepping ------------------------------------------------------------------

def test_speed_ramps_to_desired_speed_within_five_seconds():
    # no robot nearby, far goal straight ahead, no fluctuation force;
    # cross-checked against a fine-step reference integration of the ODE
    sfm = QUIET
    path = RobotPath(waypoints=((100.0, 100.0), (101.0, 100.0)))
    sim = Simulator(sfm=sfm, path=path, bounds=Bounds(0, 0, 1000, 1000), seed=0)
    sim.world.human = agent(x=5.0, y=5.0, goal=(900.0, 5.0))
    for _ in range(100):  # 5 s at 0.05
        sim.step(SIM_DT)
    speed = human_speed(sim.world.human)

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
    before = (sim.world.human.pose.x, sim.world.human.pose.y)
    sim.step(SIM_DT)
    after = (sim.world.human.pose.x, sim.world.human.pose.y)
    assert after == pytest.approx(before, abs=1e-12)


def test_human_avoids_robot_blocking_the_line():
    # robot parked between human and goal: trajectory must deviate laterally
    sfm = SFMParams()  # default noise breaks the symmetric standoff
    path = RobotPath(waypoints=((5.0, 5.0), (5.0, 5.01)), cruise_speed=1e-6)
    sim = Simulator(sfm=sfm, path=path, seed=3)
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
        assert human_speed(sim.world.human) <= sim.sfm.desired_speed + 1e-9


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
    path = RobotPath(waypoints=((2.0, 2.0), (8.0, 2.0)), cruise_speed=1.0)
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
        x, y = sample_goal(rng, DEFAULT_BOUNDS, (0.0, 0.0))
        assert 0.0 <= x <= 10.0 and 0.0 <= y <= 10.0
        assert math.hypot(x, y) >= MIN_GOAL_DIST


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
    # From the centre of a square of side MIN_GOAL_DIST / 1.6 no point is as
    # far as MIN_GOAL_DIST, nor as half of it after halving (the farthest
    # corner is 0.707 / 1.6 of it away)
    side = MIN_GOAL_DIST / 1.6
    with pytest.raises(GoalSamplingError):
        sample_goal(rng, Bounds(0.0, 0.0, side, side), (side / 2, side / 2))
    # but relaxation rescues a borderline square: at side MIN_GOAL_DIST / 1.2
    # the farthest corner is 0.707 / 1.2 of it away, past the halved 0.5
    side = MIN_GOAL_DIST / 1.2
    g = sample_goal(rng, Bounds(0.0, 0.0, side, side), (side / 2, side / 2))
    assert math.hypot(g[0] - side / 2, g[1] - side / 2) >= MIN_GOAL_DIST / 2


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
