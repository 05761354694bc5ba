import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from causalpipe.bus import MessageBus
from causalpipe.state import (AgentState, HUMAN_TOPIC, Pose2D, ROBOT_TOPIC,
                              StateMerger, ValidationError, Velocity2D,
                              normalize_angle)


def test_normalize_angle_three_half_pi():
    assert normalize_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)


def test_normalize_angle_boundary_maps_to_pi():
    assert normalize_angle(math.pi) == pytest.approx(math.pi)
    assert normalize_angle(-math.pi) == pytest.approx(math.pi)


@given(st.floats(min_value=-1e6, max_value=1e6))
def test_normalize_angle_range_and_equivalence(theta):
    wrapped = normalize_angle(theta)
    assert -math.pi < wrapped <= math.pi
    # same direction up to 2*pi
    assert math.isclose(math.cos(wrapped), math.cos(theta), abs_tol=1e-6)
    assert math.isclose(math.sin(wrapped), math.sin(theta), abs_tol=1e-6)


def test_pose_normalizes_theta():
    pose = Pose2D(0.0, 0.0, 3 * math.pi / 2)
    assert pose.theta == pytest.approx(-math.pi / 2)


def test_merge_passes_fields_through():
    merger = StateMerger.for_robot()
    pose = Pose2D(0.0, 0.0, 0.0)
    vel = Velocity2D(0.0, 0.0, 0.0)
    state = merger.merge(pose, vel, goal=(1.0, 0.0), stamp=2.5)
    assert state.pose == pose
    assert state.velocity == vel
    assert state.goal == (1.0, 0.0)
    assert state.stamp == 2.5
    assert state.agent_id == "robot"


def test_merge_rejects_nan_velocity():
    merger = StateMerger.for_robot()
    with pytest.raises(ValidationError):
        merger.merge(Pose2D(0, 0, 0), Velocity2D(float("nan"), 0, 0), (1, 0), 0.1)


def test_merge_rejects_nonfinite_pose():
    with pytest.raises(ValidationError):
        Pose2D(float("inf"), 0.0, 0.0)


def test_stamps_must_strictly_increase():
    merger = StateMerger.for_human()
    pose, vel = Pose2D(0, 0, 0), Velocity2D(0, 0, 0)
    merger.merge(pose, vel, (1, 1), stamp=1.0)
    merger.merge(pose, vel, (1, 1), stamp=1.5)
    with pytest.raises(ValidationError):
        merger.merge(pose, vel, (1, 1), stamp=1.5)
    with pytest.raises(ValidationError):
        merger.merge(pose, vel, (1, 1), stamp=0.9)


def test_goal_change_mid_stream_is_carried():
    merger = StateMerger.for_human()
    pose, vel = Pose2D(0, 0, 0), Velocity2D(0, 0, 0)
    first = merger.merge(pose, vel, (1, 1), stamp=0.1)
    second = merger.merge(pose, vel, (4, 5), stamp=0.2)
    assert first.goal == (1.0, 1.0)
    assert second.goal == (4.0, 5.0)


def test_negative_stamp_rejected():
    with pytest.raises(ValidationError):
        AgentState("human", -0.1, Pose2D(0, 0, 0), Velocity2D(0, 0, 0), (0, 0), 0.3)


def test_body_radius_must_be_positive():
    with pytest.raises(ValidationError):
        AgentState("human", 0.0, Pose2D(0, 0, 0), Velocity2D(0, 0, 0), (0, 0), 0.0)


def test_mergers_publish_on_their_topics():
    bus = MessageBus()
    bus.create_topic(ROBOT_TOPIC, AgentState)
    bus.create_topic(HUMAN_TOPIC, AgentState)
    robot_sub = bus.subscribe(ROBOT_TOPIC)
    human_sub = bus.subscribe(HUMAN_TOPIC)
    robot = StateMerger.for_robot(bus=bus)
    human = StateMerger.for_human(bus=bus)
    pose, vel = Pose2D(0, 0, 0), Velocity2D(0.1, 0, 0)
    robot.merge(pose, vel, (1, 0), stamp=0.1)
    human.merge(pose, vel, (0, 1), stamp=0.1)
    robot_msgs = robot_sub.drain()
    human_msgs = human_sub.drain()
    assert len(robot_msgs) == 1 and robot_msgs[0].payload.agent_id == "robot"
    assert len(human_msgs) == 1 and human_msgs[0].payload.agent_id == "human"
    assert robot_msgs[0].publish_time == 0.1


def test_merge_is_lossless_after_normalization():
    merger = StateMerger.for_human()
    state = merger.merge(Pose2D(2.0, -3.0, 7.0), Velocity2D(0.5, -0.25, 0.1),
                         (9.0, 9.0), stamp=0.3)
    assert state.pose.x == 2.0 and state.pose.y == -3.0
    assert state.pose.theta == pytest.approx(normalize_angle(7.0))
    assert (state.velocity.vx, state.velocity.vy, state.velocity.omega) == (0.5, -0.25, 0.1)


VALID_FIELDS = {
    Pose2D: dict(x=1.0, y=2.0, theta=0.5),
    Velocity2D: dict(vx=0.1, vy=-0.2, omega=0.3),
    AgentState: dict(agent_id="human", stamp=1.0, pose=Pose2D(0.0, 0.0, 0.0),
                     velocity=Velocity2D(0.0, 0.0, 0.0), goal=(1.0, 2.0), body_radius=0.3),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("message, field", [
    (Pose2D, "x"), (Pose2D, "y"), (Pose2D, "theta"),
    (Velocity2D, "vx"), (Velocity2D, "vy"), (Velocity2D, "omega"),
    (AgentState, "stamp"), (AgentState, "goal_x"), (AgentState, "goal_y"),
    (AgentState, "body_radius"),
], ids=lambda v: getattr(v, "__name__", v))
def test_nonfinite_field_is_named(message, field, bad):
    fields = dict(VALID_FIELDS[message])
    if field.startswith("goal_"):
        goal = list(fields["goal"])
        goal["xy".index(field[-1])] = bad
        fields["goal"] = tuple(goal)
    else:
        fields[field] = bad
    with pytest.raises(ValidationError, match=rf"^{field} must be finite, got {bad!r}$"):
        message(**fields)


# --- the message contract: frozen dataclasses with unchanged eq, hash, repr --

POSE = Pose2D(1.0, 2.0, 0.5)
VELOCITY = Velocity2D(0.1, -0.2, 0.3)
STATE = AgentState("human", 1.5, POSE, VELOCITY, (3.0, 4.0), 0.3)
STATE_REPR = ("AgentState(agent_id='human', stamp=1.5, pose=Pose2D(x=1.0, y=2.0, theta=0.5), "
              "velocity=Velocity2D(vx=0.1, vy=-0.2, omega=0.3), goal=(3.0, 4.0), "
              "body_radius=0.3)")


@pytest.mark.parametrize("message", [POSE, VELOCITY, STATE], ids=lambda m: type(m).__name__)
def test_message_fields_are_frozen(message):
    for f in dataclasses.fields(message):
        value = getattr(message, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(message, f.name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(message, f.name)
        assert getattr(message, f.name) is value
    # no attribute outside the declared fields either (CPython 3.11 raises
    # TypeError here for a frozen dataclass with slots)
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
        message.extra = 1


def test_message_fields_in_declaration_order():
    def declared(cls):
        return [(f.name, f.type) for f in dataclasses.fields(cls)]

    assert declared(Pose2D) == [("x", "float"), ("y", "float"), ("theta", "float")]
    assert declared(Velocity2D) == [("vx", "float"), ("vy", "float"), ("omega", "float")]
    assert declared(AgentState) == [
        ("agent_id", "str"), ("stamp", "float"), ("pose", "Pose2D"),
        ("velocity", "Velocity2D"), ("goal", "tuple[float, float]"), ("body_radius", "float")]


def test_message_repr_eq_and_hash():
    assert repr(POSE) == "Pose2D(x=1.0, y=2.0, theta=0.5)"
    assert repr(VELOCITY) == "Velocity2D(vx=0.1, vy=-0.2, omega=0.3)"
    assert repr(STATE) == STATE_REPR
    # fields are stored as given, apart from theta and the goal
    assert repr(Pose2D(1, 2, 0)) == "Pose2D(x=1, y=2, theta=0.0)"
    assert hash(POSE) == hash((1.0, 2.0, 0.5))
    assert hash(VELOCITY) == hash((0.1, -0.2, 0.3))
    assert hash(STATE) == hash(("human", 1.5, POSE, VELOCITY, (3.0, 4.0), 0.3))
    twin = AgentState(agent_id="human", stamp=1.5, pose=Pose2D(1.0, 2.0, 0.5),
                      velocity=Velocity2D(0.1, -0.2, 0.3), goal=[3, 4], body_radius=0.3)
    assert twin == STATE and hash(twin) == hash(STATE)
    assert Pose2D(1.0, 2.0, 0.5 + 2 * math.pi) == POSE  # theta normalized first
    assert STATE != AgentState("robot", 1.5, POSE, VELOCITY, (3.0, 4.0), 0.3)
    assert POSE != (1.0, 2.0, 0.5)  # a message equals only its own kind
    assert len({POSE, Pose2D(1.0, 2.0, 0.5), VELOCITY}) == 2


def test_messages_survive_pickling_and_replace():
    for message in (POSE, VELOCITY, STATE):
        assert pickle.loads(pickle.dumps(message)) == message
    moved = dataclasses.replace(STATE, stamp=2.0)
    assert (moved.stamp, moved.pose, moved.goal) == (2.0, POSE, (3.0, 4.0))
    with pytest.raises(ValidationError, match=r"^stamp must be >= 0, got -1.0$"):
        dataclasses.replace(STATE, stamp=-1.0)


@pytest.mark.parametrize("goal", [(3, 4), [3.0, 4.0], (3.0, 4.0, 9.0),
                                  np.array([3.0, 4.0]), (np.float64(3.0), 4.0)],
                         ids=["ints", "list", "triple", "array", "numpy-scalar"])
def test_goal_becomes_a_tuple_of_two_floats(goal):
    state = AgentState("human", 0.0, POSE, VELOCITY, goal, 0.3)
    assert state.goal == (3.0, 4.0)
    assert type(state.goal) is tuple
    assert [type(c) for c in state.goal] == [float, float]


def test_goal_of_two_floats_is_kept():
    goal = (3.0, 4.0)
    assert AgentState("human", 0.0, POSE, VELOCITY, goal, 0.3).goal is goal


@pytest.mark.parametrize("build, message", [
    (lambda: AgentState("human", -0.5, POSE, VELOCITY, (0, 0), 0.3),
     "stamp must be >= 0, got -0.5"),
    (lambda: AgentState("human", 0.0, POSE, VELOCITY, (0, 0), 0.0),
     "body_radius must be > 0, got 0.0"),
    (lambda: AgentState("human", 0.0, POSE, VELOCITY, (0, 0), -2),
     "body_radius must be > 0, got -2"),
    # the finiteness check runs before the range checks
    (lambda: AgentState("human", -0.5, POSE, VELOCITY, (0, math.nan), 0.0),
     "goal_y must be finite, got nan"),
    (lambda: Pose2D(0.0, -math.inf, math.nan), "y must be finite, got -inf"),
    (lambda: Velocity2D(math.inf, math.nan, 0.0), "vx must be finite, got inf"),
], ids=["stamp", "radius-zero", "radius-negative", "finite-first", "pose-first",
        "velocity-first"])
def test_validation_error_texts(build, message):
    with pytest.raises(ValidationError) as raised:
        build()
    assert str(raised.value) == message


def test_merger_stamp_error_text():
    merger = StateMerger.for_human()
    merger.merge(POSE, VELOCITY, (1.0, 1.0), stamp=1.5)
    with pytest.raises(ValidationError) as raised:
        merger.merge(POSE, VELOCITY, (1.0, 1.0), stamp=1.25)
    assert str(raised.value) == ("stamps must be strictly increasing on "
                                 "'/roscausal/human': 1.25 after 1.5")
