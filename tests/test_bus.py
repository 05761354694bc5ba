import threading

import pytest
from hypothesis import given, strategies as st

from causalpipe.bus import (BusError, DuplicateTopicError, MessageBus,
                            MessageKindError, UnknownTopicError)


class RobotMsg:
    def __init__(self, tag=0):
        self.tag = tag


class HumanMsg:
    pass


@pytest.fixture
def bus():
    b = MessageBus()
    b.create_topic("/roscausal/robot", RobotMsg)
    b.create_topic("/roscausal/human", HumanMsg)
    return b


def test_create_topic_returns_handle(bus):
    topic = bus.topic("/roscausal/robot")
    assert topic.name == "/roscausal/robot"
    assert topic.kind is RobotMsg


def test_create_topic_registers_model_topic():
    bus = MessageBus()
    topic = bus.create_topic("/roscausal/causal_model", dict)
    assert bus.topic("/roscausal/causal_model") is topic


def test_duplicate_topic_rejected(bus):
    with pytest.raises(DuplicateTopicError):
        bus.create_topic("/roscausal/robot", RobotMsg)


def test_unknown_topic_rejected(bus):
    with pytest.raises(UnknownTopicError):
        bus.subscribe("/nope")
    with pytest.raises(UnknownTopicError):
        bus.publish("/nope", RobotMsg(), time=0.0)


def test_publish_without_subscribers_is_noop(bus):
    bus.publish("/roscausal/robot", RobotMsg(), time=0.0)


def test_kind_mismatch_rejected(bus):
    with pytest.raises(MessageKindError):
        bus.publish("/roscausal/robot", HumanMsg(), time=0.0)


def test_capacity_two_drops_oldest(bus):
    # hand-enumerated queue states: [a] -> [a,b] -> [b,c]
    sub = bus.subscribe("/roscausal/robot", capacity=2)
    a, b, c = RobotMsg("a"), RobotMsg("b"), RobotMsg("c")
    bus.publish("/roscausal/robot", a, time=0.0)
    bus.publish("/roscausal/robot", b, time=1.0)
    bus.publish("/roscausal/robot", c, time=2.0)
    drained = sub.drain()
    assert [e.payload.tag for e in drained] == ["b", "c"]


def test_full_subscription_counts_dropped(bus):
    sub = bus.subscribe("/roscausal/robot", capacity=2)
    for k in range(5):
        bus.publish("/roscausal/robot", RobotMsg(k), time=float(k))
    assert sub.dropped == 3
    assert [e.payload.tag for e in sub.drain()] == [3, 4]


def test_subscribe_then_publish_delivers(bus):
    sub = bus.subscribe("/roscausal/robot", capacity=4)
    msg = RobotMsg("x")
    bus.publish("/roscausal/robot", msg, time=0.5)
    drained = sub.drain()
    assert len(drained) == 1
    assert drained[0].payload is msg
    assert drained[0].publish_time == 0.5


def test_no_replay_for_late_subscriber(bus):
    bus.publish("/roscausal/robot", RobotMsg("early"), time=0.0)
    sub = bus.subscribe("/roscausal/robot")
    assert sub.drain() == []


def test_fan_out_to_all_subscribers(bus):
    s1 = bus.subscribe("/roscausal/robot")
    s2 = bus.subscribe("/roscausal/robot")
    bus.publish("/roscausal/robot", RobotMsg("m"), time=0.0)
    assert [e.payload.tag for e in s1.drain()] == ["m"]
    assert [e.payload.tag for e in s2.drain()] == ["m"]


def test_drain_is_fifo_and_empties(bus):
    sub = bus.subscribe("/roscausal/robot", capacity=8)
    for i, tag in enumerate("abc"):
        bus.publish("/roscausal/robot", RobotMsg(tag), time=float(i))
    assert [e.payload.tag for e in sub.drain()] == ["a", "b", "c"]
    assert sub.drain() == []


def test_take_newest_returns_the_last_envelope_and_empties(bus):
    sub = bus.subscribe("/roscausal/robot", capacity=2)
    assert sub.take_newest() is None
    for k in range(5):
        bus.publish("/roscausal/robot", RobotMsg(k), time=float(k))
    newest = sub.take_newest()
    assert (newest.payload.tag, newest.publish_time) == (4, 4.0)
    assert len(sub) == 0 and sub.take_newest() is None
    # the overflow was counted when it was published, not when it was read
    assert sub.dropped == 3
    bus.publish("/roscausal/robot", RobotMsg(5), time=5.0)
    assert sub.take_newest().payload.tag == 5
    assert sub.dropped == 3


def test_drain_isolation_between_subscriptions(bus):
    s1 = bus.subscribe("/roscausal/robot")
    s2 = bus.subscribe("/roscausal/robot")
    bus.publish("/roscausal/robot", RobotMsg("m"), time=0.0)
    assert len(s1.drain()) == 1
    assert len(s2) == 1
    assert len(s2.drain()) == 1


def test_publish_time_must_not_regress(bus):
    bus.publish("/roscausal/robot", RobotMsg(), time=1.0)
    bus.publish("/roscausal/robot", RobotMsg(), time=1.0)  # equal is fine
    with pytest.raises(BusError):
        bus.publish("/roscausal/robot", RobotMsg(), time=0.5)


def test_capacity_must_be_positive(bus):
    with pytest.raises(ValueError):
        bus.subscribe("/roscausal/robot", capacity=0)


@given(tags=st.lists(st.integers(), max_size=40),
       capacity=st.integers(min_value=1, max_value=10))
def test_capacity_property_keeps_most_recent(tags, capacity):
    bus = MessageBus()
    bus.create_topic("/t", RobotMsg)
    sub = bus.subscribe("/t", capacity=capacity)
    for i, tag in enumerate(tags):
        bus.publish("/t", RobotMsg(tag), time=float(i))
    drained = [e.payload.tag for e in sub.drain()]
    assert drained == tags[-capacity:]
    assert len(drained) <= capacity
    assert sub.dropped == len(tags) - len(drained)


def test_concurrent_publish_and_drain():
    bus = MessageBus()
    bus.create_topic("/t", RobotMsg)
    sub = bus.subscribe("/t", capacity=10_000)
    received = []
    stop = threading.Event()

    def consumer():
        while not stop.is_set():
            received.extend(sub.drain())
        received.extend(sub.drain())

    thread = threading.Thread(target=consumer)
    thread.start()
    for i in range(2000):
        bus.publish("/t", RobotMsg(i), time=float(i))
    stop.set()
    thread.join()
    assert [e.payload.tag for e in received] == list(range(2000))
