"""In-process publish/subscribe bus with named, kind-checked topics.

Pipeline stages never call each other directly: the simulator publishes agent
states, the collector subscribes to them, and the discovery worker publishes
causal models back onto the bus. Topics carry exactly one message kind and
subscriptions are bounded FIFO queues that drop their oldest entry on
overflow (latest data wins, like a live robot feed).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any

DEFAULT_CAPACITY = 64


class BusError(Exception):
    """Base class for bus failures."""


class DuplicateTopicError(BusError):
    """A topic name was registered twice."""


class UnknownTopicError(BusError, KeyError):
    """Publish or subscribe on a topic that was never created."""


class MessageKindError(BusError, TypeError):
    """Payload does not match the kind the topic was declared with."""


@dataclass(frozen=True, slots=True)
class Envelope:
    """One delivered message: simulation-clock publish time plus payload."""

    publish_time: float
    payload: Any


class Subscription:
    """Bounded FIFO queue of envelopes attached to one topic.

    Holds at most `capacity` envelopes; when full, the oldest queued message
    is dropped to make room for the newest, and `dropped` counts it.
    MessageBus.publish appends under the subscription's lock.
    """

    def __init__(self, topic: "Topic", capacity: int):
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError(f"subscription capacity must be a positive integer, got {capacity!r}")
        self.topic = topic
        self.capacity = capacity
        self._queue: deque[Envelope] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.dropped = 0

    def drain(self) -> list[Envelope]:
        """Return all queued envelopes in publish order and empty the queue."""
        with self._lock:
            out = list(self._queue)
            self._queue.clear()
        return out

    def take_newest(self) -> Envelope | None:
        """Return the newest queued envelope (None if none) and empty the
        queue; the envelopes before it are discarded unread."""
        with self._lock:
            queue = self._queue
            if not queue:
                return None
            newest = queue[-1]
            queue.clear()
        return newest

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)


class Topic:
    """A named channel carrying exactly one message kind, with one clock."""

    def __init__(self, name: str, kind: type):
        self.name = name
        self.kind = kind
        self._subscriptions: list[Subscription] = []
        self._lock = threading.Lock()
        self._last_publish_time = -math.inf

    @property
    def last_publish_time(self) -> float:
        """Publish time of the last message (-inf before any); MessageBus.publish sets it."""
        return self._last_publish_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topic({self.name!r}, kind={self.kind.__name__})"


class MessageBus:
    """Registry of topics plus publish/subscribe operations.

    The handle is shareable across threads; publication is serialized per
    topic, with no ordering guarantee between distinct topics.
    """

    def __init__(self) -> None:
        self._topics: dict[str, Topic] = {}
        self._registry_lock = threading.Lock()

    def create_topic(self, name: str, kind: type) -> Topic:
        with self._registry_lock:
            if name in self._topics:
                raise DuplicateTopicError(f"topic {name!r} is already registered")
            topic = Topic(name, kind)
            self._topics[name] = topic
            return topic

    def topic(self, name: str) -> Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise UnknownTopicError(f"no topic named {name!r}") from None

    def publish(self, topic: str, payload: Any, time: float) -> None:
        """Enqueue `payload` to every live subscription of `topic`.

        Publish times must be non-decreasing per topic (single simulated
        clock); a regression indicates a wiring bug and raises.
        """
        try:
            t = self._topics[topic]
        except KeyError:
            t = self.topic(topic)  # raises UnknownTopicError
        if not isinstance(payload, t.kind):
            raise MessageKindError(
                f"topic {t.name!r} carries {t.kind.__name__}, got {type(payload).__name__}"
            )
        with t._lock:
            if time < t._last_publish_time:
                raise BusError(
                    f"publish time went backwards on {t.name!r}: "
                    f"{time} < {t._last_publish_time}"
                )
            t._last_publish_time = time
            envelope = Envelope(time, payload)
            for sub in t._subscriptions:
                # the subscription's push, inlined because it runs per message
                with sub._lock:
                    queue = sub._queue
                    if len(queue) == sub.capacity:
                        sub.dropped += 1
                    queue.append(envelope)

    def subscribe(self, topic: str, capacity: int = DEFAULT_CAPACITY) -> Subscription:
        """Attach a new bounded queue to `topic`; only future traffic is seen."""
        t = self.topic(topic)
        sub = Subscription(t, capacity)
        with t._lock:
            t._subscriptions.append(sub)
        return sub
