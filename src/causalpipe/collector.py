"""Fixed-rate sampling of the two state topics into CSV batches.

The collector subscribes to the robot and human state topics, latches the
latest message from each (zero-order hold), and takes one RawSample whenever
the simulated clock crosses the next grid point t0 + k*dt. Once a full
batch_seconds worth of samples is buffered, the configured post-processing
transform turns the raw samples into a TimeSeriesBatch which is written
atomically into the pool directory; the discovery worker picks it up from
there. The collector never waits on discovery.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .bus import DEFAULT_CAPACITY, MessageBus, Subscription
from .state import AgentState, HUMAN_TOPIC, ROBOT_TOPIC
from .timeseries import TimeSeriesBatch, write_csv

log = logging.getLogger(__name__)

_GRID_EPS = 1e-9

Postprocessor = Callable[[list["RawSample"]], TimeSeriesBatch]


@dataclass(frozen=True, slots=True)
class RawSample:
    """One grid-aligned snapshot of both agents."""

    t: float
    human: AgentState
    robot: AgentState


@dataclass(frozen=True)
class CollectorConfig:
    dt: float = 0.3
    batch_seconds: float = 150.0
    pool_dir: Path = Path("pool")
    postprocessor: str = "hri_basic"

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.batch_seconds < 2 * self.dt:
            raise ValueError(
                f"batch_seconds must be >= 2*dt ({2 * self.dt}), got {self.batch_seconds}"
            )
        object.__setattr__(self, "pool_dir", Path(self.pool_dir))

    @property
    def samples_per_batch(self) -> int:
        return round(self.batch_seconds / self.dt)


_POOL_FILE_RE = re.compile(r"^data_(\d+)_(\d+)\.csv$")


def batch_filename(batch_index: int, t0: float) -> str:
    """A batch's pool file name: its index, then its start time in ms."""
    return f"data_{batch_index:05d}_{round(t0 * 1000):012d}.csv"


def pool_order(path: Path) -> tuple:
    """Sort key for creation order: collector batches by index (which can
    outgrow the five digits a name pads it to) at the place of the name
    "data_", any other file by name."""
    m = _POOL_FILE_RE.match(path.name)
    return ("data_", int(m.group(1)), path.name) if m else (path.name,)


def batch_id_for(path: Path) -> str:
    """Batch id from a pool filename; collector files map to their index."""
    m = _POOL_FILE_RE.match(path.name)
    if m:
        return str(int(m.group(1)))
    return path.stem


def finalize_batch(buffer: list[RawSample], postprocessor: Postprocessor,
                   pool_dir: Path, batch_index: int) -> Path:
    """Post-process a full buffer and write the CSV into the pool.

    Raises whatever the postprocessor raises; the caller decides whether to
    discard the batch and keep collecting.
    """
    batch = postprocessor(list(buffer))
    if batch.n_samples != len(buffer):
        raise ValueError(
            f"postprocessor returned {batch.n_samples} rows for {len(buffer)} samples"
        )
    path = Path(pool_dir) / batch_filename(batch_index, buffer[0].t)
    write_csv(batch, path)
    return path


class Collector:
    """Samples both state topics on a fixed grid and emits batch files.

    Batch indices start one past the highest index pending in the pool, so
    a reused pool never gets a second file, or model, under a pending name.
    """

    def __init__(self, bus: MessageBus, config: CollectorConfig,
                 postprocessor: Postprocessor,
                 subscription_capacity: int = DEFAULT_CAPACITY):
        self.config = config
        self.postprocessor = postprocessor
        self._human_sub: Subscription = bus.subscribe(HUMAN_TOPIC, subscription_capacity)
        self._robot_sub: Subscription = bus.subscribe(ROBOT_TOPIC, subscription_capacity)
        self._held_human: AgentState | None = None
        self._held_robot: AgentState | None = None
        self._t0: float | None = None
        self._grid_index = 0
        self._buffer: list[RawSample] = []
        self.files_written: list[Path] = []
        self.samples_taken = 0
        self.samples_skipped = 0
        config.pool_dir.mkdir(parents=True, exist_ok=True)
        pending = (_POOL_FILE_RE.match(n) for n in os.listdir(config.pool_dir))
        self.batch_index = 1 + max((int(m.group(1)) for m in pending if m), default=-1)

    @property
    def dropped(self) -> int:
        """State messages lost because a subscription was full between ticks."""
        return self._human_sub.dropped + self._robot_sub.dropped

    def tick(self, now: float) -> RawSample | None:
        """Advance the sampling clock; returns the sample taken, if any.

        The first tick anchors the grid at t0 = now. A grid point with no
        message ever received on a required topic is skipped (the batch
        window extends); held state is reused for merely-quiet topics.
        """
        # Both queues are emptied on every tick, grid point due or not: read
        # only at grid points, they would overflow in between and drop.
        newest = self._human_sub.take_newest()
        if newest is not None:
            self._held_human = newest.payload
        newest = self._robot_sub.take_newest()
        if newest is not None:
            self._held_robot = newest.payload
        if self._t0 is None:
            self._t0 = now
        t0, dt = self._t0, self.config.dt
        taken: RawSample | None = None
        while now + _GRID_EPS >= (t_grid := t0 + self._grid_index * dt):
            self._grid_index += 1
            if self._held_human is None or self._held_robot is None:
                missing = [name for name, held in
                           (("human", self._held_human), ("robot", self._held_robot))
                           if held is None]
                log.warning("collector stalled at t=%.3f: no message yet on %s; sample skipped",
                            t_grid, ", ".join(missing))
                self.samples_skipped += 1
                continue
            taken = RawSample(t=t_grid, human=self._held_human, robot=self._held_robot)
            self._buffer.append(taken)
            self.samples_taken += 1
            if len(self._buffer) >= self.config.samples_per_batch:
                self._finalize()
        return taken

    def _finalize(self) -> None:
        try:
            path = finalize_batch(self._buffer, self.postprocessor,
                                  self.config.pool_dir, self.batch_index)
            self.files_written.append(path)
        except Exception:
            log.exception("postprocessor failed; batch %d discarded", self.batch_index)
        self._buffer = []
        self.batch_index += 1
