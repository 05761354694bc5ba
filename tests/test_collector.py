import dataclasses
import hashlib
import json

import numpy as np
import pytest

from causalpipe import collector as collector_mod
from causalpipe.bus import MessageBus
from causalpipe.config import default_config
from causalpipe.pipeline import run_pipeline
from causalpipe.postprocess import resolve_postprocessor
from causalpipe.sim import SIM_DT, Simulator
from causalpipe.collector import (Collector, CollectorConfig, RawSample,
                                  batch_filename, finalize_batch)
from causalpipe.postprocess import identity_batch, postprocess_batch
from causalpipe.state import (AgentState, HUMAN_TOPIC, Pose2D, ROBOT_TOPIC,
                              StateMerger, Velocity2D)
from causalpipe.timeseries import read_csv


@pytest.fixture
def rig(tmp_path):
    bus = MessageBus()
    bus.create_topic(ROBOT_TOPIC, AgentState)
    bus.create_topic(HUMAN_TOPIC, AgentState)
    robot = StateMerger.for_robot(bus=bus)
    human = StateMerger.for_human(bus=bus)
    return bus, human, robot, tmp_path


def publish_pair(human, robot, stamp, hx=0.0):
    pose_h = Pose2D(hx, 0.0, 0.0)
    pose_r = Pose2D(5.0, 5.0, 0.0)
    vel = Velocity2D(0.1, 0.0, 0.0)
    human.merge(pose_h, vel, (9.0, 0.0), stamp)
    robot.merge(pose_r, vel, (0.0, 0.0), stamp)


def test_grid_alignment_samples_only_on_grid(rig):
    bus, human, robot, tmp = rig
    config = CollectorConfig(dt=0.3, batch_seconds=30.0, pool_dir=tmp / "pool")
    collector = Collector(bus, config, identity_batch)
    times = []
    for i, now in enumerate([0.0, 0.1, 0.2, 0.3]):
        publish_pair(human, robot, stamp=now + 1e-4)
        sample = collector.tick(now)
        if sample is not None:
            times.append(sample.t)
    assert times == [0.0, 0.3]
    assert collector.samples_taken == 2


def test_zero_order_hold_uses_latest_message(rig):
    bus, human, robot, tmp = rig
    config = CollectorConfig(dt=0.3, batch_seconds=30.0, pool_dir=tmp / "pool")
    collector = Collector(bus, config, identity_batch)
    publish_pair(human, robot, stamp=0.0)
    collector.tick(0.0)
    publish_pair(human, robot, stamp=0.29, hx=7.0)
    sample = collector.tick(0.3)
    assert sample is not None
    assert sample.t == pytest.approx(0.3)
    assert sample.human.pose.x == 7.0  # held state from t=0.29


def test_150s_at_0_3_gives_exactly_500_samples(rig):
    bus, human, robot, tmp = rig
    config = CollectorConfig(dt=0.3, batch_seconds=150.0, pool_dir=tmp / "pool")
    collector = Collector(bus, config, identity_batch)
    n_steps = round(150.0 / 0.05)
    publish_pair(human, robot, stamp=0.0)
    collector.tick(0.0)
    for k in range(1, n_steps):  # stop just before t=150.0
        now = k * 0.05
        publish_pair(human, robot, stamp=now)
        collector.tick(now)
    assert collector.samples_taken == 500
    assert len(collector.files_written) == 1
    batch = read_csv(collector.files_written[0])
    assert batch.n_samples == 500


def test_no_sample_loss_across_batch_boundary(rig):
    bus, human, robot, tmp = rig
    config = CollectorConfig(dt=0.5, batch_seconds=2.0, pool_dir=tmp / "pool")
    collector = Collector(bus, config, identity_batch)
    stamps = []
    publish_pair(human, robot, stamp=0.0)
    collector.tick(0.0)
    for k in range(1, 41):
        now = k * 0.1
        publish_pair(human, robot, stamp=now)
        s = collector.tick(now)
        if s is not None:
            stamps.append(s.t)
    diffs = np.diff(stamps)
    np.testing.assert_allclose(diffs, 0.5, atol=1e-9)
    assert len(collector.files_written) >= 2
    # last grid point of batch k and first of batch k+1 are dt apart
    first = read_csv(collector.files_written[0])
    second = read_csv(collector.files_written[1])
    assert second.column("time")[0] - first.column("time")[-1] == pytest.approx(0.5)


def test_two_batches_lexicographic_filename_order(rig):
    bus, human, robot, tmp = rig
    config = CollectorConfig(dt=0.5, batch_seconds=1.0, pool_dir=tmp / "pool")
    collector = Collector(bus, config, identity_batch)
    publish_pair(human, robot, stamp=0.0)
    collector.tick(0.0)
    for k in range(1, 20):
        now = k * 0.25
        publish_pair(human, robot, stamp=now)
        collector.tick(now)
    names = [p.name for p in collector.files_written]
    assert len(names) >= 2
    assert names == sorted(names)


def test_hri_postprocessor_header_and_rows(rig):
    bus, human, robot, tmp = rig
    config = CollectorConfig(dt=0.3, batch_seconds=1.5, pool_dir=tmp / "pool",
                             postprocessor="hri_basic")
    collector = Collector(bus, config, postprocess_batch)
    publish_pair(human, robot, stamp=0.0)
    collector.tick(0.0)
    for k in range(1, 16):
        now = k * 0.1
        publish_pair(human, robot, stamp=now)
        collector.tick(now)
    assert len(collector.files_written) == 1
    text = collector.files_written[0].read_text().splitlines()
    assert text[0] == "time,h_v,h_dg,h_risk"
    assert len(text) == 1 + config.samples_per_batch


def test_postprocessor_failure_discards_batch_and_continues(rig):
    bus, human, robot, tmp = rig
    config = CollectorConfig(dt=0.5, batch_seconds=1.0, pool_dir=tmp / "pool")
    calls = {"n": 0}

    def flaky(samples):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("boom")
        return identity_batch(samples)

    collector = Collector(bus, config, flaky)
    publish_pair(human, robot, stamp=0.0)
    collector.tick(0.0)
    for k in range(1, 20):
        now = k * 0.25
        publish_pair(human, robot, stamp=now)
        collector.tick(now)
    assert calls["n"] >= 2
    assert len(collector.files_written) == calls["n"] - 1
    # batch indices keep increasing through the failure
    assert collector.files_written[0].name.startswith("data_00001_")


def test_stall_skips_sample_when_topic_never_published(rig):
    bus, human, robot, tmp = rig
    config = CollectorConfig(dt=0.3, batch_seconds=30.0, pool_dir=tmp / "pool")
    collector = Collector(bus, config, identity_batch)
    # only the human publishes; the robot topic stays silent
    pose, vel = Pose2D(0, 0, 0), Velocity2D(0, 0, 0)
    human.merge(pose, vel, (1.0, 1.0), 0.0)
    assert collector.tick(0.0) is None
    assert collector.samples_skipped == 1
    # robot appears before the next grid point: sampling resumes
    robot.merge(pose, vel, (0.0, 0.0), 0.25)
    sample = collector.tick(0.3)
    assert sample is not None
    assert sample.t == pytest.approx(0.3)
    assert collector.samples_taken == 1


def test_batch_filename_is_zero_padded():
    assert batch_filename(3, 450.0) == "data_00003_000000450000.csv"


def test_batch_index_starts_past_the_pending_batches(rig):
    # only pending collector names count: a quarantined file or another CSV
    # does not move the start
    bus, _, _, tmp = rig
    config = CollectorConfig(dt=0.3, batch_seconds=30.0, pool_dir=tmp / "pool")
    assert Collector(bus, config, identity_batch).batch_index == 0
    (tmp / "pool" / "quarantine").mkdir()
    for name in ("quarantine/data_00020_000000000000.csv", "custom_00030.csv",
                 "data_00004_000000450000.csv", "data_00002_000000600000.csv"):
        (tmp / "pool" / name).write_text("t\n", encoding="utf-8")
    assert Collector(bus, config, identity_batch).batch_index == 5


def test_finalize_batch_writes_where_told(tmp_path):
    h = AgentState("human", 0.0, Pose2D(0, 0, 0), Velocity2D(0, 0, 0), (1, 1), 0.3)
    r = AgentState("robot", 0.0, Pose2D(3, 0, 0), Velocity2D(0, 0, 0), (0, 0), 0.3)
    buffer = [RawSample(t=0.3 * k, human=h, robot=r) for k in range(5)]
    path = finalize_batch(buffer, identity_batch, tmp_path, batch_index=7)
    assert path.exists()
    assert path.name.startswith("data_00007_")
    assert read_csv(path).n_samples == 5


def test_collector_config_validation(tmp_path):
    with pytest.raises(ValueError):
        CollectorConfig(dt=0.0)
    with pytest.raises(ValueError):
        CollectorConfig(dt=1.0, batch_seconds=1.5)


def simulate(config, steps, seed, tick_every=1, capacity=64):
    """The pipeline's simulate-and-collect loop without the watcher; yields
    each step's world state and the sample its tick took, if it ticked."""
    bus = MessageBus()
    bus.create_topic(ROBOT_TOPIC, AgentState)
    bus.create_topic(HUMAN_TOPIC, AgentState)
    sim = Simulator(sfm=config.sfm, path=config.robot_path, seed=seed, bus=bus)
    collector = Collector(bus, config.collector,
                          resolve_postprocessor(config.collector.postprocessor, config.risk),
                          subscription_capacity=capacity)
    sim.publish_initial()
    yield collector, sim.world, collector.tick(0.0)
    for k in range(1, steps + 1):
        world = sim.step(SIM_DT)
        yield collector, world, collector.tick(k * SIM_DT) if k % tick_every == 0 else None


def test_the_collector_looks_up_write_csv_at_call_time(tmp_path, monkeypatch):
    # the benchmark's traced replay times CSV writes by wrapping this name
    written = []
    write = collector_mod.write_csv

    def counting(batch, path):
        written.append(path)
        write(batch, path)

    monkeypatch.setattr(collector_mod, "write_csv", counting)
    config = default_config(tmp_path, seed=2)
    config.collector = dataclasses.replace(config.collector, batch_seconds=60.0)
    for collector, _, _ in simulate(config, round(60.0 / SIM_DT), seed=2):
        pass
    assert written == collector.files_written
    assert len(written) == 1


def test_generator_bytes_are_pinned(tmp_path):
    """The CSV batch the default scenario writes at seed 42 over 150 s.

    A faster message, bus or collector must write the same bytes. The digest
    holds for the libm and numpy of the platform it was recorded on (x86_64
    Linux, glibc, numpy 2.4); another platform may differ in the last digits.
    """
    config = default_config(tmp_path, seed=42)
    for collector, _, _ in simulate(config, round(150.0 / SIM_DT), seed=42):
        pass
    assert (collector.samples_taken, collector.dropped) == (501, 0)
    [path] = collector.files_written
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "656f4d17c2fba35904e70b5523c6178819c3f7a721f895e65c8f4e0636ff67e3")


def test_a_coarse_grid_samples_the_newest_message(tmp_path):
    # 100 steps between grid points: the collector must still empty both
    # 64-deep queues on every tick, or they overflow and count drops
    config = default_config(tmp_path, seed=3)
    config.collector = dataclasses.replace(config.collector, dt=5.0, batch_seconds=600.0)
    taken = 0
    for collector, world, sample in simulate(config, round(1200.0 / SIM_DT), seed=3):
        if sample is not None:
            assert (sample.human, sample.robot) == (world.human, world.robot)
            assert sample.human.stamp == pytest.approx(sample.t)
            taken += 1
    assert taken == collector.samples_taken == 241
    assert collector.dropped == 0
    assert len(collector.files_written) == 2


def test_a_coarse_grid_run_drops_no_state_message(tmp_path):
    config = default_config(tmp_path / "out", seed=3)
    config.duration = 1200.0
    config.collector = dataclasses.replace(config.collector, dt=5.0, batch_seconds=600.0)
    config.discovery = dataclasses.replace(config.discovery, ci_test="parcorr",
                                           method="pcmci")
    result = run_pipeline(config)
    manifest = json.loads(result.manifest_path.read_text(encoding="utf-8"))
    assert manifest["bus_dropped"] == 0
    assert (manifest["samples_taken"], manifest["models_published"]) == (241, 2)


def test_sparse_ticks_count_each_overflowing_message(tmp_path):
    # seven steps between ticks into 4-deep queues: three of each topic's
    # seven messages are dropped per interval, and the tick reads the newest
    config = default_config(tmp_path, seed=5)
    config.collector = dataclasses.replace(config.collector, batch_seconds=30.0)
    ticks = 0
    for collector, world, sample in simulate(config, 7 * 300, seed=5, tick_every=7,
                                             capacity=4):
        if sample is not None:
            assert (sample.human, sample.robot) == (world.human, world.robot)
            ticks += 1
    assert ticks == 1 + 300  # t = 0 and after each interval
    assert collector.dropped == 2 * 3 * 300
