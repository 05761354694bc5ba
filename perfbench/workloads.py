"""The benchmark's workloads, their fixed inputs, and how each is driven.

Every workload analyses a fixed list of input streams (HRI scenario seeds)
whose model digests are recorded in `reference.json`. Analysis cost differs
by more than 3x between scenario seeds, so the list never changes with the
run's `--seed`; the seed only shuffles the order in which the streams are
run. Each workload also has a held-out list, used only to confirm a
claim made on the primary list.

The program is driven only through its public entry point `run_pipeline`.
The traced replay calls the same layers one at a time, in one thread.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from causalpipe import collector as collector_mod
from causalpipe import discovery, stats
from causalpipe.bus import MessageBus
from causalpipe.collector import Collector
from causalpipe.config import ScenarioConfig, default_config
from causalpipe.discovery import (MODEL_TOPIC, CausalModel, PoolWatcher, batch_id_for,
                                  discover, export_model)
from causalpipe.pipeline import run_pipeline
from causalpipe.postprocess import resolve_postprocessor
from causalpipe.sim import SIM_DT, Simulator
from causalpipe.state import AgentState, HUMAN_TOPIC, ROBOT_TOPIC
from causalpipe.timeseries import read_csv

from tracer import FailureLog, Tracer

# The interaction graph the default scenario is built to produce
# (acceptance criterion 3); HRI models are scored on their cross edges.
HRI_EXPECTED_EDGES = frozenset({("h_v", "h_dg", 1), ("h_dg", "h_v", 1),
                                ("h_risk", "h_v", 1), ("h_v", "h_risk", 1)})

# Collector's subscription capacity in run_pipeline (Collector's default).
SUBSCRIPTION_CAPACITY = 64


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple[int, ...]
    heldout: tuple[int, ...]
    batches_per_stream: int = 1
    ci_test: str = "kridge_dcor"
    method: str = "fpcmci"


WORKLOADS = {
    w.name: w for w in (
        # The shipped default at the deployed pace: one 150 s batch per
        # stream, so the watcher is idle whenever a batch lands. dCor
        # permutations carry about 90 % of the wall. Scenario seeds 0-23
        # take 6-21 s to analyse; the primary and held-out seeds here take
        # 6-7 s each, so a run makes several passes and its medians are
        # over batches of like cost.
        Workload("hri_kridge", inputs=(2, 18), heldout=(10, 14)),
        # Analysis is ~10 ms a batch; simulator, bus, collector, CSV I/O and
        # the watcher's contention with the generator carry the wall. It
        # bypasses the kernel-ridge/dCor layers entirely.
        # Eight streams: per-batch latency here is set by how the two threads
        # share the interpreter lock and varies widely from stream to stream.
        Workload("hri_parcorr", inputs=tuple(range(8)), heldout=tuple(range(8, 16)),
                 batches_per_stream=12, ci_test="parcorr", method="pcmci"),
    )
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def hri_model_name(batch_index: int) -> str:
    return f"model_{batch_index:05d}.json"


def hri_config(w: Workload, scenario: int, out_dir: Path) -> ScenarioConfig:
    cfg = default_config(out_dir, seed=scenario)
    cfg.duration = w.batches_per_stream * cfg.collector.batch_seconds
    cfg.discovery = dataclasses.replace(cfg.discovery, ci_test=w.ci_test, method=w.method)
    return cfg


def hri_f1(model: CausalModel) -> float:
    predicted = model.cross_edges()
    tp = len(predicted & HRI_EXPECTED_EDGES)
    precision = tp / len(predicted) if predicted else 1.0
    recall = tp / len(HRI_EXPECTED_EDGES)
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def build_objects(name: str, out_dir: Path) -> None:
    """Build one stream's config and pipeline objects, as set-up does."""
    cfg = hri_config(WORKLOADS[name], 0, out_dir)
    bus = MessageBus()
    bus.create_topic(ROBOT_TOPIC, AgentState)
    bus.create_topic(HUMAN_TOPIC, AgentState)
    bus.create_topic(MODEL_TOPIC, CausalModel)
    Simulator(sfm=cfg.sfm, path=cfg.robot_path, seed=cfg.seed, bus=bus)
    Collector(bus, cfg.collector,
              resolve_postprocessor(cfg.collector.postprocessor, cfg.risk))
    PoolWatcher(cfg.collector.pool_dir, cfg.discovery, cfg.te, bus=bus)


# --- one operation = one batch analysed --------------------------------------

@dataclass
class Op:
    stream: int
    model_file: str
    latency_s: float | None = None  # input landed -> model exported
    digest: str | None = None
    f1: float | None = None
    service_s: float | None = None  # replay only: read + discover + export


@dataclass
class Pass:
    wall_s: float = 0.0
    realtime_factors: list[float] = field(default_factory=list)  # one per run_pipeline
    ops: list[Op] = field(default_factory=list)
    discover_s: list[float] = field(default_factory=list)
    first_latencies: list[float] = field(default_factory=list)


class DiscoverProbe:
    """Times every `discovery.discover` call, from whichever thread makes it.

    The one probe the untraced run installs: the pool watcher calls
    `discover` inside the pipeline's thread, so its service time cannot be
    timed around `run_pipeline`. Two clock reads per batch.
    """

    def __init__(self) -> None:
        self.durations: list[float] = []
        self._original = None

    def __enter__(self) -> "DiscoverProbe":
        original = self._original = discovery.discover
        durations = self.durations

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - start)

        discovery.discover = timed
        return self

    def __exit__(self, *exc) -> None:
        discovery.discover = self._original


def run_hri_stream(w: Workload, scenario: int, out_dir: Path, result: Pass) -> None:
    cfg = hri_config(w, scenario, out_dir)
    start = time.perf_counter()
    outcome = run_pipeline(cfg)
    wall_s = time.perf_counter() - start
    result.wall_s += wall_s
    result.realtime_factors.append(wall_s / cfg.duration)
    manifest = json.loads(outcome.manifest_path.read_text(encoding="utf-8"))
    rows = {row["model_json"]: row for row in manifest["batches"]}
    models = {m.batch_id: m for m in outcome.models}
    for k in range(w.batches_per_stream):
        op = Op(stream=scenario, model_file=hri_model_name(k))
        row = rows.get(op.model_file)
        path = out_dir / op.model_file
        if row is not None and path.exists():
            op.latency_s = float(row["discovery_seconds"])
            op.digest = sha256(path)
            op.f1 = hri_f1(models[row["batch_id"]])
            if k == 0:
                result.first_latencies.append(op.latency_s)
        result.ops.append(op)


def stream_order(streams: tuple[int, ...], seed: int) -> list[int]:
    order = list(streams)
    random.Random(seed).shuffle(order)
    return order


def run_pass(w: Workload, order: list[int], work_dir: Path) -> Pass:
    result = Pass()
    with DiscoverProbe() as probe:
        for stream in order:
            out_dir = work_dir / f"stream{stream}"
            out_dir.mkdir(parents=True)
            run_hri_stream(w, stream, out_dir, result)
            shutil.rmtree(out_dir)
    result.discover_s = probe.durations
    return result


# --- traced sequential replay --------------------------------------------------

@dataclass
class Replay:
    tracer: Tracer
    wall_s: float = 0.0
    ops: list[Op] = field(default_factory=list)
    models: int = 0
    te_kept: int = 0
    te_rejected: int = 0
    dropped: int = 0
    samples_taken: int = 0
    samples_skipped: int = 0
    csv_files: int = 0
    csv_bytes: int = 0
    ci_failures: int = 0


def _export_traced(replay: Replay, model: CausalModel, json_path: Path) -> None:
    export = replay.tracer.wrap("discovery.export", export_model)
    export(model, "json", json_path)
    export(model, "dot", json_path.with_suffix(".dot"))
    replay.models += 1
    if model.te_filter is not None:
        replay.te_kept += len(model.te_filter["kept"])
        replay.te_rejected += len(model.te_filter["rejected"])


def replay_hri_stream(w: Workload, scenario: int, out_dir: Path, replay: Replay) -> None:
    """simulate -> collect -> postprocess -> write, then read -> discover ->
    export for each batch, all in this thread."""
    tracer = replay.tracer
    cfg = hri_config(w, scenario, out_dir)
    bus = MessageBus()
    bus.create_topic(ROBOT_TOPIC, AgentState)
    bus.create_topic(HUMAN_TOPIC, AgentState)
    pending = {ROBOT_TOPIC: 0, HUMAN_TOPIC: 0}
    publish = tracer.wrap("bus.publish", bus.publish)

    def counted_publish(topic, payload, time):
        pending[topic] += 1
        return publish(topic, payload, time)

    bus.publish = counted_publish
    sim = Simulator(sfm=cfg.sfm, path=cfg.robot_path, seed=cfg.seed, bus=bus)
    postprocessor = tracer.wrap(
        "postprocess.batch",
        resolve_postprocessor(cfg.collector.postprocessor, cfg.risk))
    collector = Collector(bus, cfg.collector, postprocessor,
                          subscription_capacity=SUBSCRIPTION_CAPACITY)
    step = tracer.wrap("sim.step", sim.step)
    tick = tracer.wrap("collector.tick", collector.tick)

    def tick_at(now: float) -> None:
        # The collector drains both subscriptions on every tick; a bounded
        # queue drops whatever exceeds its capacity in between.
        for topic, count in pending.items():
            replay.dropped += max(0, count - SUBSCRIPTION_CAPACITY)
            pending[topic] = 0
        tick(now)

    sim.publish_initial()
    tick_at(0.0)
    for k in range(1, round(cfg.duration / SIM_DT) + 1):
        step(SIM_DT)
        tick_at(k * SIM_DT)
    replay.samples_taken += collector.samples_taken
    replay.samples_skipped += collector.samples_skipped

    read = tracer.wrap("timeseries.read", read_csv)
    analyse = tracer.wrap("discovery.discover", discover)
    for path in collector.files_written:
        replay.csv_files += 1
        replay.csv_bytes += path.stat().st_size
        batch_id = batch_id_for(path)
        op = Op(stream=scenario, model_file=hri_model_name(int(batch_id)))
        start = time.perf_counter()
        model = analyse(read(path), cfg.discovery, cfg.te, batch_id=batch_id)
        _export_traced(replay, model, out_dir / op.model_file)
        op.service_s = time.perf_counter() - start
        op.digest = sha256(out_dir / op.model_file)
        op.f1 = hri_f1(model)
        replay.ops.append(op)


def replay_pass(w: Workload, order: list[int], work_dir: Path,
                failures: FailureLog) -> Replay:
    tracer = Tracer()
    replay = Replay(tracer)
    tracer.patch(stats, "dcor_perm_test", "stats.dcor_perm")
    tracer.patch(stats, "kernel_ridge_residuals", "stats.kridge_resid")
    tracer.patch(discovery, "kridge_dcor_test", "stats.kridge_dcor")
    tracer.patch(discovery, "parcorr_test", "stats.parcorr")
    tracer.patch(discovery, "te_significance", "discovery.te")
    tracer.patch(discovery, "pc1_condition_selection", "discovery.pc1")
    tracer.patch(discovery, "mci_tests", "discovery.mci")
    tracer.patch(collector_mod, "write_csv", "timeseries.write")
    before = failures.counts["ci_failures"]
    start = time.perf_counter()
    try:
        for stream in order:
            out_dir = work_dir / f"replay{stream}"
            out_dir.mkdir(parents=True)
            replay_hri_stream(w, stream, out_dir, replay)
            shutil.rmtree(out_dir)
    finally:
        replay.wall_s = time.perf_counter() - start
        tracer.restore()
    replay.ci_failures = failures.counts["ci_failures"] - before
    return replay


# --- metrics -------------------------------------------------------------------

def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 samples beyond it (100 if
    there are 10 samples or fewer: the tail is then the maximum)."""
    return math.floor(100 - 1000 / n + 1e-9) if n > 10 else 100


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1]


def end_to_end(passes: list[Pass]) -> dict:
    latencies = [op.latency_s for p in passes for op in p.ops if op.latency_s is not None]
    discover_s = [d for p in passes for d in p.discover_s]
    firsts = [f for p in passes for f in p.first_latencies]
    f1s = [op.f1 for op in passes[0].ops if op.f1 is not None]
    tail = tail_percentile(len(latencies))
    return {
        "realtime_factor": statistics.median(f for p in passes for f in p.realtime_factors),
        "first_model_s": statistics.median(firsts),
        "model_latency_p50_s": statistics.median(latencies),
        "model_latency_tail_s": percentile(latencies, tail),
        "discover_s": statistics.median(discover_s),
        "f1": statistics.fmean(f1s),
        "counts": {"tail_percentile": tail, "latency_samples": len(latencies),
                   "discover_samples": len(discover_s), "passes": len(passes)},
    }


def per_layer(replay: Replay, passes: list[Pass]) -> dict:
    t = replay.tracer

    def total(name: str) -> float:
        return t.inclusive.get(name, 0.0)

    def mean_self(name: str, scale: float) -> float:
        calls = t.calls.get(name, 0)
        return t.self_time[name] / calls * scale if calls else 0.0

    def mean_inclusive(name: str, scale: float) -> float:
        calls = t.calls.get(name, 0)
        return t.inclusive[name] / calls * scale if calls else 0.0

    untraced_wall = statistics.fmean(p.wall_s for p in passes)
    latency = {(op.stream, op.model_file): op.latency_s
               for op in passes[0].ops if op.latency_s is not None}
    waits = [latency[(op.stream, op.model_file)] - op.service_s
             for op in replay.ops if (op.stream, op.model_file) in latency]
    discovery_total = total("discovery.discover")
    return {
        "stats.dcor_perm_s": total("stats.dcor_perm"),
        "stats.dcor_perm_calls": t.calls.get("stats.dcor_perm", 0),
        "stats.dcor_perm_share": total("stats.dcor_perm") / discovery_total
        if discovery_total else 0.0,
        "stats.kridge_resid_s": total("stats.kridge_resid"),
        "stats.kridge_resid_calls": t.calls.get("stats.kridge_resid", 0),
        "stats.parcorr_s": total("stats.parcorr"),
        "stats.ci_tests": t.calls.get("stats.kridge_dcor", 0) + t.calls.get("stats.parcorr", 0),
        "stats.ci_failures": replay.ci_failures,
        "discovery.total_s": discovery_total,
        "discovery.te_s": total("discovery.te"),
        "discovery.te_pairs_kept": replay.te_kept,
        "discovery.te_pairs_rejected": replay.te_rejected,
        "discovery.pc1_s": total("discovery.pc1"),
        "discovery.mci_s": total("discovery.mci"),
        "discovery.export_ms": total("discovery.export") / replay.models * 1e3
        if replay.models else 0.0,
        "sim.step_us": mean_self("sim.step", 1e6),
        "sim.steps": t.calls.get("sim.step", 0),
        "bus.publish_us": mean_self("bus.publish", 1e6),
        "bus.publishes": t.calls.get("bus.publish", 0),
        "bus.dropped": replay.dropped,
        "collector.tick_us": mean_self("collector.tick", 1e6),
        "collector.samples_taken": replay.samples_taken,
        "collector.samples_skipped": replay.samples_skipped,
        "postprocess.batch_ms": mean_inclusive("postprocess.batch", 1e3),
        "timeseries.write_ms": mean_inclusive("timeseries.write", 1e3),
        "timeseries.read_ms": mean_inclusive("timeseries.read", 1e3),
        "timeseries.csv_bytes": replay.csv_bytes / replay.csv_files if replay.csv_files else 0,
        "pipeline.queue_wait_s": statistics.median(waits) if waits else 0.0,
        "trace.untraced_wall_s": untraced_wall,
        "trace.replay_wall_s": replay.wall_s,
        "trace.gap_s": replay.wall_s - untraced_wall,
    }
