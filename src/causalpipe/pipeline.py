"""End-to-end orchestration: simulate, collect, discover, export.

One simulated clock drives the simulator and the collector in lockstep; the
pool watcher runs in its own thread so causal analysis of one batch never
blocks collection of the next. Every completed batch yields a JSON and a DOT
model file in the output directory, and the run ends with a manifest
(config echo, seed, per-batch timings, edge lists, artifact checksums, and
`bus_dropped`: the state messages the collector's bounded subscriptions
dropped).

A batch's `discovery_seconds` runs from the moment its CSV landed in the
pool to the moment its model pair was written, so it includes the time the
file waited for the watcher. Landing times are taken on the simulation
loop: after each collector tick, every file newly appended to
`collector.files_written` is stamped with the current time.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time as time_mod
from dataclasses import dataclass, field
from pathlib import Path

from .bus import MessageBus
from .collector import Collector
from .config import ConfigError, ScenarioConfig, config_to_dict, validate
from .discovery import (MODEL_TOPIC, CausalModel, PoolWatcher, batch_id_for, discover,
                        export_model)
from .postprocess import resolve_postprocessor
from .sim import SIM_DT, Simulator
from .state import AgentState, HUMAN_TOPIC, ROBOT_TOPIC
from .timeseries import read_csv, write_atomic

log = logging.getLogger(__name__)


@dataclass
class PipelineResult:
    output_dir: Path
    manifest_path: Path
    models: list[CausalModel] = field(default_factory=list)
    model_files: list[tuple[Path, Path]] = field(default_factory=list)
    csv_files_written: int = 0
    quarantined: int = 0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _export_pair(model: CausalModel, out_dir: Path, stem: str) -> tuple[Path, Path]:
    """Write `<stem>.json` and `<stem>.dot` into `out_dir`."""
    json_path = out_dir / f"{stem}.json"
    dot_path = out_dir / f"{stem}.dot"
    export_model(model, "json", json_path)
    export_model(model, "dot", dot_path)
    return json_path, dot_path


def run_pipeline(config: ScenarioConfig, drain_pool: bool = True) -> PipelineResult:
    """Run the full scenario described by `config`.

    With drain_pool=False the backlog left at shutdown is abandoned (quiet
    abort).
    """
    problems = validate(config)
    if problems:
        raise ConfigError(problems)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pool_dir = Path(config.collector.pool_dir)
    pool_dir.mkdir(parents=True, exist_ok=True)

    bus = MessageBus()
    bus.create_topic(ROBOT_TOPIC, AgentState)
    bus.create_topic(HUMAN_TOPIC, AgentState)
    bus.create_topic(MODEL_TOPIC, CausalModel)

    sim = Simulator(sfm=config.sfm, path=config.robot_path, seed=config.seed, bus=bus)
    postprocessor = resolve_postprocessor(config.collector.postprocessor, config.risk)
    collector = Collector(bus, config.collector, postprocessor)

    result = PipelineResult(output_dir=out_dir, manifest_path=out_dir / "manifest.json")
    batch_rows: list[dict] = []
    landed: dict[str, float] = {}  # CSV name -> perf_counter when it landed

    def on_model(model: CausalModel, csv_path: Path) -> None:
        stem = f"model_{int(model.batch_id):05d}" if model.batch_id.isdigit() \
            else f"model_{model.batch_id}"
        json_path, dot_path = _export_pair(model, out_dir, stem)
        written = time_mod.perf_counter()
        result.models.append(model)
        result.model_files.append((json_path, dot_path))
        batch_rows.append({
            "batch_id": model.batch_id,
            "csv": csv_path.name,
            "discovery_seconds": round(written - landed.get(csv_path.name, written), 6),
            "model_json": json_path.name,
            "model_dot": dot_path.name,
            "sha256_json": _sha256(json_path),
            "sha256_dot": _sha256(dot_path),
            "edges": sorted([src, dst, lag] for src, dst, lag in model.named_edges()),
        })
        log.info("batch %s -> %d edges", model.batch_id, len(model.named_edges()))

    watcher = PoolWatcher(pool_dir, config.discovery, config.te, bus=bus,
                          on_model=on_model, poll_interval=0.02)

    def tick(now: float) -> None:
        collector.tick(now)
        for path in collector.files_written[len(landed):]:
            landed[path.name] = time_mod.perf_counter()

    started = time_mod.perf_counter()
    watcher.start()
    try:
        sim.publish_initial()
        tick(0.0)
        steps = round(config.duration / SIM_DT)
        for k in range(1, steps + 1):
            sim.step(SIM_DT)
            tick(k * SIM_DT)
    finally:
        watcher.stop()
        if drain_pool:
            watcher.drain()

    result.csv_files_written = len(collector.files_written)
    result.quarantined = watcher.quarantined
    manifest = {
        "config": config_to_dict(config),
        "seed": config.seed,
        "sim_dt": SIM_DT,
        "samples_taken": collector.samples_taken,
        "samples_skipped": collector.samples_skipped,
        "bus_dropped": collector.dropped,
        "csv_files_written": result.csv_files_written,
        "models_published": watcher.published,
        "quarantined": watcher.quarantined,
        "batches": batch_rows,
        "wall_seconds": round(time_mod.perf_counter() - started, 6),
    }
    write_atomic(result.manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return result


def discover_csv(csv_path: str | Path, params, te_params, output_dir: str | Path,
                 batch_id: str | None = None) -> tuple[Path, Path]:
    """Offline discovery on an existing CSV; the source file is kept."""
    csv_path = Path(csv_path)
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    batch = read_csv(csv_path)
    model = discover(batch, params, te_params,
                     batch_id=batch_id if batch_id is not None else batch_id_for(csv_path))
    return _export_pair(model, out_dir, f"{csv_path.stem}_model")
