"""End-to-end orchestration: simulate, collect, discover, export.

One simulated clock drives the simulator and the collector in lockstep, and
the same loop drives the pool watcher (PoolWatcher.step): it does every pool
file operation itself, and the watcher's analysis thread only runs
`discover`, so analysing one batch never blocks collection of the next. The
loop steps the watcher once before the first tick, to take a backlog an
earlier run left in the pool, and then only after a tick in which a CSV
landed or while a batch is in analysis, so an idle watcher costs no scan.
When the loop ends, `drain()` runs the backlog through the same step(),
waiting for each batch; a quiet abort only finishes the batch in analysis.

Every completed batch yields a JSON and a DOT model file in the output
directory, and the run ends with a manifest (config echo, seed, per-batch
timings, edge lists, artifact checksums, and `bus_dropped`: the state
messages the collector's bounded subscriptions dropped). `wall_seconds` is
the whole run; `generator_seconds` is its simulate-and-collect loop, without
the final drain of the pool.

A batch's `discovery_seconds` runs from the moment its CSV landed in the
pool to the moment its model pair was written, so it includes the time the
file waited for the watcher. Landing times are taken on the simulation
loop: after each collector tick, every file newly appended to
`collector.files_written` is stamped with the current time. A CSV that an
earlier run left in the pool is stamped with the run's start. The manifest's
checksums are of the bytes each model file was written with, not read back
from disk.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
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


def _export_pair(model: CausalModel, out_dir: Path,
                 stem: str) -> tuple[tuple[Path, Path], tuple[bytes, bytes]]:
    """Write `<stem>.json` and `<stem>.dot` into `out_dir`; returns both
    paths and the bytes written to each."""
    json_path = out_dir / f"{stem}.json"
    dot_path = out_dir / f"{stem}.dot"
    written = export_model(model, "json", json_path), export_model(model, "dot", dot_path)
    return (json_path, dot_path), written


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
        (json_path, dot_path), (json_bytes, dot_bytes) = _export_pair(model, out_dir, stem)
        written = time_mod.perf_counter()
        result.models.append(model)
        result.model_files.append((json_path, dot_path))
        batch_rows.append({
            "batch_id": model.batch_id,
            "csv": csv_path.name,
            "discovery_seconds": round(written - landed.get(csv_path.name, written), 6),
            "model_json": json_path.name,
            "model_dot": dot_path.name,
            "sha256_json": hashlib.sha256(json_bytes).hexdigest(),
            "sha256_dot": hashlib.sha256(dot_bytes).hexdigest(),
            "edges": sorted([src, dst, lag] for src, dst, lag in model.named_edges()),
        })
        log.info("batch %s -> %d edges", model.batch_id, len(model.named_edges()))

    watcher = PoolWatcher(pool_dir, config.discovery, config.te, bus=bus, on_model=on_model)

    stamped = 0  # collector.files_written[:stamped] are in `landed`

    def tick(now: float) -> None:
        nonlocal stamped
        collector.tick(now)
        written = collector.files_written
        if len(written) > stamped or watcher.analysing:
            for path in written[stamped:]:
                landed[path.name] = time_mod.perf_counter()
            stamped = len(written)
            watcher.step()

    # a backlog an earlier run left in the pool has waited since this run began
    backlog = [name for name in os.listdir(pool_dir) if name.endswith(".csv")]
    started = time_mod.perf_counter()
    landed.update(dict.fromkeys(backlog, started))
    try:
        watcher.step()
        sim.publish_initial()
        tick(0.0)
        steps = round(config.duration / SIM_DT)
        for k in range(1, steps + 1):
            sim.step(SIM_DT)
            tick(k * SIM_DT)
        generator_seconds = time_mod.perf_counter() - started
    finally:
        watcher.drain() if drain_pool else watcher.stop()

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
        "generator_seconds": round(generator_seconds, 6),
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
    return _export_pair(model, out_dir, f"{csv_path.stem}_model")[0]
