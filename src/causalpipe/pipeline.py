"""End-to-end orchestration: simulate, collect, discover, export.

Collection and discovery run in two processes, as ROS-Causal's collection
and discovery nodes do. `run_pipeline` starts one child process, the
generator, from the `forkserver` context: the first run of a process starts
a server, a fresh interpreter that imports this module once, and every
generator is forked from that server. So the generator shares no page with
the calling process and inherits none of its threads, and it starts in a
few milliseconds with every module loaded. Where there is no fork server,
`spawn` runs the same module-level target. The child builds its own bus,
Simulator and Collector, and one simulated clock drives the two in lockstep,
writing CSV batches into the pool. Over a one-way pipe it reports each CSV
that landed, with the time it landed (right after its atomic rename), its
log records at WARNING and above, which the calling process re-emits once,
and at the end its sample counts and loop time. The child runs the code its
server imported: a patch made in the calling process does not reach it, but
the config it is given does. As with any start method but fork, the child
imports the caller's main script, so a script that calls `run_pipeline`
must do so under `if __name__ == "__main__":`, and must be a file: a script
read from standard input fails the run before anything starts.

The calling process keeps the model topic, the pool watcher, the model
files and the manifest. Its loop blocks until the generator reports or the
batch in analysis ends, then steps the watcher (PoolWatcher.step): it does
every pool file operation itself, and the watcher's analysis thread only
runs `discover`. So collection never waits on analysis, and analysis never
waits for the generator's interpreter lock: the calling process runs no
thread beside the generator. The first step waits for the generator's
Collector, which numbers its batches past any backlog an earlier run left
in the pool. When the generator ends, `drain()` runs the backlog through
the same step(), waiting for each batch; a quiet abort only finishes the
batch in analysis. A generator that raises or dies fails the run with a
GeneratorError once the watcher is stopped; it is always joined.

Every completed batch yields a JSON and a DOT model file in the output
directory, and the run ends with a manifest (config echo, seed, per-batch
timings, edge lists, artifact checksums, and `bus_dropped`: the state
messages the collector's bounded subscriptions dropped). `wall_seconds` is
the whole run; `generator_seconds` is the generator's simulate-and-collect
loop, next to its exit code and its peak resident memory.

A batch's `discovery_seconds` runs from the moment its CSV landed in the
pool to the moment its model pair was written, so it includes the time the
file waited for the watcher. A CSV that an earlier run left in the pool is
stamped with the run's start. The manifest's checksums are of the bytes each
model file was written with, not read back from disk.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import logging
import os
import sys
import time as time_mod
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .bus import MessageBus
from .collector import Collector
from .config import ConfigError, ScenarioConfig, config_to_dict, validate
from .discovery import (MODEL_TOPIC, CausalModel, PoolWatcher, batch_id_for, discover,
                        export_model)
from .postprocess import resolve_postprocessor
from .sim import SIM_DT, Simulator
from .state import AgentState, HUMAN_TOPIC, ROBOT_TOPIC
from .timeseries import read_csv, write_atomic

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

# multiprocessing is imported when a run starts, not with this module: its
# import (about 12 ms) would add to every start-up that never runs a pipeline

log = logging.getLogger(__name__)


class GeneratorError(RuntimeError):
    """The generator process raised or died before it finished its run."""


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


# --- the generator process ----------------------------------------------------

class _ForwardRecords(logging.Handler):
    """Sends each record at WARNING and above over the generator's pipe,
    with its message and traceback already formatted: arguments and
    tracebacks may not pickle."""

    def __init__(self, report: Connection):
        super().__init__(logging.WARNING)
        self.report = report

    def emit(self, record: logging.LogRecord) -> None:
        try:
            self.format(record)  # sets record.message, and record.exc_text
            record = copy.copy(record)
            record.msg, record.args, record.exc_info = record.message, None, None
            self.report.send(("log", record))
        except Exception:
            self.handleError(record)


def _peak_rss_mb() -> float | None:
    try:
        import resource
    except ImportError:  # no getrusage on this platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 1024)  # bytes there, KiB here


def _generate(config: ScenarioConfig, report: Connection) -> None:
    """The generator process: simulate and collect `config`'s scenario into
    the pool, reporting over `report` ("ready" once its Collector is built,
    then ("landed", csv name, perf_counter) for each CSV, ("log", record),
    and ("done", summary) or ("failed", traceback text))."""
    # the package's records go to the calling process only
    package_log = logging.getLogger(__package__)
    package_log.handlers = [_ForwardRecords(report)]
    package_log.propagate = False
    try:
        bus = MessageBus()
        bus.create_topic(ROBOT_TOPIC, AgentState)
        bus.create_topic(HUMAN_TOPIC, AgentState)
        sim = Simulator(sfm=config.sfm, path=config.robot_path, seed=config.seed, bus=bus)
        postprocessor = resolve_postprocessor(config.collector.postprocessor, config.risk)
        collector = Collector(bus, config.collector, postprocessor)
        report.send(("ready",))
        written = collector.files_written
        stamped = 0  # written[:stamped] are reported

        def tick(now: float) -> None:
            nonlocal stamped
            collector.tick(now)
            if len(written) > stamped:
                landed = time_mod.perf_counter()
                for path in written[stamped:]:
                    report.send(("landed", path.name, landed))
                stamped = len(written)

        started = time_mod.perf_counter()
        sim.publish_initial()
        tick(0.0)
        for k in range(1, round(config.duration / SIM_DT) + 1):
            sim.step(SIM_DT)
            tick(k * SIM_DT)
        loop_seconds = time_mod.perf_counter() - started
        report.send(("done", {
            "samples_taken": collector.samples_taken,
            "samples_skipped": collector.samples_skipped,
            "dropped": collector.dropped,
            "csv_files_written": len(written),
            "loop_seconds": loop_seconds,
            "peak_rss_mb": _peak_rss_mb(),
        }))
    except Exception:
        report.send(("failed", traceback.format_exc()))
        raise SystemExit(1) from None  # reported: no second traceback on stderr
    finally:
        report.close()


class _AnalysisWaker:
    """A pipe end that turns readable when the batch in analysis ends, so
    one `wait` covers the generator's reports and the analysis."""

    def __init__(self) -> None:
        import multiprocessing

        self.readable, self._writable = multiprocessing.Pipe(duplex=False)
        self._watched = None

    def watch(self, watcher: PoolWatcher) -> None:
        future = watcher.analysis
        if future is not None and future is not self._watched:
            self._watched = future
            future.add_done_callback(self._wake)  # runs at once if already done

    def _wake(self, _future) -> None:
        # A future runs its callbacks after it has woken its waiters, so this
        # may come after the run closed `readable`: then nothing reads it.
        # The write end stays open until the callback is gone with its future.
        with contextlib.suppress(BrokenPipeError):
            self._writable.send_bytes(b"")


def _reemit(record: logging.LogRecord) -> None:
    logger = logging.getLogger(record.name)
    if logger.isEnabledFor(record.levelno):
        logger.handle(record)


def _follow(reports: Connection, waker: _AnalysisWaker, watcher: PoolWatcher,
            landed: dict[str, float], generator: BaseProcess) -> dict:
    """Step the watcher whenever the generator reports or the batch in
    analysis ends, until the generator's summary arrives; returns it."""
    from multiprocessing.connection import wait

    started = False  # the generator reported "ready"
    while True:
        ready = wait([reports, waker.readable])
        step = waker.readable in ready
        if step:
            waker.readable.recv_bytes()
        summary = None
        while summary is None and reports.poll():
            try:
                kind, *body = reports.recv()
            except (EOFError, OSError):
                generator.join()  # it closed its end of the pipe by exiting
                raise GeneratorError(
                    "the generator process died before it finished its run" if started else
                    f"the generator process exited with code {generator.exitcode} before its "
                    "run started (its error is on standard error): a main script that calls "
                    'run_pipeline must do so under `if __name__ == "__main__":`') from None
            if kind == "landed":
                name, at = body
                landed[name] = at
                step = True
            elif kind == "log":
                _reemit(body[0])
            elif kind == "ready":
                started = step = True
            elif kind == "done":
                summary = body[0]
            else:
                raise GeneratorError(f"the generator process raised:\n{body[0]}")
        if step:
            watcher.step()
            waker.watch(watcher)
        if summary is not None:
            return summary


def _process_context():
    """The fork server where the platform has one, started if it is not
    running; elsewhere spawn, which imports this module afresh for each
    generator.

    The server preloads this module (after `__main__`, the context's
    default), so each generator is forked with the package loaded. It is a
    fresh interpreter and is not given this process's sys.path (Python
    3.11 drops it), so the sys.path goes in PYTHONPATH while the server
    starts; a server that could not import the package would leave every
    generator to import it, some 150 ms a run. A server another caller
    started without this preload is used as it is."""
    import multiprocessing
    from multiprocessing import forkserver

    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    forkserver.set_forkserver_preload(["__main__", __name__])
    saved = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(sys.path)
    try:
        forkserver.ensure_running()
    finally:
        if saved is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = saved
    return multiprocessing.get_context("forkserver")


def _check_main_script() -> None:
    """Raise GeneratorError if the generator could not import the caller's
    main script: multiprocessing runs it by path in the child when
    `__main__` has a `__file__` but no module name, and a script read from
    standard input has no file to run."""
    from multiprocessing import process

    main = sys.modules["__main__"]
    path = getattr(main, "__file__", None)
    if getattr(main.__spec__, "name", None) is not None or path is None:
        return
    path = os.path.normpath(os.path.join(process.ORIGINAL_DIR or "", path))
    if not os.path.isfile(path):
        raise GeneratorError(f"the main script {path} is not a file: the generator "
                             "process must be able to import it, so run_pipeline needs "
                             "a main script in a file or a module")


def run_pipeline(config: ScenarioConfig, drain_pool: bool = True) -> PipelineResult:
    """Run the full scenario described by `config`.

    With drain_pool=False the backlog left at shutdown is abandoned (quiet
    abort). Raises GeneratorError, before anything is built or started, when
    the generator process could not import the caller's main script (one
    read from standard input), and when the generator raises or dies.
    """
    problems = validate(config)
    if problems:
        raise ConfigError(problems)
    _check_main_script()

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pool_dir = Path(config.collector.pool_dir)
    pool_dir.mkdir(parents=True, exist_ok=True)

    bus = MessageBus()
    bus.create_topic(MODEL_TOPIC, CausalModel)

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

    # a backlog an earlier run left in the pool has waited since this run began
    backlog = [path.name for path in watcher._pending()]
    started = time_mod.perf_counter()
    landed.update(dict.fromkeys(backlog, started))
    context = _process_context()
    reports, report_end = context.Pipe(duplex=False)
    generator = context.Process(target=_generate, args=(config, report_end),
                                name="causalpipe-generator")
    generator.start()
    # the generator now holds the only write end: its exit reads as EOF here
    report_end.close()
    waker = _AnalysisWaker()
    try:
        summary = _follow(reports, waker, watcher, landed, generator)
    except BaseException:
        generator.terminate()
        watcher.stop()
        raise
    else:
        watcher.drain() if drain_pool else watcher.stop()
    finally:
        generator.join()
        reports.close()
        waker.readable.close()

    result.csv_files_written = summary["csv_files_written"]
    result.quarantined = watcher.quarantined
    manifest = {
        "config": config_to_dict(config),
        "seed": config.seed,
        "sim_dt": SIM_DT,
        "samples_taken": summary["samples_taken"],
        "samples_skipped": summary["samples_skipped"],
        "bus_dropped": summary["dropped"],
        "csv_files_written": result.csv_files_written,
        "models_published": watcher.published,
        "quarantined": watcher.quarantined,
        "batches": batch_rows,
        "generator_seconds": round(summary["loop_seconds"], 6),
        "generator_exit_code": generator.exitcode,
        "generator_peak_rss_mb": summary["peak_rss_mb"],
        "wall_seconds": round(time_mod.perf_counter() - started, 6),
    }
    write_atomic(result.manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return result


def discover_csv(csv_path: str | Path, params, te_params,
                 output_dir: str | Path) -> tuple[Path, Path]:
    """Offline discovery on an existing CSV; the source file is kept."""
    csv_path = Path(csv_path)
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = discover(read_csv(csv_path), params, te_params, batch_id=batch_id_for(csv_path))
    return _export_pair(model, out_dir, f"{csv_path.stem}_model")[0]
