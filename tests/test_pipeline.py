"""run_pipeline's generator process: the simulate-and-collect loop runs in a
child process, which reports landed CSVs, log records and its summary to the
calling process. A child that fails must fail the run, never hang it, and
every child is joined."""

import dataclasses
import hashlib
import itertools
import json
import logging
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from causalpipe import pipeline
from causalpipe.config import default_config
from causalpipe.discovery import PoolWatcher
from causalpipe.pipeline import GeneratorError, run_pipeline
from causalpipe.postprocess import RiskParams
from causalpipe.sim import SIM_DT, SFMParams


def small_config(tmp_path, seed=5):
    cfg = default_config(tmp_path / "out", seed=seed)
    cfg.duration = 72.0
    cfg.collector = dataclasses.replace(cfg.collector, batch_seconds=24.0)
    cfg.discovery = dataclasses.replace(cfg.discovery, ci_test="parcorr", method="pcmci")
    return cfg


# The faults reach the generator with its config: it runs the code its fork
# server imported, so a patch made in this process would not reach it. The
# child imports this module to unpickle them, and counts reads in counters of
# its own; the process that built a fault never fails on it.

_reads = {"goal_radius": itertools.count(1), "epsilon": itertools.count(1)}


def _count_read(params, name: str) -> None:
    get = object.__getattribute__
    if os.getpid() != get(params, "built_in") and next(_reads[name]) == get(params, "fault_at"):
        if get(params, "fault") == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError(f"injected {get(params, 'fault')} failure")


@dataclasses.dataclass(frozen=True)
class FaultySFM(SFMParams):
    """Fails on the n-th read of `goal_radius`: the simulator reads it once
    a step, so on the generator's n-th step."""

    fault_at: int = 0
    fault: str = "step"
    built_in: int = dataclasses.field(default_factory=os.getpid)

    def __getattribute__(self, name):
        if name == "goal_radius":
            _count_read(self, name)
        return super().__getattribute__(name)


@dataclasses.dataclass(frozen=True)
class FaultyRisk(RiskParams):
    """Fails on the n-th read of `epsilon`: the hri_basic postprocessor reads
    it twice a sample, so in the batch holding that sample."""

    fault_at: int = 0
    fault: str = "postprocessor"
    built_in: int = dataclasses.field(default_factory=os.getpid)

    def __getattribute__(self, name):
        if name == "epsilon":
            _count_read(self, name)
        return super().__getattribute__(name)


def failing_at_step(tmp_path, step, fault):
    cfg = small_config(tmp_path)
    cfg.sfm = FaultySFM(fault_at=step, fault=fault)
    return cfg


# after the first batch (24 s) landed and before the second
MID_RUN = round(35.0 / SIM_DT)


def count_stops(monkeypatch):
    stops, stop = [], PoolWatcher.stop
    monkeypatch.setattr(PoolWatcher, "stop", lambda self: stops.append(self) or stop(self))
    return stops


def test_a_run_joins_its_generator_and_reports_it(tmp_path):
    result = run_pipeline(small_config(tmp_path))
    assert multiprocessing.active_children() == []
    manifest = json.loads(result.manifest_path.read_text(encoding="utf-8"))
    assert manifest["generator_exit_code"] == 0
    assert manifest["generator_peak_rss_mb"] > 0
    assert 0 < manifest["generator_seconds"] <= manifest["wall_seconds"]
    assert (manifest["csv_files_written"], manifest["models_published"]) == (3, 3)


def test_a_generator_that_raises_fails_the_run_with_its_error(tmp_path, monkeypatch):
    stops = count_stops(monkeypatch)
    with pytest.raises(GeneratorError, match="injected step failure"):
        run_pipeline(failing_at_step(tmp_path, MID_RUN, "step"))
    assert len(stops) == 1
    assert multiprocessing.active_children() == []


def test_a_killed_generator_fails_the_run_within_seconds(tmp_path, monkeypatch):
    stops = count_stops(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(GeneratorError, match="died"):
        run_pipeline(failing_at_step(tmp_path, MID_RUN, "kill"))
    assert time.perf_counter() - start < 10.0
    assert len(stops) == 1
    assert multiprocessing.active_children() == []


def test_a_postprocessor_failure_is_logged_once_in_the_calling_process(tmp_path, caplog):
    cfg = small_config(tmp_path)
    cfg.risk = FaultyRisk(fault_at=1)
    with caplog.at_level(logging.WARNING):
        result = run_pipeline(cfg)
    failed = [r for r in caplog.records if "postprocessor failed" in r.getMessage()]
    assert len(failed) == 1
    assert failed[0].name == "causalpipe.collector"
    assert "injected postprocessor failure" in failed[0].exc_text
    assert result.csv_files_written == 2
    assert [m.batch_id for m in result.models] == ["1", "2"]
    assert multiprocessing.active_children() == []


def test_the_generator_is_forked_from_a_server(tmp_path):
    # it shares no page with the calling process and inherits none of its
    # threads
    if "forkserver" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork server on this platform")
    python_path = os.environ.get("PYTHONPATH")
    assert pipeline._process_context().get_start_method() == "forkserver"
    run_pipeline(small_config(tmp_path))
    assert os.environ.get("PYTHONPATH") == python_path  # handed to the server only
    assert multiprocessing.active_children() == []


def test_a_spawned_generator_writes_the_models_a_served_one_does(tmp_path, monkeypatch):
    def digests(out):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.glob("model_*"))}

    served = run_pipeline(small_config(tmp_path / "served"))
    monkeypatch.setattr(pipeline, "_process_context",
                        lambda: multiprocessing.get_context("spawn"))
    spawned = run_pipeline(small_config(tmp_path / "spawn"))
    assert len(digests(spawned.output_dir)) == 6
    assert digests(spawned.output_dir) == digests(served.output_dir)
    assert multiprocessing.active_children() == []


# A guarded script that runs a small pipeline into sys.argv[1].
GUARDED_SCRIPT = """
import dataclasses, sys
from causalpipe.config import default_config
from causalpipe.pipeline import run_pipeline

if __name__ == "__main__":
    cfg = default_config(sys.argv[1])
    cfg.duration = 24.0
    cfg.collector = dataclasses.replace(cfg.collector, batch_seconds=24.0)
    cfg.discovery = dataclasses.replace(cfg.discovery, ci_test="parcorr", method="pcmci")
    run_pipeline(cfg)
"""


def run_python(args, tmp_path, **kwargs):
    """Run a fresh interpreter in tmp_path, with this package on its path."""
    src = str(Path(pipeline.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120, **kwargs)


def test_a_main_script_read_from_stdin_fails_before_anything_starts(tmp_path):
    # the generator would have to import the script, which has no file
    out = tmp_path / "out"
    proc = run_python(["-", str(out)], tmp_path, input=GUARDED_SCRIPT)
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("causalpipe.pipeline.GeneratorError: the main script ")
    assert f"{tmp_path.resolve() / '<stdin>'} is not a file" in last
    assert "must be able to import it" in last
    assert not out.exists()


def test_an_unguarded_main_script_fails_the_run_naming_the_guard(tmp_path):
    # the generator runs the script again, and the script's own run_pipeline
    # call fails there before the generator reports "ready"
    script = tmp_path / "unguarded.py"
    script.write_text(GUARDED_SCRIPT.replace('if __name__ == "__main__":', "if True:"),
                      encoding="utf-8")
    proc = run_python([str(script), str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 1
    assert "current process has finished its bootstrapping phase" in proc.stderr
    last = proc.stderr.strip().splitlines()[-1]
    assert last == ("causalpipe.pipeline.GeneratorError: the generator process exited "
                    "with code 1 before its run started (its error is on standard "
                    "error): a main script that calls run_pipeline must do so under "
                    '`if __name__ == "__main__":`')
    assert not list((tmp_path / "out").glob("model_*"))
