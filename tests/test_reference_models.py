"""Model bytes against the digests the benchmark recorded.

`perfbench/reference.json` holds the sha256 of every model the benchmark's
workloads produce. Checking a few of them here makes a change that moves a
model byte fail the tests, not only the benchmark run. The file is only read.
"""

import hashlib
import json
import subprocess
from pathlib import Path

import pytest

from conftest import run_python


ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference.json"

# Streams of one benchmark workload: the default scenario of each seed,
# analysed by the given method and CI test over the given number of 150 s
# batches. Prints the sha256 of every model file, by stream and file name.
WORKLOAD = """
import dataclasses, hashlib, json, sys
from pathlib import Path
from causalpipe.config import default_config
from causalpipe.pipeline import run_pipeline

root, ci_test, method, batches, *streams = sys.argv[1:]
digests = {}
for stream in streams:
    out = Path(root) / stream
    cfg = default_config(out, seed=int(stream))
    cfg.duration = int(batches) * cfg.collector.batch_seconds
    cfg.discovery = dataclasses.replace(cfg.discovery, ci_test=ci_test, method=method)
    run_pipeline(cfg)
    digests[stream] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted(out.glob("model_*.json"))}
print(json.dumps(digests))
"""

# One BLAS thread, as recorded: the kernel-ridge solve sums in an order that
# depends on the thread count, whichever threading library BLAS uses.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def run_one_blas_thread(*args: str) -> subprocess.CompletedProcess:
    """Python on this source tree with one BLAS thread, in a fresh process."""
    proc = run_python(*args, env=ONE_BLAS_THREAD, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc


def workload_digests(tmp_path, ci_test: str, method: str, batches: int,
                     streams: list[str]) -> dict:
    proc = run_one_blas_thread("-c", WORKLOAD, str(tmp_path), ci_test, method, str(batches),
                               *streams)
    return json.loads(proc.stdout.splitlines()[-1])


needs_reference = pytest.mark.skipif(not REFERENCE.exists(),
                                     reason="no benchmark reference in this checkout")


@needs_reference
def test_parcorr_models_match_the_benchmark_reference(tmp_path):
    # hri_parcorr streams 0 (primary) and 8 (held out)
    streams = ["0", "8"]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["hri_parcorr"]
    digests = workload_digests(tmp_path, "parcorr", "pcmci", 12, streams)
    for stream in streams:
        assert len(digests[stream]) == 12
        assert digests[stream] == reference[stream], f"stream {stream}"


@needs_reference
def test_kridge_models_match_the_benchmark_reference(tmp_path):
    # hri_kridge, the shipped default (fpcmci + kridge_dcor), streams 2
    # (primary) and 10 (held out); its tests share a cache across the pool
    streams = ["2", "10"]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["hri_kridge"]
    digests = workload_digests(tmp_path, "kridge_dcor", "fpcmci", 1, streams)
    for stream in streams:
        assert len(digests[stream]) == 1
        assert digests[stream] == reference[stream], f"stream {stream}"


@needs_reference
def test_the_cli_run_matches_the_benchmark_reference(tmp_path):
    # `causalpipe run --seed 42`, the shipped default, through the CLI entry
    # point and its generator process
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["run_seed42_cli"]
    out = tmp_path / "out"
    run_one_blas_thread("-m", "causalpipe", "run", "--seed", "42", "--out", str(out),
                        "--quiet")
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.glob("model_*.json"))}
    assert digests == reference
