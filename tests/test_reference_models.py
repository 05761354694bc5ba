"""Model bytes against the digests the benchmark recorded.

`perfbench/reference.json` holds the sha256 of every model the benchmark's
workloads produce. Checking a few of them here makes a change that moves a
model byte fail the tests, not only the benchmark run. The file is only read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from causalpipe import discovery

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference.json"

# One stream of the hri_parcorr workload: the default scenario of the given
# seed, analysed by pcmci + parcorr, twelve 150 s batches. Prints the sha256
# of every model file, by stream and file name.
HRI_PARCORR = """
import dataclasses, hashlib, json, sys
from pathlib import Path
from causalpipe.config import default_config
from causalpipe.pipeline import run_pipeline

digests = {}
for stream in sys.argv[2:]:
    out = Path(sys.argv[1]) / stream
    cfg = default_config(out, seed=int(stream))
    cfg.duration = 12 * cfg.collector.batch_seconds
    cfg.discovery = dataclasses.replace(cfg.discovery, ci_test="parcorr", method="pcmci")
    run_pipeline(cfg)
    digests[stream] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted(out.glob("model_*.json"))}
print(json.dumps(digests))
"""


@pytest.mark.skipif(not REFERENCE.exists(), reason="no benchmark reference in this checkout")
def test_parcorr_models_match_the_benchmark_reference(tmp_path):
    # streams 0 (primary) and 8 (held out); one BLAS thread, as recorded
    streams = ["0", "8"]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["hri_parcorr"]
    src = os.path.dirname(os.path.dirname(discovery.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", HRI_PARCORR, str(tmp_path), *streams],
                          env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    digests = json.loads(proc.stdout.splitlines()[-1])
    for stream in streams:
        assert len(digests[stream]) == 12
        assert digests[stream] == reference[stream], f"stream {stream}"
