import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from causalpipe import cli
from causalpipe.scm_bench import Edge, SCMSpec, generate
from causalpipe.timeseries import read_csv, write_csv


def fast_run_args(out_dir, extra=()):
    # short batch keeps discovery above its minimum-row floor (50 + lag margin)
    return ["run", "--out", str(out_dir), "--duration", "24", "--dt", "0.3",
            "--batch-seconds", "24", "--citest", "parcorr", "--method", "pcmci",
            "--seed", "5", "--quiet", *extra]


def test_run_emits_model_pair_and_manifest(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(fast_run_args(out))
    assert rc == 0
    assert (out / "model_00000.json").exists()
    assert (out / "model_00000.dot").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["csv_files_written"] == 1
    assert manifest["models_published"] == 1
    assert manifest["seed"] == 5
    assert manifest["config"]["collector"]["dt"] == 0.3  # config echo
    assert len(manifest["batches"]) == 1
    assert manifest["bus_dropped"] == 0  # the collector drains every tick
    row = manifest["batches"][0]
    assert row["model_json"] == "model_00000.json"
    assert len(row["sha256_json"]) == 64
    for batch in manifest["batches"]:  # CSV landing -> model pair written
        assert 0 <= batch["discovery_seconds"] <= manifest["wall_seconds"]
    # pool drained on shutdown
    assert list((out / "pool").glob("*.csv")) == []


def test_failed_manifest_replace_keeps_old_manifest(tmp_path, monkeypatch):
    # a crash mid-write must never leave a truncated manifest behind
    out = tmp_path / "out"
    assert cli.main(fast_run_args(out)) == 0
    manifest = out / "manifest.json"
    before = manifest.read_bytes()
    replace = os.replace

    def failing_replace(src, dst):
        if Path(dst).name == "manifest.json":
            raise OSError("injected")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    assert cli.main(fast_run_args(out)) == cli.EXIT_RUNTIME
    assert manifest.read_bytes() == before
    assert not [p.name for p in out.iterdir() if p.name.startswith(".tmp-")]


def test_python_m_cli_runs_the_pipeline(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "causalpipe.cli", "run", "--seed", "42",
         "--duration", "150", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert (out / "model_00000.json").exists()
    assert json.loads((out / "manifest.json").read_text())["models_published"] == 1


def test_python_m_package_runs_the_pipeline(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "causalpipe", *fast_run_args(out)],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert (out / "model_00000.json").exists()
    assert json.loads((out / "manifest.json").read_text())["models_published"] == 1


def test_run_duration_shorter_than_batch_fails_validation(tmp_path):
    rc = cli.main(["run", "--out", str(tmp_path / "o"), "--duration", "10",
                   "--batch-seconds", "150", "--quiet"])
    assert rc == 1
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_run_config_file_with_flag_override(tmp_path):
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "duration": 24.0,
        "seed": 3,
        "output_dir": str(out),
        "collector": {"dt": 0.3, "batch_seconds": 24.0,
                      "pool_dir": str(out / "pool")},
        "discovery": {"alpha": 0.1, "ci_test": "parcorr", "method": "pcmci"},
    }))
    rc = cli.main(["run", "--config", str(config_path), "--alpha", "0.02", "--quiet"])
    assert rc == 0
    model = json.loads((out / "model_00000.json").read_text())
    assert model["params"]["alpha"] == 0.02  # flag overrides config file
    assert model["params"]["method"] == "pcmci"


def test_run_rejects_invalid_config_file(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"collector": {"dt": -1.0}}))
    rc = cli.main(["run", "--config", str(config_path), "--quiet"])
    assert rc == 1


def test_discover_on_scm_csv_recovers_edge(tmp_path):
    batch, truth = generate(SCMSpec(n_vars=2, edges=(Edge(0, 1, 1, 0.8),),
                                    n_samples=500, seed=4))
    csv_path = tmp_path / "series.csv"
    write_csv(batch, csv_path)
    out = tmp_path / "models"
    rc = cli.main(["discover", str(csv_path), "--out", str(out),
                   "--citest", "parcorr", "--method", "pcmci", "--quiet"])
    assert rc == 0
    assert csv_path.exists()  # offline tool never deletes its input
    payload = json.loads((out / "series_model.json").read_text())
    assert payload["structure"][0][0][1] == 1  # X0 -> X1 at lag 1
    assert (out / "series_model.dot").exists()


def test_discover_constant_column_is_edge_free(tmp_path):
    rng = np.random.default_rng(0)
    batch, _ = generate(SCMSpec(n_vars=2, edges=(Edge(0, 1, 1, 0.8),),
                                n_samples=300, seed=1))
    rows = np.column_stack([batch.rows, np.full(300, 7.0)])
    from causalpipe.timeseries import TimeSeriesBatch
    batch3 = TimeSeriesBatch(["X0", "X1", "X2"], 0.0, 1.0, rows)
    csv_path = tmp_path / "const.csv"
    write_csv(batch3, csv_path)
    rc = cli.main(["discover", str(csv_path), "--out", str(tmp_path),
                   "--citest", "parcorr", "--method", "pcmci", "--quiet"])
    assert rc == 0
    payload = json.loads((tmp_path / "const_model.json").read_text())
    structure = np.asarray(payload["structure"])
    assert structure[:, 2, :].sum() == 0
    assert structure[:, :, 2].sum() == 0


def test_discover_missing_file_exits_nonzero(tmp_path, capsys):
    rc = cli.main(["discover", str(tmp_path / "nope.csv"), "--quiet"])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_discover_malformed_csv_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1.0,2.0\n3.0\n", encoding="utf-8")
    rc = cli.main(["discover", str(bad), "--quiet"])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


def test_bench_report_rows_and_f1(tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "seeds": 3,
        "methods": ["pcmci-parcorr"],
        "specs": [
            {"name": "single-edge", "n_vars": 2,
             "edges": [[0, 1, 1, 0.8], [0, 0, 1, 0.6]], "n_samples": 500},
            {"name": "empty", "n_vars": 2, "edges": [], "n_samples": 400},
        ],
    }))
    out = tmp_path / "bench_out"
    rc = cli.main(["bench", "--config", str(config), "--out", str(out), "--quiet"])
    assert rc == 0
    lines = (out / "bench_report.csv").read_text().splitlines()
    assert len(lines) == 1 + 2  # header + specs x methods
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert row["spec"] == "single-edge"
    assert float(row["f1_mean"]) >= 0.8


def test_bench_unstable_spec_reported_not_fatal(tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "seeds": 2,
        "methods": ["pcmci-parcorr"],
        "specs": [
            {"name": "explosive", "n_vars": 1, "edges": [[0, 0, 1, 1.5]]},
            {"name": "fine", "n_vars": 2, "edges": [[0, 1, 1, 0.8]]},
        ],
    }))
    out = tmp_path / "bench_out"
    rc = cli.main(["bench", "--config", str(config), "--out", str(out), "--quiet"])
    assert rc == 0
    lines = (out / "bench_report.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "unstable" in lines[1]


def test_bench_rejects_unknown_method(tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"seeds": 1, "methods": ["magic"],
                                  "specs": [{"n_vars": 1, "edges": []}]}))
    rc = cli.main(["bench", "--config", str(config), "--quiet"])
    assert rc == 1


def test_quiet_abort_leaves_backlog(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(fast_run_args(out, extra=["--quiet-abort"]))
    assert rc == 0
    # the batch may or may not have been picked up before shutdown; what
    # quiet-abort guarantees is that the run does not wait for the backlog
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["csv_files_written"] == 1
