import hashlib
import json
import logging
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from causalpipe import cli, discovery
from causalpipe.bus import MessageBus
from causalpipe.config import ConfigError
from causalpipe.discovery import MODEL_TOPIC, DiscoveryParams, PoolWatcher
from causalpipe.scm_bench import Edge, SCMSpec, generate
from causalpipe.stats import KernelRegParams
from causalpipe.timeseries import TimeSeriesBatch, read_csv, write_csv

from conftest import run_python


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
    # the simulate-and-collect loop is timed apart from the final drain, and
    # only in the manifest
    assert 0 < manifest["generator_seconds"] <= manifest["wall_seconds"]
    assert "generator_seconds" not in (out / "model_00000.json").read_text()
    # pool drained on shutdown
    assert list((out / "pool").glob("*.csv")) == []


def test_manifest_digests_are_of_the_model_files_on_disk(tmp_path):
    out = tmp_path / "out"
    assert cli.main(fast_run_args(out, extra=["--duration", "72"])) == 0
    rows = json.loads((out / "manifest.json").read_text())["batches"]
    assert len(rows) == 3
    for row in rows:
        for kind in ("json", "dot"):
            on_disk = hashlib.sha256((out / row[f"model_{kind}"]).read_bytes()).hexdigest()
            assert row[f"sha256_{kind}"] == on_disk, (row["batch_id"], kind)


def test_the_pool_is_scanned_only_when_a_csv_lands_or_a_batch_finishes(tmp_path,
                                                                       monkeypatch):
    # 72 s of 0.05 s steps is 1,441 collector ticks and 3 batches: at most
    # one scan at the start, one per landing, one per finished batch and one
    # for the final drain, all on the thread that runs the pipeline
    scans = []
    pending = PoolWatcher._pending

    def counting(self):
        scans.append(threading.get_ident())
        return pending(self)

    monkeypatch.setattr(PoolWatcher, "_pending", counting)
    out = tmp_path / "out"
    assert cli.main(fast_run_args(out, extra=["--duration", "72"])) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["csv_files_written"] == 3
    assert 5 <= len(scans) <= 1 + 3 + 3 + 1, len(scans)
    assert set(scans) == {threading.get_ident()}


def test_a_run_over_a_reused_pool_analyses_every_batch(tmp_path, monkeypatch, caplog):
    # an earlier run's later batch is left in the pool, as --quiet-abort
    # leaves it; the batches this run collects end before it, so their
    # models are published at its time, with a warning, never back in time
    out = tmp_path / "out"
    (out / "pool").mkdir(parents=True)
    times = 216.0 + 0.3 * np.arange(80)
    rows = np.random.default_rng(0).standard_normal((80, 3))
    write_csv(TimeSeriesBatch(["time", "h_v", "h_dg", "h_risk"], 216.0, 0.3,
                              np.column_stack([times, rows])),
              out / "pool" / "data_00009_000000216000.csv")
    published = []
    publish = MessageBus.publish

    def recording(self, topic, payload, time):
        if topic == MODEL_TOPIC:
            published.append((payload.batch_id, time))
        publish(self, topic, payload, time)

    monkeypatch.setattr(MessageBus, "publish", recording)
    with caplog.at_level(logging.WARNING, logger="causalpipe.discovery"):
        assert cli.main(fast_run_args(out, extra=["--duration", "48"])) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(row["batch_id"] for row in manifest["batches"]) == ["10", "11", "9"]
    assert sorted(batch_id for batch_id, _ in published) == ["10", "11", "9"]
    assert [t for _, t in published] == sorted(t for _, t in published)
    warned = " ".join(r.getMessage() for r in caplog.records if r.levelno == logging.WARNING)
    assert "data_00010_000000000000.csv" in warned
    assert "data_00011_000000024000.csv" in warned


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
    out = tmp_path / "out"
    proc = run_python("-m", "causalpipe.cli", "run", "--seed", "42", "--duration", "150",
                      "--out", str(out), timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert (out / "model_00000.json").exists()
    assert json.loads((out / "manifest.json").read_text())["models_published"] == 1


def test_python_m_package_runs_the_pipeline(tmp_path):
    out = tmp_path / "out"
    proc = run_python("-m", "causalpipe", *fast_run_args(out), timeout=600)
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


def test_run_config_seed_seeds_discovery_as_the_flag_does(tmp_path):
    # a document's seed used to leave discovery.seed at 0, so the same
    # seed gave other permutation p-values than `--seed`
    fast = ["--duration", "24", "--batch-seconds", "24", "--citest", "kridge-dcor",
            "--method", "pcmci", "--quiet"]
    config_path = tmp_path / "seed7.json"
    config_path.write_text(json.dumps({"seed": 7}))
    assert cli.main(["run", "--seed", "7", "--out", str(tmp_path / "flag"), *fast]) == 0
    assert cli.main(["run", "--config", str(config_path), "--out", str(tmp_path / "doc"),
                     *fast]) == 0
    flag, doc = ((tmp_path / side / "model_00000.json").read_bytes() for side in ("flag", "doc"))
    assert json.loads(doc)["params"]["seed"] == 7
    assert doc == flag


def test_run_pools_under_the_config_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps({
        "duration": 24.0, "output_dir": "o", "collector": {"batch_seconds": 24.0},
        "discovery": {"ci_test": "parcorr", "method": "pcmci"}}))
    assert cli.main(["run", "--config", "config.json", "--quiet"]) == 0
    assert json.loads(Path("o/manifest.json").read_text())["models_published"] == 1
    assert Path("o/pool").is_dir()
    assert not Path("pool").exists()


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


@pytest.mark.parametrize("method", ["pcmci", "fpcmci"])
@pytest.mark.parametrize("name, content, problem", [
    pytest.param("dir.csv", None, "not a file", id="directory"),
    pytest.param("latin1.csv", b"a,b\n1.0,\xe9\n", "latin1.csv: not UTF-8 text",
                 id="not-utf8"),
    pytest.param("twice.csv", b"a,a\n" + b"".join(b"%d.5,%d.25\n" % (i % 7, i % 5)
                                                   for i in range(200)),
                 "twice.csv: line 1: duplicate header name 'a'", id="repeated-name"),
    pytest.param("header.csv", b"a,b\n", "0 usable rows", id="header-only"),
    pytest.param("short.csv",
                 b"a,b\n" + b"".join(b"%d.5,%d.25\n" % (i % 7, i % 5) for i in range(30)),
                 "usable rows after lag alignment; need >= 50", id="30-rows"),
])
def test_discover_unusable_csv_exits_1(tmp_path, capsys, method, name, content, problem):
    path = tmp_path / name
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    rc = cli.main(["discover", str(path), "--out", str(tmp_path / "models"),
                   "--method", method, "--quiet"])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert problem in err and "Traceback" not in err


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


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("text", ["[1, 2]", "5"])
def test_config_that_is_not_an_object_exits_1(tmp_path, capsys, command, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    rc = cli.main([command, "--config", str(config), "--out", str(tmp_path / "o"),
                   "--quiet"])
    assert rc == cli.EXIT_VALIDATION
    assert f"{config} must be a JSON object" in capsys.readouterr().err


ONE_SPEC = {"specs": [{"n_vars": 1}]}


@pytest.mark.parametrize("payload, problem", [
    ({"specs": 5}, "specs must be a JSON array"),
    ({"specs": [5]}, "specs[0] must be a JSON object"),
    ({**ONE_SPEC, "methods": 5}, "methods must be a non-empty JSON array"),
    ({**ONE_SPEC, "methods": []}, "methods must be a non-empty JSON array"),
    ({**ONE_SPEC, "seeds": "x"}, "seeds must be an integer >= 1, got a string"),
    ({**ONE_SPEC, "seeds": 2.0}, "seeds must be an integer >= 1, got the number 2.0"),
    ({**ONE_SPEC, "seeds": True}, "seeds must be an integer >= 1, got a boolean"),
    ({**ONE_SPEC, "seed": 1.5}, "seed must be an integer, got the number 1.5"),
    ({**ONE_SPEC, "seed": False}, "seed must be an integer, got a boolean"),
    ({**ONE_SPEC, "discovery": [1]}, "discovery must be a JSON object, got an array"),
    ({**ONE_SPEC, "discovery": {"bogus": 1}}, "discovery: "),
    ({**ONE_SPEC, "discovery": {"alpha": 2.0}}, "discovery: alpha must be in (0,1)"),
    ({**ONE_SPEC, "discovery": {"kridge": {"ridge": 0}}}, "discovery: ridge must be > 0"),
    ({**ONE_SPEC, "discovery": {"tau_max": 1.5}},
     "discovery: tau_max must be an integer, got the number 1.5"),
    ({**ONE_SPEC, "discovery": {"kridge": {"permutations": True}}},
     "discovery: permutations must be an integer, got a boolean"),
    ({"specs": [{"n_vars": 2.0}]}, "specs[0]: n_vars must be an integer, got the number 2.0"),
    ({"specs": [{"n_vars": True}]}, "specs[0]: n_vars must be an integer, got a boolean"),
    ({"specs": [{"n_vars": 1, "n_samples": 300.5}]},
     "specs[0]: n_samples must be an integer, got the number 300.5"),
    ({"specs": [{"n_vars": 2, "edges": [[0, 1, 1.0, 0.8]]}]},
     "specs[0]: lag must be an integer, got the number 1.0"),
    ({"specs": [{"n_vars": 2, "edges": [[0, True, 1, 0.8]]}]},
     "specs[0]: target must be an integer, got a boolean"),
    ({"specs": [{"n_vars": 1, "noise_std": "1.0"}]},
     "specs[0]: noise_std must be a finite number or a JSON array, got a string"),
    ({"specs": [{"n_vars": 1, "name": 5}]}, "specs[0]: name must be a string, got the number 5"),
    ({"specs": [{"n_vars": 2, "edges": [[0, 1, 1, "0.8"]]}]},
     "specs[0]: coefficient must be a finite number, got a string"),
    ({**ONE_SPEC, "seed": -1}, "seed must be >= 0, got -1"),
    # a spec's seed used to be replaced by the base seed plus the run index
    ({"specs": [{"n_vars": 1}, {"n_vars": 1, "seed": 777}]},
     "specs[1]: seed is not read: each run's seed is the base seed plus the run's index"),
])
def test_bench_field_of_the_wrong_type_is_reported_before_any_run(
        tmp_path, monkeypatch, capsys, payload, problem):
    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark ran on an invalid config")

    monkeypatch.setattr(cli, "run_bench", no_run)
    config = tmp_path / "bench.json"
    config.write_text(json.dumps(payload))
    assert cli.main(["bench", "--config", str(config), "--quiet"]) == cli.EXIT_VALIDATION
    assert problem in capsys.readouterr().err


def test_bench_reports_every_unknown_key(tmp_path):
    # misspelt keys used to be ignored: this ran all three methods over 10 seeds
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"specs": [{"n_vars": 2}], "method": ["nope"],
                                  "seed_count": 3}))
    with pytest.raises(ConfigError) as raised:
        cli._parse_bench_config(config, None)
    assert raised.value.problems == ["unknown bench config key 'method'",
                                     "unknown bench config key 'seed_count'"]


def test_bench_seed_flag_below_0_exits_1_before_any_run(tmp_path, capsys):
    # the seed used to reach numpy's generator, which raised: exit 2
    out = tmp_path / "out"
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({**ONE_SPEC, "seeds": 1}))
    rc = cli.main(["bench", "--config", str(config), "--seed", "-1", "--out", str(out),
                   "--quiet"])
    assert rc == cli.EXIT_VALIDATION
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, field, value", [
    ("discovery", "tau_min", 1.0), ("discovery", "tau_max", 1.5),
    ("discovery", "max_conditions", True), ("te", "k", 1.0), ("te", "bins", 8.0),
    ("te", "shuffles", False),
])
def test_run_with_a_non_integer_field_exits_1_before_any_batch(tmp_path, capsys, section,
                                                               field, value):
    # the field used to pass the parser; every batch was then quarantined
    # and the run exited 0
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    payload = {"duration": 24, "output_dir": str(out), "collector": {"batch_seconds": 24},
               "discovery": {"ci_test": "parcorr"}}
    payload.setdefault(section, {})[field] = value
    config.write_text(json.dumps(payload))
    assert cli.main(["run", "--config", str(config), "--quiet"]) == cli.EXIT_VALIDATION
    assert f"{section}: {field} must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, problem", [
    (["--alpha", "2"], "discovery: alpha must be in (0,1), got 2.0"),
    (["--dt", "nan"], "collector: dt must be a finite number, got the number nan"),
    (["--tau-max", "0"], "discovery: need 1 <= tau_min <= tau_max, got [1, 0]"),
    (["--duration", "nan"], "duration must be a finite number, got the number nan"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    # ticked once a 0.05 s simulator step, the collector would buffer copies
    (["--dt", "0.01", "--duration", "1", "--batch-seconds", "1", "--citest", "parcorr",
      "--method", "pcmci"], "collector.dt (0.01s) must be >= the simulator step (0.05s)"),
    # every batch used to be quarantined, and the run exited 0 with no model
    (["--batch-seconds", "10", "--duration", "20", "--citest", "parcorr", "--method", "pcmci"],
     "makes batches of 33 rows, too short to analyse: 31 usable rows after lag alignment; "
     "need >= 50"),
])
def test_run_with_a_bad_flag_exits_1_before_anything_runs(tmp_path, capsys, flags, problem):
    out = tmp_path / "out"
    assert cli.main(["run", "--out", str(out), *flags, "--quiet"]) == cli.EXIT_VALIDATION
    assert problem in capsys.readouterr().err
    assert not out.exists()


def test_run_with_an_infinite_config_field_exits_1_before_anything_runs(tmp_path, capsys):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text('{"robot_path": {"cruise_speed": 1e400}}')
    rc = cli.main(["run", "--config", str(config), "--out", str(out), "--quiet"])
    assert rc == cli.EXIT_VALIDATION
    assert "robot_path: cruise_speed must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_run_with_a_te_table_too_large_exits_1_before_anything_runs(tmp_path, capsys):
    # 64 ** 5 count cells a shift: every batch failed allocating 8 GiB
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text('{"te": {"bins": 64, "k": 2}}')
    rc = cli.main(["run", "--config", str(config), "--out", str(out), "--quiet"])
    assert rc == cli.EXIT_VALIDATION
    assert "te: bins ** (2k + 1), the cells of one shift's count table, must be <= " \
        "4194304; got bins 64, k 2" in capsys.readouterr().err
    assert not out.exists()


def test_bench_discovery_overrides_become_one_params(tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({**ONE_SPEC, "discovery": {
        "alpha": 0.1, "kridge": {"permutations": 60}}}))
    discovery = cli._parse_bench_config(config, None)["discovery"]
    assert discovery == DiscoveryParams(tau_min=1, tau_max=1, alpha=0.1,
                                        kridge=KernelRegParams(permutations=60))


def hold_analysis_until_stop(monkeypatch):
    """No analysis ends before the run stops its watcher: the stop finishes
    the one batch in analysis, and quiet-abort leaves the others pending."""
    stopped = threading.Event()
    stop, analyse = PoolWatcher.stop, discovery.discover

    def stopping(self):
        stopped.set()
        stop(self)

    def blocked(*args, **kwargs):
        if not stopped.wait(30.0):
            raise TimeoutError("the run waited on analysis")
        return analyse(*args, **kwargs)

    monkeypatch.setattr(PoolWatcher, "stop", stopping)
    monkeypatch.setattr(discovery, "discover", blocked)


def test_quiet_abort_leaves_backlog(tmp_path, monkeypatch):
    hold_analysis_until_stop(monkeypatch)
    out = tmp_path / "out"
    rc = cli.main(fast_run_args(out, extra=["--duration", "72", "--quiet-abort"]))
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["csv_files_written"] == 3
    assert [row["batch_id"] for row in manifest["batches"]] == ["0"]
    assert sorted(p.name for p in (out / "pool").glob("*.csv")) == [
        "data_00001_000000024000.csv", "data_00002_000000048000.csv"]


def test_a_run_after_a_quiet_abort_analyses_its_backlog_once(tmp_path, monkeypatch):
    # the second run names its batches past the two the first left, so it
    # overwrites no pending CSV and no model file, and deletes none unanalysed
    test_quiet_abort_leaves_backlog(tmp_path, monkeypatch)
    monkeypatch.undo()
    out = tmp_path / "out"
    assert cli.main(fast_run_args(out, extra=["--duration", "72"])) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    rows = manifest["batches"]
    assert sorted(row["csv"] for row in rows) == [
        "data_00001_000000024000.csv", "data_00002_000000048000.csv",
        "data_00003_000000000000.csv", "data_00004_000000024000.csv",
        "data_00005_000000048000.csv"]
    assert sorted(int(row["batch_id"]) for row in rows) == [1, 2, 3, 4, 5]
    assert (manifest["models_published"], manifest["quarantined"]) == (5, 0)
    assert list((out / "pool").glob("*.csv")) == []


def test_a_backlog_batch_has_waited_since_the_run_began(tmp_path, monkeypatch):
    # a batch an earlier run left in the pool lands, for this run, when it
    # starts: its discovery_seconds counts its wait behind the run's start
    out = tmp_path / "out"
    args = ["run", "--out", str(out), "--duration", "900", "--citest", "parcorr",
            "--method", "pcmci", "--quiet"]
    hold_analysis_until_stop(monkeypatch)
    assert cli.main([*args, "--quiet-abort"]) == 0
    backlog = sorted(p.name for p in (out / "pool").glob("*.csv"))
    assert len(backlog) == 5
    monkeypatch.undo()
    assert cli.main([*args, "--seed", "7"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    rows = {row["csv"]: row for row in manifest["batches"]}
    assert len(rows) == manifest["models_published"] == 11
    assert set(backlog) < set(rows)
    # the backlog's stamps do not shift the stamping of this run's batches
    for name, row in rows.items():
        assert 0 < row["discovery_seconds"] <= manifest["wall_seconds"], name
