"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Monte-Carlo criteria use
pinned seed lists; every tolerance is asserted exactly as stated.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from causalpipe import cli, discovery
from causalpipe.bus import MessageBus
from causalpipe.collector import Collector, CollectorConfig
from causalpipe.config import default_config
from causalpipe.discovery import (MODEL_TOPIC, CausalModel, CIContext, DiscoveryParams,
                                  LaggedVariable, PoolWatcher, fpcmci, pcmci)
from causalpipe.postprocess import postprocess_batch
from causalpipe.scm_bench import Edge, SCMSpec, generate, score
from causalpipe.sim import SIM_DT, Simulator
from causalpipe.state import AgentState, HUMAN_TOPIC, ROBOT_TOPIC
from causalpipe.stats import KernelRegParams, TEParams, dcor_perm_test, distance_correlation, parcorr_test
from causalpipe.timeseries import TimeSeriesBatch, read_csv, write_csv

MODELS: list[CausalModel] = []  # every model produced below; criterion 7 re-checks masking


def register(model: CausalModel) -> CausalModel:
    MODELS.append(model)
    return model


def run_hri_batch(seed: int, config=None, duration: float = 150.0,
                  pool_dir=None):
    """Drive simulator + collector for one batch; returns the CSV path."""
    config = config or default_config()
    bus = MessageBus()
    bus.create_topic(ROBOT_TOPIC, AgentState)
    bus.create_topic(HUMAN_TOPIC, AgentState)
    sim = Simulator(sfm=config.sfm, path=config.robot_path, seed=seed, bus=bus)
    coll_config = CollectorConfig(dt=0.3, batch_seconds=duration, pool_dir=pool_dir)
    collector = Collector(bus, coll_config,
                          lambda samples: postprocess_batch(samples, config.risk))
    sim.publish_initial()
    collector.tick(0.0)
    for k in range(1, round(duration / SIM_DT) + 1):
        sim.step(SIM_DT)
        collector.tick(k * SIM_DT)
    assert collector.files_written, "collector produced no batch"
    return collector.files_written[0]


def test_criterion_1_synthetic_linear_recovery():
    edges = (Edge(0, 1, 1, 0.8), Edge(0, 0, 1, 0.6), Edge(1, 2, 1, 0.7))
    params = DiscoveryParams(alpha=0.05, tau_min=1, tau_max=1, ci_test="parcorr")
    f1s, zero_fp, runtimes = [], 0, []
    for seed in range(42, 62):
        batch, truth = generate(SCMSpec(n_vars=3, edges=edges, n_samples=500,
                                        seed=seed))
        t0 = time.perf_counter()
        model = register(pcmci(batch, params, batch_id=f"c1-{seed}"))
        runtimes.append(time.perf_counter() - t0)
        result = score(model, truth)
        f1s.append(result.f1)
        if result.false_positives == 0:
            zero_fp += 1
    mean_f1 = float(np.mean(f1s))
    assert mean_f1 >= 0.90
    assert zero_fp >= 15
    assert max(runtimes) < 10.0
    print(f"\n[criterion 1] PASS - mean F1 {mean_f1:.3f}, zero-FP seeds "
          f"{zero_fp}/20, max runtime {max(runtimes):.2f}s")


def test_criterion_2_nonlinear_separation():
    # tanh edge: 0.8*tanh(2*Z) realized as a unit-coefficient tanh link driven
    # by a std-2 source; quadratic edge: the parcorr-blind variant
    tanh_spec = SCMSpec(n_vars=2, edges=(Edge(0, 1, 1, 0.8, "tanh"),),
                        noise_std=(2.0, 1.0), n_samples=500)
    quad_spec = SCMSpec(n_vars=2, edges=(Edge(0, 1, 1, 0.8, "quadratic"),),
                        n_samples=500)
    kridge = DiscoveryParams(alpha=0.05, ci_test="kridge_dcor",
                             kridge=KernelRegParams(permutations=100))
    parcorr = DiscoveryParams(alpha=0.05, ci_test="parcorr")
    recall = {("quad", "kridge"): [], ("quad", "parcorr"): [],
              ("tanh", "kridge"): [], ("tanh", "parcorr"): []}
    for seed in range(20):
        for name, spec in (("tanh", tanh_spec), ("quad", quad_spec)):
            import dataclasses
            batch, truth = generate(dataclasses.replace(spec, seed=seed))
            for method, params in (("kridge", kridge), ("parcorr", parcorr)):
                model = register(pcmci(batch, params, batch_id=f"c2-{name}-{seed}"))
                recall[(name, method)].append(score(model, truth).recall)
    quad_parcorr = float(np.mean(recall[("quad", "parcorr")]))
    quad_kridge = float(np.mean(recall[("quad", "kridge")]))
    # the comparison set: edges the linear test cannot see
    assert quad_parcorr <= 0.5
    assert quad_kridge >= 0.9
    print(f"\n[criterion 2] PASS - quadratic edge recall: kridge "
          f"{quad_kridge:.2f} vs parcorr {quad_parcorr:.2f} "
          f"(tanh control: parcorr {np.mean(recall[('tanh', 'parcorr')]):.2f})")


def test_criterion_3_scenario_reproduction(tmp_path):
    expected = {("h_v", "h_dg", 1), ("h_dg", "h_v", 1),
                ("h_risk", "h_v", 1), ("h_v", "h_risk", 1)}
    config = default_config()
    params = DiscoveryParams(alpha=0.05, tau_min=1, tau_max=1,
                             ci_test="kridge_dcor", method="fpcmci")
    all_four = 0
    no_extra = 0
    runtimes = []
    for seed in range(10):
        t0 = time.perf_counter()
        csv_path = run_hri_batch(seed, config=config,
                                 pool_dir=tmp_path / f"pool{seed}")
        batch = read_csv(csv_path)
        assert batch.n_samples == 500
        model = register(fpcmci(batch, params, config.te, batch_id=f"c3-{seed}"))
        runtimes.append(time.perf_counter() - t0)
        cross = model.cross_edges()
        if expected <= cross:
            all_four += 1
        if not (cross - expected):
            no_extra += 1
    assert all_four >= 7, f"all-four in only {all_four}/10 seeds"
    assert no_extra >= 6, f"extra-free in only {no_extra}/10 seeds"
    assert max(runtimes) < 60.0
    print(f"\n[criterion 3] PASS - all four edges in {all_four}/10, "
          f"no extras in {no_extra}/10, max end-to-end {max(runtimes):.1f}s "
          "(simulator and risk formula are reconstructions; this checks "
          "qualitative agreement with the expected interaction graph)")


def test_h_dg_to_h_risk_leak_is_a_dependency_of_the_sampled_process(tmp_path,
                                                                    monkeypatch):
    # criterion 3's ceiling as evidence: at 5,000 rows pcmci + parcorr finds
    # the two-hop leak h_dg -> h_risk in nearly every seed, and adding the
    # contemporaneous speed h_v(t) to its MCI conditioning set does not block
    # it, so a lever that raises all-four at 500 rows by finding more of this
    # edge has found power, not a cure (README, "Known limitation")
    config = default_config()
    params = DiscoveryParams(alpha=0.05, tau_min=1, tau_max=1, ci_test="parcorr",
                             method="pcmci")
    names = ["h_v", "h_dg", "h_risk"]
    leak = (LaggedVariable(names.index("h_dg"), 1), LaggedVariable(names.index("h_risk"), 0))
    speed_now = LaggedVariable(names.index("h_v"), 0)
    with_speed = []
    test = CIContext.test

    def also_given_speed(ctx, x, y, conds, *seed_parts):
        if ctx.phase == "mci" and (x, y) == leak:
            with_speed.append(test(ctx, x, y, [*conds, speed_now], *seed_parts).p_value)
        return test(ctx, x, y, conds, *seed_parts)

    monkeypatch.setattr(CIContext, "test", also_given_speed)
    found = 0
    for seed in range(10):
        batch = read_csv(run_hri_batch(seed, config=config, duration=1500.0,
                                       pool_dir=tmp_path / f"pool{seed}"))
        assert batch.n_samples == 5000
        assert batch.analysis_view()[0] == names
        model = register(pcmci(batch, params, batch_id=f"leak-{seed}"))
        found += ("h_dg", "h_risk", 1) in model.cross_edges()
    rejected = sum(p <= params.alpha for p in with_speed)
    assert len(with_speed) == 10
    assert found >= 9, f"h_dg -> h_risk in only {found}/10 seeds"
    assert rejected >= 9, f"given h_v(t) too, rejected in only {rejected}/10 seeds"
    print(f"\n[criterion 3 reference] h_dg -> h_risk at 5,000 rows in {found}/10 seeds; "
          f"given h_v(t) too, rejected in {rejected}/10 "
          f"(median p {float(np.median(with_speed)):.3g})")


def test_criterion_4_asynchrony_and_pool_semantics(tmp_path, monkeypatch):
    pool = tmp_path / "pool"
    pool.mkdir()
    config = default_config()
    bus = MessageBus()
    bus.create_topic(ROBOT_TOPIC, AgentState)
    bus.create_topic(HUMAN_TOPIC, AgentState)
    bus.create_topic(MODEL_TOPIC, CausalModel)
    model_sub = bus.subscribe(MODEL_TOPIC, capacity=16)

    # calibrate the artificial delay to ~2x the wall time of one 150 s batch
    # period, mirroring a discovery that needs twice the collection window
    sim_probe = Simulator(sfm=config.sfm, path=config.robot_path, seed=99)
    t0 = time.perf_counter()
    for _ in range(round(30.0 / SIM_DT)):
        sim_probe.step(SIM_DT)
    wall_per_batch = (time.perf_counter() - t0) * (150.0 / 30.0)
    delay = max(1.0, 2.0 * wall_per_batch)
    analyse = discovery.discover

    def slow(*args, **kwargs):
        time.sleep(delay)
        return analyse(*args, **kwargs)

    monkeypatch.setattr(discovery, "discover", slow)

    sim = Simulator(sfm=config.sfm, path=config.robot_path, seed=4, bus=bus)
    coll_config = CollectorConfig(dt=0.3, batch_seconds=150.0, pool_dir=pool)
    collector = Collector(bus, coll_config,
                          lambda samples: postprocess_batch(samples, config.risk))
    watcher = PoolWatcher(pool, DiscoveryParams(ci_test="parcorr"), bus=bus)
    try:
        sim.publish_initial()
        collector.tick(0.0)
        watcher.step()
        for k in range(1, round(450.0 / SIM_DT) + 1):
            sim.step(SIM_DT)
            collector.tick(k * SIM_DT)
            watcher.step()
        published_during_run = watcher.published
        backlog_at_end = len(list(pool.glob("*.csv")))
    finally:
        watcher.stop()
    models = watcher.drain()

    # collector cadence unaffected by slow discovery: 3 files on schedule
    # (the inclusive t=450.0 endpoint buffers one extra sample: the +-1 slack)
    assert len(collector.files_written) == 3
    assert 1500 <= collector.samples_taken <= 1501
    start_ms = [int(p.name.split("_")[2].split(".")[0]) for p in collector.files_written]
    assert start_ms == [0, 150_000, 300_000]
    # the delayed worker could not keep up while collection went on
    assert published_during_run < 3
    assert backlog_at_end >= 1
    # oldest-first processing, each exactly once, pool empty at drain
    for model in models:
        register(model)
    published = [e.payload.batch_id for e in model_sub.drain()]
    assert published == ["0", "1", "2"]
    assert watcher.published == 3
    assert len(set(published)) == 3
    assert list(pool.glob("*.csv")) == []
    assert watcher.quarantined == 0
    print(f"\n[criterion 4] PASS - 3 batches on schedule (1500 samples), "
          f"backlog {backlog_at_end} at loop end (delay {delay:.1f}s/batch), "
          "processed oldest-first, pool empty after drain")


def test_criterion_5_fpcmci_speedup():
    edges = (Edge(0, 1, 1, 0.8), Edge(1, 2, 1, 0.7), Edge(0, 0, 1, 0.6))
    plain_wall, filt_wall, plain_f1, filt_f1 = [], [], [], []
    for seed in range(10):
        batch, truth = generate(SCMSpec(n_vars=6, edges=edges, n_samples=500,
                                        seed=seed))
        params = DiscoveryParams(alpha=0.05, ci_test="kridge_dcor", seed=seed,
                                 kridge=KernelRegParams(permutations=100))
        t0 = time.perf_counter()
        m_plain = register(pcmci(batch, params, batch_id=f"c5p-{seed}"))
        plain_wall.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        m_filt = register(fpcmci(batch, params, TEParams(), batch_id=f"c5f-{seed}"))
        filt_wall.append(time.perf_counter() - t0)
        plain_f1.append(score(m_plain, truth).f1)
        filt_f1.append(score(m_filt, truth).f1)
    mean_plain, mean_filt = float(np.mean(plain_wall)), float(np.mean(filt_wall))
    degradation = float(np.mean(plain_f1) - np.mean(filt_f1))
    assert mean_filt < mean_plain
    assert degradation <= 0.05
    print(f"\n[criterion 5] PASS - wall {mean_filt:.2f}s filtered vs "
          f"{mean_plain:.2f}s plain ({mean_plain / mean_filt:.1f}x), "
          f"F1 degradation {degradation:+.3f}")


def test_criterion_6_statistical_calibration():
    pvals = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        pvals.append(parcorr_test(rng.normal(size=500), rng.normal(size=500)).p_value)
    ks = sps.kstest(pvals, "uniform")
    assert ks.pvalue > 0.01

    rejections = 0
    perm = KernelRegParams(permutations=200)
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        x = rng.normal(size=300)
        y = rng.normal(size=300)
        if dcor_perm_test(x, y, perm, seed=seed) <= 0.05:
            rejections += 1
    rate = rejections / 200.0
    assert 0.02 <= rate <= 0.09
    print(f"\n[criterion 6] PASS - parcorr null KS p {ks.pvalue:.3f}, "
          f"dcor permutation FP rate {rate:.3f}")


def test_criterion_7_oracle_equivalences(tmp_path):
    # distance correlation against the O(n^2) double-loop definition
    def dcor_oracle(x, y):
        n = len(x)
        a = [[abs(x[i] - x[j]) for j in range(n)] for i in range(n)]
        b = [[abs(y[i] - y[j]) for j in range(n)] for i in range(n)]

        def center(m):
            row = [sum(r) / n for r in m]
            col = [sum(m[i][j] for i in range(n)) / n for j in range(n)]
            grand = sum(row) / n
            return [[m[i][j] - row[i] - col[j] + grand for j in range(n)]
                    for i in range(n)]

        A, B = center(a), center(b)
        dcov2 = sum(A[i][j] * B[i][j] for i in range(n) for j in range(n)) / (n * n)
        dvx = sum(v * v for r in A for v in r) / (n * n)
        dvy = sum(v * v for r in B for v in r) / (n * n)
        if dvx <= 0 or dvy <= 0:
            return 0.0
        return math.sqrt(max(dcov2, 0.0) / math.sqrt(dvx * dvy))

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 65))
        x = rng.normal(size=n)
        y = 0.5 * x ** 2 + rng.normal(size=n)
        worst = max(worst, abs(distance_correlation(x, y) - dcor_oracle(list(x), list(y))))
    assert worst <= 1e-10

    # CSV round-trip inside the 1e-9 relative budget
    rows = rng.normal(scale=[1e-5, 1.0, 1e5], size=(64, 3))
    batch = TimeSeriesBatch(["a", "b", "c"], 0.0, 0.3, rows)
    path = tmp_path / "rt.csv"
    write_csv(batch, path)
    back = read_csv(path)
    rel = np.abs(back.rows - batch.rows) / np.maximum(np.abs(batch.rows), 1e-300)
    assert rel.max() <= 1e-9

    # masking invariant on every model produced by the other criteria
    # (selective runs get a fallback batch so the check never runs on nothing)
    if len(MODELS) < 5:
        for seed in range(5):
            batch2, _ = generate(SCMSpec(n_vars=3, edges=(Edge(0, 1, 1, 0.8),),
                                         n_samples=400, seed=seed))
            register(pcmci(batch2, DiscoveryParams(ci_test="parcorr"),
                           batch_id=f"c7-{seed}"))
    for model in MODELS:
        absent = model.causal_structure == 0
        assert np.all(model.val_matrix[absent] == 0.0)
        assert np.all(model.pval_matrix[absent] == 0.0)
        present = ~absent
        assert np.all(model.pval_matrix[present] <= model.params_used.alpha)
        assert np.all(model.pval_matrix[present] > 0.0)
    print(f"\n[criterion 7] PASS - dcor oracle max |diff| {worst:.2e}, CSV "
          f"round-trip exact, masking invariant on {len(MODELS)} models")


def test_criterion_8_run_determinism(tmp_path):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = cli.main(["run", "--seed", "42", "--out", str(out), "--quiet"])
        assert rc == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].glob("model_*.json"))
    assert names, "no model files produced"
    for name in names:
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    print(f"\n[criterion 8] PASS - {len(names)} model file(s) byte-identical "
          "across two `run --seed 42` invocations")
