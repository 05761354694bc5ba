import dataclasses
import gc
import json
import logging
import os
import shutil
import sys
import threading
import time
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalpipe import discovery, stats
from causalpipe.bus import MessageBus
from causalpipe.config import default_config
from causalpipe.discovery import (MODEL_TOPIC, BatchTooShortError, CausalModel,
                                  CIContext, DiscoveryParams, LaggedVariable, PoolWatcher,
                                  batch_id_for, discover, export_model, fpcmci,
                                  lagged_candidates, load_model_json, mci_tests,
                                  model_from_dict, model_to_dict,
                                  pc1_condition_selection, pcmci)
from causalpipe.pipeline import run_pipeline
from causalpipe.scm_bench import Edge, SCMSpec, generate
from causalpipe.stats import KernelRegParams, TEParams
from causalpipe.timeseries import TimeSeriesBatch, write_csv

from conftest import run_python

PARCORR = DiscoveryParams(alpha=0.05, tau_min=1, tau_max=1, ci_test="parcorr", seed=0)


def batch_from(rows, names=None):
    rows = np.asarray(rows, dtype=float)
    names = names or [f"X{i}" for i in range(rows.shape[1])]
    return TimeSeriesBatch(names, t0=0.0, dt=1.0, rows=rows)


def scm_batch(edges, n_vars, seed, n_samples=500):
    spec = SCMSpec(n_vars=n_vars, edges=tuple(edges), n_samples=n_samples, seed=seed)
    return generate(spec)


# --- candidates ---------------------------------------------------------------

def test_candidates_enumeration_three_vars():
    cands = lagged_candidates(3, PARCORR)
    assert cands == [LaggedVariable(0, 1), LaggedVariable(1, 1), LaggedVariable(2, 1)]


def test_candidates_single_var_two_lags():
    params = DiscoveryParams(tau_min=1, tau_max=2)
    cands = lagged_candidates(1, params)
    assert cands == [LaggedVariable(0, 1), LaggedVariable(0, 2)]


def test_tau_range_validation():
    with pytest.raises(ValueError):
        DiscoveryParams(tau_min=2, tau_max=1)
    with pytest.raises(ValueError):
        DiscoveryParams(tau_min=0, tau_max=1)


# --- pc1 ----------------------------------------------------------------------

def test_pc1_white_noise_yields_empty_parents():
    empty = 0
    n_seeds = 30
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        batch = batch_from(rng.normal(size=(500, 1)))
        parents = pc1_condition_selection(CIContext(batch, PARCORR, "pc1", f"w{seed}"), 0)
        if not parents:
            empty += 1
    assert empty >= 0.9 * n_seeds


def test_pc1_keeps_autocorrelation_parent():
    found = 0
    n_seeds = 30
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        x = np.empty(500)
        x[0] = rng.normal()
        for t in range(1, 500):
            x[t] = 0.9 * x[t - 1] + rng.normal()
        batch = batch_from(x[:, None])
        parents = pc1_condition_selection(CIContext(batch, PARCORR, "pc1", f"a{seed}"), 0)
        if LaggedVariable(0, 1) in [c for c, _ in parents]:
            found += 1
    assert found >= 0.95 * n_seeds


def test_pc1_chain_excludes_indirect_parent():
    # X autocorrelated, X -> Z -> Y at lag 1: conditioning on (Z,1) removes (X,1)
    excluded = 0
    n_seeds = 40
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        n = 500
        x = np.empty(n)
        z = np.empty(n)
        y = np.empty(n)
        x[0], z[0], y[0] = rng.normal(size=3)
        for t in range(1, n):
            x[t] = 0.8 * x[t - 1] + rng.normal()
            z[t] = 0.8 * x[t - 1] + rng.normal()
            y[t] = 0.8 * z[t - 1] + rng.normal()
        batch = batch_from(np.column_stack([x, z, y]))
        parents = pc1_condition_selection(CIContext(batch, PARCORR, "pc1", f"ch{seed}"), 2)
        kept = [c for c, _ in parents]
        if LaggedVariable(0, 1) not in kept:
            excluded += 1
    assert excluded >= 0.85 * n_seeds


@pytest.mark.parametrize("n_rows, usable", [pytest.param(20, 19, id="pc1"),
                                             pytest.param(51, 49, id="mci"),
                                             pytest.param(0, 0, id="empty")])
def test_pc1_batch_too_short(n_rows, usable):
    # with tau_max=1 and max_conditions=3 a phase needs 50 rows: 51 rows fit
    # PC1's window (from row 1) but not MCI's (from row 2)
    batch = batch_from(np.random.default_rng(0).normal(size=(n_rows, 2)))
    with pytest.raises(BatchTooShortError, match=f"^{usable} usable rows"):
        pcmci(batch, PARCORR)


@pytest.mark.parametrize("n_rows, max_conditions, problem", [
    (30, 3, "^28 usable rows"),  # MCI would reject it
    (40, 0, "^40 rows; transfer entropy needs >= 50"),  # MCI would take it, TE would not
])
def test_fpcmci_short_batch_fails_before_any_te_pair(monkeypatch, n_rows, max_conditions,
                                                     problem):
    def no_te(*args, **kwargs):
        raise AssertionError("a TE pair ran on a batch too short to analyse")

    monkeypatch.setattr(discovery, "te_significance", no_te)
    batch = batch_from(np.random.default_rng(0).normal(size=(n_rows, 2)))
    params = dataclasses.replace(PARCORR, method="fpcmci", max_conditions=max_conditions)
    with pytest.raises(BatchTooShortError, match=problem):
        fpcmci(batch, params)


def test_one_rule_holds_both_batch_length_limits():
    # 40 rows leave MCI 38 target rows, enough for max_conditions 0 (20), but
    # F-PCMCI's transfer entropy needs 50 rows
    params = dataclasses.replace(PARCORR, max_conditions=0)
    discovery.check_batch_rows(40, 2, params)
    with pytest.raises(BatchTooShortError, match="^40 rows; transfer entropy needs >= 50"):
        discovery.check_batch_rows(40, 2, dataclasses.replace(params, method="fpcmci"))
    # one variable has no pair to filter
    discovery.check_batch_rows(40, 1, dataclasses.replace(params, method="fpcmci"))


# --- mci ----------------------------------------------------------------------

def test_mci_tensor_shapes():
    batch, _ = scm_batch([Edge(0, 1, 1, 0.8)], n_vars=2, seed=0)
    params = DiscoveryParams(tau_min=1, tau_max=3, ci_test="parcorr")
    pc1 = CIContext(batch, params, "pc1")
    parents = {j: pc1_condition_selection(pc1, j) for j in range(2)}
    val, pval = mci_tests(CIContext(batch, params, "mci"), parents)
    assert val.shape == (3, 2, 2)
    assert pval.shape == (3, 2, 2)


def test_mci_white_noise_false_positive_budget():
    # mean false-positive count per seed stays within 3x the alpha*9 budget
    fp_counts = []
    for seed in range(20):
        batch, _ = scm_batch([], n_vars=3, seed=100 + seed)
        pc1 = CIContext(batch, PARCORR, "pc1", f"m{seed}")
        parents = {j: pc1_condition_selection(pc1, j) for j in range(3)}
        val, pval = mci_tests(CIContext(batch, PARCORR, "mci", f"m{seed}"), parents)
        fp_counts.append(int((pval <= 0.05).sum()))
    assert np.mean(fp_counts) <= 0.05 * 9 * 3


def test_mci_detects_strong_coupling():
    hits = 0
    n_seeds = 30
    for seed in range(n_seeds):
        batch, _ = scm_batch([Edge(0, 1, 1, 0.8)], n_vars=2, seed=seed)
        pc1 = CIContext(batch, PARCORR, "pc1", f"s{seed}")
        parents = {j: pc1_condition_selection(pc1, j) for j in range(2)}
        val, pval = mci_tests(CIContext(batch, PARCORR, "mci", f"s{seed}"), parents)
        if pval[0, 0, 1] <= 0.05 and val[0, 0, 1] > 0:
            hits += 1
    assert hits >= 0.95 * n_seeds


# --- pcmci --------------------------------------------------------------------

def test_pcmci_two_var_exact_recovery():
    exact = 0
    n_seeds = 20
    for seed in range(42, 42 + n_seeds):
        batch, truth = scm_batch([Edge(0, 1, 1, 0.8), Edge(0, 0, 1, 0.6)],
                                 n_vars=2, seed=seed)
        model = pcmci(batch, PARCORR, batch_id=f"b{seed}")
        if model.edge_set() == set(truth):
            exact += 1
    assert exact >= 0.9 * n_seeds


def test_pcmci_constant_batch_zero_structure():
    batch = batch_from(np.ones((200, 2)))
    model = pcmci(batch, PARCORR)
    assert model.causal_structure.sum() == 0
    assert model.val_matrix.sum() == 0
    assert model.pval_matrix.sum() == 0


def test_pcmci_deterministic_link_has_nonzero_pval():
    # X1[t] = X0[t-1] with no noise: |r| = 1, yet the present edge must not
    # carry pval 0.0, the value reserved for absent links; and the MCI test
    # of X1's self-lag, whose residuals collapse, must not report a link
    x0 = np.random.default_rng(0).normal(size=300)
    batch = batch_from(np.column_stack([x0, np.concatenate(([0.0], x0[:-1]))]))
    model = pcmci(batch, PARCORR)
    assert model.causal_structure[0, 0, 1] == 1
    assert model.pval_matrix[0, 0, 1] > 0.0
    assert model.named_edges() == {("X0", "X1", 1)}


def test_pcmci_masking_invariant():
    batch, _ = scm_batch([Edge(0, 1, 1, 0.8), Edge(0, 0, 1, 0.6)], n_vars=3, seed=1)
    model = pcmci(batch, PARCORR, batch_id="mask")
    absent = model.causal_structure == 0
    assert np.all(model.val_matrix[absent] == 0)
    assert np.all(model.pval_matrix[absent] == 0)
    present = ~absent
    assert np.all(model.pval_matrix[present] <= PARCORR.alpha)


def test_pcmci_deterministic_json_bytes():
    batch, _ = scm_batch([Edge(0, 1, 1, 0.8)], n_vars=2, seed=5)
    m1 = pcmci(batch, PARCORR, batch_id="det")
    m2 = pcmci(batch, PARCORR, batch_id="det")
    b1 = json.dumps(model_to_dict(m1), sort_keys=True)
    b2 = json.dumps(model_to_dict(m2), sort_keys=True)
    assert b1 == b2


def test_pcmci_single_variable_autocorrelation():
    rng = np.random.default_rng(0)
    x = np.empty(500)
    x[0] = rng.normal()
    for t in range(1, 500):
        x[t] = 0.8 * x[t - 1] + rng.normal()
    model = pcmci(batch_from(x[:, None]), PARCORR)
    assert model.edge_set() == {(0, 0, 1)}


def test_pcmci_drops_time_column():
    rng = np.random.default_rng(3)
    rows = np.column_stack([np.arange(300.0), rng.normal(size=(300, 2))])
    batch = TimeSeriesBatch(["time", "a", "b"], 0.0, 1.0, rows)
    model = pcmci(batch, PARCORR)
    assert model.variable_names == ["a", "b"]


def test_pcmci_failed_ci_test_is_logged_and_link_absent(monkeypatch, caplog):
    batch, _ = scm_batch([Edge(0, 1, 1, 0.8)], n_vars=2, seed=3)
    control = pcmci(batch, PARCORR, batch_id="fail")
    assert control.causal_structure[0, 0, 1] == 1

    _, X = batch.analysis_view()
    original = discovery.parcorr_test
    raised = []

    def failing(x, y, Z=(), **kwargs):
        # the MCI test of X0 at lag 1 against X1 (window starts at row 2)
        if not raised and np.array_equal(x, X[1:-1, 0]) and np.array_equal(y, X[2:, 1]):
            raised.append(True)
            raise FloatingPointError("injected")
        return original(x, y, Z, **kwargs)

    monkeypatch.setattr(discovery, "parcorr_test", failing)
    with caplog.at_level(logging.ERROR, logger="causalpipe.discovery"):
        model = pcmci(batch, PARCORR, batch_id="fail")
    assert raised
    assert [r.name for r in caplog.records
            if "CI test failed" in r.getMessage()] == ["causalpipe.discovery"]
    assert model.causal_structure[0, 0, 1] == 0
    assert model.val_matrix[0, 0, 1] == 0.0
    assert model.pval_matrix[0, 0, 1] == 0.0
    others = np.ones_like(control.causal_structure, dtype=bool)
    others[0, 0, 1] = False
    assert np.array_equal(model.pval_matrix[others], control.pval_matrix[others])


# --- fpcmci -------------------------------------------------------------------

def test_fpcmci_filters_noise_variable():
    te = TEParams()
    c_edge_free = 0
    ab_same = 0
    n_seeds = 20
    for seed in range(n_seeds):
        batch, _ = scm_batch([Edge(0, 1, 1, 0.8), Edge(0, 0, 1, 0.6)],
                             n_vars=3, seed=seed)
        m_filtered = fpcmci(batch, PARCORR, te, batch_id=f"f{seed}")
        m_plain = pcmci(batch, PARCORR, batch_id=f"f{seed}")
        if not any(2 in (i, j) for i, j, _ in m_filtered.edge_set() if i != j):
            c_edge_free += 1
        keep_ab = lambda m: {(i, j, l) for i, j, l in m.edge_set()
                             if i != 2 and j != 2}
        if keep_ab(m_filtered) == keep_ab(m_plain):
            ab_same += 1
    assert c_edge_free >= 0.9 * n_seeds
    assert ab_same >= 0.8 * n_seeds


def test_fpcmci_candidate_containment():
    # tested cross-pairs subset of plain PCMCI's; rejected pairs never appear
    te = TEParams()
    for seed in range(5):
        batch, _ = scm_batch([Edge(0, 1, 1, 0.8)], n_vars=3, seed=seed)
        model = fpcmci(batch, PARCORR, te, batch_id=f"cc{seed}")
        rejected = {tuple(p) for p in model.te_filter["rejected"]}
        for i, j, _ in model.edge_set():
            if i != j:
                assert (i, j) not in rejected


def test_fpcmci_self_lags_survive_total_filtering():
    # two independent AR(1) processes: every cross pair should be filtered,
    # self-loops must still be discoverable
    rng = np.random.default_rng(8)
    n = 500
    x = np.empty(n)
    y = np.empty(n)
    x[0], y[0] = rng.normal(size=2)
    for t in range(1, n):
        x[t] = 0.8 * x[t - 1] + rng.normal()
        y[t] = 0.8 * y[t - 1] + rng.normal()
    model = fpcmci(batch_from(np.column_stack([x, y])), PARCORR, TEParams(),
                   batch_id="selfonly")
    assert (0, 0, 1) in model.edge_set()
    assert (1, 1, 1) in model.edge_set()


def test_fpcmci_deterministic_repeat():
    batch, _ = scm_batch([Edge(0, 1, 1, 0.8)], n_vars=2, seed=9)
    m1 = fpcmci(batch, PARCORR, TEParams(), batch_id="rep")
    m2 = fpcmci(batch, PARCORR, TEParams(), batch_id="rep")
    assert json.dumps(model_to_dict(m1), sort_keys=True) == \
        json.dumps(model_to_dict(m2), sort_keys=True)


def test_fpcmci_records_filter_in_params():
    batch, _ = scm_batch([Edge(0, 1, 1, 0.8)], n_vars=2, seed=10)
    model = fpcmci(batch, PARCORR, TEParams(), batch_id="meta")
    assert model.params_used.method == "fpcmci"
    assert model.te_filter is not None
    assert set(model.te_filter) == {"kept", "rejected", "directed_significant",
                                    "te_params"}


def test_fpcmci_keeping_every_pair_matches_pcmci(monkeypatch):
    batch, _ = scm_batch([Edge(0, 1, 1, 0.8), Edge(1, 2, 1, 0.6)], n_vars=3, seed=11)
    plain = pcmci(batch, PARCORR, batch_id="same")
    monkeypatch.setattr(discovery, "te_significance",
                        lambda src, dst, params, seed: (1.0, 0.0, True))
    filtered = fpcmci(batch, PARCORR, TEParams(), batch_id="same")
    assert filtered.te_filter["kept"] == [(i, j) for i in range(3) for j in range(3)
                                          if i != j]
    assert filtered.te_filter["rejected"] == []
    assert np.array_equal(filtered.val_matrix, plain.val_matrix)
    assert np.array_equal(filtered.pval_matrix, plain.pval_matrix)
    assert np.array_equal(filtered.causal_structure, plain.causal_structure)
    assert filtered.batch_id == plain.batch_id
    assert plain.params_used.method == "pcmci"
    assert plain.te_filter is None
    assert filtered.params_used == dataclasses.replace(plain.params_used, method="fpcmci")


@pytest.mark.parametrize("method", ["pcmci", "fpcmci"])
def test_kridge_model_does_not_depend_on_pool_size(method, monkeypatch):
    batch, _ = scm_batch([Edge(0, 1, 1, 0.8), Edge(1, 2, 1, 0.6, "tanh")], n_vars=3,
                         seed=4, n_samples=200)
    params = DiscoveryParams(ci_test="kridge_dcor", method=method,
                             kridge=KernelRegParams(permutations=50))
    models = []
    for workers in (1, 4):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            monkeypatch.setattr(discovery, "_pool", pool)
            models.append(model_to_dict(discover(batch, params, batch_id="pool")))
    assert models[0] == models[1]
    assert models[0]["params"]["method"] == method


KRIDGE_FAST = DiscoveryParams(ci_test="kridge_dcor", kridge=KernelRegParams(permutations=50))


def kridge_batch(seed):
    return scm_batch([Edge(0, 1, 1, 0.8), Edge(1, 2, 1, 0.6, "tanh")], n_vars=3,
                     seed=seed, n_samples=200)[0]


def test_each_kernel_is_built_once_per_batch(monkeypatch):
    builds, solves, requests = [], [], []
    build, solve = stats.rbf_kernel, stats.kernel_ridge_residuals
    monkeypatch.setattr(stats, "rbf_kernel", lambda Z: builds.append(1) or build(Z))
    monkeypatch.setattr(stats, "kernel_ridge_residuals",
                        lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs))
    lookup = stats.ResidualCache.residuals

    def recording(cache, target_key, target, Z_key, Z, **kwargs):
        requests.append((target_key, Z_key))
        return lookup(cache, target_key, target, Z_key, Z, **kwargs)

    monkeypatch.setattr(stats.ResidualCache, "residuals", recording)
    # one worker: no two requests race, so each entry is computed exactly once
    with ThreadPoolExecutor(max_workers=1) as pool:
        monkeypatch.setattr(discovery, "_pool", pool)
        discover(kridge_batch(4), KRIDGE_FAST, batch_id="count")
    # Z keys are the ordered conditioning variables
    assert len(builds) == len({Z_key for _, Z_key in requests})
    assert len(solves) == len(set(requests))
    assert len(builds) < len(solves) < len(requests)  # both are reused on this batch


def degenerate_batch():
    """500 rows: X1 driven by X0, a constant X2, and X3 = 2 X0 + 1, collinear
    with X0, so conditioning on X0 collapses X3's residual."""
    batch, _ = scm_batch([Edge(0, 1, 1, 0.8), Edge(0, 0, 1, 0.5)], n_vars=2, seed=6)
    _, X = batch.analysis_view()
    return batch_from(np.column_stack([X, np.full(len(X), 3.0), 2.0 * X[:, 0] + 1.0]))


def recorded_parcorr_calls(monkeypatch) -> list:
    """Record (x, y, Z, result) for every discovery.parcorr_test call."""
    calls = []
    original = discovery.parcorr_test

    def recording(x, y, Z=(), **kwargs):
        result = original(x, y, Z, **kwargs)
        calls.append((np.array(x), np.array(y), [np.array(z) for z in Z], result))
        return result

    monkeypatch.setattr(discovery, "parcorr_test", recording)
    return calls


def bits(result) -> tuple[str, str]:
    return result.statistic.hex(), result.p_value.hex()


def test_cached_parcorr_equals_fresh_calls_bit_for_bit(tmp_path, monkeypatch):
    calls = recorded_parcorr_calls(monkeypatch)
    cfg = default_config(tmp_path, seed=1)
    cfg.duration = 3 * cfg.collector.batch_seconds
    cfg.discovery = dataclasses.replace(cfg.discovery, ci_test="parcorr", method="pcmci")
    assert len(run_pipeline(cfg).models) == 3
    pcmci(degenerate_batch(), PARCORR, batch_id="degenerate")
    assert len(calls) > 100
    for x, y, Z, result in calls:
        assert bits(result) == bits(stats.parcorr_test(x, y, Z))
    # the degenerate batch reaches the constant, collapsed and dependent cases
    outcomes = {result == stats.INDEPENDENT for *_, result in calls}
    assert outcomes == {True, False}


def test_each_parcorr_design_and_fit_is_computed_once_per_phase(monkeypatch):
    designs, fits, requests = [], [], []
    build, fit = stats.linear_design, np.linalg.lstsq
    monkeypatch.setattr(stats, "linear_design",
                        lambda Z: designs.append(len(Z)) or build(Z))
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *args, **kwargs: fits.append(1) or fit(*args, **kwargs))
    lookup = stats.ResidualCache.residuals

    def recording(cache, target_key, target, Z_key, Z, **kwargs):
        requests.append((cache, target_key, Z_key))
        return lookup(cache, target_key, target, Z_key, Z, **kwargs)

    monkeypatch.setattr(stats.ResidualCache, "residuals", recording)
    discover(degenerate_batch(), PARCORR, batch_id="count")
    assert len({cache for cache, _, _ in requests}) == 2  # one cache a phase
    # an empty Z has no design and needs no least-squares fit
    conditioned = [r for r in requests if r[2]]
    built = [k for k in designs if k]
    assert len(built) == len({(cache, Z_key) for cache, _, Z_key in conditioned})
    assert len(fits) == len(set(conditioned))
    assert len(built) < len(fits) < len(conditioned)  # both are reused


def test_parcorr_checks_each_series_once_per_phase(monkeypatch):
    # the fits and the correlations take the series and residuals the
    # phase's cache has checked: the cache's own check of each series it
    # holds is the only one
    phases, checks = [], Counter()  # the series keys each phase's cache holds
    init, check, series = stats.ResidualCache.__init__, stats._as_series, \
        stats.ResidualCache.series

    def tracked(cache, *args, **kwargs):
        init(cache, *args, **kwargs)
        phases.append(set())

    def counting(x, name="series"):
        checks[len(phases) - 1] += 1
        return check(x, name)

    def requested(cache, key, values, name="series"):
        phases[-1].add(key)  # parcorr runs inline: the newest cache asks
        return series(cache, key, values, name)

    monkeypatch.setattr(stats.ResidualCache, "__init__", tracked)
    monkeypatch.setattr(stats, "_as_series", counting)
    monkeypatch.setattr(stats.ResidualCache, "series", requested)
    batch, _ = scm_batch([Edge(0, 1, 1, 0.8), Edge(1, 2, 1, 0.6)], n_vars=3, seed=4)
    discover(batch, PARCORR, batch_id="checks")
    assert len(phases) == 2
    assert [checks[phase] for phase in range(2)] == [len(keys) for keys in phases]
    assert all(len(keys) >= 6 for keys in phases)


def test_discover_leaves_no_per_batch_state(monkeypatch):
    caches = []
    init = stats.ResidualCache.__init__

    def tracked(cache, *args, **kwargs):
        init(cache, *args, **kwargs)
        caches.append(weakref.ref(cache))

    monkeypatch.setattr(stats.ResidualCache, "__init__", tracked)
    live_at_mci = []
    mci = discovery.mci_tests

    def entering_mci(*args, **kwargs):
        gc.collect()
        live_at_mci.append([k for k, ref in enumerate(caches) if ref() is not None])
        return mci(*args, **kwargs)

    # the shipped kridge_dcor path on the shared pool, and parcorr inline
    for params, batch in ((KRIDGE_FAST, kridge_batch(4)),
                          (PARCORR, scm_batch([Edge(0, 1, 1, 0.8)], n_vars=3, seed=4)[0])):
        discover(batch, params, batch_id="warm")  # the shared pool exists from here on
        monkeypatch.setattr(discovery, "mci_tests", entering_mci)
        caches.clear()
        live_at_mci.clear()
        modules = {module: dict(vars(module)) for module in (stats, discovery)}
        discover(batch, params, batch_id="state")
        gc.collect()
        assert caches and all(ref() is None for ref in caches)
        # one cache a phase, and PC1's is gone by the time MCI starts
        assert len(caches) == 2
        assert live_at_mci == [[1]]
        for module, before in modules.items():
            after = vars(module)
            assert after.keys() == before.keys()
            assert all(after[name] is value for name, value in before.items()), module.__name__
        monkeypatch.setattr(discovery, "mci_tests", mci)


def test_batches_analysed_concurrently_give_their_sequential_models():
    # both batches have the same variables and windows, so any state shared
    # between them would mix their kernels
    batches = [kridge_batch(seed) for seed in (4, 5)]
    sequential = [model_to_dict(discover(b, KRIDGE_FAST, batch_id=str(i)))
                  for i, b in enumerate(batches)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as callers:
            futures = [callers.submit(discover, b, KRIDGE_FAST, batch_id=str(i))
                       for i, b in enumerate(batches)]
            concurrent = [model_to_dict(f.result(timeout=300)) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == sequential
    assert sequential[0] != sequential[1]


# The analysis attributes the benchmark's traced replay replaces with timing
# wrappers. The program must look each up at call time, or a layer's time and
# call count silently read 0. The replay also wraps `collector.write_csv`,
# which run_pipeline calls in its generator process, out of reach of a
# wrapper counting here: tests/test_collector.py checks that lookup on the
# in-process Collector path the replay drives.
TRACED = [(discovery, "pc1_condition_selection"), (discovery, "mci_tests"),
          (discovery, "kridge_dcor_test"), (discovery, "parcorr_test"),
          (discovery, "te_significance"), (discovery, "discover"),
          (stats, "kernel_ridge_residuals"), (stats, "dcor_perm_test")]


@pytest.mark.parametrize("ci_test, method, unreached", [
    ("kridge_dcor", "fpcmci", {"parcorr_test"}),
    ("parcorr", "pcmci", {"kridge_dcor_test", "te_significance",
                          "kernel_ridge_residuals", "dcor_perm_test"}),
])
def test_pipeline_reaches_every_traced_name(ci_test, method, unreached, tmp_path,
                                            monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for module, name in TRACED:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    cfg = default_config(tmp_path, seed=2)
    cfg.duration = 60.0
    cfg.collector = dataclasses.replace(cfg.collector, batch_seconds=60.0)
    cfg.discovery = dataclasses.replace(cfg.discovery, ci_test=ci_test, method=method,
                                        kridge=KernelRegParams(permutations=50))
    assert len(run_pipeline(cfg).models) == 1
    assert {name for _, name in TRACED if calls[name] == 0} == unreached


def test_run_pipeline_never_waits_on_analysis(tmp_path, monkeypatch):
    # acceptance criterion 4 on run_pipeline itself: no analysis can finish
    # before the run stops its watcher, so a run that waited for one would
    # time out and quarantine the batch
    stopped = threading.Event()
    entered_before_stop = []
    stop, analyse = PoolWatcher.stop, discovery.discover

    def stopping(self):
        stopped.set()
        stop(self)

    def blocked(*args, **kwargs):
        entered_before_stop.append(not stopped.is_set())
        if not stopped.wait(30.0):
            raise TimeoutError("the generator waited on analysis")
        return analyse(*args, **kwargs)

    monkeypatch.setattr(PoolWatcher, "stop", stopping)
    monkeypatch.setattr(discovery, "discover", blocked)
    cfg = default_config(tmp_path, seed=5)
    cfg.duration = 72.0
    cfg.collector = dataclasses.replace(cfg.collector, batch_seconds=24.0)
    cfg.discovery = dataclasses.replace(cfg.discovery, ci_test="parcorr", method="pcmci")
    result = run_pipeline(cfg)
    assert [m.batch_id for m in result.models] == ["0", "1", "2"]
    assert result.quarantined == 0
    assert entered_before_stop[0]  # the watcher was analysing while the run went on


# --- export -------------------------------------------------------------------

def manual_model(vals, names=("a", "b")):
    n = len(names)
    structure = np.zeros((1, n, n), dtype=np.uint8)
    val = np.zeros((1, n, n))
    pval = np.zeros((1, n, n))
    for (i, j), v in vals.items():
        structure[0, i, j] = 1
        val[0, i, j] = v
        pval[0, i, j] = 0.01
    return CausalModel(list(names), 1, 1, structure, val, pval,
                       DiscoveryParams(), "manual")


def test_export_empty_model_dot_has_nodes_only(tmp_path):
    model = manual_model({})
    path = tmp_path / "empty.dot"
    export_model(model, "dot", path)
    text = path.read_text()
    assert '"a";' in text and '"b";' in text
    assert "->" not in text


def test_export_json_round_trip_exact(tmp_path):
    batch, _ = scm_batch([Edge(0, 1, 1, 0.8)], n_vars=2, seed=2)
    model = pcmci(batch, PARCORR, batch_id="rt")
    path = tmp_path / "m.json"
    export_model(model, "json", path)
    back = load_model_json(path)
    np.testing.assert_array_equal(back.causal_structure, model.causal_structure)
    np.testing.assert_array_equal(back.val_matrix, model.val_matrix)
    np.testing.assert_array_equal(back.pval_matrix, model.pval_matrix)
    assert back.variable_names == model.variable_names
    assert back.params_used == model.params_used
    assert back.batch_id == model.batch_id


def test_export_dot_penwidth_ratio(tmp_path):
    model = manual_model({(0, 1): 0.8, (1, 0): 0.4})
    path = tmp_path / "w.dot"
    export_model(model, "dot", path)
    widths = []
    for line in path.read_text().splitlines():
        if "penwidth=" in line:
            widths.append(float(line.split("penwidth=")[1].rstrip("];")))
    assert len(widths) == 2
    assert max(widths) / min(widths) == pytest.approx(2.0)


def test_export_dot_labels_lag(tmp_path):
    model = manual_model({(0, 1): 0.5})
    path = tmp_path / "l.dot"
    export_model(model, "dot", path)
    assert "τ=1" in path.read_text()


def test_export_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export_model(manual_model({}), "svg", tmp_path / "x")


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_export_failed_replace_keeps_old_file(tmp_path, monkeypatch, fmt):
    # a crash mid-write must never leave a truncated model file behind
    path = tmp_path / f"model.{fmt}"
    path.write_text("old\n", encoding="utf-8")

    def failing_replace(src, dst):
        raise OSError("injected")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="injected"):
        export_model(manual_model({(0, 1): 0.5}), fmt, path)
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no .tmp-* left


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@st.composite
def small_models(draw):
    n_vars = draw(st.integers(1, 3))
    tau_min = draw(st.integers(1, 3))
    tau_max = tau_min + draw(st.integers(0, 2))
    shape = (tau_max - tau_min + 1, n_vars, n_vars)
    alpha = draw(st.floats(1e-6, 0.999))
    params = DiscoveryParams(
        alpha=alpha, tau_min=tau_min, tau_max=tau_max,
        ci_test=draw(st.sampled_from(["parcorr", "kridge_dcor"])),
        max_conditions=draw(st.integers(0, 5)),
        pc_alpha=draw(st.none() | st.floats(1e-6, 0.999)),
        seed=draw(st.integers(0, 2**64)),
        method=draw(st.sampled_from(["pcmci", "fpcmci"])),
        kridge=KernelRegParams(ridge=draw(st.floats(1e-9, 1e3)),
                               permutations=draw(st.integers(50, 1000))))
    size = int(np.prod(shape))
    structure = np.array(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)),
                         dtype=np.uint8).reshape(shape)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    val = np.array(draw(st.lists(finite, min_size=size, max_size=size))).reshape(shape)
    pval = np.array(draw(st.lists(st.floats(0.0, alpha), min_size=size, max_size=size)),
                    dtype=np.float64).reshape(shape)
    val[structure == 0] = 0.0
    pval[structure == 0] = 0.0
    pairs = st.lists(st.tuples(st.integers(0, n_vars - 1), st.integers(0, n_vars - 1)))
    te_filter = draw(st.none() | st.fixed_dictionaries({
        "kept": pairs, "rejected": pairs, "directed_significant": pairs,
        "te_params": st.just(dataclasses.asdict(TEParams()))}))
    names = draw(st.lists(st.text(max_size=8), min_size=n_vars, max_size=n_vars,
                          unique=True))
    return CausalModel(names, tau_min, tau_max, structure, val, pval, params,
                       draw(st.text(max_size=12)), te_filter)


@settings(max_examples=60, deadline=None)
@given(small_models())
def test_model_dict_json_round_trip_is_lossless(model):
    back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    for name in ("causal_structure", "val_matrix", "pval_matrix"):
        assert _bits(getattr(back, name)) == _bits(getattr(model, name))
    assert back.variable_names == model.variable_names
    assert (back.tau_min, back.tau_max) == (model.tau_min, model.tau_max)
    assert back.params_used == model.params_used
    assert back.batch_id == model.batch_id
    assert back.te_filter == model.te_filter


def test_model_invariant_enforced_at_construction():
    structure = np.zeros((1, 2, 2), dtype=np.uint8)
    val = np.zeros((1, 2, 2))
    val[0, 0, 1] = 0.5  # val nonzero where structure is 0
    with pytest.raises(ValueError):
        CausalModel(["a", "b"], 1, 1, structure, val, np.zeros((1, 2, 2)),
                    DiscoveryParams(), "bad")


# --- pool watcher --------------------------------------------------------------

def write_pool_file(pool, index, seed, edges=(Edge(0, 1, 1, 0.8),)):
    batch, _ = scm_batch(list(edges), n_vars=2, seed=seed, n_samples=200)
    path = pool / f"data_{index:05d}_{index:012d}.csv"
    write_csv(batch, path)
    return path


def test_watcher_oldest_first_then_pool_empty(tmp_path):
    pool = tmp_path / "pool"
    pool.mkdir()
    for idx in range(3):
        write_pool_file(pool, idx, seed=idx)
    bus = MessageBus()
    bus.create_topic(MODEL_TOPIC, CausalModel)
    sub = bus.subscribe(MODEL_TOPIC)
    watcher = PoolWatcher(pool, PARCORR, bus=bus)
    models = watcher.drain()
    assert [m.batch_id for m in models] == ["0", "1", "2"]
    assert [e.payload.batch_id for e in sub.drain()] == ["0", "1", "2"]
    assert list(pool.glob("*.csv")) == []
    assert watcher.published == 3


def test_watcher_takes_only_csv_files_in_name_order(tmp_path):
    # batches are taken by name, not by creation; a directory, a file named
    # only ".csv", a temp file mid-write and the quarantine are never taken
    pool = tmp_path / "pool"
    pool.mkdir()
    batches = [write_pool_file(pool, idx, seed=idx) for idx in (2, 0, 1)]
    (pool / "x.csv").mkdir()
    write_pool_file(pool, 3, seed=3).rename(pool / ".csv")
    write_pool_file(pool, 4, seed=4).rename(pool / ".tmp-0123456789abcdef.part")
    (pool / "quarantine").mkdir()
    write_pool_file(pool, 5, seed=5).rename(pool / "quarantine" / "data_00005.csv")
    left = sorted(set(pool.rglob("*")) - set(batches))
    watcher = PoolWatcher(pool, PARCORR)
    assert [m.batch_id for m in watcher.drain()] == ["0", "1", "2"]
    assert (watcher.published, watcher.quarantined) == (3, 0)
    assert sorted(pool.rglob("*")) == left


def test_watcher_takes_batches_in_index_order_past_five_digits(tmp_path):
    # batch 100,000's name sorts before batch 99,999's
    pool = tmp_path / "pool"
    pool.mkdir()
    for idx in (100_000, 99_999):
        write_pool_file(pool, idx, seed=idx % 7)
    watcher = PoolWatcher(pool, PARCORR)
    assert [m.batch_id for m in watcher.drain()] == ["99999", "100000"]


def test_watcher_idles_on_empty_pool(tmp_path):
    pool = tmp_path / "pool"
    pool.mkdir()
    watcher = PoolWatcher(pool, PARCORR)
    assert watcher.drain() == []
    assert watcher.published == 0


def test_watcher_quarantines_corrupt_file(tmp_path):
    pool = tmp_path / "pool"
    pool.mkdir()
    bad = pool / "data_00000_000000000000.csv"
    bad.write_text("a,b\n1.0\n", encoding="utf-8")  # ragged row
    write_pool_file(pool, 1, seed=3)
    watcher = PoolWatcher(pool, PARCORR)
    models = watcher.drain()
    assert [m.batch_id for m in models] == ["1"]
    assert (pool / "quarantine" / bad.name).exists()
    assert watcher.quarantined == 1
    assert watcher.published == 1
    # conservation: every file either published or quarantined, none twice
    assert watcher.published + watcher.quarantined == 2
    assert list(pool.glob("*.csv")) == []
    assert [p.name for p in (pool / "quarantine").iterdir()] == [bad.name]


def test_watcher_quarantines_a_batch_without_a_finite_time_step(tmp_path, caplog):
    # steps that overflow give no finite end time to publish the model at;
    # had it been published at inf, every later model would be clamped to inf
    pool = tmp_path / "pool"
    pool.mkdir()
    rows = np.random.default_rng(0).standard_normal((500, 3))
    times = np.tile([-1e308, 1e308], 250)
    bad = pool / "data_00000_000000000000.csv"
    write_csv(TimeSeriesBatch(["time", "a", "b", "c"], 0.0, 1.0,
                              np.column_stack([times, rows])), bad)
    good = TimeSeriesBatch(["time", "a", "b", "c"], 150.0, 0.3,
                           np.column_stack([150.0 + 0.3 * np.arange(500), rows]))
    write_csv(good, pool / "data_00001_000000150000.csv")
    bus = MessageBus()
    bus.create_topic(MODEL_TOPIC, CausalModel)
    sub = bus.subscribe(MODEL_TOPIC)
    with caplog.at_level(logging.WARNING, logger="causalpipe.discovery"):
        models = PoolWatcher(pool, PARCORR, bus=bus).drain()
    assert [m.batch_id for m in models] == ["1"]
    assert [p.name for p in (pool / "quarantine").iterdir()] == [bad.name]
    assert "time step inf" in caplog.text
    [published] = sub.drain()
    assert published.publish_time == pytest.approx(150.0 + 499 * 0.3)


def test_watchers_sharing_a_bus_publish_on_the_model_topic_clock(tmp_path, caplog):
    # the topic keeps the one model clock: a batch that ends before another
    # watcher's last model is published at that model's time, with a warning
    bus = MessageBus()
    bus.create_topic(MODEL_TOPIC, CausalModel)
    sub = bus.subscribe(MODEL_TOPIC)
    rows = np.random.default_rng(0).standard_normal((200, 2))
    pools = []
    for name, t0 in (("late", 1000.0), ("early", 0.0)):
        pool = tmp_path / name
        pool.mkdir()
        write_csv(TimeSeriesBatch(["time", "a", "b"], t0, 0.3,
                                  np.column_stack([t0 + 0.3 * np.arange(200), rows])),
                  pool / "data_00000_000000000000.csv")
        pools.append(pool)
    watchers = [PoolWatcher(pool, PARCORR, bus=bus) for pool in pools]
    with caplog.at_level(logging.WARNING, logger="causalpipe.discovery"):
        assert [len(watcher.drain()) for watcher in watchers] == [1, 1]
    late, early = sub.drain()
    assert late.publish_time == early.publish_time == pytest.approx(1000.0 + 199 * 0.3)
    assert "ends at 59.7 s, before the last model: published at 1059.7 s" in caplog.text
    assert [list(pool.iterdir()) for pool in pools] == [[], []]


def test_watcher_keeps_every_quarantined_file(tmp_path):
    # a reused pool restarts the batch names, so a second corrupt file can
    # carry the name of one already in quarantine
    pool = tmp_path / "pool"
    pool.mkdir()
    watcher = PoolWatcher(pool, PARCORR)
    for text in ("a,b\n1.0\n", "a,b\n2.0\n"):
        (pool / "data_00000_000000000000.csv").write_text(text, encoding="utf-8")
        assert watcher.drain() == []
    assert watcher.quarantined == 2
    kept = sorted(p.read_text(encoding="utf-8") for p in (pool / "quarantine").iterdir())
    assert kept == ["a,b\n1.0\n", "a,b\n2.0\n"]


def step_until_idle(watcher, seconds=30.0):
    """Step the watcher until no batch is in analysis (or `seconds` pass)."""
    watcher.step()
    deadline = time.perf_counter() + seconds
    while watcher.analysing and time.perf_counter() < deadline:
        time.sleep(0.005)
        watcher.step()


def test_watcher_background_thread_processes(tmp_path):
    # step() hands the batch to the analysis thread and returns; a later
    # step() publishes it and deletes the file
    pool = tmp_path / "pool"
    pool.mkdir()
    write_pool_file(pool, 0, seed=1)
    watcher = PoolWatcher(pool, PARCORR)
    step_until_idle(watcher)
    assert not watcher.analysing
    assert watcher.published == 1
    assert list(pool.glob("*.csv")) == []


def test_watcher_quarantines_invalid_utf8(tmp_path):
    pool = tmp_path / "pool"
    pool.mkdir()
    bad = pool / "data_00000_000000000000.csv"
    bad.write_bytes(b"a,b\n1.0,2.0\n\xff\xfe,1.0\n")
    write_pool_file(pool, 1, seed=3)
    watcher = PoolWatcher(pool, PARCORR)
    assert [m.batch_id for m in watcher.drain()] == ["1"]
    assert [p.name for p in (pool / "quarantine").iterdir()] == [bad.name]
    assert (watcher.quarantined, watcher.published) == (1, 1)


def counting_scans(watcher):
    """Replace the watcher's pool scan with one that records the thread of
    every call; returns that list."""
    scans = []
    pending = watcher._pending

    def spy():
        scans.append(threading.get_ident())
        return pending()

    watcher._pending = spy
    return scans


def test_step_returns_while_discover_runs(tmp_path, monkeypatch):
    # a step while the batch is in analysis returns at once and does not
    # scan the pool; the step after the analysis ends finishes the batch
    # and scans once, for the next one
    pool = tmp_path / "pool"
    pool.mkdir()
    write_pool_file(pool, 0, seed=1)
    analysing, release = threading.Event(), threading.Event()
    analyse = discovery.discover

    def blocked(*args, **kwargs):
        analysing.set()
        release.wait(30.0)
        return analyse(*args, **kwargs)

    monkeypatch.setattr(discovery, "discover", blocked)
    watcher = PoolWatcher(pool, PARCORR)
    scans = counting_scans(watcher)
    try:
        watcher.step()
        assert analysing.wait(30.0)
        for _ in range(100):
            watcher.step()
        assert (watcher.analysing, watcher.published, len(scans)) == (True, 0, 1)
    finally:
        release.set()
    step_until_idle(watcher)
    assert (watcher.published, len(scans)) == (1, 2)
    assert list(pool.glob("*.csv")) == []


@pytest.mark.parametrize("drive", [step_until_idle, PoolWatcher.drain],
                         ids=["step", "drain"])
def test_every_pool_file_operation_runs_on_the_stepping_thread(drive, tmp_path,
                                                               monkeypatch):
    # an unreadable file, a batch whose analysis raises and a good batch,
    # stepped or drained from a thread of their own: scan, read, publish,
    # on_model, delete and quarantine all run there, and only `discover` on
    # the analysis thread
    pool = tmp_path / "pool"
    pool.mkdir()
    (pool / "data_00000_000000000000.csv").write_text("a,b\n1.0\n", encoding="utf-8")
    write_pool_file(pool, 1, seed=1)
    write_pool_file(pool, 2, seed=2)
    threads = {}

    def record(name, fn):
        def recorded(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return recorded

    analyse = discovery.discover

    def discover_failing_batch_1(batch, params, te_params, batch_id):
        if batch_id == "1":
            raise FloatingPointError("injected")
        return analyse(batch, params, te_params, batch_id=batch_id)

    monkeypatch.setattr(discovery, "discover", record("discover", discover_failing_batch_1))
    monkeypatch.setattr(discovery, "read_csv", record("read", discovery.read_csv))
    monkeypatch.setattr(Path, "unlink", record("delete", Path.unlink))
    bus = MessageBus()
    bus.create_topic(MODEL_TOPIC, CausalModel)
    bus.publish = record("publish", bus.publish)
    watcher = PoolWatcher(pool, PARCORR, bus=bus,
                          on_model=record("on_model", lambda model, path: None))
    watcher._pending = record("scan", watcher._pending)
    watcher._quarantine = record("quarantine", watcher._quarantine)
    driver = threading.Thread(target=drive, args=(watcher,))
    driver.start()
    driver.join(60.0)
    assert not driver.is_alive()
    assert (watcher.published, watcher.quarantined) == (1, 2)
    assert list(pool.glob("*.csv")) == []
    file_ops = ("scan", "read", "publish", "on_model", "delete", "quarantine")
    assert {name: threads[name] for name in file_ops} == {name: {driver.ident}
                                                          for name in file_ops}
    assert len(threads["discover"]) == 1
    assert threads["discover"].isdisjoint({driver.ident, threading.get_ident()})


def test_step_goes_on_after_each_failure(tmp_path, monkeypatch, caplog):
    # each way a batch can fail, in turn; the watcher takes the next batch
    # after every one, and a failed scan reaches the caller unchanged
    pool = tmp_path / "pool"
    pool.mkdir()

    def failing_discover(*args, **kwargs):
        raise FloatingPointError("injected")

    def failing_callback(model, path):
        raise RuntimeError("injected")

    watcher = PoolWatcher(pool, PARCORR, on_model=failing_callback)
    (pool / "data_00000_000000000000.csv").write_text("a,b\n1.0\n", encoding="utf-8")
    step_until_idle(watcher)  # unreadable: quarantined
    write_pool_file(pool, 1, seed=1)
    with monkeypatch.context() as patch:
        patch.setattr(discovery, "discover", failing_discover)
        step_until_idle(watcher)  # analysis raised: quarantined
    write_pool_file(pool, 2, seed=1)
    with caplog.at_level(logging.ERROR, logger="causalpipe.discovery"):
        step_until_idle(watcher)  # the callback raised: logged, published
    assert any("model callback failed" in r.getMessage() for r in caplog.records)
    assert (watcher.quarantined, watcher.published) == (2, 1)
    assert list(pool.glob("*.csv")) == []
    shutil.rmtree(pool)
    with pytest.raises(FileNotFoundError):  # the scan itself raised
        watcher.step()
    assert not watcher.analysing


def test_stop_finishes_the_batch_in_analysis(tmp_path):
    pool = tmp_path / "pool"
    pool.mkdir()
    watcher = PoolWatcher(pool, PARCORR)
    scans = counting_scans(watcher)
    assert watcher.stop() is None  # nothing in analysis: at once, without a scan
    assert scans == []
    for idx in range(3):
        write_pool_file(pool, idx, seed=idx)
    watcher.step()
    assert watcher.stop().batch_id == "0"
    assert (watcher.analysing, watcher.published) == (False, 1)
    assert sorted(p.name for p in pool.glob("*.csv")) == [
        "data_00001_000000000001.csv", "data_00002_000000000002.csv"]
    # drain() finishes the batch still in analysis first, and never
    # analyses its file a second time
    watcher.step()
    assert [m.batch_id for m in watcher.drain()] == ["1", "2"]
    assert (watcher.analysing, watcher.published) == (False, 3)


def test_drain_quarantines_every_batch_whose_analysis_raised(tmp_path, monkeypatch):
    pool = tmp_path / "pool"
    pool.mkdir()
    for idx in range(3):
        write_pool_file(pool, idx, seed=idx)

    def failing(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(discovery, "discover", failing)
    watcher = PoolWatcher(pool, PARCORR)
    assert watcher.drain() == []
    assert (watcher.quarantined, watcher.published, watcher.analysing) == (3, 0, False)
    assert list(pool.glob("*.csv")) == []


def test_watcher_quarantines_batch_whose_worker_raised(tmp_path, monkeypatch, caplog):
    # a transfer-entropy job fails on a pool thread; the exception reaches
    # the watcher unchanged and the batch is quarantined, not published
    pool = tmp_path / "pool"
    pool.mkdir()
    path = write_pool_file(pool, 0, seed=1)

    def failing(src, dst, params, seed):
        raise FloatingPointError("injected")

    monkeypatch.setattr(discovery, "te_significance", failing)
    watcher = PoolWatcher(pool, dataclasses.replace(PARCORR, method="fpcmci"))
    with caplog.at_level(logging.ERROR, logger="causalpipe.discovery"):
        assert watcher.drain() == []
    assert (pool / "quarantine" / path.name).exists()
    assert (watcher.quarantined, watcher.published) == (1, 0)
    failures = [r for r in caplog.records if "analysis failed" in r.getMessage()]
    assert [r.exc_info[0] for r in failures] == [FloatingPointError]


def test_interpreter_exit_mid_batch_quarantines_nothing(tmp_path):
    # a watcher's analysis thread still inside a batch when the interpreter
    # exits finds the thread pool closed; with no step() left to finish it,
    # the batch must stay in the pool, not be quarantined
    pool = tmp_path / "pool"
    pool.mkdir()
    write_pool_file(pool, 0, seed=1)
    script = ("import sys, time\n"
              "from causalpipe.discovery import DiscoveryParams, PoolWatcher\n"
              "params = DiscoveryParams(ci_test='kridge_dcor', method='fpcmci')\n"
              "PoolWatcher(sys.argv[1], params).step()\n"
              "time.sleep(0.05)\n")
    proc = run_python("-c", script, str(pool), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "analysis failed" not in proc.stderr
    assert not (pool / "quarantine").exists()
    assert [p.name for p in pool.glob("*.csv")] == ["data_00000_000000000000.csv"]


def test_batch_id_from_filename():
    from pathlib import Path
    assert batch_id_for(Path("data_00017_000000123000.csv")) == "17"
    assert batch_id_for(Path("custom_name.csv")) == "custom_name"


def test_watcher_requires_existing_pool(tmp_path):
    with pytest.raises(FileNotFoundError):
        PoolWatcher(tmp_path / "missing", PARCORR)
