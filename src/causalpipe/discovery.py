"""Time-series causal discovery over a TimeSeriesBatch.

Two methods are provided:

  * pcmci   — two-phase lagged discovery: per-target parent pre-selection
              (iterative conditional-independence filtering with growing
              condition sets), followed by momentary conditional independence
              tests that condition on both variables' selected parents;
  * fpcmci  — the same, preceded by a transfer-entropy filter that prunes the
              cross-variable candidate set before any CI test runs.

The result is a CausalModel holding three (n_lags x n_vars x n_vars) tensors
indexed [lag][source][target]: a binary skeleton, the test statistic of each
significant link, and its p-value. val/pval are nonzero only where the
skeleton is 1, and every skeleton-1 entry has p-value <= alpha.

Each phase of a batch (PC1, then MCI) runs its conditional-independence
tests through one CIContext. The phase fixes the target rows (from tau_max
for PC1, from 2 * tau_max for MCI, which also shifts the source's parents),
so the context checks the batch length once, serves each lagged column as a
view of the batch, and derives each test's seed from the batch id, the phase
and the test's name. It also holds the phase's stats.ResidualCache, which
either CI test uses, keyed by lagged variable: each column is validated once
(a contiguous copy, checked finite, with its standard deviation), and a
design (an RBF kernel, or parcorr's [1, Z] matrix) or a residual needed by
several tests is computed once. The phases' windows differ, so they could
share no cache entry; each context is let go when its phase ends, so PC1's
entries are freed before MCI computes its own.

The tests of one batch that do not depend on each other run concurrently on
one module-level thread pool, built at import with one worker per CPU this
process may run on; it starts no thread before its first job. They are the
directed transfer-entropy pairs of fpcmci and, with the kridge_dcor test,
the parent pre-selection of each target and every MCI test once the parents
are fixed (parcorr tests are too short to hand off). Most of a kernel-ridge /
dCor test runs in numpy loops that release the interpreter lock, so two
tests overlap in part. Results are read back in submission order, so a model
does not depend on the number of workers.
Workers never submit to the pool, so it cannot deadlock. They share the
phase's cache without a lock and never wait for each other: two workers that
need the same missing entry at once may both compute it, and both use the
one copy stored first, which has the same bits.

A PoolWatcher reproduces the batch worker: it scans a pool directory, always
analyses the oldest CSV first, publishes the resulting model on the bus, and
deletes the file afterwards (corrupt files are quarantined, never silently
dropped). A watcher is driven from one thread, which does every pool file
operation; its analysis thread only runs `discover`, and so pays SciPy's
import in the first parcorr batch of a process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import shutil
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .bus import MessageBus
from .collector import batch_id_for, pool_order
from .stats import (INDEPENDENT, TE_MIN_ROWS, CITestResult, KernelRegParams,
                    ResidualCache, TEParams, kridge_dcor_test, parcorr_test,
                    te_significance)
from .timeseries import TimeSeriesBatch, read_csv, write_atomic

log = logging.getLogger(__name__)

MODEL_TOPIC = "/roscausal/causal_model"

CI_TESTS = ("parcorr", "kridge_dcor")
METHODS = ("pcmci", "fpcmci")


class DiscoveryError(Exception):
    """Base class for discovery failures."""


class BatchTooShortError(DiscoveryError):
    """Not enough usable rows after lag alignment."""


@dataclass(frozen=True)
class DiscoveryParams:
    alpha: float = 0.05
    tau_min: int = 1
    tau_max: int = 1
    ci_test: str = "parcorr"
    max_conditions: int = 3
    pc_alpha: float | None = None
    seed: int = 0
    method: str = "pcmci"
    kridge: KernelRegParams = field(default_factory=KernelRegParams)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if not (1 <= self.tau_min <= self.tau_max):
            raise ValueError(
                f"need 1 <= tau_min <= tau_max, got [{self.tau_min}, {self.tau_max}]"
            )
        if self.ci_test not in CI_TESTS:
            raise ValueError(f"ci_test must be one of {CI_TESTS}, got {self.ci_test!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.max_conditions < 0:
            raise ValueError(f"max_conditions must be >= 0, got {self.max_conditions}")
        if self.pc_alpha is None:
            object.__setattr__(self, "pc_alpha", self.alpha)
        elif not 0.0 < self.pc_alpha < 1.0:
            raise ValueError(f"pc_alpha must be in (0,1), got {self.pc_alpha}")

    @property
    def n_lags(self) -> int:
        return self.tau_max - self.tau_min + 1


class LaggedVariable(NamedTuple):
    """A source variable at a positive lag behind the target time."""

    var_index: int
    lag: int


@dataclass
class CausalModel:
    """Discovered causal model: skeleton, link strengths and confidences."""

    variable_names: list[str]
    tau_min: int
    tau_max: int
    causal_structure: np.ndarray
    val_matrix: np.ndarray
    pval_matrix: np.ndarray
    params_used: DiscoveryParams
    batch_id: str
    te_filter: dict | None = None

    def __post_init__(self) -> None:
        n_lags = self.tau_max - self.tau_min + 1
        n_vars = len(self.variable_names)
        shape = (n_lags, n_vars, n_vars)
        self.causal_structure = np.asarray(self.causal_structure, dtype=np.uint8)
        self.val_matrix = np.asarray(self.val_matrix, dtype=np.float64)
        self.pval_matrix = np.asarray(self.pval_matrix, dtype=np.float64)
        for name, tensor in (("causal_structure", self.causal_structure),
                             ("val_matrix", self.val_matrix),
                             ("pval_matrix", self.pval_matrix)):
            if tensor.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {tensor.shape}")
        absent = self.causal_structure == 0
        if np.any(self.val_matrix[absent] != 0.0):
            raise ValueError("val_matrix nonzero where causal_structure is 0")
        if np.any(self.pval_matrix[absent] != 0.0):
            raise ValueError("pval_matrix nonzero where causal_structure is 0")
        present = ~absent
        if np.any(self.pval_matrix[present] > self.params_used.alpha):
            raise ValueError("structure-1 entry with p-value above alpha")

    @property
    def n_vars(self) -> int:
        return len(self.variable_names)

    def edge_set(self) -> set[tuple[int, int, int]]:
        """All discovered (source, target, lag) triples, self-loops included."""
        lags, sources, targets = np.nonzero(self.causal_structure)
        return {(int(i), int(j), int(l) + self.tau_min)
                for l, i, j in zip(lags, sources, targets)}

    def named_edges(self) -> set[tuple[str, str, int]]:
        return {(self.variable_names[i], self.variable_names[j], lag)
                for i, j, lag in self.edge_set()}

    def cross_edges(self) -> set[tuple[str, str, int]]:
        """named_edges() without self-loops."""
        return {(a, b, lag) for a, b, lag in self.named_edges() if a != b}


def _derived_seed(*parts) -> int:
    digest = hashlib.blake2b(":".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


try:
    _workers = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity API on this platform
    _workers = os.cpu_count() or 1
# The shared pool for independent tests, one worker per CPU in this process's
# affinity mask; it starts no thread before its first job.
_pool = ThreadPoolExecutor(max_workers=_workers, thread_name_prefix="causalpipe-ci")


def _pooled(params: DiscoveryParams) -> bool:
    """Whether the CI tests of a batch go to the pool.

    A kernel-ridge / dCor test takes tens of milliseconds, mostly in numpy
    code that releases the interpreter lock, so tests on two workers
    overlap. A parcorr test takes about 0.1 ms, less than handing it to a
    worker and taking its result back costs, so those run inline.
    """
    return params.ci_test == "kridge_dcor"


def _run_all(fn: Callable, jobs: Sequence[tuple], pooled: bool = True) -> list[Any]:
    """fn(*job) for every job, on the shared pool when `pooled`,
    results in job order. The first failure in job order is raised
    unchanged, and the jobs that have not started yet are cancelled."""
    if not pooled:
        return [fn(*job) for job in jobs]
    return list(_pool.map(fn, *zip(*jobs)))


def lagged_candidates(n_vars: int, params: DiscoveryParams) -> list[LaggedVariable]:
    """Every (source, lag) pair, self-lags included; the same for each target."""
    if n_vars < 1:
        raise ValueError(f"n_vars must be >= 1, got {n_vars}")
    return [LaggedVariable(i, tau)
            for i in range(n_vars)
            for tau in range(params.tau_min, params.tau_max + 1)]


# The first target row of each phase, in multiples of tau_max.
_PHASE_WINDOW = {"pc1": 1, "mci": 2}


def check_batch_rows(n_rows: int, n_vars: int, params: DiscoveryParams,
                     phase: str = "mci") -> None:
    """The one batch-length rule: raise BatchTooShortError unless a batch of
    n_rows rows of n_vars analysis variables leaves the phase (MCI, the
    longer, by default) 10 * (max_conditions + 2) target rows after its lag
    window, and, for fpcmci with a pair to filter, has TE_MIN_ROWS rows."""
    usable = max(n_rows - _PHASE_WINDOW[phase] * params.tau_max, 0)
    need = 10 * (params.max_conditions + 2)
    if usable < need:
        raise BatchTooShortError(f"{usable} usable rows after lag alignment; need >= {need}")
    if params.method == "fpcmci" and n_vars > 1 and n_rows < TE_MIN_ROWS:
        raise BatchTooShortError(f"{n_rows} rows; transfer entropy needs >= {TE_MIN_ROWS}")


class CIContext:
    """The CI tests of one phase ("pc1" or "mci") of one batch (see the module
    docstring). Cross pairs (i, j) outside `allowed_pairs`, when it is given,
    are never tested."""

    def __init__(self, batch: TimeSeriesBatch, params: DiscoveryParams, phase: str,
                 batch_id: str = "batch",
                 allowed_pairs: set[tuple[int, int]] | None = None):
        if phase not in _PHASE_WINDOW:
            raise ValueError(f"phase must be one of {tuple(_PHASE_WINDOW)}, got {phase!r}")
        names, self._X = batch.analysis_view()
        self.n_vars = len(names)
        if self.n_vars < 1:
            raise DiscoveryError("batch has no analysis variables")
        self.window_start = _PHASE_WINDOW[phase] * params.tau_max
        check_batch_rows(self._X.shape[0], self.n_vars, params, phase)
        self.params = params
        self.phase = phase
        self.batch_id = batch_id
        self.allowed_pairs = allowed_pairs
        self.cache = ResidualCache(params.kridge)

    def allows(self, i: int, j: int) -> bool:
        """Whether source i may be tested against target j."""
        return self.allowed_pairs is None or i == j or (i, j) in self.allowed_pairs

    def column(self, v: LaggedVariable) -> np.ndarray:
        """Values of variable v.var_index, v.lag steps behind the target rows."""
        n = self._X.shape[0]
        return self._X[self.window_start - v.lag:n - v.lag, v.var_index]

    def test(self, x: LaggedVariable, y: LaggedVariable, conds: Sequence[LaggedVariable],
             *seed_parts) -> CITestResult:
        """The configured CI test of x and y given conds; a test that raises
        counts as independent. `seed_parts` name the test within its phase."""
        Z = [self.column(c) for c in conds]
        # a lagged variable fixes its column within the phase
        keys = (x, y, tuple(conds))
        try:
            if self.params.ci_test == "parcorr":
                return parcorr_test(self.column(x), self.column(y), Z,
                                    cache=self.cache, keys=keys)
            seed = _derived_seed(self.params.seed, self.batch_id, self.phase, *seed_parts)
            return kridge_dcor_test(self.column(x), self.column(y), Z, self.params.kridge,
                                    seed=seed, cache=self.cache, keys=keys)
        except Exception:
            log.exception("CI test failed; treating as independent")
            return INDEPENDENT


def pc1_condition_selection(ctx: CIContext, target: int
                            ) -> list[tuple[LaggedVariable, float]]:
    """Iterative parent pre-selection for one target variable.

    Starting from all lagged candidates the context allows, condition-set
    sizes p = 0, 1, ..., max_conditions are tried in turn: each surviving
    candidate is tested against the target given the p strongest other
    survivors (ranked by |statistic| from the previous pass), and is removed
    when its p-value exceeds pc_alpha. Survivors are re-sorted by |statistic|
    after each pass. Returns the surviving parents with their final
    statistics, strongest first.
    """
    if not 0 <= target < ctx.n_vars:
        raise ValueError(f"target {target} outside [0,{ctx.n_vars})")
    params = ctx.params
    y = LaggedVariable(target, 0)
    survivors = [c for c in lagged_candidates(ctx.n_vars, params)
                 if ctx.allows(c.var_index, target)]
    stats: dict[LaggedVariable, float] = {}

    for p in range(params.max_conditions + 1):
        if len(survivors) <= p:
            break
        ranking = sorted(survivors, key=lambda c: abs(stats.get(c, 0.0)), reverse=True)
        new_stats: dict[LaggedVariable, float] = {}
        removed: set[LaggedVariable] = set()
        for c in survivors:
            conds = [o for o in ranking if o != c][:p]
            result = ctx.test(c, y, conds, target, c.var_index, c.lag, p)
            new_stats[c] = result.statistic
            if result.p_value > params.pc_alpha:
                removed.add(c)
        survivors = [c for c in survivors if c not in removed]
        stats = {c: new_stats[c] for c in survivors}

    ordered = sorted(survivors, key=lambda c: abs(stats[c]), reverse=True)
    return [(c, stats[c]) for c in ordered]


def mci_tests(ctx: CIContext,
              parents_by_target: dict[int, list[tuple[LaggedVariable, float]]]
              ) -> tuple[np.ndarray, np.ndarray]:
    """Momentary conditional independence tests for every ordered pair.

    The test of X_i at lag tau against X_j conditions on the selected parents
    of X_j (minus the tested link) plus the parents of X_i shifted by tau,
    each side truncated to the max_conditions strongest. Returns (val, pval)
    tensors of shape (n_lags, n_vars, n_vars). Cross pairs the context does
    not allow are skipped (left at val 0 / pval 1).
    """
    params = ctx.params
    n_vars = ctx.n_vars
    n_lags = params.n_lags
    val = np.zeros((n_lags, n_vars, n_vars))
    pval = np.ones((n_lags, n_vars, n_vars))

    # each target's parents, strongest first; the sort is stable
    top_parents = [[c for c, _ in sorted(parents_by_target.get(j, ()),
                                         key=lambda ps: abs(ps[1]), reverse=True)]
                   for j in range(n_vars)]
    jobs = []
    cells = []
    for j in range(n_vars):
        parents_j = top_parents[j]
        for i in range(n_vars):
            if not ctx.allows(i, j):
                continue
            parents_i = top_parents[i]
            for tau in range(params.tau_min, params.tau_max + 1):
                tested = LaggedVariable(i, tau)
                cond_j = [c for c in parents_j if c != tested][:params.max_conditions]
                cond_i = [LaggedVariable(c.var_index, c.lag + tau)
                          for c in parents_i][:params.max_conditions]
                conds: list[LaggedVariable] = []
                for c in cond_j + cond_i:
                    if c != tested and c not in conds:
                        conds.append(c)
                jobs.append((tested, LaggedVariable(j, 0), conds, i, j, tau))
                cells.append((tau - params.tau_min, i, j))
    for (l, i, j), result in zip(cells, _run_all(ctx.test, jobs, _pooled(params))):
        val[l, i, j] = result.statistic
        pval[l, i, j] = result.p_value
    return val, pval


def _select_parents(ctx: CIContext) -> dict[int, list[tuple[LaggedVariable, float]]]:
    """PC1's parents of every target, by target."""
    jobs = [(ctx, j) for j in range(ctx.n_vars)]
    return dict(enumerate(_run_all(pc1_condition_selection, jobs, _pooled(ctx.params))))


def _assemble_model(batch: TimeSeriesBatch, params: DiscoveryParams,
                    val: np.ndarray, pval: np.ndarray, batch_id: str,
                    te_filter: dict | None) -> CausalModel:
    """Threshold at alpha, mask absent links, and label the method: a model
    built behind a transfer-entropy filter is F-PCMCI, any other PCMCI."""
    names, _ = batch.analysis_view()
    method = "pcmci" if te_filter is None else "fpcmci"
    if params.method != method:
        params = dataclasses.replace(params, method=method)
    structure = (pval <= params.alpha).astype(np.uint8)
    absent = structure == 0
    val = val.copy()
    pval = pval.copy()
    val[absent] = 0.0
    pval[absent] = 0.0
    return CausalModel(variable_names=names, tau_min=params.tau_min,
                       tau_max=params.tau_max, causal_structure=structure,
                       val_matrix=val, pval_matrix=pval, params_used=params,
                       batch_id=batch_id, te_filter=te_filter)


def pcmci(batch: TimeSeriesBatch, params: DiscoveryParams,
          batch_id: str = "batch", te_filter: dict | None = None) -> CausalModel:
    """Run parent pre-selection then MCI; threshold at alpha and mask.

    With a `te_filter` (as built by fpcmci), only the cross pairs it kept
    enter either phase, and the model is recorded as F-PCMCI.
    """
    allowed_pairs = None if te_filter is None else set(te_filter["kept"])
    # Each phase gets its own context: the two phases use different row
    # windows, so their caches could share no entry. Each context is built in
    # the call that uses it, so PC1's entries are freed before MCI starts.
    parents = _select_parents(CIContext(batch, params, "pc1", batch_id, allowed_pairs))
    val, pval = mci_tests(CIContext(batch, params, "mci", batch_id, allowed_pairs), parents)
    return _assemble_model(batch, params, val, pval, batch_id, te_filter)


def fpcmci(batch: TimeSeriesBatch, params: DiscoveryParams,
           te_params: TEParams = TEParams(), batch_id: str = "batch") -> CausalModel:
    """Transfer-entropy filtering followed by PCMCI on the kept candidates.

    Self-lags are always kept. A variable pair is kept when the transfer
    entropy is significant in either direction (both directed candidates then
    stay in play; the MCI tests settle orientation, which the coarse binned
    TE estimate cannot do reliably). Pairs with no significant flow in either
    direction are excluded from both discovery phases, so the final model can
    never contain an edge whose pair the filter rejected. If every cross pair
    is filtered out, discovery proceeds on self-lags only.
    """
    names, X = batch.analysis_view()
    n_vars = len(names)
    # a batch that MCI or the TE estimator would reject fails before any TE
    # pair; the filter runs whatever params.method says
    check_batch_rows(X.shape[0], n_vars, dataclasses.replace(params, method="fpcmci"))
    pairs = [(i, j) for i in range(n_vars) for j in range(n_vars) if i != j]
    jobs = [(X[:, i], X[:, j], te_params, _derived_seed(params.seed, batch_id, "te", i, j))
            for i, j in pairs]
    directed = {pair: significant
                for pair, (_, _, significant) in zip(pairs, _run_all(te_significance, jobs))}
    kept: set[tuple[int, int]] = set()
    rejected: set[tuple[int, int]] = set()
    for (i, j), significant in directed.items():
        if significant or directed[(j, i)]:
            kept.add((i, j))
        else:
            rejected.add((i, j))
    if not kept and n_vars > 1:
        log.warning("transfer-entropy filter removed every cross pair; "
                    "proceeding with self-lags only")
    te_filter = {
        "kept": sorted(kept),
        "rejected": sorted(rejected),
        "directed_significant": sorted(p for p, s in directed.items() if s),
        "te_params": dataclasses.asdict(te_params),
    }
    return pcmci(batch, params, batch_id=batch_id, te_filter=te_filter)


def discover(batch: TimeSeriesBatch, params: DiscoveryParams,
             te_params: TEParams = TEParams(), batch_id: str = "batch") -> CausalModel:
    """Dispatch on params.method."""
    if params.method == "fpcmci":
        return fpcmci(batch, params, te_params, batch_id=batch_id)
    return pcmci(batch, params, batch_id=batch_id)


# --- export -----------------------------------------------------------------

def _params_dict(model: CausalModel) -> dict:
    params = dataclasses.asdict(model.params_used)
    params["te_filter"] = model.te_filter
    return params


def model_to_dict(model: CausalModel) -> dict:
    return {
        "variables": list(model.variable_names),
        "tau_min": model.tau_min,
        "tau_max": model.tau_max,
        "structure": model.causal_structure.astype(int).tolist(),
        "val": model.val_matrix.tolist(),
        "pval": model.pval_matrix.tolist(),
        "params": _params_dict(model),
        "batch_id": model.batch_id,
    }


def model_from_dict(payload: dict) -> CausalModel:
    params_in = dict(payload["params"])
    te_filter = params_in.pop("te_filter", None)
    kridge = KernelRegParams(**params_in.pop("kridge"))
    params = DiscoveryParams(kridge=kridge, **params_in)
    if te_filter is not None:
        te_filter = {key: ([tuple(p) for p in value] if isinstance(value, list) else value)
                     for key, value in te_filter.items()}
    return CausalModel(
        variable_names=list(payload["variables"]),
        tau_min=payload["tau_min"],
        tau_max=payload["tau_max"],
        causal_structure=np.asarray(payload["structure"], dtype=np.uint8),
        val_matrix=np.asarray(payload["val"], dtype=np.float64),
        pval_matrix=np.asarray(payload["pval"], dtype=np.float64),
        params_used=params,
        batch_id=payload["batch_id"],
        te_filter=te_filter,
    )


def load_model_json(path: str | Path) -> CausalModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def _dot_source(model: CausalModel) -> str:
    lines = ["digraph causal_model {"]
    for name in model.variable_names:
        lines.append(f'  "{name}";')
    edges = sorted(model.edge_set())
    max_val = max((abs(float(model.val_matrix[lag - model.tau_min, i, j]))
                   for i, j, lag in edges), default=0.0)
    for i, j, lag in edges:
        strength = abs(float(model.val_matrix[lag - model.tau_min, i, j]))
        width = 4.0 * strength / max_val if max_val > 0 else 1.0
        lines.append(
            f'  "{model.variable_names[i]}" -> "{model.variable_names[j]}" '
            f'[label="τ={lag}", penwidth={width!r}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_model(model: CausalModel, format: str, path: str | Path) -> bytes:
    """Write the model as pretty JSON (full tensors) or Graphviz DOT;
    returns the bytes written.

    DOT edges are labeled with their lag and drawn with pen width
    proportional to |val|. The file is replaced atomically: a failed write
    leaves any earlier file at `path` as it was.
    """
    if format == "json":
        return write_atomic(path, json.dumps(model_to_dict(model), sort_keys=True, indent=2)
                            + "\n")
    if format == "dot":
        return write_atomic(path, _dot_source(model))
    raise ValueError(f"unknown export format {format!r} (expected json or dot)")


# --- pool watcher ------------------------------------------------------------

class PoolWatcher:
    """Sequential worker over a pool directory of CSV batches.

    Each batch is the oldest file in the pool (by `collector.pool_order`):
    the watcher runs the configured discovery on it, publishes the
    CausalModel on the bus, hands it to `on_model`, then deletes the file.
    Files that cannot be read or analysed are moved to a quarantine
    subdirectory, never silently deleted. A model
    is published at its batch's end time, or at the model topic's last
    publish time if that is later (a batch an earlier run left in a reused
    pool, or a model of another watcher on the same bus): the topic keeps
    the one clock, and it never goes back.

    A watcher is driven from one thread, which does every pool file
    operation (scan, read, publish and on_model, delete or quarantine).
    Every batch is analysed on the watcher's analysis thread, which only
    runs `discover`: step() hands it the next batch and never waits, and
    stop() and drain() wait for it.
    """

    def __init__(self, pool_dir: str | Path, params: DiscoveryParams,
                 te_params: TEParams = TEParams(),
                 bus: MessageBus | None = None,
                 on_model: Callable[[CausalModel, Path], None] | None = None):
        self.pool_dir = Path(pool_dir)
        if not self.pool_dir.is_dir():
            raise FileNotFoundError(f"pool directory {self.pool_dir} does not exist")
        self.params = params
        self.te_params = te_params
        self.bus = bus
        self.on_model = on_model
        self.quarantine_dir = self.pool_dir / "quarantine"
        self.published = 0
        self.quarantined = 0
        # its one thread starts on the first step() and ends with the watcher
        self._analyst = ThreadPoolExecutor(max_workers=1, thread_name_prefix="pool-analysis")
        self._analysis: tuple[Path, TimeSeriesBatch, Future] | None = None

    @property
    def analysing(self) -> bool:
        """Whether a batch handed over by step() is not finished yet."""
        return self._analysis is not None

    def _pending(self) -> list[Path]:
        return sorted((p for p in self.pool_dir.iterdir() if p.suffix == ".csv" and p.is_file()),
                      key=pool_order)

    def _quarantine(self, path: Path) -> None:
        if not path.exists():
            log.error("cannot quarantine %s: file vanished", path.name)
            return
        self.quarantine_dir.mkdir(exist_ok=True)
        # an emptied pool restarts the batch names: never overwrite an earlier file
        target = self.quarantine_dir / path.name
        copies = 0
        while target.exists():
            copies += 1
            target = self.quarantine_dir / f"{path.stem}.{copies}{path.suffix}"
        shutil.move(str(path), str(target))
        self.quarantined += 1
        log.error("quarantined %s -> %s", path.name, target)

    def _take(self) -> tuple[Path, TimeSeriesBatch] | None:
        """The oldest readable pending file and its batch, or None when the
        pool has none; unreadable files before it are quarantined."""
        for path in self._pending():
            try:
                return path, read_csv(path)
            except Exception:
                log.exception("analysis failed for %s", path.name)
                self._quarantine(path)
        return None

    def _finish(self) -> CausalModel | None:
        """Wait for the batch in analysis and finish it: publish its model,
        hand it to on_model and delete the file; if the analysis raised,
        quarantine the file and return None."""
        path, batch, future = self._analysis
        self._analysis = None
        try:
            model = future.result()
        except Exception:
            log.exception("analysis failed for %s", path.name)
            self._quarantine(path)
            return None
        if self.bus is not None:
            last = self.bus.topic(MODEL_TOPIC).last_publish_time
            if batch.end_time < last:
                log.warning("%s ends at %g s, before the last model: published at %g s",
                            path.name, batch.end_time, last)
            self.bus.publish(MODEL_TOPIC, model, time=max(batch.end_time, last))
        self.published += 1
        if self.on_model is not None:
            try:
                self.on_model(model, path)
            except Exception:
                log.exception("model callback failed for %s", path.name)
        path.unlink()
        return model

    def step(self) -> Future | None:
        """Finish the batch whose analysis has ended, then hand the oldest
        readable pending file to the analysis thread; returns the future of
        that batch's `discover`, or None if it handed none over. Returns None
        at once, without a pool scan, while a batch is still in analysis."""
        if self._analysis is not None:
            if not self._analysis[2].done():
                return None
            self._finish()
        taken = self._take()
        if taken is None:
            return None
        path, batch = taken
        # `discover` is looked up on every step, so a wrapper set on this
        # module (a delay, a timer) sees every batch
        self._analysis = (path, batch, self._analyst.submit(
            discover, batch, self.params, self.te_params, batch_id=batch_id_for(path)))
        return self._analysis[2]

    def stop(self) -> CausalModel | None:
        """Wait for the batch in analysis, if any, and finish it; returns its
        model, or None if there was none or it was quarantined."""
        return self._finish() if self._analysis is not None else None

    def drain(self) -> list[CausalModel]:
        """Analyse until the pool is empty, one batch at a time on the
        analysis thread; returns the models in order."""
        models = []
        while True:
            if (model := self.stop()) is not None:
                models.append(model)
            if self.step() is None:
                return models
