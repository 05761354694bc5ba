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

The tests of one batch that do not depend on each other run concurrently on
one module-level thread pool, created on first use with one worker per CPU
this process may run on: the directed transfer-entropy pairs of fpcmci and,
with the kridge_dcor test, the parent pre-selection of each target and every
MCI test once the parents are fixed (parcorr tests are too short to hand
off). Most of a kernel-ridge / dCor test runs in numpy loops that release
the interpreter lock, so two tests overlap in part. Seeds are derived on the
calling thread and results are read back in submission order, so a model
does not depend on the number of workers. Workers never submit to the pool,
so it cannot deadlock. With kridge_dcor, the tests of each phase of a batch
share one stats.KernelRidgeCache, keyed by row window and lagged variables,
so a kernel or a kernel-ridge fit needed by several tests is computed once.

A PoolWatcher reproduces the batch worker: it polls a pool directory, always
analyses the oldest CSV first, publishes the resulting model on the bus, and
deletes the file afterwards (corrupt files are quarantined, never silently
dropped).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import re
import shutil
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .bus import MessageBus
from .stats import (INDEPENDENT, CITestResult, KernelRegParams, KernelRidgeCache,
                    TEParams, kridge_dcor_test, parcorr_test, te_significance)
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


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    """The shared pool for independent tests, created on first use with one
    worker per CPU in this process's affinity mask."""
    global _pool
    with _pool_lock:
        if _pool is None:
            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity API on this platform
                workers = os.cpu_count() or 1
            _pool = ThreadPoolExecutor(max_workers=workers,
                                       thread_name_prefix="causalpipe-ci")
        return _pool


def _pooled(params: DiscoveryParams) -> bool:
    """Whether the CI tests of a batch go to the pool.

    A kernel-ridge / dCor test takes tens of milliseconds, mostly in numpy
    code that releases the interpreter lock. A parcorr test takes about
    0.1 ms, less than a hand-off to a worker costs while another thread (the
    simulator, in a running pipeline) holds the lock, so those run inline.
    """
    return params.ci_test == "kridge_dcor"


def _run_all(fn: Callable, jobs: Sequence[tuple], pooled: bool = True,
             **kwargs) -> list[Any]:
    """fn(*job, **kwargs) for every job, on the shared pool when `pooled`,
    results in job order. The first failure in job order is raised
    unchanged, after the jobs that have not started yet are cancelled."""
    if not pooled:
        return [fn(*job, **kwargs) for job in jobs]
    pool = _executor()
    try:
        futures = [pool.submit(fn, *job, **kwargs) for job in jobs]
    except RuntimeError:
        # The pool takes no new work once the interpreter has begun to exit.
        # A daemon watcher still inside a batch then finishes it on its own
        # thread instead of failing and quarantining a good file.
        return [fn(*job, **kwargs) for job in jobs]
    try:
        return [f.result() for f in futures]
    except BaseException:
        for f in futures:
            f.cancel()
        raise


def _ci_test(params: DiscoveryParams, x, y, Z, seed: int,
             cache: KernelRidgeCache | None = None, keys: tuple | None = None) -> CITestResult:
    """Run the configured CI test; a test that raises counts as independent.
    `cache` and `keys` reach kridge_dcor_test, which shares kernel-ridge
    residuals through them."""
    try:
        if params.ci_test == "parcorr":
            return parcorr_test(x, y, Z)
        return kridge_dcor_test(x, y, Z, params.kridge, seed=seed, cache=cache, keys=keys)
    except Exception:
        log.exception("CI test failed; treating as independent")
        return INDEPENDENT


def lagged_candidates(n_vars: int, params: DiscoveryParams) -> list[LaggedVariable]:
    """Every (source, lag) pair, self-lags included; the same for each target."""
    if n_vars < 1:
        raise ValueError(f"n_vars must be >= 1, got {n_vars}")
    return [LaggedVariable(i, tau)
            for i in range(n_vars)
            for tau in range(params.tau_min, params.tau_max + 1)]


def _ci_keys(window_start: int, x: LaggedVariable, y: LaggedVariable,
             conds: Sequence[LaggedVariable]) -> tuple:
    """Cache keys of one test's x, y and Z: the row window fixes which rows a
    lagged variable's column holds, and Z's columns keep their order."""
    return (window_start, x), (window_start, y), (window_start, tuple(conds))


def _lagged_column(X: np.ndarray, var: int, lag: int, window_start: int) -> np.ndarray:
    """Values of X[:, var] at `lag` steps behind rows [window_start, n)."""
    n = X.shape[0]
    return X[window_start - lag:n - lag, var]


def _check_usable_rows(X: np.ndarray, window_start: int, params: DiscoveryParams) -> None:
    """Raise BatchTooShortError unless enough rows remain after lag alignment."""
    usable = X.shape[0] - window_start
    need = 10 * (params.max_conditions + 2)
    if usable < need:
        raise BatchTooShortError(
            f"{usable} usable rows after lag alignment; need >= {need}"
        )


def pc1_condition_selection(batch: TimeSeriesBatch, target: int,
                            params: DiscoveryParams,
                            allowed_pairs: set[tuple[int, int]] | None = None,
                            batch_id: str = "batch",
                            cache: KernelRidgeCache | None = None,
                            ) -> list[tuple[LaggedVariable, float]]:
    """Iterative parent pre-selection for one target variable.

    Starting from all lagged candidates, condition-set sizes p = 0, 1, ...,
    max_conditions are tried in turn: each surviving candidate is tested
    against the target given the p strongest other survivors (ranked by
    |statistic| from the previous pass), and is removed when its p-value
    exceeds pc_alpha. Survivors are re-sorted by |statistic| after each pass.
    Returns the surviving parents with their final statistics, strongest
    first. When `allowed_pairs` is given, cross candidates (i, target)
    outside it are never considered. Targets tested with one `cache` share
    their kernel-ridge work.
    """
    names, X = batch.analysis_view()
    n_vars = len(names)
    if not 0 <= target < n_vars:
        raise ValueError(f"target {target} outside [0,{n_vars})")
    window_start = params.tau_max
    _check_usable_rows(X, window_start, params)
    survivors = [c for c in lagged_candidates(n_vars, params)
                 if allowed_pairs is None or c.var_index == target
                 or (c.var_index, target) in allowed_pairs]
    y = X[window_start:, target]
    columns = {c: _lagged_column(X, c.var_index, c.lag, window_start) for c in survivors}
    stats: dict[LaggedVariable, float] = {}

    for p in range(params.max_conditions + 1):
        if len(survivors) <= p:
            break
        ranking = sorted(survivors, key=lambda c: abs(stats.get(c, 0.0)), reverse=True)
        new_stats: dict[LaggedVariable, float] = {}
        removed: set[LaggedVariable] = set()
        for c in survivors:
            conds = [o for o in ranking if o != c][:p]
            Z = [columns[o] for o in conds]
            seed = _derived_seed(params.seed, batch_id, "pc1", target,
                                 c.var_index, c.lag, p)
            keys = _ci_keys(window_start, c, LaggedVariable(target, 0), conds)
            result = _ci_test(params, columns[c], y, Z, seed, cache, keys)
            new_stats[c] = result.statistic
            if result.p_value > params.pc_alpha:
                removed.add(c)
        survivors = [c for c in survivors if c not in removed]
        stats = {c: new_stats[c] for c in survivors}

    ordered = sorted(survivors, key=lambda c: abs(stats[c]), reverse=True)
    return [(c, stats[c]) for c in ordered]


def mci_tests(batch: TimeSeriesBatch,
              parents_by_target: dict[int, list[tuple[LaggedVariable, float]]],
              params: DiscoveryParams,
              allowed_pairs: set[tuple[int, int]] | None = None,
              batch_id: str = "batch",
              cache: KernelRidgeCache | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Momentary conditional independence tests for every ordered pair.

    The test of X_i at lag tau against X_j conditions on the selected parents
    of X_j (minus the tested link) plus the parents of X_i shifted by tau,
    each side truncated to the max_conditions strongest. Returns (val, pval)
    tensors of shape (n_lags, n_vars, n_vars). When `allowed_pairs` is given,
    cross pairs (i, j) outside it are skipped (left at val 0 / pval 1). The
    tests share their kernel-ridge work through `cache`, when one is given.
    """
    names, X = batch.analysis_view()
    n_vars = len(names)
    window_start = 2 * params.tau_max
    _check_usable_rows(X, window_start, params)
    n_lags = params.n_lags
    val = np.zeros((n_lags, n_vars, n_vars))
    pval = np.ones((n_lags, n_vars, n_vars))

    def top_parents(j: int) -> list[LaggedVariable]:
        ranked = sorted(parents_by_target.get(j, ()), key=lambda ps: abs(ps[1]),
                        reverse=True)
        return [c for c, _ in ranked]

    jobs = []
    cells = []
    for j in range(n_vars):
        y = X[window_start:, j]
        parents_j = top_parents(j)
        for i in range(n_vars):
            if allowed_pairs is not None and i != j and (i, j) not in allowed_pairs:
                continue
            parents_i = top_parents(i)
            for tau in range(params.tau_min, params.tau_max + 1):
                tested = LaggedVariable(i, tau)
                cond_j = [c for c in parents_j if c != tested][:params.max_conditions]
                cond_i = [LaggedVariable(c.var_index, c.lag + tau)
                          for c in parents_i][:params.max_conditions]
                conds: list[LaggedVariable] = []
                for c in cond_j + cond_i:
                    if c != tested and c not in conds:
                        conds.append(c)
                Z = [_lagged_column(X, c.var_index, c.lag, window_start) for c in conds]
                x = _lagged_column(X, i, tau, window_start)
                seed = _derived_seed(params.seed, batch_id, "mci", i, j, tau)
                keys = _ci_keys(window_start, tested, LaggedVariable(j, 0), conds)
                jobs.append((params, x, y, Z, seed, cache, keys))
                cells.append((tau - params.tau_min, i, j))
    for (l, i, j), result in zip(cells, _run_all(_ci_test, jobs, _pooled(params))):
        val[l, i, j] = result.statistic
        pval[l, i, j] = result.p_value
    return val, pval


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
    names, _ = batch.analysis_view()
    n_vars = len(names)
    if n_vars < 1:
        raise DiscoveryError("batch has no analysis variables")
    allowed_pairs = None if te_filter is None else set(te_filter["kept"])
    # Each phase gets its own kernel-ridge cache: the two phases use
    # different row windows, so they could share no entry.
    selected = _run_all(pc1_condition_selection, [(batch, j, params) for j in range(n_vars)],
                        _pooled(params), allowed_pairs=allowed_pairs, batch_id=batch_id,
                        cache=KernelRidgeCache(params.kridge))
    parents = dict(enumerate(selected))
    val, pval = mci_tests(batch, parents, params, allowed_pairs=allowed_pairs,
                          batch_id=batch_id, cache=KernelRidgeCache(params.kridge))
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


def export_model(model: CausalModel, format: str, path: str | Path) -> None:
    """Write the model as pretty JSON (full tensors) or Graphviz DOT.

    DOT edges are labeled with their lag and drawn with pen width
    proportional to |val|. The file is replaced atomically: a failed write
    leaves any earlier file at `path` as it was.
    """
    if format == "json":
        write_atomic(path, json.dumps(model_to_dict(model), sort_keys=True, indent=2) + "\n")
    elif format == "dot":
        write_atomic(path, _dot_source(model))
    else:
        raise ValueError(f"unknown export format {format!r} (expected json or dot)")


# --- pool watcher ------------------------------------------------------------

_POOL_FILE_RE = re.compile(r"^data_(\d+)_(\d+)\.csv$")


def batch_id_for(path: Path) -> str:
    """Batch id from a pool filename; collector files map to their index."""
    m = _POOL_FILE_RE.match(path.name)
    if m:
        return str(int(m.group(1)))
    return path.stem


class PoolWatcher:
    """Sequential worker over a pool directory of CSV batches.

    Each poll picks the oldest file (lexicographic order equals creation
    order for collector output), runs the configured discovery, publishes the
    CausalModel on the bus, then deletes the file. Files that cannot be read
    or analysed are moved to a quarantine subdirectory and never silently
    deleted. Runs either inline (process_once / drain) or in a background
    thread (start / stop).
    """

    def __init__(self, pool_dir: str | Path, params: DiscoveryParams,
                 te_params: TEParams = TEParams(),
                 bus: MessageBus | None = None,
                 on_model: Callable[[CausalModel, Path], None] | None = None,
                 poll_interval: float = 1.0):
        self.pool_dir = Path(pool_dir)
        if not self.pool_dir.is_dir():
            raise FileNotFoundError(f"pool directory {self.pool_dir} does not exist")
        self.params = params
        self.te_params = te_params
        self.bus = bus
        self.on_model = on_model
        self.poll_interval = poll_interval
        self.quarantine_dir = self.pool_dir / "quarantine"
        self.published = 0
        self.quarantined = 0
        self.processed_files: list[str] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._work_lock = threading.Lock()  # strictly sequential processing

    def _pending(self) -> list[Path]:
        return sorted(p for p in self.pool_dir.iterdir()
                      if p.is_file() and p.suffix == ".csv")

    def _quarantine(self, path: Path) -> None:
        if not path.exists():
            log.error("cannot quarantine %s: file vanished", path.name)
            return
        self.quarantine_dir.mkdir(exist_ok=True)
        target = self.quarantine_dir / path.name
        shutil.move(str(path), str(target))
        self.quarantined += 1
        log.error("quarantined %s -> %s", path.name, target)

    def process_once(self) -> CausalModel | None:
        """Handle the oldest pending file; returns its model, or None if the
        pool is empty (corrupt files are quarantined and the next is tried).

        Serialized internally, so an inline drain is safe while the
        background thread is polling.
        """
        with self._work_lock:
            for path in self._pending():
                try:
                    batch = read_csv(path)
                    # `discover` is looked up at call time, so a wrapper set
                    # on this module (a delay, a timer) sees every batch
                    model = discover(batch, self.params, self.te_params,
                                     batch_id=batch_id_for(path))
                except Exception:
                    log.exception("analysis failed for %s", path.name)
                    self._quarantine(path)
                    continue
                if self.bus is not None:
                    end_time = batch.t0 + max(batch.n_samples - 1, 0) * batch.dt
                    self.bus.publish(MODEL_TOPIC, model, time=end_time)
                self.published += 1
                self.processed_files.append(path.name)
                if self.on_model is not None:
                    try:
                        self.on_model(model, path)
                    except Exception:
                        log.exception("model callback failed for %s", path.name)
                path.unlink()
                return model
            return None

    def drain(self) -> list[CausalModel]:
        """Process until the pool is empty; returns the models in order."""
        models = []
        while True:
            model = self.process_once()
            if model is None and not self._pending():
                return models
            if model is not None:
                models.append(model)

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("watcher already started")
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="pool-watcher",
                                        daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            if self.process_once() is None:
                self._stop.wait(self.poll_interval)

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
