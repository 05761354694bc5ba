"""Synthetic lagged structural causal models with known ground truth.

Used to validate the discovery stage against graphs we actually know, which
the bundled interaction scenario cannot provide. All edges point strictly
forward in time (lag >= 1), so the unrolled graph is acyclic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .timeseries import TimeSeriesBatch

BURN_IN = 200
EXPLOSION_LIMIT = 1e6

LINK_FUNCTIONS = {
    "linear": lambda u: u,
    "tanh": np.tanh,
    "quadratic": lambda u: u * u,
}


class SpecUnstableError(RuntimeError):
    """Simulated dynamics exceeded the explosion limit."""


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    lag: int
    coefficient: float
    link_function: str = "linear"

    def __post_init__(self) -> None:
        if self.lag < 1:
            raise ValueError(f"edge lags must be >= 1, got {self.lag}")
        if self.link_function not in LINK_FUNCTIONS:
            raise ValueError(
                f"unknown link function {self.link_function!r}; "
                f"known: {sorted(LINK_FUNCTIONS)}"
            )


@dataclass(frozen=True)
class SCMSpec:
    n_vars: int
    edges: tuple[Edge, ...] = ()
    noise_std: float | tuple[float, ...] = 1.0
    n_samples: int = 500
    seed: int = 0
    name: str = "scm"

    def __post_init__(self) -> None:
        if self.n_vars < 1:
            raise ValueError(f"n_vars must be >= 1, got {self.n_vars}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        for e in self.edges:
            if not (0 <= e.source < self.n_vars and 0 <= e.target < self.n_vars):
                raise ValueError(f"edge {e} references a variable outside [0,{self.n_vars})")
        stds = self.noise_std
        if np.isscalar(stds):
            stds = (float(stds),) * self.n_vars
        else:
            stds = tuple(float(s) for s in stds)
        if len(stds) != self.n_vars:
            raise ValueError(f"need {self.n_vars} noise stds, got {len(stds)}")
        if any(s < 0 for s in stds):
            raise ValueError("noise stds must be >= 0")
        object.__setattr__(self, "noise_std", stds)

    @property
    def truth(self) -> frozenset[tuple[int, int, int]]:
        return frozenset((e.source, e.target, e.lag) for e in self.edges)


def generate(spec: SCMSpec) -> tuple[TimeSeriesBatch, frozenset[tuple[int, int, int]]]:
    """Simulate the SCM and return (batch, ground-truth edge set).

    X[t, j] = sum over edges into j of coeff * f(X[t - lag, source]) + noise;
    the first BURN_IN + max_lag steps are discarded.
    """
    rng = np.random.default_rng(spec.seed)
    max_lag = max((e.lag for e in spec.edges), default=1)
    total = spec.n_samples + BURN_IN + max_lag
    X = rng.normal(0.0, spec.noise_std, size=(total, spec.n_vars))
    funcs = [(e.target, e.source, e.lag, e.coefficient, LINK_FUNCTIONS[e.link_function])
             for e in spec.edges]
    for t in range(max_lag, total):
        row = X[t]
        for target, source, lag, coeff, f in funcs:
            row[target] += coeff * f(X[t - lag, source])
        if np.abs(row).max() > EXPLOSION_LIMIT:
            raise SpecUnstableError(
                f"spec {spec.name!r} exploded at step {t} (|value| > {EXPLOSION_LIMIT:g})"
            )
    rows = X[-spec.n_samples:]
    names = [f"X{i}" for i in range(spec.n_vars)]
    batch = TimeSeriesBatch(variable_names=names, t0=0.0, dt=1.0, rows=rows)
    return batch, spec.truth


@dataclass(frozen=True)
class GraphScore:
    precision: float
    recall: float
    f1: float
    false_positives: int
    false_negatives: int


def score(estimated, truth) -> GraphScore:
    """Precision/recall/F1 over directed (source, target, lag) triples.

    `estimated` is a CausalModel (anything exposing edge_set(), n_vars and
    the lag range); an estimate with no predictions has precision 1 by
    convention, an empty truth has recall 1.
    """
    n_vars = len(estimated.variable_names)
    truth = frozenset(tuple(e) for e in truth)
    for (i, j, lag) in truth:
        if not (0 <= i < n_vars and 0 <= j < n_vars):
            raise ValueError(f"truth edge ({i},{j},{lag}) outside {n_vars} variables")
        if not (estimated.tau_min <= lag <= estimated.tau_max):
            raise ValueError(
                f"truth edge lag {lag} outside model range "
                f"[{estimated.tau_min},{estimated.tau_max}]"
            )
    predicted = estimated.edge_set()
    tp = len(predicted & truth)
    fp = len(predicted - truth)
    fn = len(truth - predicted)
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / (tp + fn) if (tp + fn) else 1.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return GraphScore(precision=precision, recall=recall, f1=f1,
                      false_positives=fp, false_negatives=fn)
