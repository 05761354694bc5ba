"""Statistical kernel for the discovery stage.

Two conditional-independence tests are provided:

  * parcorr_test      linear partial correlation with a Student-t p-value;
  * kridge_dcor_test  nonlinear residuals via RBF kernel ridge regression
                      (median-heuristic bandwidth) plus distance correlation
                      of the residuals with a permutation p-value.

kridge_dcor_test plays the role of a GPDC-style test: the kernel ridge fit is
the Gaussian-process posterior mean under fixed hyperparameters, which keeps
the nonlinear-residual + distance-correlation structure at a fraction of the
cost of full GP hyperparameter optimization.

Transfer entropy (binned plug-in estimator with circular-shift surrogates)
supplies the feature-selection filter used by F-PCMCI.

Everything here is pure given (inputs, seed) and therefore safe to evaluate
in parallel across independent tests.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

log = logging.getLogger(__name__)


class KernelSolveError(RuntimeError):
    """Kernel ridge system stayed singular after ridge escalation."""


@dataclass(frozen=True)
class CITestResult:
    """Outcome of one conditional-independence query."""

    statistic: float
    p_value: float
    n_effective: int
    dependent: bool

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p_value must be in [0,1], got {self.p_value}")
        if not math.isfinite(self.statistic):
            raise ValueError(f"statistic must be finite, got {self.statistic}")
        if self.n_effective < 3:
            raise ValueError(f"n_effective must be >= 3, got {self.n_effective}")


@dataclass(frozen=True)
class KernelRegParams:
    """Kernel ridge / permutation settings; bandwidth is always the median
    heuristic on pairwise distances."""

    ridge: float = 1e-3
    permutations: int = 200

    def __post_init__(self) -> None:
        if not self.ridge > 0:
            raise ValueError(f"ridge must be > 0, got {self.ridge}")
        if self.permutations < 50:
            raise ValueError(f"permutations must be >= 50, got {self.permutations}")


@dataclass(frozen=True)
class TEParams:
    """Transfer-entropy estimator settings."""

    k: int = 1
    bins: int = 8
    shuffles: int = 100
    quantile: float = 0.95

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"history k must be >= 1, got {self.k}")
        if self.bins < 2:
            raise ValueError(f"bins must be >= 2, got {self.bins}")
        if self.shuffles < 1:
            raise ValueError(f"shuffles must be >= 1, got {self.shuffles}")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile must be in (0,1), got {self.quantile}")


def _as_series(x, name: str = "series") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _column_matrix(Z) -> np.ndarray:
    """Stack a list of series into an (n, k) matrix; empty list -> (n?, 0)."""
    cols = [_as_series(z, "conditioning series") for z in Z]
    if not cols:
        return np.empty((0, 0))
    return np.column_stack(cols)


def pearson(x, y) -> float:
    """Sample Pearson correlation; constant input yields 0 (independent)."""
    x = _as_series(x, "x")
    y = _as_series(y, "y")
    if len(x) != len(y) or len(x) < 3:
        raise ValueError(f"need equal lengths >= 3, got {len(x)} and {len(y)}")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom <= 0.0:
        return 0.0
    return float(np.clip((xc @ yc) / denom, -1.0, 1.0))


def residualize_linear(target, Z) -> np.ndarray:
    """Residuals of a least-squares fit of target on Z plus an intercept.

    Rank-deficient Z is tolerated (lstsq minimum-norm solution; logged).
    """
    y = _as_series(target, "target")
    Zm = _column_matrix(Z)
    n = len(y)
    k = Zm.shape[1] if Zm.size else 0
    if k >= n - 2:
        raise ValueError(f"need |Z| < n - 2, got |Z|={k}, n={n}")
    if k == 0:
        return y - y.mean()
    design = np.column_stack([np.ones(n), Zm])
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        log.debug("rank-deficient conditioning set (rank %d < %d); proceeding",
                  rank, design.shape[1])
    return y - design @ beta


def parcorr_test(x, y, Z=(), alpha: float = 0.05) -> CITestResult:
    """Linear partial-correlation CI test with a two-sided Student-t p-value."""
    x = _as_series(x, "x")
    y = _as_series(y, "y")
    if len(x) != len(y):
        raise ValueError("x and y must have equal lengths")
    n = len(x)
    n_eff = max(n, 3)
    if x.std() == 0.0 or y.std() == 0.0:
        return CITestResult(statistic=0.0, p_value=1.0, n_effective=n_eff, dependent=False)
    dof = n - len(tuple(Z)) - 2
    if dof < 1:
        return CITestResult(statistic=0.0, p_value=1.0, n_effective=n_eff, dependent=False)
    rx = residualize_linear(x, Z)
    ry = residualize_linear(y, Z)
    r = pearson(rx, ry)
    if 1.0 - r * r < 1e-15:
        p = 0.0
    else:
        t = r * math.sqrt(dof / (1.0 - r * r))
        p = float(2.0 * sps.t.sf(abs(t), dof))
    return CITestResult(statistic=r, p_value=p, n_effective=n_eff, dependent=p <= alpha)


def median_bandwidth(sq: np.ndarray) -> float:
    """Median of nonzero pairwise Euclidean distances, given the (n, n) matrix
    of squared distances; 1.0 on degenerate input."""
    dist = np.sqrt(sq)
    upper = dist[np.triu_indices(len(sq), k=1)]
    positive = upper[upper > 0]
    if positive.size == 0:
        return 1.0
    return float(np.median(positive))


def kernel_ridge_residuals(target, Z, params: KernelRegParams = KernelRegParams()) -> np.ndarray:
    """Residuals target - f(Z) from an RBF kernel ridge fit.

    Conditioning columns are standardized before the median-heuristic
    bandwidth is computed; the target is standardized for the solve and the
    residuals are returned in original units. A singular kernel system
    escalates the ridge by 10x up to 3 times before giving up.
    """
    y = _as_series(target, "target")
    Zm = _column_matrix(Z)
    if Zm.size == 0:
        raise ValueError("Z must be non-empty; center the target instead")
    n = len(y)
    if n < 10:
        raise ValueError(f"need n >= 10, got {n}")
    if Zm.shape[0] != n:
        raise ValueError("target and conditioning series lengths differ")

    col_std = Zm.std(axis=0)
    informative = col_std > 0
    if not informative.any():
        return y - y.mean()
    Zs = (Zm[:, informative] - Zm[:, informative].mean(axis=0)) / col_std[informative]

    y_mean = y.mean()
    y_sd = y.std()
    if y_sd == 0.0:
        return np.zeros(n)
    ys = (y - y_mean) / y_sd

    sq = ((Zs[:, None, :] - Zs[None, :, :]) ** 2).sum(axis=2)
    bandwidth = median_bandwidth(sq)
    K = np.exp(-sq / (2.0 * bandwidth * bandwidth))

    ridge = params.ridge
    for attempt in range(4):
        try:
            coef = np.linalg.solve(K + ridge * np.eye(n), ys)
            break
        except np.linalg.LinAlgError:
            if attempt == 3:
                raise KernelSolveError(
                    f"kernel system singular even at ridge={ridge}"
                ) from None
            ridge *= 10.0
            log.warning("kernel system singular; escalating ridge to %g", ridge)
    fitted = K @ coef
    return (ys - fitted) * y_sd


def _centered_distance_matrix(x: np.ndarray) -> np.ndarray:
    d = np.abs(x[:, None] - x[None, :])
    row = d.mean(axis=1, keepdims=True)
    col = d.mean(axis=0, keepdims=True)
    return d - row - col + d.mean()


def distance_correlation(x, y) -> float:
    """Sample distance correlation in [0, 1] via double-centered distance
    matrices; 0 for constant input."""
    x = _as_series(x, "x")
    y = _as_series(y, "y")
    if len(x) != len(y) or len(x) < 4:
        raise ValueError(f"need equal lengths >= 4, got {len(x)} and {len(y)}")
    A = _centered_distance_matrix(x)
    B = _centered_distance_matrix(y)
    dvar_x = float((A * A).mean())
    dvar_y = float((B * B).mean())
    if dvar_x <= 0.0 or dvar_y <= 0.0:
        return 0.0
    dcov2 = max(float((A * B).mean()), 0.0)
    return float(min(math.sqrt(dcov2 / math.sqrt(dvar_x * dvar_y)), 1.0))


def dcor_perm_test(x, y, params: KernelRegParams = KernelRegParams(), seed: int = 0) -> float:
    """Permutation p-value for distance correlation, +1/+1 smoothed.

    p = (1 + #{permuted dcor >= observed}) / (1 + permutations), permuting y
    with a seeded generator. Double-centering commutes with permutation, so
    the centered matrices are computed once.
    """
    x = _as_series(x, "x")
    y = _as_series(y, "y")
    if len(x) != len(y) or len(x) < 4:
        raise ValueError(f"need equal lengths >= 4, got {len(x)} and {len(y)}")
    n = len(x)
    A = _centered_distance_matrix(x)
    B = _centered_distance_matrix(y)
    dvar_x = float((A * A).mean())
    dvar_y = float((B * B).mean())
    if dvar_x <= 0.0 or dvar_y <= 0.0:
        return 1.0
    denom = math.sqrt(dvar_x * dvar_y)
    observed = math.sqrt(max(float((A * B).mean()), 0.0) / denom)
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(params.permutations):
        perm = rng.permutation(n)
        dcov2 = max(float((A * B[np.ix_(perm, perm)]).mean()), 0.0)
        if math.sqrt(dcov2 / denom) >= observed:
            exceed += 1
    return (1 + exceed) / (1 + params.permutations)


def kridge_dcor_test(x, y, Z=(), params: KernelRegParams = KernelRegParams(),
                     seed: int = 0, alpha: float = 0.05) -> CITestResult:
    """Nonlinear CI test: kernel-ridge residuals + distance correlation.

    With Z empty this reduces to the permutation dcor test on centered series.
    """
    x = _as_series(x, "x")
    y = _as_series(y, "y")
    if len(x) != len(y):
        raise ValueError("x and y must have equal lengths")
    n = len(x)
    n_eff = max(n, 3)
    if x.std() == 0.0 or y.std() == 0.0:
        return CITestResult(statistic=0.0, p_value=1.0, n_effective=n_eff, dependent=False)
    Z = tuple(Z)
    if Z:
        rx = kernel_ridge_residuals(x, Z, params)
        ry = kernel_ridge_residuals(y, Z, params)
    else:
        rx = x - x.mean()
        ry = y - y.mean()
    if rx.std() == 0.0 or ry.std() == 0.0:
        return CITestResult(statistic=0.0, p_value=1.0, n_effective=n_eff, dependent=False)
    statistic = distance_correlation(rx, ry)
    p = dcor_perm_test(rx, ry, params, seed=seed)
    return CITestResult(statistic=statistic, p_value=p, n_effective=n_eff,
                        dependent=p <= alpha)


def _bin_codes(series: np.ndarray, bins: int) -> np.ndarray:
    lo = series.min()
    hi = series.max()
    if hi <= lo:
        return np.zeros(len(series), dtype=np.int64)
    codes = ((series - lo) / (hi - lo) * bins).astype(np.int64)
    return np.clip(codes, 0, bins - 1)


def _history_code(codes: np.ndarray, k: int, bins: int, t_start: int) -> np.ndarray:
    """Combine codes[t-1..t-k] into one integer state per time t >= t_start."""
    n = len(codes)
    out = np.zeros(n - t_start, dtype=np.int64)
    for lag in range(1, k + 1):
        out = out * bins + codes[t_start - lag:n - lag]
    return out


def transfer_entropy(src, dst, params: TEParams = TEParams()) -> float:
    """Plug-in estimate (nats) of I(dst_t ; src past | dst past).

    Equal-width binning per series; history length params.k. The plug-in
    conditional mutual information is non-negative by construction and is
    clamped at 0 against round-off. Constant series give 0.
    """
    src = _as_series(src, "src")
    dst = _as_series(dst, "dst")
    if len(src) != len(dst):
        raise ValueError("src and dst must have equal lengths")
    n = len(src)
    if n < 50:
        raise ValueError(f"need length >= 50, got {n}")
    if src.std() == 0.0 or dst.std() == 0.0:
        return 0.0
    bins, k = params.bins, params.k
    src_codes = _bin_codes(src, bins)
    dst_codes = _bin_codes(dst, bins)
    y_now = dst_codes[k:]
    y_past = _history_code(dst_codes, k, bins, k)
    x_past = _history_code(src_codes, k, bins, k)
    m = len(y_now)

    states = bins ** k
    abc = (y_now * states + y_past) * states + x_past
    n_abc = np.bincount(abc)
    n_ab = np.bincount(y_now * states + y_past)
    n_bc = np.bincount(y_past * states + x_past)
    n_b = np.bincount(y_past)

    counts = n_abc[abc].astype(np.float64)
    joint_ab = n_ab[y_now * states + y_past].astype(np.float64)
    joint_bc = n_bc[y_past * states + x_past].astype(np.float64)
    marg_b = n_b[y_past].astype(np.float64)
    te = float(np.mean(np.log(counts * marg_b / (joint_ab * joint_bc))))
    return max(te, 0.0)


def te_significance(src, dst, params: TEParams = TEParams(),
                    seed: int = 0) -> tuple[float, float, bool]:
    """Transfer entropy against a circular-shift surrogate threshold.

    Returns (te, threshold, significant) where the threshold is the
    params.quantile quantile of TE over shuffles circular shifts of src;
    circular shifts preserve the source's autocorrelation. Shifts keep a
    guard band away from zero: a nearly-unshifted surrogate still carries
    the genuine coupling at adjacent lags and would contaminate the null.
    """
    src = _as_series(src, "src")
    dst = _as_series(dst, "dst")
    te = transfer_entropy(src, dst, params)
    rng = np.random.default_rng(seed)
    n = len(src)
    guard = min(max(10, params.k + 1), n // 4)
    surrogates = np.empty(params.shuffles)
    for i in range(params.shuffles):
        shift = int(rng.integers(guard, n - guard + 1))
        surrogates[i] = transfer_entropy(np.roll(src, shift), dst, params)
    threshold = float(np.quantile(surrogates, params.quantile))
    return te, threshold, te > threshold
