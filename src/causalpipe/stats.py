"""Statistical kernel for the discovery stage.

Two conditional-independence tests are provided:

  * parcorr_test      linear partial correlation with a Student-t p-value;
  * kridge_dcor_test  nonlinear residuals via RBF kernel ridge regression
                      (median-heuristic bandwidth) plus distance correlation
                      of the residuals with a permutation p-value.

parcorr_test takes its two-sided tail from scipy.special.stdtr, the Student-t
CDF that scipy.stats.t.sf wraps: t.sf(x, df) is stdtr(df, -x) for a finite x
with loc 0 and scale 1, so the p-value has the same bits. It is the only SciPy
function the package uses, and parcorr_test imports it where it needs it, so
a program that never runs parcorr never loads SciPy (its import is most of
the package's start-up time and about 20 MB), and the first parcorr test of
a process pays the import, a few tenths of a second.

kridge_dcor_test plays the role of a GPDC-style test: the kernel ridge fit is
the Gaussian-process posterior mean under fixed hyperparameters, which keeps
the nonlinear-residual + distance-correlation structure at a fraction of the
cost of full GP hyperparameter optimization.

The permutation p-value of kridge_dcor_test never builds an n x n matrix per
permutation. With a_ij = |x_i - x_j| and b_ij = |y_i - y_j|, the squared
distance covariance of x and y permuted by pi is S1(pi) + S2 - 2 S3(pi):
S1 = sum_ij a_ij b_pi(i)pi(j) / n^2 is, once x is sorted, prefix sums plus a
weighted inversion count, O(n log n) by a bottom-up merge; S2, the product of
the distance sums over n^4, is the same for every permutation; and
S3 = sum_i a_i. b_pi(i). / n^3 needs only the row sums, O(n). So a test with
P permutations costs O(P n log n), against O(P n^2) for permuting a centred
distance matrix, and returns the same p-value.

Transfer entropy (binned plug-in estimator with circular-shift surrogates)
supplies the feature-selection filter used by F-PCMCI.

A CI test returns a statistic and a p-value; discovery.py applies the
significance thresholds.

Every call here is pure given (inputs, seed): no test reads or writes state
shared with another. The one exception is scoped to a batch: discovery.py
gives the CI tests of one phase of one batch a ResidualCache, which serves
both tests. It validates each series once (a contiguous copy, checked finite,
with its standard deviation), builds one design per conditioning set (the
RBF kernel for kridge_dcor_test, the [1, Z] least-squares matrix for
parcorr_test), and fits each series once per conditioning set. A test called
without a cache makes a private one, so there is one code path, and a cached
residual is the one a fresh call returns, bit for bit: sharing it changes no
result, and the cache goes with the batch. The cache is a plain memo with no
lock, so threads that share it never wait for each other; two that ask for a
missing entry at once may both compute it, and both get the one stored copy.
discovery.py relies on this to run independent tests concurrently on a
thread pool. Threads overlap only where numpy releases the interpreter lock
(argsorts, gathers, cumulative sums, ufunc loops over large arrays, and the
kernel-ridge solve, which gets a column right-hand side because the 1-D form
holds the lock), which is why work is done in few large array operations
rather than many small ones: te_significance scores all its surrogate shifts
at once.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


class KernelSolveError(RuntimeError):
    """Kernel ridge system stayed singular after ridge escalation."""


@dataclass(frozen=True)
class CITestResult:
    """Outcome of one CI query: a finite statistic and a p-value in [0, 1]."""

    statistic: float
    p_value: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p_value must be in [0,1], got {self.p_value}")
        if not math.isfinite(self.statistic):
            raise ValueError(f"statistic must be finite, got {self.statistic}")


# What a test reports when the data cannot show dependence.
INDEPENDENT = CITestResult(statistic=0.0, p_value=1.0)


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


# The most cells one shift's joint-count table may hold: bins ** (2k + 1).
TE_MAX_TABLE_CELLS = 1 << 22


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
        # as bins >= 2, an exponent capped at the bound's bit length decides it
        if self.bins ** min(2 * self.k + 1, TE_MAX_TABLE_CELLS.bit_length()) > TE_MAX_TABLE_CELLS:
            raise ValueError(f"bins ** (2k + 1), the cells of one shift's count table, must be "
                             f"<= {TE_MAX_TABLE_CELLS}; got bins {self.bins}, k {self.k}")
        if self.shuffles < 1:
            raise ValueError(f"shuffles must be >= 1, got {self.shuffles}")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile must be in (0,1), got {self.quantile}")


def _as_series(x, name: str = "series") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size and not np.isfinite(arr).all():
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
    return _pearson(_as_series(x, "x"), _as_series(y, "y"))


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """pearson() of two series as _as_series gives them, without checking
    them again."""
    if len(x) != len(y) or len(x) < 3:
        raise ValueError(f"need equal lengths >= 3, got {len(x)} and {len(y)}")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom <= 0.0:
        return 0.0
    # clipped as np.clip would, without its dispatch on a scalar
    return min(max(float((xc @ yc) / denom), -1.0), 1.0)


def linear_design(columns: list[np.ndarray]) -> np.ndarray | None:
    """The least-squares design [1, Z]: an intercept column, then the columns
    of Z, each as _as_series gives it (they are not checked again); None when
    Z is empty."""
    if not columns:
        return None
    return np.column_stack([np.ones(len(columns[0])), *columns])


def residualize_linear(target, Z) -> np.ndarray:
    """Residuals of a least-squares fit of target on Z plus an intercept.

    Rank-deficient Z is tolerated (lstsq minimum-norm solution; logged).
    """
    y = _as_series(target, "target")
    return _linear_residuals(
        y, linear_design([_as_series(z, "conditioning series") for z in Z]))


def _linear_residuals(y: np.ndarray, design: np.ndarray | None) -> np.ndarray:
    """residualize_linear() of a series as _as_series gives it, on Z's
    linear_design(), without checking either again."""
    n = len(y)
    k = 0 if design is None else design.shape[1] - 1
    if k >= n - 2:
        raise ValueError(f"need |Z| < n - 2, got |Z|={k}, n={n}")
    if k == 0:
        return y - y.mean()
    if design.shape[0] != n:
        raise ValueError("target and conditioning series lengths differ")
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        log.debug("rank-deficient conditioning set (rank %d < %d); proceeding",
                  rank, design.shape[1])
    return y - design @ beta


# Smallest p-value a test reports: a present link never carries pval 0.0,
# which the exported model reserves for absent links.
_P_FLOOR = float(np.nextafter(0.0, 1.0))


# A residual whose variance is at most this share of its input's variance
# has collapsed: Z determines the series, and what is left is round-off.
_COLLAPSED = 1e-12


def parcorr_test(x, y, Z=(), cache: ResidualCache | None = None,
                 keys: tuple | None = None) -> CITestResult:
    """Linear partial-correlation CI test with a two-sided Student-t p-value.

    The p-value is floored at the smallest positive float, also for |r| = 1,
    so that a dependent result never reads as the 0.0 of an absent link.
    When Z determines x or y (its residual variance collapses to round-off),
    the dependence is undetermined and the test reports p = 1, independent:
    correlating round-off would report a spurious link.

    With a `cache`, `keys` = (x key, y key, Z key) name the series within its
    phase (the Z key is the tuple of its columns' keys), and the validated
    series, Z's design and the residuals are shared with the other tests that
    use the cache; without one, the test makes a private cache.
    """
    Z = tuple(Z)
    if cache is None:
        cache, keys = ResidualCache(), _private_keys(len(Z))
    x_key, y_key, Z_key = keys
    x, sx = cache.series(x_key, x, "x")
    y, sy = cache.series(y_key, y, "y")
    if len(x) != len(y):
        raise ValueError("x and y must have equal lengths")
    n = len(x)
    if sx == 0.0 or sy == 0.0:
        return INDEPENDENT
    dof = n - len(Z) - 2
    if dof < 1:
        return INDEPENDENT
    rx = cache.residuals(x_key, x, Z_key, Z, linear=True)
    ry = cache.residuals(y_key, y, Z_key, Z, linear=True)
    # Residuals of a fit with an intercept have mean 0: r @ r / n is their variance.
    if rx @ rx <= _COLLAPSED * n * sx * sx or ry @ ry <= _COLLAPSED * n * sy * sy:
        return INDEPENDENT
    r = _pearson(rx, ry)  # the cache's residuals, of series it checked
    if 1.0 - r * r < 1e-15:
        p = _P_FLOOR
    else:
        from scipy.special import stdtr  # the first call pays SciPy's import

        t = r * math.sqrt(dof / (1.0 - r * r))
        p = max(float(2.0 * stdtr(dof, -abs(t))), _P_FLOOR)
    return CITestResult(statistic=r, p_value=p)


def rbf_kernel(Z) -> np.ndarray | None:
    """RBF kernel matrix over the standardised columns of Z that vary, with the
    median nonzero pairwise distance (or 1.0) as bandwidth; None when no column varies."""
    Zm = _column_matrix(Z)
    col_std = Zm.std(axis=0)
    informative = col_std > 0
    if not informative.any():
        return None
    Zs = (Zm[:, informative] - Zm[:, informative].mean(axis=0)) / col_std[informative]
    sq = ((Zs[:, None, :] - Zs[None, :, :]) ** 2).sum(axis=2)
    upper = sq[np.triu_indices(len(sq), k=1)]
    distances = np.sqrt(upper[upper > 0])
    bandwidth = float(np.median(distances)) if distances.size else 1.0
    return np.exp(-sq / (2.0 * bandwidth * bandwidth))


def kernel_ridge_residuals(target, Z, params: KernelRegParams = KernelRegParams(),
                           kernel: np.ndarray | None = None) -> np.ndarray:
    """Residuals target - f(Z) from an RBF kernel ridge fit.

    Conditioning columns are standardized before the median-heuristic
    bandwidth is computed; the target is standardized for the solve and the
    residuals are returned in original units. A singular kernel system
    escalates the ridge by 10x up to 3 times before giving up. `kernel` is
    rbf_kernel(Z), when the caller already has it.
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
    if not (Zm.std(axis=0) > 0).any():
        return y - y.mean()

    y_mean = y.mean()
    y_sd = y.std()
    if y_sd == 0.0:
        return np.zeros(n)
    ys = (y - y_mean) / y_sd

    K = rbf_kernel(Z) if kernel is None else kernel
    ridge = params.ridge
    for attempt in range(4):
        system = K.copy()
        system[np.diag_indices(n)] += ridge
        try:
            # A column right-hand side: the same bits as a 1-D one, but the
            # solve releases the interpreter lock.
            coef = np.linalg.solve(system, ys[:, None])[:, 0]
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


# What a ResidualCache lookup gives for a key it holds no entry for.
_MISSING = object()


def _private_keys(k: int) -> tuple:
    """Keys for a test's own cache: x, y, and Z's k columns by position."""
    return "x", "y", tuple(range(k))


class ResidualCache:
    """The CI-test work shared by the tests of one phase of one batch, for
    either test (discovery makes one for each phase; a test called without
    one makes its own).

    The caller names each series by a key that fixes its values within the
    phase (discovery uses the lagged variable), and a conditioning set by the
    tuple of its columns' keys. The cache holds:
      * each series, validated once as _as_series gives it (a contiguous
        copy of a strided view), with its standard deviation;
      * one design per conditioning key: rbf_kernel(Z) for kridge_dcor_test,
        linear_design(Z) for parcorr_test;
      * each residual, once per (series key, conditioning key), from
        kernel_ridge_residuals given that design, or from the least-squares
        fit of residualize_linear on the checked series and design, which it
        does not check again.
    Each comes from the function a fresh call uses, on the same arrays, so a
    cached value is the one a fresh call gives, bit for bit. Residuals are
    handed out read-only.

    It is a plain memo: a request for a missing entry computes it and stores
    it with dict.setdefault, without a lock. Threads that ask for the same
    missing entry at once may each compute it; the duplicates have the same
    bits, and setdefault hands every caller the one stored object. A failed
    computation stores nothing, so a later request tries again. Create one
    per phase and let it go with the phase.
    """

    def __init__(self, params: KernelRegParams = KernelRegParams()):
        self.params = params
        self._entries: dict = {}

    def _memo(self, key, compute):
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            value = self._entries.setdefault(key, compute())
        return value

    def series(self, key, values, name: str = "series") -> tuple[np.ndarray, float]:
        """The series `values` as _as_series gives them, and their std."""
        def validate() -> tuple[np.ndarray, float]:
            arr = _as_series(values, name)
            return arr, arr.std()

        return self._memo(("series", key), validate)

    def _columns(self, Z_key: tuple, Z) -> list[np.ndarray]:
        if len(Z_key) != len(Z):
            raise ValueError(f"need one key per conditioning series, got {len(Z_key)} "
                             f"for {len(Z)}")
        return [self.series(k, z, "conditioning series")[0] for k, z in zip(Z_key, Z)]

    def residuals(self, target_key, target, Z_key: tuple, Z,
                  linear: bool = False) -> np.ndarray:
        """The residuals of `target` given Z: the least-squares fit of
        residualize_linear when `linear`, else the kernel-ridge fit of
        kernel_ridge_residuals with the cache's params. `target` is the
        series as series() gave it."""
        def linear_fit() -> np.ndarray:
            design = None  # an empty Z has none: the residual is the centred target
            if Z:
                design = self._memo(("linear design", Z_key),
                                    lambda: linear_design(self._columns(Z_key, Z)))
            return _linear_residuals(target, design)

        def kernel_fit() -> np.ndarray:
            columns = self._columns(Z_key, Z)
            kernel = self._memo(("rbf kernel", Z_key), lambda: rbf_kernel(columns))
            return kernel_ridge_residuals(target, columns, self.params, kernel=kernel)

        def fit() -> np.ndarray:
            r = linear_fit() if linear else kernel_fit()
            r.flags.writeable = False
            return r

        kind = "linear fit" if linear else "kernel ridge fit"
        return self._memo((kind, target_key, Z_key), fit)


def _centered_distance_matrix(x: np.ndarray) -> np.ndarray:
    d = np.subtract.outer(x, x)
    np.abs(d, out=d)
    row = d.mean(axis=1, keepdims=True)
    col = d.mean(axis=0, keepdims=True)
    grand = d.mean()
    d -= row
    d -= col
    d += grand
    return d


def distance_correlation(x, y) -> float:
    """Sample distance correlation in [0, 1] via double-centered distance
    matrices; 0 for constant input."""
    x = _as_series(x, "x")
    y = _as_series(y, "y")
    if len(x) != len(y) or len(x) < 4:
        raise ValueError(f"need equal lengths >= 4, got {len(x)} and {len(y)}")
    A = _centered_distance_matrix(x)
    B = _centered_distance_matrix(y)
    product = np.multiply(A, A)
    dvar_x = float(product.mean())
    dvar_y = float(np.multiply(B, B, out=product).mean())
    if dvar_x <= 0.0 or dvar_y <= 0.0:
        return 0.0
    dcov2 = max(float(np.multiply(A, B, out=product).mean()), 0.0)
    return float(min(math.sqrt(dcov2 / math.sqrt(dvar_x * dvar_y)), 1.0))


# Permutations are scored in chunks of this many rows, so the default 201
# rows (the observed one and 200 permutations) take two chunks. Each numpy
# call of the merge is a point where concurrent tests trade the interpreter
# lock, so fewer, taller chunks mean fewer hand-offs; one chunk of 201 rows
# is slower again, its working set no longer fits in cache. Every row is
# computed on its own, so the result does not depend on the chunk height.
_PERM_CHUNK = 101
# Width, relative to the size of the dCov^2 terms, of the band in which an
# O(n log n) value is too close to the observed one to order. Its rounding
# error against the O(n^2) form measures below 1e-15 on the same scale.
_TIE_TOL = 1e-9


def _distance_row_sums(v: np.ndarray) -> np.ndarray:
    """Row sums sum_j |v_i - v_j| in O(n log n), from the count and the sum
    of the values below and above each v_i; tied values get bit-identical
    row sums."""
    n = len(v)
    s = np.sort(v)
    csum = np.concatenate(([0.0], np.cumsum(s)))
    lo = np.searchsorted(s, v, side="left")
    hi = np.searchsorted(s, v, side="right")
    return (v * lo - csum[lo]) + ((csum[n] - csum[hi]) - v * (n - hi))


def _sorted_abs_cross_sums(xs: np.ndarray, W: np.ndarray) -> np.ndarray:
    """sum_{i<j} (xs[j] - xs[i]) * |W[r, j] - W[r, i]| for every row r of W,
    with xs sorted ascending, in O(n log n) per row.

    |d| = d + 2 max(-d, 0) splits the sum into
    n sum(xs w) - sum(xs) sum(w), plus twice the inversion term: the sum of
    (xs_j - xs_i)(w_i - w_j) over i < j with w_i > w_j. A bottom-up merge over
    position blocks collects the inversion term, level by level, for the pairs
    with i in a left block and j in its right neighbour. Expanded, a pair adds
    x_j w_i + w_j x_i - x_j w_j - x_i w_i. The first two terms need, for each
    right entry, the sums of w and x over the larger left entries: suffix sums
    of the merged block. The last two need only how many entries of the other
    block each entry passes in the merge, |merged index - own index|. Rows are
    padded to a power of two with x = 0 and w = the row maximum, which add
    exactly 0.
    """
    rows, n = W.shape
    m = 1 << max(n - 1, 1).bit_length()
    X = np.zeros((rows, m))
    X[:, :n] = xs
    Wp = np.empty((rows, m))
    Wp[:, :n] = W
    Wp[:, n:] = W.max(axis=1, keepdims=True)
    inversions = np.zeros(rows)
    # Every level reuses these: the merged w and x, a 0/1 mask, the two
    # suffix sums and a product. Multiplying by the mask writes 0 where
    # np.where would, up to the sign of a zero, which no sum can show.
    Wm, Xm, mask, sw, sx, prod = (np.empty((rows, m)) for _ in range(6))
    half = 1
    while half < m:
        shape = (rows, m // (2 * half), 2 * half)
        # Merge each (left, right) pair of sorted blocks. The stable sort keeps
        # ties in position order, so a left entry after a right one has larger w.
        if half == 1:
            # a stable argsort of two values is one comparison
            order = np.empty(shape, dtype=np.intp)
            w2 = Wp.reshape(shape)
            np.greater(w2[..., 0], w2[..., 1], out=order[..., 0])
            np.subtract(1, order[..., 0], out=order[..., 1])
        else:
            order = np.argsort(Wp.reshape(shape), axis=-1, kind="stable")
        # One flat index, block offset plus merged order, gathers both arrays
        # (mode="clip" lets take write straight into `out`; no index is clipped).
        flat = order + np.arange(0, rows * m, 2 * half).reshape(rows, -1, 1)
        np.take(Wp, flat, out=Wm.reshape(shape), mode="clip")
        np.take(X, flat, out=Xm.reshape(shape), mode="clip")
        Wp, Wm, X, Xm = Wm, Wp, Xm, X
        w3, x3, m3 = Wp.reshape(shape), X.reshape(shape), mask.reshape(shape)
        sw3, sx3, prod3 = sw.reshape(shape), sx.reshape(shape), prod.reshape(shape)
        np.less(order, half, out=m3)
        np.multiply(w3, m3, out=sw3)
        np.multiply(x3, m3, out=sx3)
        if half <= 4:
            # Suffix sums of short blocks column by column: the additions of
            # a reversed cumsum, in its order, without its per-block overhead.
            for k in range(2 * half - 2, -1, -1):
                sw3[..., k] += sw3[..., k + 1]
                sx3[..., k] += sx3[..., k + 1]
        else:
            np.cumsum(sw3[..., ::-1], axis=-1, out=sw3[..., ::-1])
            np.cumsum(sx3[..., ::-1], axis=-1, out=sx3[..., ::-1])
        # A pair term is [right entry] (x sw + w sx) - x w passed, where the
        # mask is flipped to mark right entries and passed = |order - index|.
        np.multiply(x3, sw3, out=sw3)
        np.multiply(w3, sx3, out=sx3)
        np.add(sw3, sx3, out=sw3)
        np.subtract(1.0, m3, out=m3)
        np.multiply(sw3, m3, out=sw3)
        order -= np.arange(2 * half)
        np.abs(order, out=order)
        np.multiply(x3, w3, out=prod3)
        np.multiply(prod3, order, out=prod3)
        np.subtract(sw3, prod3, out=sw3)
        inversions += sw.sum(axis=1)
        half *= 2
    return n * (W * xs).sum(axis=1) - xs.sum() * W.sum(axis=1) + 2.0 * inversions


def _permutation_rows(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """k draws of rng.permutation(n), one a row, in one call: shuffling each
    row of a tiled arange in place takes the same draws from the generator."""
    rows = np.tile(np.arange(n), (k, 1))
    return rng.permuted(rows, axis=1, out=rows)


def _exact_exceedances(x: np.ndarray, y: np.ndarray, perms) -> int:
    """#{permuted dcor >= observed} by the O(n^2) double-centred form, for
    the few permutations whose O(n log n) statistic is too close to call."""
    A = _centered_distance_matrix(x)
    B = _centered_distance_matrix(y)
    denom = math.sqrt(float((A * A).mean()) * float((B * B).mean()))
    observed = math.sqrt(max(float((A * B).mean()), 0.0) / denom)
    return sum(math.sqrt(max(float((A * B[np.ix_(p, p)]).mean()), 0.0) / denom) >= observed
               for p in perms)


def dcor_perm_test(x, y, params: KernelRegParams = KernelRegParams(), seed: int = 0) -> float:
    """Permutation p-value for distance correlation, +1/+1 smoothed.

    p = (1 + #{permuted dcor >= observed}) / (1 + permutations), permuting y
    with np.random.default_rng(seed).permutation(n), one draw per permutation.

    With a_ij = |x_i - x_j| and b_ij = |y_i - y_j|, the V-statistic splits as
    dCov^2(x, y o pi) = S1(pi) + S2 - 2 S3(pi), where
      S1 = sum_ij a_ij b_pi(i)pi(j) / n^2   (O(n log n): _sorted_abs_cross_sums),
      S2 = (sum a)(sum b) / n^4             (the same for every permutation),
      S3 = sum_i a_i. b_pi(i). / n^3        (O(n) from the row sums).
    So a permutation costs O(n log n), not the O(n^2) of permuting a centred
    distance matrix. The observed value is row 0 of the first chunk (the
    identity permutation); dcor is monotone in dCov^2, so dCov^2 is compared.

    A permuted dCov^2 within _TIE_TOL (relative to the size of the terms) of
    the observed one cannot be ordered against it by either form's rounding:
    exact ties land there, such as a swap of tied values or, at very small n,
    a symmetry of the data. Those few permutations are settled by the O(n^2)
    form, so the p-value is the one that form alone gives. Constant x or y
    gives 1.0.
    """
    x = _as_series(x, "x")
    y = _as_series(y, "y")
    if len(x) != len(y) or len(x) < 4:
        raise ValueError(f"need equal lengths >= 4, got {len(x)} and {len(y)}")
    n = len(x)
    if x.min() == x.max() or y.min() == y.max():
        return 1.0
    xc = x - x.mean()
    yc = y - y.mean()
    ra = _distance_row_sums(xc)
    rb = _distance_row_sums(yc)
    order = np.argsort(xc, kind="stable")
    xs = xc[order]
    ra_sorted = ra[order]
    s2 = float(ra.sum()) * float(rb.sum()) / n**4
    rng = np.random.default_rng(seed)
    rows = params.permutations + 1
    observed = scale_observed = 0.0
    exceed = 0
    near = []
    for start in range(0, rows, _PERM_CHUNK):
        count = min(_PERM_CHUNK, rows - start)
        if start == 0:
            perms = np.vstack([np.arange(n), _permutation_rows(rng, count - 1, n)])
        else:
            perms = _permutation_rows(rng, count, n)
        q = perms[:, order]
        s1 = 2.0 * _sorted_abs_cross_sums(xs, yc[q]) / n**2
        s3 = (rb[q] * ra_sorted).sum(axis=1) / n**3
        dcov2 = np.maximum(s1 + s2 - 2.0 * s3, 0.0)
        scale = s1 + s2 + 2.0 * s3
        if start == 0:
            observed, scale_observed = dcov2[0], scale[0]
            perms, dcov2, scale = perms[1:], dcov2[1:], scale[1:]
        gap = dcov2 - observed
        band = _TIE_TOL * (scale + scale_observed)
        exceed += int(np.count_nonzero(gap > band))
        near.extend(perms[np.abs(gap) <= band])
    if near:
        exceed += _exact_exceedances(x, y, near)
    return (1 + exceed) / (1 + params.permutations)


def kridge_dcor_test(x, y, Z=(), params: KernelRegParams = KernelRegParams(),
                     seed: int = 0, cache: ResidualCache | None = None,
                     keys: tuple | None = None) -> CITestResult:
    """Nonlinear CI test: kernel-ridge residuals + distance correlation.

    With Z empty this reduces to the permutation dcor test on centered series.
    With a `cache`, which must be built with the same params (else
    ValueError), `keys` = (x key, y key, Z key) name the series within its
    phase (the Z key is the tuple of its columns' keys), and the validated
    series, Z's kernel and the residuals are shared with the other tests that
    use the cache; without one, the test makes a private cache, so x and y
    still share Z's kernel.
    """
    Z = tuple(Z)
    if cache is None:
        cache, keys = ResidualCache(params), _private_keys(len(Z))
    elif cache.params != params:
        raise ValueError(f"cache fits with {cache.params}, the test was given {params}")
    x_key, y_key, Z_key = keys
    x, sx = cache.series(x_key, x, "x")
    y, sy = cache.series(y_key, y, "y")
    if len(x) != len(y):
        raise ValueError("x and y must have equal lengths")
    if sx == 0.0 or sy == 0.0:
        return INDEPENDENT
    if Z:
        rx = cache.residuals(x_key, x, Z_key, Z)
        ry = cache.residuals(y_key, y, Z_key, Z)
    else:
        rx = x - x.mean()
        ry = y - y.mean()
    if rx.std() == 0.0 or ry.std() == 0.0:
        return INDEPENDENT
    statistic = distance_correlation(rx, ry)
    p = dcor_perm_test(rx, ry, params, seed=seed)
    return CITestResult(statistic=statistic, p_value=p)


def _bin_codes(series: np.ndarray, bins: int) -> np.ndarray:
    lo = series.min()
    hi = series.max()
    if hi <= lo:
        return np.zeros(len(series), dtype=np.int64)
    codes = ((series - lo) / (hi - lo) * bins).astype(np.int64)
    return np.clip(codes, 0, bins - 1)


def _history_code(codes: np.ndarray, k: int, bins: int, t_start: int) -> np.ndarray:
    """Combine codes[..., t-1..t-k] into one integer state per time t >= t_start,
    along the last axis."""
    n = codes.shape[-1]
    out = np.zeros(codes.shape[:-1] + (n - t_start,), dtype=np.int64)
    for lag in range(1, k + 1):
        out = out * bins + codes[..., t_start - lag:n - lag]
    return out


# Shifted sources are scored in groups whose joint-count tables hold at most
# this many cells in all.
_TE_CELLS = 1 << 20


def _shifted_transfer_entropy(src: np.ndarray, dst: np.ndarray, shifts,
                              params: TEParams) -> np.ndarray:
    """Plug-in TE (nats) of np.roll(src, s) -> dst for every shift s.

    Equal-width binning commutes with a circular shift, so src is binned once
    and its codes are rolled; the tables that involve dst alone are shared by
    every shift. Each row is the same arithmetic, in the same order, as one
    shift on its own, so the values do not depend on how shifts are grouped.
    """
    out = np.zeros(len(shifts))
    if src.std() == 0.0 or dst.std() == 0.0:
        return out
    bins, k = params.bins, params.k
    states = bins ** k
    dst_codes = _bin_codes(dst, bins)
    y_past = _history_code(dst_codes, k, bins, k)
    y_ab = dst_codes[k:] * states + y_past
    joint_ab = np.bincount(y_ab)[y_ab].astype(np.float64)
    marg_b = np.bincount(y_past)[y_past].astype(np.float64)
    src_codes = _bin_codes(src, bins)
    n = len(src)
    abc_cells = bins * states * states
    bc_cells = states * states
    group = max(1, _TE_CELLS // abc_cells)
    for start in range(0, len(shifts), group):
        rolled = np.asarray(shifts[start:start + group])[:, None]
        x_past = _history_code(src_codes[(np.arange(n) - rolled) % n], k, bins, k)
        rows = np.arange(len(rolled))[:, None]
        abc = y_ab * states + x_past + rows * abc_cells
        bc = y_past * states + x_past + rows * bc_cells
        counts = np.bincount(abc.ravel(), minlength=len(rolled) * abc_cells)[abc]
        joint_bc = np.bincount(bc.ravel(), minlength=len(rolled) * bc_cells)[bc]
        ratio = counts.astype(np.float64) * marg_b / (joint_ab * joint_bc.astype(np.float64))
        out[start:start + len(rolled)] = np.maximum(np.log(ratio).mean(axis=1), 0.0)
    return out


# The shortest series transfer_entropy estimates from.
TE_MIN_ROWS = 50


def _te_pair(src, dst) -> tuple[np.ndarray, np.ndarray]:
    src = _as_series(src, "src")
    dst = _as_series(dst, "dst")
    if len(src) != len(dst):
        raise ValueError("src and dst must have equal lengths")
    if len(src) < TE_MIN_ROWS:
        raise ValueError(f"need length >= {TE_MIN_ROWS}, got {len(src)}")
    return src, dst


def transfer_entropy(src, dst, params: TEParams = TEParams()) -> float:
    """Plug-in estimate (nats) of I(dst_t ; src past | dst past).

    Equal-width binning per series; history length params.k. The plug-in
    conditional mutual information is non-negative by construction and is
    clamped at 0 against round-off. Constant series give 0.
    """
    src, dst = _te_pair(src, dst)
    return float(_shifted_transfer_entropy(src, dst, [0], params)[0])


def te_significance(src, dst, params: TEParams = TEParams(),
                    seed: int = 0) -> tuple[float, float, bool]:
    """Transfer entropy against a circular-shift surrogate threshold.

    Returns (te, threshold, significant) where te is transfer_entropy(src,
    dst, params) and the threshold is the params.quantile quantile of TE over
    shuffles circular shifts of src; circular shifts preserve the source's
    autocorrelation. Shifts keep a guard band away from zero: a
    nearly-unshifted surrogate still carries the genuine coupling at adjacent
    lags and would contaminate the null. The unshifted source is scored with
    the surrogates, as shift 0, so both series are binned once.
    """
    src, dst = _te_pair(src, dst)
    rng = np.random.default_rng(seed)
    n = len(src)
    guard = min(max(10, params.k + 1), n // 4)
    shifts = [int(rng.integers(guard, n - guard + 1)) for _ in range(params.shuffles)]
    scores = _shifted_transfer_entropy(src, dst, [0, *shifts], params)
    te = float(scores[0])
    threshold = float(np.quantile(scores[1:], params.quantile))
    return te, threshold, te > threshold
