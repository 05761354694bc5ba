import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from causalpipe import stats
from causalpipe.stats import (CITestResult, KernelRegParams, ResidualCache, TEParams,
                              _permutation_rows, _sorted_abs_cross_sums, dcor_perm_test,
                              distance_correlation, kernel_ridge_residuals,
                              kridge_dcor_test, parcorr_test, pearson,
                              residualize_linear, te_significance,
                              transfer_entropy)

FAST_KRIDGE = KernelRegParams(permutations=100)


def dcor_double_loop(x, y):
    """O(n^2) textbook oracle: explicit double-centered double loop."""
    n = len(x)
    a = [[abs(x[i] - x[j]) for j in range(n)] for i in range(n)]
    b = [[abs(y[i] - y[j]) for j in range(n)] for i in range(n)]

    def center(m):
        row = [sum(r) / n for r in m]
        col = [sum(m[i][j] for i in range(n)) / n for j in range(n)]
        grand = sum(row) / n
        return [[m[i][j] - row[i] - col[j] + grand for j in range(n)] for i in range(n)]

    A, B = center(a), center(b)
    dcov2 = sum(A[i][j] * B[i][j] for i in range(n) for j in range(n)) / (n * n)
    dvar_x = sum(A[i][j] ** 2 for i in range(n) for j in range(n)) / (n * n)
    dvar_y = sum(B[i][j] ** 2 for i in range(n) for j in range(n)) / (n * n)
    if dvar_x <= 0 or dvar_y <= 0:
        return 0.0
    return math.sqrt(max(dcov2, 0.0) / math.sqrt(dvar_x * dvar_y))


def centred_distance_reference(v):
    """Double-centred distance matrix, each step into a new array."""
    d = np.abs(v[:, None] - v[None, :])
    return d - d.mean(axis=1, keepdims=True) - d.mean(axis=0, keepdims=True) + d.mean()


def distance_correlation_reference(x, y):
    """The O(n^2) distance correlation before it reused its n x n buffers."""
    A, B = centred_distance_reference(x), centred_distance_reference(y)
    dvar_x = float((A * A).mean())
    dvar_y = float((B * B).mean())
    if dvar_x <= 0.0 or dvar_y <= 0.0:
        return 0.0
    dcov2 = max(float((A * B).mean()), 0.0)
    return float(min(math.sqrt(dcov2 / math.sqrt(dvar_x * dvar_y)), 1.0))


def dcor_perm_reference(x, y, params=KernelRegParams(), seed=0):
    """The O(n^2)-per-permutation form: permute the centred distance matrix."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    A, B = centred_distance_reference(x), centred_distance_reference(y)
    dvar_x = float((A * A).mean())
    dvar_y = float((B * B).mean())
    if dvar_x <= 0.0 or dvar_y <= 0.0:
        return 1.0
    denom = math.sqrt(dvar_x * dvar_y)
    observed = math.sqrt(max(float((A * B).mean()), 0.0) / denom)
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(params.permutations):
        perm = rng.permutation(len(x))
        dcov2 = max(float((A * B[np.ix_(perm, perm)]).mean()), 0.0)
        if math.sqrt(dcov2 / denom) >= observed:
            exceed += 1
    return (1 + exceed) / (1 + params.permutations)


def transfer_entropy_reference(src, dst, params=TEParams()):
    """One shift at a time: the per-call plug-in estimate."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.std() == 0.0 or dst.std() == 0.0:
        return 0.0
    bins, k = params.bins, params.k

    def codes(v):
        lo, hi = v.min(), v.max()
        return np.clip(((v - lo) / (hi - lo) * bins).astype(np.int64), 0, bins - 1)

    def history(c):
        out = np.zeros(len(c) - k, dtype=np.int64)
        for lag in range(1, k + 1):
            out = out * bins + c[k - lag:len(c) - lag]
        return out

    src_codes, dst_codes = codes(src), codes(dst)
    y_now, y_past, x_past = dst_codes[k:], history(dst_codes), history(src_codes)
    states = bins ** k
    abc = (y_now * states + y_past) * states + x_past
    counts = np.bincount(abc)[abc].astype(np.float64)
    joint_ab = np.bincount(y_now * states + y_past)[y_now * states + y_past].astype(np.float64)
    joint_bc = np.bincount(y_past * states + x_past)[y_past * states + x_past].astype(np.float64)
    marg_b = np.bincount(y_past)[y_past].astype(np.float64)
    return max(float(np.mean(np.log(counts * marg_b / (joint_ab * joint_bc)))), 0.0)


def te_significance_reference(src, dst, params=TEParams(), seed=0):
    """A loop over the surrogate shifts, one TE estimate each."""
    te = transfer_entropy_reference(src, dst, params)
    rng = np.random.default_rng(seed)
    n = len(src)
    guard = min(max(10, params.k + 1), n // 4)
    surrogates = [transfer_entropy_reference(np.roll(src, int(rng.integers(guard, n - guard + 1))),
                                             dst, params)
                  for _ in range(params.shuffles)]
    threshold = float(np.quantile(surrogates, params.quantile))
    return te, threshold, te > threshold


# Sizes around powers of two, so the merge's padding and its last block vary.
PERM_SIZES = (4, 5, 9, 31, 32, 33, 100, 257, 500)
# Sizes around the 32-row chunks and the powers of two the merge pads to.
EQUIV_SIZES = (4, 5, 9, 31, 32, 33, 100, 257, 499, 500, 512, 513)


# --- pearson ------------------------------------------------------------------

def test_pearson_identity():
    x = [1.0, 2.0, 5.0, 3.0]
    assert pearson(x, x) == pytest.approx(1.0)


def test_pearson_negation():
    x = np.array([1.0, 2.0, 5.0, 3.0])
    assert pearson(x, -x) == pytest.approx(-1.0)


def test_pearson_hand_case():
    # cov=4, sd_x*sd_y=5 -> r=0.8
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_pearson_zero_variance_guarded():
    assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0


# --- residualize_linear --------------------------------------------------------

def test_residualize_empty_z_demeans():
    y = np.array([1.0, 2.0, 3.0, 6.0])
    np.testing.assert_allclose(residualize_linear(y, []), y - y.mean())


def test_residualize_exact_linear_relation():
    z = np.linspace(-2, 2, 50)
    target = 2.0 * z + 1.0
    res = residualize_linear(target, [z])
    np.testing.assert_allclose(res, 0.0, atol=1e-10)


def test_residualize_self_regression():
    rng = np.random.default_rng(0)
    target = rng.normal(size=60)
    res = residualize_linear(target, [target])
    np.testing.assert_allclose(res, 0.0, atol=1e-10)


def test_residualize_orthogonality():
    rng = np.random.default_rng(1)
    target = rng.normal(size=200)
    Z = [rng.normal(size=200) for _ in range(3)]
    res = residualize_linear(target, Z)
    n = len(target)
    scale = np.abs(target).max()
    assert abs(res.sum()) <= 1e-8 * n * scale
    for z in Z:
        assert abs(res @ z) <= 1e-8 * n * scale * np.abs(z).max()


def test_residualize_rank_deficient_tolerated():
    rng = np.random.default_rng(2)
    z = rng.normal(size=80)
    target = 0.5 * z + rng.normal(size=80)
    res = residualize_linear(target, [z, 2.0 * z])
    assert np.all(np.isfinite(res))
    assert abs(res @ z) <= 1e-6 * len(z) * np.abs(z).max()


# --- parcorr_test ---------------------------------------------------------------

def test_parcorr_identical_series():
    x = np.random.default_rng(0).normal(size=100)
    result = parcorr_test(x, x)
    assert result.statistic == pytest.approx(1.0)
    assert result.p_value == np.nextafter(0.0, 1.0)  # never the absent-link 0.0
    assert result.p_value <= 0.05


def test_parcorr_underflowing_tail_is_floored():
    rng = np.random.default_rng(0)
    x = rng.normal(size=500)
    result = parcorr_test(x, x + 1e-6 * rng.normal(size=500))
    assert 1.0 - result.statistic ** 2 >= 1e-15  # the Student-t branch
    assert result.p_value == np.nextafter(0.0, 1.0)
    assert result.p_value <= 0.05


def test_parcorr_collapsed_residual_is_undetermined():
    # Z determines x exactly: its residual is round-off, whose correlation
    # with anything says nothing about dependence
    rng = np.random.default_rng(3)
    z = rng.normal(size=200)
    y = rng.normal(size=200)
    for args in ((2.0 * z + 1.0, y), (y, 2.0 * z + 1.0)):
        result = parcorr_test(*args, [z])
        assert (result.statistic, result.p_value) == (0.0, 1.0)
        assert result.p_value > 0.05


def test_parcorr_null_pvalues_uniform():
    pvals = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=500)
        y = rng.normal(size=500)
        pvals.append(parcorr_test(x, y).p_value)
    ks = sps.kstest(pvals, "uniform")
    assert ks.pvalue > 0.01


def test_parcorr_chain_blocked_by_mediator():
    held = 0
    n_seeds = 60
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=500)
        z = 0.8 * x + rng.normal(size=500)
        y = 0.8 * z + rng.normal(size=500)
        if parcorr_test(x, y, [z]).p_value > 0.05:
            held += 1
    assert held >= 0.9 * n_seeds


def test_parcorr_symmetric_in_x_y():
    rng = np.random.default_rng(5)
    x = rng.normal(size=120)
    y = 0.4 * x + rng.normal(size=120)
    z = rng.normal(size=120)
    a = parcorr_test(x, y, [z])
    b = parcorr_test(y, x, [z])
    assert abs(a.statistic) == pytest.approx(abs(b.statistic))
    assert a.p_value == pytest.approx(b.p_value)


def test_parcorr_degenerate_dof():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([2.0, 1.0, 3.0])
    result = parcorr_test(x, y, [np.array([0.1, 0.5, 0.9])])
    assert result.p_value == 1.0
    assert result.p_value > 0.05


def test_parcorr_constant_series_guarded():
    x = np.ones(50)
    y = np.random.default_rng(0).normal(size=50)
    result = parcorr_test(x, y)
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_parcorr_conditions_on_a_one_shot_iterator():
    # z drives x and y: given z they are independent, and a generator of
    # z's columns must condition as the tuple does, not be used up first
    rng = np.random.default_rng(21)
    z = rng.normal(size=300)
    x = z + 0.1 * rng.normal(size=300)
    y = z + 0.1 * rng.normal(size=300)
    given_tuple = parcorr_test(x, y, (z,))
    given_generator = parcorr_test(x, y, (c for c in [z]))
    assert given_tuple.p_value > 0.05
    assert (given_generator.statistic.hex(), given_generator.p_value.hex()) == \
        (given_tuple.statistic.hex(), given_tuple.p_value.hex())


def test_cached_linear_residual_equals_a_fresh_fit_and_is_read_only():
    rng = np.random.default_rng(22)
    z1, z2 = rng.normal(size=(2, 200))
    target = 0.5 * z1 - z2 + rng.normal(size=200)
    x = z2 + rng.normal(size=200)
    cache = ResidualCache()
    # a constant and a collinear column make the design rank-deficient
    for Z_key, Z in (((), []), (("z1", "z2"), [z1, z2]), (("z2", "z1"), [z2, z1]),
                     (("z1", "one", "2 z1"), [z1, np.ones(200), 2.0 * z1])):
        cached = cache.residuals("target", target, Z_key, Z, linear=True)
        assert cached.tobytes() == residualize_linear(target, Z).tobytes()
        assert cache.residuals("target", target, Z_key, Z, linear=True) is cached
        with pytest.raises(ValueError):
            cached[0] = 0.0
        shared = parcorr_test(x, target, Z, cache=cache, keys=("x", "target", Z_key))
        fresh = parcorr_test(x, target, Z)
        assert (shared.statistic.hex(), shared.p_value.hex()) == \
            (fresh.statistic.hex(), fresh.p_value.hex())
    series, sd = cache.series("target", target)
    assert series.tobytes() == target.tobytes() and sd == target.std()


def test_cache_keys_name_every_conditioning_series():
    z = np.random.default_rng(23).normal(size=50)
    with pytest.raises(ValueError, match="one key per conditioning series"):
        ResidualCache().residuals("target", z, ("z1", "z2"), [z], linear=True)


def parcorr_p_reference(r: float, dof: int) -> float:
    """The Student-t p-value through scipy.stats, as parcorr_test computed it
    before it called the special function directly."""
    if 1.0 - r * r < 1e-15:
        return stats._P_FLOOR
    t = r * math.sqrt(dof / (1.0 - r * r))
    return max(float(2.0 * sps.t.sf(abs(t), dof)), stats._P_FLOOR)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(min_value=12, max_value=600),
       k=st.integers(min_value=0, max_value=3),
       coupling=st.floats(min_value=-3.0, max_value=3.0),
       noise=st.sampled_from([1.0, 0.3, 1e-1, 1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 0.0]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_parcorr_p_value_is_the_scipy_stats_bits(n, k, coupling, noise, seed):
    # small noise puts |r| near 1: large t, underflowing tails and the floor
    rng = np.random.default_rng(seed)
    Z = [rng.normal(size=n) for _ in range(k)]
    x = rng.normal(size=n) + sum(0.5 * z for z in Z)
    y = coupling * x + noise * rng.normal(size=n) + sum(0.3 * z for z in Z)
    result = parcorr_test(x, y, Z)
    if result == stats.INDEPENDENT:
        return
    expected = parcorr_p_reference(result.statistic, n - k - 2)
    assert result.p_value.hex() == expected.hex()


# --- kernel ridge ---------------------------------------------------------------

def test_kernel_ridge_fits_smooth_signal():
    rng = np.random.default_rng(10)
    z = rng.uniform(-3, 3, size=400)
    target = np.sin(z) + 0.1 * rng.normal(size=400)
    res = kernel_ridge_residuals(target, [z])
    assert res.var() < 0.1 * target.var()


def test_kernel_ridge_leaves_independent_target_alone():
    rng = np.random.default_rng(11)
    z = rng.normal(size=400)
    target = rng.normal(size=400)
    res = kernel_ridge_residuals(target, [z])
    assert res.var() > 0.8 * target.var()


def test_kernel_ridge_empty_z_rejected():
    with pytest.raises(ValueError):
        kernel_ridge_residuals(np.ones(20), [])


def test_kernel_ridge_needs_ten_samples():
    with pytest.raises(ValueError):
        kernel_ridge_residuals(np.arange(5.0), [np.arange(5.0)])


def test_kernel_ridge_constant_conditioning():
    rng = np.random.default_rng(12)
    target = rng.normal(size=50)
    res = kernel_ridge_residuals(target, [np.ones(50)])
    np.testing.assert_allclose(res, target - target.mean())


def test_cached_residual_equals_a_fresh_call_and_is_read_only():
    rng = np.random.default_rng(13)
    z1, z2 = rng.normal(size=(2, 200))
    target = np.sin(z1) + z2 ** 2 + 0.1 * rng.normal(size=200)
    cache = ResidualCache(FAST_KRIDGE)
    # column order changes the rounding of the kernel, so (z1, z2) and
    # (z2, z1) are separate keys
    for Z_key, Z in ((("z1", "z2"), [z1, z2]), (("z2", "z1"), [z2, z1]),
                     (("constant",), [np.ones(200)])):
        cached = cache.residuals("target", target, Z_key, Z)
        assert cached.tobytes() == kernel_ridge_residuals(target, Z, FAST_KRIDGE).tobytes()
        assert cache.residuals("target", target, Z_key, Z) is cached
        with pytest.raises(ValueError):
            cached[0] = 0.0
    x = np.cos(z2) + rng.normal(size=200)
    assert kridge_dcor_test(x, target, [z1, z2], FAST_KRIDGE, seed=3, cache=cache,
                            keys=("x", "target", ("z1", "z2"))) == \
        kridge_dcor_test(x, target, [z1, z2], FAST_KRIDGE, seed=3)


def counting(monkeypatch, name, calls, pause=0.0):
    """Replace stats.<name> by a wrapper that counts its calls and sleeps
    before computing, so concurrent callers overlap."""
    original = getattr(stats, name)

    def counted(*args, **kwargs):
        calls.append(threading.get_ident())
        time.sleep(pause)
        return original(*args, **kwargs)

    monkeypatch.setattr(stats, name, counted)


def test_racing_threads_share_one_stored_read_only_entry(monkeypatch):
    rng = np.random.default_rng(14)
    z = rng.normal(size=300)
    target = np.tanh(z) + 0.1 * rng.normal(size=300)
    builds, solves = [], []
    counting(monkeypatch, "rbf_kernel", builds, pause=0.02)
    counting(monkeypatch, "kernel_ridge_residuals", solves, pause=0.02)
    cache = ResidualCache(FAST_KRIDGE)
    n_threads = 8
    barrier = threading.Barrier(n_threads, timeout=30)
    results = [None] * n_threads

    def ask(i):
        barrier.wait()
        results[i] = cache.residuals("target", target, ("z",), [z])

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    # threads that race on the missing entry may each compute it, but every
    # one of them gets the copy stored first
    assert 1 <= len(builds) <= n_threads and 1 <= len(solves) <= n_threads
    assert all(r is results[0] for r in results)
    assert cache.residuals("target", target, ("z",), [z]) is results[0]
    assert not results[0].flags.writeable
    assert results[0].tobytes() == kernel_ridge_residuals(target, [z], FAST_KRIDGE).tobytes()


def test_kridge_test_rejects_a_cache_built_with_other_params():
    rng = np.random.default_rng(16)
    z, x, y = rng.normal(size=(3, 100))
    cache = ResidualCache(KernelRegParams(ridge=1e-2, permutations=50))
    with pytest.raises(ValueError, match="cache fits with"):
        kridge_dcor_test(x, y, [z], FAST_KRIDGE, cache=cache, keys=("x", "y", ("z",)))


def test_cache_raises_a_failed_entry_and_computes_it_again(monkeypatch):
    rng = np.random.default_rng(15)
    z, target = rng.normal(size=(2, 100))
    original = stats.kernel_ridge_residuals
    failures = [RuntimeError("solve failed")]

    def failing_once(*args, **kwargs):
        if failures:
            raise failures.pop()
        return original(*args, **kwargs)

    monkeypatch.setattr(stats, "kernel_ridge_residuals", failing_once)
    cache = ResidualCache(FAST_KRIDGE)
    with pytest.raises(RuntimeError, match="solve failed"):
        cache.residuals("target", target, ("z",), [z])
    assert cache.residuals("target", target, ("z",), [z]).tobytes() == \
        original(target, [z], FAST_KRIDGE).tobytes()


# --- distance correlation --------------------------------------------------------

@pytest.mark.parametrize("n", EQUIV_SIZES)
def test_distance_correlation_matches_reference_exactly(n):
    rng = np.random.default_rng(3 * n)
    x = rng.normal(size=n)
    for y in (rng.normal(size=n), x ** 2, np.round(rng.normal(size=n), 1), x,
              np.full(n, 1.5)):
        assert distance_correlation(x, y) == distance_correlation_reference(x, y)


def test_dcor_identity_is_one():
    x = np.random.default_rng(0).normal(size=60)
    assert distance_correlation(x, x) == pytest.approx(1.0)


def test_dcor_constant_is_zero():
    x = np.random.default_rng(0).normal(size=30)
    assert distance_correlation(x, np.full(30, 2.5)) == 0.0


def test_dcor_matches_double_loop_oracle():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(4, 65))
        x = rng.normal(size=n)
        if trial % 3 == 0:
            y = x ** 2 + 0.3 * rng.normal(size=n)
        elif trial % 3 == 1:
            y = rng.normal(size=n)
        else:
            y = -2.0 * x + rng.normal(size=n)
        assert distance_correlation(x, y) == pytest.approx(
            dcor_double_loop(list(x), list(y)), abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(min_value=-50, max_value=50).filter(lambda v: abs(v) > 1e-3),
       b=st.floats(min_value=-50, max_value=50),
       seed=st.integers(min_value=0, max_value=1000))
def test_dcor_affine_invariance(a, b, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=40)
    y = rng.normal(size=40) + 0.5 * x
    base = distance_correlation(x, y)
    assert distance_correlation(a * x + b, y) == pytest.approx(base, abs=1e-9)
    assert distance_correlation(x, a * y + b) == pytest.approx(base, abs=1e-9)


def test_dcor_in_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        d = distance_correlation(x, y)
        assert 0.0 <= d <= 1.0


# --- permutation test --------------------------------------------------------------

def test_dcor_perm_identity_floor():
    x = np.random.default_rng(0).normal(size=80)
    p = dcor_perm_test(x, x, KernelRegParams(permutations=99), seed=1)
    assert p == pytest.approx(1.0 / 100.0)


def test_dcor_perm_deterministic_given_seed():
    rng = np.random.default_rng(4)
    x = rng.normal(size=60)
    y = rng.normal(size=60)
    p1 = dcor_perm_test(x, y, FAST_KRIDGE, seed=7)
    p2 = dcor_perm_test(x, y, FAST_KRIDGE, seed=7)
    assert p1 == p2


def test_dcor_perm_null_rate_sane():
    # light sanity check; the full 200-seed calibration is an acceptance criterion
    rejections = 0
    n_seeds = 60
    for seed in range(n_seeds):
        rng = np.random.default_rng(1000 + seed)
        x = rng.normal(size=120)
        y = rng.normal(size=120)
        if dcor_perm_test(x, y, FAST_KRIDGE, seed=seed) <= 0.05:
            rejections += 1
    assert rejections / n_seeds <= 0.15


@pytest.mark.parametrize("n", PERM_SIZES)
def test_dcor_perm_matches_reference_exactly(n):
    for seed in range(5):
        rng = np.random.default_rng(1000 * n + seed)
        x = rng.normal(size=n)
        pairs = {
            "independent": rng.normal(size=n),
            "linear": 2.0 * x + 1.0,
            "quadratic": x ** 2,
            "identical": x.copy(),
            "repeated values": np.round(rng.normal(size=n), 1),
        }
        for permutations in (50, 200):
            params = KernelRegParams(permutations=permutations)
            for kind, y in pairs.items():
                assert dcor_perm_test(x, y, params, seed=seed) == \
                    dcor_perm_reference(x, y, params, seed=seed), (kind, seed, permutations)


def test_dcor_perm_constant_input_is_one():
    x = np.random.default_rng(0).normal(size=33)
    c = np.full(33, 2.5)
    for a, b in ((x, c), (c, x), (c, c)):
        assert dcor_perm_test(a, b, FAST_KRIDGE, seed=1) == 1.0
        assert dcor_perm_reference(a, b, FAST_KRIDGE, seed=1) == 1.0


def _abs_cross_sum_double_loop(xs, w):
    total = 0.0
    for j in range(len(xs)):
        for i in range(j):
            total += (xs[j] - xs[i]) * abs(w[j] - w[i])
    return total


@pytest.mark.parametrize("n", PERM_SIZES)
def test_sorted_abs_cross_sums_matches_double_loop(n):
    rng = np.random.default_rng(n)
    xs = np.sort(rng.normal(size=n))
    W = np.vstack([rng.normal(size=n),                # random order
                   np.round(rng.normal(size=n), 1),   # many ties
                   xs,                                # no inversions
                   -xs,                               # every pair inverted
                   np.where(rng.random(n) < 0.5, -1.0, 3.0)])
    got = _sorted_abs_cross_sums(xs, W)
    for row, w in zip(got, W):
        assert row == pytest.approx(_abs_cross_sum_double_loop(xs.tolist(), w.tolist()),
                                    rel=1e-12)


def sorted_abs_cross_sums_reference(xs, W):
    """The bottom-up merge before it reused its work buffers: the same
    operations in the same order, each into a new array."""
    rows, n = W.shape
    m = 1 << max(n - 1, 1).bit_length()
    X = np.zeros((rows, m))
    X[:, :n] = xs
    Wp = np.empty((rows, m))
    Wp[:, :n] = W
    Wp[:, n:] = W.max(axis=1, keepdims=True)
    inversions = np.zeros(rows)
    half = 1
    while half < m:
        shape = (rows, m // (2 * half), 2 * half)
        order = np.argsort(Wp.reshape(shape), axis=-1, kind="stable")
        flat = order + np.arange(0, rows * m, 2 * half).reshape(rows, -1, 1)
        Wp = Wp.take(flat)
        X = X.take(flat)
        right = order >= half
        left_sums = np.where(right, 0.0, np.stack([Wp, X]))
        sw, sx = np.cumsum(left_sums[..., ::-1], axis=-1)[..., ::-1]
        passed = np.abs(order - np.arange(2 * half))
        pairs = np.where(right, X * sw + Wp * sx, 0.0) - X * Wp * passed
        inversions += pairs.reshape(rows, m).sum(axis=1)
        Wp = Wp.reshape(rows, m)
        X = X.reshape(rows, m)
        half *= 2
    return n * (W * xs).sum(axis=1) - xs.sum() * W.sum(axis=1) + 2.0 * inversions


@pytest.mark.parametrize("n", EQUIV_SIZES)
def test_sorted_abs_cross_sums_matches_reference_exactly(n):
    rng = np.random.default_rng(7 * n)
    half_constant = rng.normal(size=(8, n))
    half_constant[:, ::2] = 0.25
    for xs in (np.sort(rng.normal(size=n)), np.sort(np.round(rng.normal(size=n), 1))):
        for W in (rng.normal(size=(32, n)),              # random rows
                  np.round(rng.normal(size=(32, n)), 1),  # 1-decimal ties
                  half_constant,                          # one value in half the places
                  rng.normal(size=(1, n))):               # a single row
            assert np.array_equal(_sorted_abs_cross_sums(xs, W),
                                  sorted_abs_cross_sums_reference(xs, W))


@pytest.mark.parametrize("n", (4, 33, 500))
def test_permutation_rows_take_the_per_row_draws(n):
    for k in (1, 31, 32, 100, 101):
        drawn, looped = np.random.default_rng(n + k), np.random.default_rng(n + k)
        assert np.array_equal(_permutation_rows(drawn, k, n),
                              np.stack([looped.permutation(n) for _ in range(k)]))
        assert drawn.random() == looped.random()  # both generators advanced alike


@pytest.mark.parametrize("n", (4, 9, 499, 513))
@pytest.mark.parametrize("ties", (False, True), ids=("distinct", "ties"))
def test_dcor_permutations_do_not_depend_on_the_chunk_height(monkeypatch, n, ties):
    rng = np.random.default_rng(n)
    x, y = rng.normal(size=n), rng.normal(size=n)
    if ties:
        x, y = np.round(x, 1), np.round(y, 1)
    xs = np.sort(x)
    W = y[_permutation_rows(rng, 201, n)]
    pvals, sums = [], []
    for chunk in (1, 7, 32, 101, 201):
        monkeypatch.setattr(stats, "_PERM_CHUNK", chunk)
        pvals.append(dcor_perm_test(x, y, seed=n))
        sums.append(np.concatenate([_sorted_abs_cross_sums(xs, W[start:start + chunk])
                                    for start in range(0, len(W), chunk)]))
    assert len(set(pvals)) == 1
    assert all(np.array_equal(rows, sums[0]) for rows in sums)


def test_sorted_abs_cross_sums_beyond_int16_rows():
    # every pair inverted: sum_{i<j} (j - i)^2 = sum_d (n - d) d^2, exactly
    n = 40_000
    xs = np.arange(n, dtype=np.float64)
    exact = sum((n - d) * d * d for d in range(1, n))
    assert _sorted_abs_cross_sums(xs, -xs[None, :])[0] == pytest.approx(exact, rel=1e-12)


# --- kridge_dcor_test ----------------------------------------------------------------

def test_kridge_dcor_detects_quadratic_where_parcorr_misses():
    # bounded (uniform) driver keeps the parcorr null statistic calibrated;
    # the dependence is purely even so linear correlation carries no signal
    detected = 0
    parcorr_missed = 0
    n_seeds = 30
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, size=500)
        y = x ** 2 + 0.5 * rng.normal(size=500)
        if kridge_dcor_test(x, y, params=FAST_KRIDGE, seed=seed).p_value <= 0.05:
            detected += 1
        if parcorr_test(x, y).p_value > 0.05:
            parcorr_missed += 1
    assert detected >= 0.95 * n_seeds
    assert parcorr_missed >= 0.8 * n_seeds


def test_kridge_dcor_nonlinear_chain_blocked():
    held = 0
    n_seeds = 30
    for seed in range(n_seeds):
        rng = np.random.default_rng(200 + seed)
        x = rng.normal(size=400)
        z = np.tanh(2.0 * x) + 0.3 * rng.normal(size=400)
        y = z ** 2 + 0.5 * rng.normal(size=400)
        result = kridge_dcor_test(x, y, [z], params=FAST_KRIDGE, seed=seed)
        if result.p_value > 0.05:
            held += 1
    assert held >= 0.85 * n_seeds


def test_kridge_dcor_empty_z_reduces_to_perm_test():
    rng = np.random.default_rng(8)
    x = rng.normal(size=100)
    y = 0.5 * x + rng.normal(size=100)
    result = kridge_dcor_test(x, y, params=FAST_KRIDGE, seed=3)
    assert result.statistic == pytest.approx(distance_correlation(x, y))
    assert result.p_value == dcor_perm_test(x - x.mean(), y - y.mean(),
                                            FAST_KRIDGE, seed=3)


def test_kridge_dcor_constant_guarded():
    y = np.random.default_rng(0).normal(size=50)
    result = kridge_dcor_test(np.ones(50), y, params=FAST_KRIDGE)
    assert result.statistic == 0.0 and result.p_value == 1.0


# --- transfer entropy ------------------------------------------------------------------

def test_te_constant_series_zero():
    x = np.ones(100)
    y = np.random.default_rng(0).normal(size=100)
    assert transfer_entropy(x, y) == 0.0
    assert transfer_entropy(y, x) == 0.0


def test_te_nonnegative_on_identical_series():
    x = np.random.default_rng(1).normal(size=200)
    te = transfer_entropy(x, x)
    assert math.isfinite(te)
    assert te >= 0.0


def test_te_requires_length_fifty():
    with pytest.raises(ValueError):
        transfer_entropy(np.arange(10.0), np.arange(10.0))
    # and equal lengths, with or without surrogates
    for te in (transfer_entropy, te_significance):
        with pytest.raises(ValueError, match="length >= 50"):
            te(np.arange(49.0), np.arange(49.0))
        with pytest.raises(ValueError, match="equal lengths"):
            te(np.arange(100.0), np.arange(99.0))


def test_te_significance_independent_pair():
    # the surrogate threshold leaves ~5% exchangeable exceedance by design,
    # so the rate needs enough seeds to concentrate above the 90% bar
    insignificant = 0
    n_seeds = 200
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        src = rng.normal(size=500)
        dst = rng.normal(size=500)
        _, _, significant = te_significance(src, dst, seed=seed)
        if not significant:
            insignificant += 1
    assert insignificant >= 0.9 * n_seeds


def test_te_significance_coupled_pair():
    found = 0
    n_seeds = 30
    for seed in range(n_seeds):
        rng = np.random.default_rng(500 + seed)
        src = rng.normal(size=500)
        dst = np.empty(500)
        dst[0] = rng.normal()
        dst[1:] = 0.9 * src[:-1] + 0.3 * rng.normal(size=499)
        te, threshold, significant = te_significance(src, dst, seed=seed)
        if significant:
            found += 1
        assert te >= 0.0
    assert found >= 0.95 * n_seeds


@pytest.mark.parametrize("k", [1, 2, 3])
def test_te_significance_matches_reference_exactly(k):
    # every shift scored at once gives the values of one shift at a time,
    # bit for bit, also on ties (rounded series), constant sources and
    # tables too large to score all shifts in one group
    for case in range(40):
        rng = np.random.default_rng(1000 * k + case)
        n = int(rng.integers(50, 600))
        src = rng.normal(size=n)
        if case % 4 == 1:
            src = np.round(src, 1)
        elif case % 4 == 2:
            src = np.ones(n)
        dst = np.concatenate(([0.0], 0.7 * src[:-1] + rng.normal(size=n - 1)))
        if case % 4 == 3:
            dst = np.round(dst)
        params = TEParams(k=k, bins=int(rng.integers(2, 13)),
                          shuffles=int(rng.integers(1, 150)))
        assert te_significance(src, dst, params, seed=case) == \
            te_significance_reference(src, dst, params, seed=case)
        assert transfer_entropy(src, dst, params) == \
            transfer_entropy_reference(src, dst, params)


def test_te_significance_deterministic():
    rng = np.random.default_rng(9)
    src = rng.normal(size=300)
    dst = rng.normal(size=300)
    assert te_significance(src, dst, seed=11) == te_significance(src, dst, seed=11)


# --- concurrent evaluation -----------------------------------------------------

def test_tests_give_the_same_results_on_concurrent_threads():
    # Discovery runs independent tests on a thread pool; each must be pure
    # given (inputs, seed), so results equal a sequential loop
    jobs = []
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        z = rng.normal(size=150)
        x = np.sin(z) + 0.5 * rng.normal(size=150)
        y = z ** 2 + 0.5 * rng.normal(size=150)
        jobs += [(kridge_dcor_test, (x, y, [z], FAST_KRIDGE, seed)),
                 (kridge_dcor_test, (x, y, (), FAST_KRIDGE, seed)),
                 (te_significance, (z, y, TEParams(shuffles=20), seed))]
    sequential = [fn(*args) for fn, args in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(fn, *args) for fn, args in jobs]
            concurrent = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == sequential


# --- parameter validation ------------------------------------------------------------------

def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelRegParams(ridge=0.0)
    with pytest.raises(ValueError):
        KernelRegParams(permutations=10)


def test_te_params_validation():
    with pytest.raises(ValueError):
        TEParams(k=0)
    with pytest.raises(ValueError):
        TEParams(bins=1)
    with pytest.raises(ValueError):
        TEParams(quantile=1.0)


def test_ci_result_validation():
    with pytest.raises(ValueError):
        CITestResult(statistic=0.0, p_value=1.5)
    with pytest.raises(ValueError):
        CITestResult(statistic=float("nan"), p_value=0.5)
