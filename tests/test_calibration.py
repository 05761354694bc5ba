"""Calibration and power of the conditional CI tests.

Criterion 6 checks the unconditional tests only. Here each test is given a
conditioning set Z that explains all of the dependence between x and y (the
null), and the rate of rejections at alpha = 0.05 over 200 draws must lie in
[0.02, 0.09], the band criterion 6 uses. A planted x -> y term on the same
design (the alternative) must then be found, so a change cannot pass by
rejecting nothing. This is the gate for changes to the kernel ridge, its
bandwidth, the dCor permutation p-value and the partial-correlation tail.

n = 250 keeps a kridge test near 15 ms (the dCor merge pads it to 256); the
seeds were fixed before the rates were looked at.
"""

import numpy as np
import pytest

from causalpipe.stats import KernelRegParams, kridge_dcor_test, parcorr_test

N = 250
ALPHA = 0.05
NULL_DRAWS = 200
POWER_DRAWS = 50
EFFECT = 0.5  # weight of the planted x -> y term
PARAMS = KernelRegParams(permutations=100)


def smooth(rng, effect):
    z = rng.standard_normal(N)
    x = np.sin(2.0 * z) + 0.5 * rng.standard_normal(N)
    y = 0.5 * z ** 2 + 0.5 * rng.standard_normal(N) + effect * x
    return x, y, (z,)


def ar_lagged(rng, effect):
    # x_t and y_t share the lag w_{t-1} of one autocorrelated series
    w = np.empty(N + 51)
    w[0] = rng.standard_normal()
    for t in range(1, len(w)):
        w[t] = 0.8 * w[t - 1] + 0.6 * rng.standard_normal()
    lag = w[50:-1]
    x = np.tanh(1.5 * lag) + 0.5 * rng.standard_normal(N)
    y = 0.7 * lag + 0.5 * rng.standard_normal(N) + effect * x
    return x, y, (lag,)


def two_d(rng, effect):
    z1 = rng.standard_normal(N)
    z2 = rng.standard_normal(N)
    x = np.sin(z1) + 0.5 * z2 + 0.5 * rng.standard_normal(N)
    y = 0.5 * z1 - np.cos(z2) + 0.5 * rng.standard_normal(N) + effect * x
    return x, y, (z1, z2)


def gated(rng, effect):
    # a steep logistic switch: a kernel ridge that smooths too much leaves
    # the step in both residuals
    z = rng.standard_normal(N)
    gate = 1.0 / (1.0 + np.exp(-6.0 * z))
    x = 2.0 * gate + 0.5 * rng.standard_normal(N)
    y = 2.0 * gate * z + 0.5 * rng.standard_normal(N) + effect * x
    return x, y, (z,)


def linear(rng, effect):
    z1 = rng.standard_normal(N)
    z2 = rng.standard_normal(N)
    x = z1 - 0.5 * z2 + 0.5 * rng.standard_normal(N)
    y = 0.8 * z1 + z2 + 0.5 * rng.standard_normal(N) + effect * x
    return x, y, (z1, z2)


def kridge(x, y, Z, seed):
    return kridge_dcor_test(x, y, Z, PARAMS, seed=seed).p_value


def parcorr(x, y, Z, seed):
    return parcorr_test(x, y, Z).p_value


# design, its fixed seed stream, and the test it calibrates
CASES = {
    "kridge-smooth": (smooth, 1, kridge),
    "kridge-ar-lagged": (ar_lagged, 2, kridge),
    "kridge-2d": (two_d, 3, kridge),
    "kridge-gated": (gated, 4, kridge),
    "parcorr-linear": (linear, 5, parcorr),
}


def rejection_rate(case: str, effect: float, first: int, draws: int) -> float:
    design, stream, test = CASES[case]
    rejections = 0
    for draw in range(first, first + draws):
        x, y, Z = design(np.random.default_rng([stream, draw]), effect)
        if test(x, y, Z, seed=draw) <= ALPHA:
            rejections += 1
    return rejections / draws


@pytest.mark.parametrize("case", CASES)
def test_null_rejection_rate_given_z(case):
    rate = rejection_rate(case, 0.0, 0, NULL_DRAWS)
    print(f"\n[calibration] {case}: null rejection {rate:.3f} over {NULL_DRAWS} draws")
    assert 0.02 <= rate <= 0.09


@pytest.mark.parametrize("case", CASES)
def test_planted_link_is_found_given_z(case):
    rate = rejection_rate(case, EFFECT, 10_000, POWER_DRAWS)
    print(f"\n[calibration] {case}: power {rate:.3f} over {POWER_DRAWS} draws")
    assert rate >= 0.8
