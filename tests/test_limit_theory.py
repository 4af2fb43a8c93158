"""Sampling-distribution behavior of the tail index estimator.

These are seeded Monte Carlo checks of the estimator's limiting
behavior: shrinking error with sample size, recovery of the truncation
index from the observed y side, and a normality screen for the
standardized errors.  The standardized error at threshold k is
sqrt(k) * (gamma1_hat - gamma1) / sigma with sigma the closed-form
asymptotic standard deviation.

The error distribution at practical sample sizes carries a marked
right skew from rare replicates where the coverage weights spike, so
the normality screen works at meta-run resolution: small batches are
tested individually and a large majority must look Gaussian.  Shape
statistics of the central body are checked separately with robust
(quantile) measures that the outlier replicates cannot move.
"""

import math

import numpy as np
from scipy import stats

from trunctail import asymptotic_variance, burr, estimate_gamma2, gamma1_estimate
from trunctail.montecarlo import _run_replicate
from trunctail.seeding import stable_key
from trunctail.truncation import TruncationModel

GAMMA1, GAMMA2 = 0.6, 1.4
SIGMA = math.sqrt(asymptotic_variance(GAMMA1, GAMMA2))
_MODEL = TruncationModel(burr(0.25, GAMMA1), burr(0.25, GAMMA2))


def _standardized_errors(chain: str, reps: int, big_n: int, k: int) -> np.ndarray:
    out = np.empty(reps)
    for r in range(reps):
        sample = _MODEL.sample(big_n, stable_key(chain, big_n, k, r))
        est = gamma1_estimate(sample, k=k)
        out[r] = math.sqrt(k) * (est.gamma1_hat - GAMMA1) / SIGMA
    return out


# 1% critical value of the Anderson-Darling normality statistic for n = 10:
# Stephens' 1.035 over (1 + 0.75/n + 2.25/n^2), as SciPy 1.17 tabulates it in
# scipy.stats.anderson(dist="norm"); that table is deprecated and SciPy 1.19
# drops it.
_AD_CRITICAL_1PCT_N10 = 0.943


def _anderson_darling_accepts(values: np.ndarray) -> bool:
    assert values.size == 10
    res = stats.anderson(values, dist="norm", method="interpolate")
    return bool(res.statistic < _AD_CRITICAL_1PCT_N10)


def test_meta_run_normality_screen():
    # 1000 replicates at N=2000, fixed k=100, examined as 100 meta-runs
    # of 10; each meta-run faces an Anderson-Darling test at the 1%
    # level.  The sampling distribution still has a heavy right tail at
    # this size, so a modest fraction of meta-runs is allowed to fail.
    z = _standardized_errors("screen", 1000, big_n=2000, k=100)
    groups = z.reshape(-1, 10)
    passed = sum(_anderson_darling_accepts(g) for g in groups)
    print(f"meta-runs passing the 1% screen: {passed} of {len(groups)}")
    assert passed >= 85


def test_standardized_error_body_is_centered_and_scaled():
    # robust center and scale of the same standardized errors: the
    # central body should sit near 0 with spread on the order of 1
    z = _standardized_errors("screen", 1000, big_n=2000, k=100)
    q25, q50, q75 = np.percentile(z, [25, 50, 75])
    iqr_sd = (q75 - q25) / 1.3489795
    assert abs(q50) <= 0.4
    assert 0.55 <= iqr_sd <= 1.10
    assert np.mean(np.abs(z) <= 2.0) >= 0.92


def test_error_magnitude_shrinks_with_sample_size():
    # median absolute error under the automatic threshold policy drops
    # when the pre-truncation sample size grows tenfold
    meds = {}
    for big_n in (200, 2000):
        cell_seed = stable_key("cell", 20260824, 0.7, GAMMA1, 0.25, big_n)
        errs = []
        for r in range(200):
            rep = _run_replicate(
                (0.7, GAMMA1, 0.25, big_n, "woodroofe", 0.3,
                 stable_key("replicate", cell_seed, r)))
            if rep is not None:
                errs.append(abs(rep[2] - GAMMA1))
        assert len(errs) >= 190
        meds[big_n] = float(np.median(errs))
    assert meds[2000] < meds[200]


def test_truncation_index_recovered_from_observed_y():
    # the observed y side keeps the truncation tail index; the Hill
    # estimate with the automatic threshold should land within 0.3 of
    # the true 1.4 in at least 90 of 100 runs
    hits = 0
    for r in range(100):
        sample = _MODEL.sample(10_000, stable_key("gamma2-screen", r))
        g2, _ = estimate_gamma2(sample)
        hits += abs(g2 - GAMMA2) <= 0.3
    assert hits >= 90


def test_asymptotic_variance_increasing_in_gamma1():
    for g2 in (1.4, 7.2):
        grid = np.linspace(0.01, g2 - 0.01, 100)
        values = [asymptotic_variance(g1, g2) for g1 in grid]
        assert np.all(np.diff(values) > 0)
