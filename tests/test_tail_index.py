import dataclasses
import math

import numpy as np
import pytest

from trunctail import (LYNDEN_BELL, WOODROOFE, DegenerateTailError,
                       ModelViolationError, TruncatedSample, asymptotic_variance,
                       burr, default_k_max, estimate_gamma2,
                       fit_product_limit, full_report, gamma1_estimate,
                       gamma1_path, gamma2_for_target_p, hill, hill_path,
                       select_k_dispersion)
from trunctail.tail_index import ConfidenceInterval, _interval_z, _ndtri
from trunctail.truncation import TruncationModel


def _three_pairs():
    return TruncatedSample(np.array([1.0, 2.0, 4.0]), np.array([3.0, 2.5, 6.0]))


def _complete(values):
    v = np.asarray(values, dtype=float)
    return TruncatedSample(v, np.full(v.size, v.max() * 1e9))


def _truncated_sample(seed, big_n=500, p=0.7, gamma1=0.6):
    model = TruncationModel(burr(0.25, gamma1),
                            burr(0.25, gamma2_for_target_p(gamma1, p)))
    return model.sample(big_n, seed)


def test_gamma1_k1_frozen_value():
    est = gamma1_estimate(_three_pairs(), k=1)
    assert est.gamma1_hat == pytest.approx(math.log(2.0), rel=1e-14)
    assert est.k == 1 and est.n == 3


def test_gamma1_k2_woodroofe_frozen_value():
    # weights at atoms 4 and 2: F_n/C_n = 3 and 1.5/e; log ratios to x=1
    w4, w2 = 3.0, 1.5 / math.e
    expected = (w4 * math.log(4.0) + w2 * math.log(2.0)) / (w4 + w2)
    est = gamma1_estimate(_three_pairs(), k=2, variant=WOODROOFE)
    assert est.gamma1_hat == pytest.approx(expected, rel=1e-12)
    assert est.gamma1_hat == pytest.approx(1.2786053491709537, rel=1e-12)


def test_hill_frozen_values():
    assert hill([1.0, 2.0, 4.0, 8.0], 2) == pytest.approx(1.5 * math.log(2.0), rel=1e-14)
    assert hill([1.0, math.e], 1) == pytest.approx(1.0, rel=1e-14)


def test_path_matches_direct_weighted_sum():
    # independent route: recompute the estimate from the definition
    sample = _truncated_sample(21, big_n=120)
    fit = fit_product_limit(sample, WOODROOFE)
    w_all = fit.df_at_atoms / fit.coverage
    z = fit.atoms
    n = sample.n
    path = gamma1_path(sample, WOODROOFE)
    for k in (1, 2, 5, 17, n - 1):
        top = slice(n - k, n)
        weights = w_all[top][::-1]
        logs = np.log(z[top][::-1] / z[n - k - 1])
        direct = float(np.sum(weights * logs) / np.sum(weights))
        assert path[k] == pytest.approx(direct, rel=1e-12)
    assert np.isnan(path[0])


def test_hill_reduction_on_complete_data():
    # with the Lynden-Bell weights and no truncation the estimator is
    # exactly Hill, for every threshold
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(10, 200))
        values = np.exp(rng.normal(size=n) * 2.0)
        k = int(rng.integers(1, n))
        est = gamma1_estimate(_complete(values), k, variant=LYNDEN_BELL)
        assert abs(est.gamma1_hat - hill(values, k)) < 1e-12


def test_scale_equivariance():
    sample = _truncated_sample(33, big_n=200)
    for c in (1e-3, 7.0, 1e4):
        scaled = TruncatedSample(sample.x * c, sample.y * c)
        for k in (5, 20):
            a = gamma1_estimate(sample, k).gamma1_hat
            b = gamma1_estimate(scaled, k).gamma1_hat
            assert a == pytest.approx(b, abs=1e-12)


def test_estimator_consistent_on_large_sample():
    # fixed moderate k leaves a visible negative finite-sample bias, so
    # the band here is loose; it still rules out gross miscalibration
    errors = []
    for seed in (41, 42, 43):
        sample = _truncated_sample(seed, big_n=4000)
        k = 160
        errors.append(gamma1_estimate(sample, k).gamma1_hat - 0.6)
    assert abs(np.mean(errors)) < 0.2


def test_k_validation():
    sample = _three_pairs()
    with pytest.raises(ValueError):
        gamma1_estimate(sample, 0)
    with pytest.raises(ValueError):
        gamma1_estimate(sample, 3)
    with pytest.raises(ValueError):
        hill([1.0, 2.0], 2)
    with pytest.raises(ValueError, match="at least two values"):
        hill_path([1.0])
    with pytest.raises(ValueError):
        gamma1_estimate(TruncatedSample(np.array([0.0, 1.0]), np.array([2.0, 2.0])), 1)


def test_asymptotic_variance_frozen_values():
    assert asymptotic_variance(0.6, 1.4) == pytest.approx(1.598625, abs=1e-9)
    assert asymptotic_variance(0.8, 7.2) == pytest.approx(0.830250, abs=1e-9)


def test_asymptotic_variance_limits_and_growth():
    # no truncation: Hill's gamma1^2; near-equal indices: blows up
    assert asymptotic_variance(0.6, 1e9) == pytest.approx(0.36, rel=1e-6)
    assert asymptotic_variance(0.6, 0.6001) > 1e9
    with pytest.raises(ModelViolationError):
        asymptotic_variance(0.6, 0.6)
    with pytest.raises(ModelViolationError):
        asymptotic_variance(1.4, 0.6)
    with pytest.raises(ValueError):
        asymptotic_variance(-0.6, 1.4)


def test_confidence_interval_frozen_example():
    # gamma1_hat = 0.6, gamma2_hat = 1.4, k = 100
    half = _interval_z(0.95) * math.sqrt(asymptotic_variance(0.6, 1.4) / 100)
    assert half == pytest.approx(1.959964 * math.sqrt(1.598625) / 10.0, abs=5e-6)
    assert 0.6 - half == pytest.approx(0.352191, abs=1e-5)
    assert 0.6 + half == pytest.approx(0.847809, abs=1e-5)
    # full_report builds its interval from the same two pieces
    sample = _truncated_sample(88, big_n=600)
    for level in (0.5, 0.95):
        est = full_report(sample, level=level)
        assert est.sigma2_hat == asymptotic_variance(est.gamma1_hat, est.gamma2_hat)
        half = _interval_z(level) * math.sqrt(est.sigma2_hat / est.k)
        assert est.ci == ConfidenceInterval(level, est.gamma1_hat - half, est.gamma1_hat + half)


def test_confidence_interval_quantile_is_bitwise_norm_ppf():
    from scipy import stats   # the slow oracle; the package itself uses ndtri

    levels = [0.5, 0.8, 0.9, 0.95, 0.99]
    levels += np.random.default_rng(20150706).uniform(0.0, 1.0, 10_000).tolist()
    for level in levels:
        assert _interval_z(level) == float(stats.norm.ppf(0.5 * (1.0 + level))), level


def test_ndtri_is_bitwise_scipy_ndtri_on_every_branch():
    from scipy.special import ndtri   # the oracle; the package runs the port

    # e^-2 and 1 - e^-2 bound the central branch, and e^-32 and 1 - e^-32
    # the far tails (x >= 8), which need a level above 1 - 2.5e-14
    edges = [0.0, 1.0, 5e-324, math.nextafter(1.0, 0.0), 0.5]
    for point in (math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 1.0 - math.exp(-32.0)):
        below = above = point
        edges.append(point)
        for _ in range(4):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
            edges += [below, above]
    rng = np.random.default_rng(20150707)
    p = np.concatenate([edges, rng.uniform(0.0, 1.0, 300_000),
                        10.0 ** rng.uniform(-300.0, 0.0, 100_000),
                        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 100_000)])
    tail = np.minimum(p, 1.0 - p)
    for low, high, side in [(math.exp(-2.0), 0.5, tail), (math.exp(-32.0), math.exp(-2.0), tail),
                            (0.0, math.exp(-32.0), p), (0.0, math.exp(-32.0), 1.0 - p)]:
        assert np.count_nonzero((low < side) & (side <= high)) > 1000, (low, high)
    got = [_ndtri(q) for q in p.tolist()]
    mismatches = [(q, a, b) for q, a, b in zip(p.tolist(), got, ndtri(p).tolist()) if a != b]
    assert p.size > 500_000 and mismatches == []


def test_confidence_interval_refuses_bad_ordering():
    with pytest.raises(ModelViolationError):
        asymptotic_variance(0.9, 0.5)
    sample = _truncated_sample(88, big_n=600)
    for level in (0.0, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"level must lie in \(0, 1\)"):
            full_report(sample, level=level)
    with pytest.raises(ValueError, match="too close to 1"):   # 0.5 * (1 + level) is 1.0
        full_report(sample, level=math.nextafter(1.0, 0.0))


def test_default_k_max():
    assert default_k_max(100) == 94
    assert default_k_max(20) == 18
    assert default_k_max(5) == 3
    assert default_k_max(4) == 2


def test_select_k_dispersion_prefers_stable_plateau():
    # construct a path that is wild for small k, flat in the middle,
    # and drifting afterwards; the flat stretch should win (k* = 118,
    # whose window [79, 118] ends just before the drift)
    n = 200
    path = np.full(n, np.nan)
    ks = np.arange(1, n)
    path[1:] = 0.6 + 0.5 * np.sin(ks * 2.1) / ks
    path[1:] += np.where(ks > 120, 0.004 * (ks - 120), 0.0)
    k_star = select_k_dispersion(path, theta=0.3)
    assert 20 <= k_star <= 130


def test_select_k_dispersion_tie_goes_to_smallest():
    path = np.full(50, 0.7)
    path[0] = np.nan
    assert select_k_dispersion(path, theta=0.3) == 7     # the floor, isqrt(50)


def test_select_k_dispersion_determinism_and_range():
    sample = _truncated_sample(55, big_n=800)
    k_a = select_k_dispersion(gamma1_path(sample))
    k_b = select_k_dispersion(gamma1_path(sample))
    assert k_a == k_b
    assert 4 <= k_a <= default_k_max(sample.n)


def test_select_k_dispersion_validation():
    path = np.full(50, 0.7)
    path[0] = np.nan
    with pytest.raises(ValueError):
        select_k_dispersion(path, theta=0.9)
    with pytest.raises(ValueError):
        select_k_dispersion(path, k_min=2, k_max=60)
    with pytest.raises(DegenerateTailError, match="no informative thresholds to scan"):
        select_k_dispersion(path, k_max=3)   # below the default start, isqrt(50) = 7
    bad = path.copy()
    bad[10] = np.nan
    with pytest.raises(DegenerateTailError):
        select_k_dispersion(bad)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_select_k_dispersion_default_range_too_short_is_degenerate(n):
    path = np.full(n, 0.7)
    path[0] = np.nan
    with pytest.raises(DegenerateTailError, match="too small"):
        select_k_dispersion(path)


def test_full_report_keeps_its_path_out_of_the_report():
    sample = _truncated_sample(31)
    est = full_report(sample)
    assert est.path.tobytes() == gamma1_path(sample).tobytes()
    assert est.gamma1_hat == est.path[est.k]
    assert "path" not in est.to_dict() and "path" not in repr(est)
    assert est == dataclasses.replace(est, path=None)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_estimate_gamma2_names_a_sample_too_small_to_scan(n):
    # gamma2 shares gamma1's scan range: empty for n <= 5, [4, 4] at n = 6
    sample = TruncatedSample(np.arange(1.0, n + 1.0), np.arange(2.0, n + 2.0))
    if n <= 5:
        with pytest.raises(DegenerateTailError,
                           match=f"^sample too small for threshold selection \\(n={n}\\)$"):
            estimate_gamma2(sample)
    else:
        assert estimate_gamma2(sample) == (hill(sample.y, 4), 4)
    assert hill(sample.y, 1) == pytest.approx(math.log((n + 1.0) / n), rel=1e-14)


def test_estimate_gamma2_matches_hill_of_y():
    sample = _truncated_sample(66, big_n=400)
    top = np.sort(sample.y)[::-1]
    assert hill(sample.y, 30) == pytest.approx(np.mean(np.log(top[:30] / top[30])), rel=1e-14)
    g2_auto, k2_auto = estimate_gamma2(sample)
    assert g2_auto == pytest.approx(hill(sample.y, k2_auto), rel=1e-14)


def test_full_report_attaches_plugins():
    sample = _truncated_sample(88, big_n=600)
    est = full_report(sample)
    assert est.gamma2_hat is not None and est.k2 is not None
    assert est.ci is not None and est.sigma2_hat is not None
    assert est.ci.lower < est.gamma1_hat < est.ci.upper
    assert any("bias" in w for w in est.warnings)
    d = est.to_dict()
    assert set(d) == {"gamma1_hat", "k", "variant", "gamma2_hat", "k2",
                      "sigma2_hat", "ci", "n", "warnings"}
    assert d["ci"]["level"] == 0.95


def test_full_report_names_an_interval_reaching_below_zero():
    # the README sample: at k = 5 the interval is [-0.277, 1.199] and is
    # kept as computed; the automatic threshold's interval stays positive
    sample = TruncationModel(burr(0.25, 0.6), burr(0.25, 1.4)).sample(2000, seed=7)
    low = full_report(sample, k=5)
    assert low.ci.lower == pytest.approx(-0.27683935785314895, rel=1e-12)
    assert low.warnings[-1] == ("interval lower bound -0.276839 <= 0 lies outside the "
                                "domain of a tail index; it is reported unclipped")
    auto = full_report(sample)
    assert auto.ci.lower > 0
    assert not any("lower bound" in w for w in auto.warnings)


def test_full_report_level_none_skips_interval():
    sample = _truncated_sample(88, big_n=600)
    est = full_report(sample, level=None)
    assert est.ci is None and est.sigma2_hat is None
    assert est.gamma2_hat is not None


def test_full_report_refuses_interval_on_model_violation():
    # y values nearly constant: truncation tail looks ultra light, so
    # gamma2_hat falls below gamma1_hat and the interval must be refused
    rng = np.random.default_rng(99)
    x = np.exp(rng.normal(size=80) * 2.0)
    y = x.max() * (2.0 + 1e-9 * rng.random(80))
    est = full_report(TruncatedSample(x, y))
    assert est.gamma2_hat is not None and est.gamma2_hat <= est.gamma1_hat
    assert est.ci is None
    assert any("refused" in w for w in est.warnings)


def test_gamma1_estimate_picks_k_as_full_report_does():
    sample = _truncated_sample(31)
    est = gamma1_estimate(sample)
    report = full_report(sample)
    assert est.k == select_k_dispersion(gamma1_path(sample), 0.3) == report.k
    assert est.gamma1_hat == report.gamma1_hat
    assert est.path.tobytes() == report.path.tobytes()
    assert est.gamma2_hat is None and est.ci is None and est.warnings == []


def _tied_top_sample():
    """100 pairs whose 20 largest x are all 50.0; the rest U(1, 45), y = x U(1, 5)."""
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.uniform(1.0, 45.0, 80), np.full(20, 50.0)])
    return TruncatedSample(x, x * rng.uniform(1.0, 5.0, 100))


def test_full_report_refuses_interval_at_a_non_positive_estimate():
    # inside the tied top the path reads a rounding residue of 0, where the
    # plug-in variance is undefined: the interval is refused, not raised
    est = full_report(_tied_top_sample(), k=10)
    assert est.k == 10 and -1e-15 < est.gamma1_hat <= 0.0
    assert est.gamma2_hat > 0.0 and est.ci is None and est.sigma2_hat is None
    assert est.warnings == [
        f"estimate {est.gamma1_hat!r} is not a positive real; "
        "tail may be degenerate at this threshold",
        f"confidence interval refused: gamma1 must be > 0, got {est.gamma1_hat!r}",
    ]


def test_selection_scans_from_a_tied_maximum():
    # the default start, max(4, isqrt(100)) = 10, lies inside the tie of 20
    sample = _tied_top_sample()
    est = full_report(sample)
    assert est.k >= 20
    assert est.k == select_k_dispersion(gamma1_path(sample), 0.3, k_min=20)
    assert est.k == 41 and est.gamma1_hat == pytest.approx(0.2196, abs=1e-4)
    # gamma2_hat = 0.168 from the untied y's lies below it: the interval is refused
    assert est.gamma2_hat <= est.gamma1_hat and est.ci is None
    assert est.warnings[-1].startswith("confidence interval refused: variance undefined")
    # the same rule for gamma2 on the y's
    flipped = TruncatedSample(sample.x / 1e3, sample.x)
    k2 = estimate_gamma2(flipped)[1]
    assert k2 == select_k_dispersion(hill_path(flipped.y), 0.3, k_min=20)
    # k_max = 94 at n = 100: a tie of 94 leaves one threshold, one of 95 none
    edge = TruncatedSample(np.r_[np.arange(1.0, 7.0), np.full(94, 50.0)], np.full(100, 60.0))
    assert gamma1_estimate(edge).k == 94
    wide = TruncatedSample(np.r_[np.arange(1.0, 6.0), np.full(95, 50.0)], np.full(100, 60.0))
    with pytest.raises(DegenerateTailError, match="95 largest of 100 values tie at 50.0"):
        gamma1_estimate(wide)


def test_full_report_small_samples():
    with pytest.raises(DegenerateTailError):
        full_report(TruncatedSample(np.array([1.0, 2.0]), np.array([3.0, 3.0])))
    four = TruncatedSample(np.array([1.0, 2.0, 3.0, 4.0]), np.full(4, 9.0))
    with pytest.raises(DegenerateTailError):
        full_report(four)  # too small for automatic threshold choice
    est = full_report(four, k=2)
    assert est.k == 2 and np.isfinite(est.gamma1_hat)
