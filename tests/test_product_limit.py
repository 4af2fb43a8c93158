import math

import numpy as np
import pytest

from trunctail import (LYNDEN_BELL, WOODROOFE, DegenerateTailError,
                       TruncatedSample, burr, fit_product_limit,
                       gamma2_for_target_p, tail_process)
from trunctail.truncation import TruncationModel


def _coverage_count(sample, z):
    """n C_n(z) = #{i: x_i <= z <= y_i}, counted from the definition."""
    return int(np.sum((sample.x <= z) & (z <= sample.y)))


def empirical_c(sample, z):
    """Coverage C_n(z) = n^-1 #{i: x_i <= z <= y_i}: the oracle for ProductLimitFit.coverage."""
    return _coverage_count(sample, z) / sample.n


def _hazard(sample, x):
    """Sum of 1/(n C_n(a)) over atoms a > x, added from the largest atom down."""
    above = np.sort(sample.x[sample.x > x])[::-1]
    return sum((1.0 / _coverage_count(sample, a) for a in above.tolist()), 0.0)


def _three_pairs():
    return TruncatedSample(np.array([1.0, 2.0, 4.0]), np.array([3.0, 2.5, 6.0]))


def _complete(values):
    v = np.asarray(values, dtype=float)
    return TruncatedSample(v, np.full(v.size, max(v.max(), 1.0) * 1e9))


def _random_truncated(seed, big_n=300):
    model = TruncationModel(burr(0.25, 0.6), burr(0.25, gamma2_for_target_p(0.6, 0.7)))
    return model.sample(big_n, seed)


def test_empirical_c_frozen_values():
    s = _three_pairs()
    assert empirical_c(s, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert empirical_c(s, 5.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert empirical_c(s, 0.5) == 0.0
    assert empirical_c(s, 7.0) == 0.0


def test_coverage_matches_empirical_c_at_every_atom():
    tied = TruncatedSample(np.array([1.0, 2.0, 2.0, 4.0, 4.0, 4.0]),
                           np.array([5.0, 2.0, 6.0, 4.0, 8.0, 4.0]))
    samples = [_random_truncated(seed) for seed in (1, 2, 3)] + [tied]
    for sample in samples:
        for variant in (WOODROOFE, LYNDEN_BELL):
            fit = fit_product_limit(sample, variant)
            oracle = [empirical_c(sample, a) for a in fit.atoms.tolist()]
            assert np.array_equal(fit.coverage, oracle)


def test_woodroofe_complete_frozen_value():
    sample = _complete([1.0, 2.0, 4.0, 8.0])
    fit = fit_product_limit(sample, WOODROOFE)
    # atoms above 3 are {4, 8} with coverage 3/4 and 4/4
    expected = math.exp(-(1.0 / 3.0 + 1.0 / 4.0))
    assert fit.df(3.0) == pytest.approx(expected, rel=1e-15)
    assert _hazard(sample, 3.0) == pytest.approx(7.0 / 12.0, rel=1e-14)


def test_woodroofe_df_is_exp_of_hazard():
    for seed in (1, 2, 3):
        sample = _random_truncated(seed)
        fit = fit_product_limit(sample, WOODROOFE)
        grid = np.concatenate(([0.0], fit.atoms, [fit.atoms[-1] * 2]))
        hazard = np.array([_hazard(sample, x) for x in grid.tolist()])
        assert np.array_equal(fit.df(grid), np.exp(-hazard))


def test_lynden_bell_complete_equals_ecdf():
    for seed in (4, 5, 6):
        rng = np.random.default_rng(seed)
        values = np.exp(rng.normal(size=60))
        fit = fit_product_limit(_complete(values), LYNDEN_BELL)
        grid = np.concatenate((fit.atoms, [0.5, 1.0, 10.0]))
        ecdf = np.searchsorted(np.sort(values), grid, side="right") / values.size
        assert np.allclose(fit.df(grid), ecdf, rtol=0, atol=1e-12)


def test_df_right_continuous_at_atoms():
    fit = fit_product_limit(_three_pairs(), WOODROOFE)
    for a in fit.atoms:
        assert fit.df(a) > fit.df(a - 1e-9)
    assert fit.df(fit.atoms[-1]) == pytest.approx(1.0, rel=1e-15)


def test_df_handles_ties():
    s = TruncatedSample(np.array([1.0, 2.0, 2.0, 4.0]),
                        np.array([5.0, 6.0, 7.0, 8.0]))
    for variant in (WOODROOFE, LYNDEN_BELL):
        fit = fit_product_limit(s, variant)
        grid = np.array([0.5, 1.0, 2.0, 3.0, 4.0, 9.0])
        df = fit.df(grid)
        assert np.all(np.diff(df) >= -1e-15)
        assert df[-1] == 1.0
        assert np.all(fit.coverage >= 1.0 / 4.0 - 1e-15)


def test_woodroofe_dominates_lynden_bell():
    # exp(-1/c) >= 1 - 1/c factor by factor, so the dfs are ordered
    for seed in (7, 8):
        sample = _random_truncated(seed)
        w = fit_product_limit(sample, WOODROOFE)
        lb = fit_product_limit(sample, LYNDEN_BELL)
        grid = np.geomspace(1e-2, sample.x.max() * 2, 200)
        assert np.all(w.df(grid) >= lb.df(grid) - 1e-15)


def test_df_bounds_and_survival():
    sample = _random_truncated(9)
    fit = fit_product_limit(sample, WOODROOFE)
    grid = np.geomspace(1e-3, 1e5, 100)
    df = fit.df(grid)
    assert np.all((0.0 <= df) & (df <= 1.0))
    assert np.allclose(fit.survival(grid), 1.0 - df, rtol=0, atol=1e-15)
    assert fit.df(0.0) == pytest.approx(np.exp(-_hazard(sample, 0.0)), rel=1e-15)


def test_fit_consistency_against_truth():
    # product-limit df should track the untruncated df of the target
    # variable closely for a decently sized sample; the plain ecdf of x
    # would instead track the truncated marginal, which sits well above
    # the target df in the body
    model = TruncationModel(burr(0.25, 0.6), burr(0.25, 1.4))
    sample = model.sample(3000, seed=12)
    fit = fit_product_limit(sample, WOODROOFE)
    checks = np.array([1.0, 2.0, 5.0, 20.0])
    truth = model.f_model.df(checks)
    fitted = fit.df(checks)
    assert np.all(np.abs(fitted - truth) < 0.05)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        fit_product_limit(_three_pairs(), "kaplan-meier")


def test_tail_process_frozen_values():
    fit = fit_product_limit(_complete([1.0, 2.0, 4.0, 8.0]), LYNDEN_BELL)
    out = tail_process(fit, k=2, gamma1=1.0, grid=[2.0, 4.0])
    assert out.shape == (2, 2)
    assert np.array_equal(out[:, 0], [2.0, 4.0])
    assert out[0, 1] == pytest.approx(0.0, abs=1e-14)
    assert out[1, 1] == pytest.approx(-math.sqrt(2.0) / 4.0, rel=1e-12)


def test_tail_process_validation():
    fit = fit_product_limit(_complete([1.0, 2.0, 4.0, 8.0]), LYNDEN_BELL)
    with pytest.raises(ValueError):
        tail_process(fit, k=1, gamma1=1.0, grid=[2.0])
    with pytest.raises(ValueError):
        tail_process(fit, k=2, gamma1=-1.0, grid=[2.0])
    with pytest.raises(ValueError):
        tail_process(fit, k=2, gamma1=1.0, grid=[-2.0])
    tied_top = TruncatedSample(np.array([1.0, 8.0, 8.0, 8.0]),
                               np.full(4, 1e9))
    lb = fit_product_limit(tied_top, LYNDEN_BELL)
    with pytest.raises(DegenerateTailError):
        tail_process(lb, k=2, gamma1=1.0, grid=[2.0])


def test_tail_process_small_for_true_index():
    # with the true index the scaled deviation stays O(1) on [1, 5]
    sample = _random_truncated(13, big_n=2000)
    fit = fit_product_limit(sample, WOODROOFE)
    out = tail_process(fit, k=80, gamma1=0.6, grid=np.linspace(1.0, 5.0, 9))
    assert np.all(np.abs(out[:, 1]) < 3.0)
