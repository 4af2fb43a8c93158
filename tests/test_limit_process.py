import math
import os

import numpy as np
import pytest
from scipy import integrate

from trunctail import (ModelViolationError, NumericError, WienerPath,
                       asymptotic_variance, combined_delta_second_moment,
                       delta_moments, gamma_process, limiting_rv, mc_variance,
                       simulate_wiener)
from trunctail import limit_process, seeding
from trunctail.limit_process import (_delta_moments, _delta_rows, _ensemble, _ensemble_stats,
                                     _increment_weights, _limit_row, _limit_weights,
                                     _process_weights, _segment_weights, _warped_grid)
from trunctail.seeding import derive_rng, stable_key


def _random_path(seed, m=8, q=3.0):
    rng = np.random.default_rng(seed)
    grid = _warped_grid(0.5 + 1.0 / q, m)
    values = np.concatenate(([0.0], np.cumsum(rng.normal(size=m) * np.sqrt(np.diff(grid)))))
    return WienerPath(grid, values)


def test_wiener_path_validation():
    with pytest.raises(ValueError):
        WienerPath(np.array([0.0, 0.5]), np.array([0.0, 1.0]))  # grid must end at 1
    with pytest.raises(ValueError):
        WienerPath(np.array([0.0, 0.5, 0.4, 1.0]), np.zeros(4))
    with pytest.raises(ValueError):
        WienerPath(np.array([0.0, 0.5, 1.0]), np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="equal length"):
        WienerPath(np.array([0.0, 0.5, 1.0]), np.zeros(2))
    with pytest.raises(ValueError, match="m must be >= 2"):
        simulate_wiener(1, 0)
    path = WienerPath(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, -1.0]))
    assert path.m == 2
    assert np.interp(0.25, path.grid, path.values) == pytest.approx(0.5, rel=1e-15)
    assert np.interp(0.75, path.grid, path.values) == pytest.approx(0.0, abs=1e-15)


def test_simulate_wiener_moments():
    ends = np.array([simulate_wiener(64, seed=s).values[-1] for s in range(1500)])
    assert abs(np.mean(ends)) < 0.09
    assert abs(np.var(ends) - 1.0) < 0.11
    # independent increments: W(1/2) and W(1) - W(1/2) uncorrelated
    halves = np.array([simulate_wiener(64, seed=s).values[32] for s in range(1500)])
    late = ends - halves
    assert abs(np.var(halves) - 0.5) < 0.07
    assert abs(np.mean(halves * late)) < 0.05


def test_simulate_wiener_reproducible():
    a = simulate_wiener(128, seed=9)
    b = simulate_wiener(128, seed=9)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, simulate_wiener(128, seed=10).values)


def test_warped_grid_shape():
    grid = _warped_grid(0.75, 100)   # q = 4
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert np.all(np.diff(grid) > 0.0)
    assert np.array_equal(grid, (np.arange(101) / 100) ** 4.0)
    with pytest.raises(NumericError, match="underflows"):
        _warped_grid(0.5 + 1.0 / 400.0, 1024)
    with pytest.raises(ValueError, match="m must be >= 2"):
        _warped_grid(0.75, 1)


@pytest.mark.parametrize("a", [-1.3, -1.05, -1.8])
def test_segment_weights_match_quadrature(a):
    # w @ values must equal the integral of the interpolated path
    # against s^a and s^a log s; integrate each segment numerically
    path = _random_path(3, m=8, q=3.0)
    grid, values = path.grid, path.values
    w_plain, w_log = _segment_weights(grid, a)
    lin = lambda s: np.interp(s, grid, values)
    plain_direct = 0.0
    log_direct = 0.0
    for j in range(grid.size - 1):
        lo, hi = grid[j], grid[j + 1]
        plain_direct += integrate.quad(lambda s: s ** a * lin(s), lo, hi, limit=200)[0]
        log_direct += integrate.quad(lambda s: s ** a * math.log(s) * lin(s),
                                     lo, hi, limit=200)[0]
    assert w_plain @ values == pytest.approx(plain_direct, rel=1e-7, abs=1e-8)
    assert w_log @ values == pytest.approx(log_direct, rel=1e-7, abs=1e-8)


def test_segment_weights_validation():
    grid = _warped_grid(1.0, 8)   # q = 2
    with pytest.raises(ValueError):
        _segment_weights(grid, -0.5)
    with pytest.raises(ValueError):
        _segment_weights(grid, -2.5)
    with pytest.raises(NumericError, match="overflows at the first grid point"):
        _segment_weights(np.array([0.0, 1e-305, 1.0]), -1.999)   # 0.999 * 702.3 > 700


def test_limiting_rv_zero_path_is_exactly_zero():
    grid = _warped_grid(0.5 + 1.0 / 5.0, 64)
    zero = WienerPath(grid, np.zeros(grid.size))
    assert limiting_rv(zero, 0.6, 1.4) == 0.0
    assert gamma_process(2.0, zero, 0.6, 1.4) == 0.0
    assert gamma_process(1.0, zero, 0.6, 1.4) == 0.0


def test_limiting_rv_linearity():
    p1 = _random_path(11, m=32, q=4.0)
    p2 = WienerPath(p1.grid, _random_path(12, m=32, q=4.0).values)
    a, b = 0.7, -2.3
    combo = WienerPath(p1.grid, a * p1.values + b * p2.values)
    direct = a * limiting_rv(p1, 0.6, 1.4) + b * limiting_rv(p2, 0.6, 1.4)
    assert limiting_rv(combo, 0.6, 1.4) == pytest.approx(direct, abs=1e-10)


def test_limiting_rv_matches_quadrature_on_one_path():
    # independent route: compute Delta1, Delta2 by segment-wise
    # quadrature and assemble the linear combination by hand
    path = _random_path(13, m=16, q=4.0)
    gamma1, gamma2 = 0.6, 1.4
    gamma = gamma1 * gamma2 / (gamma1 + gamma2)
    rho = 1.0 - gamma / gamma2
    lin = lambda s: np.interp(s, path.grid, path.values)
    d1 = sum(integrate.quad(lambda s: s ** (rho - 2.0) * lin(s),
                            path.grid[j], path.grid[j + 1], limit=200)[0]
             for j in range(path.grid.size - 1))
    d2 = sum(integrate.quad(lambda s: s ** (rho - 2.0) * math.log(s) * lin(s),
                            path.grid[j], path.grid[j + 1], limit=200)[0]
             for j in range(path.grid.size - 1))
    d3 = path.values[-1]
    expected = (-gamma * d3 + gamma / (gamma1 + gamma2)
                * ((gamma2 - gamma1) * d1 - gamma * d2))
    assert limiting_rv(path, gamma1, gamma2) == pytest.approx(expected, rel=1e-7, abs=1e-8)


def test_gamma_process_zero_at_one_for_any_path():
    for seed in (21, 22, 23):
        path = _random_path(seed, m=32, q=3.0)
        assert gamma_process(1.0, path, 0.6, 1.4) == 0.0
        assert gamma_process(1.0, path, 0.8, 7.2) == 0.0


def test_gamma_process_linearity():
    p1 = _random_path(24, m=16, q=3.0)
    p2 = WienerPath(p1.grid, _random_path(25, m=16, q=3.0).values)
    a, b = 1.3, -0.4
    combo = WienerPath(p1.grid, a * p1.values + b * p2.values)
    for x in (1.0, 1.7, 4.0, 30.0):
        direct = a * gamma_process(x, p1, 0.6, 1.4) + b * gamma_process(x, p2, 0.6, 1.4)
        assert gamma_process(x, combo, 0.6, 1.4) == pytest.approx(direct, abs=1e-10)


def test_gamma_process_matches_quadrature():
    path = _random_path(26, m=8, q=3.0)
    gamma1, gamma2 = 0.6, 1.4
    gamma = gamma1 * gamma2 / (gamma1 + gamma2)
    # x = 50 puts c below grid[1], so the cut grid is [0, c]
    for x in (1.5, 2.0, 10.0, 50.0):
        c = x ** (-1.0 / gamma)
        scale = x ** (1.0 / gamma)
        lin = lambda s: np.interp(s, path.grid, path.values)
        exponent = -gamma / gamma2 - 1.0
        fun = lambda s: s ** exponent * (scale * lin(c * s) - lin(s))
        # integrate cell by cell: the integrand kinks at grid points and
        # their images under s -> s/c, and the first cell carries an
        # integrable power singularity at 0 that a single global call
        # does not resolve
        pts = sorted({g for g in path.grid if 0.0 < g < 1.0}
                     | {g / c for g in path.grid if 0.0 < g < c})
        cells = [0.0] + pts + [1.0]
        integral = sum(integrate.quad(fun, lo, hi, limit=200)[0]
                       for lo, hi in zip(cells[:-1], cells[1:]))
        lead = x ** (-1.0 / gamma1)
        expected = ((gamma / gamma1) * lead * (scale * lin(c) - path.values[-1])
                    + gamma / (gamma1 + gamma2) * lead * integral)
        assert gamma_process(x, path, gamma1, gamma2) == pytest.approx(expected, rel=1e-6, abs=1e-8)


def test_gamma_process_domain_and_ordering():
    path = _random_path(27, m=8, q=3.0)
    with pytest.raises(ValueError):
        gamma_process(0.5, path, 0.6, 1.4)
    with pytest.raises(ModelViolationError):
        gamma_process(2.0, path, 1.4, 0.6)
    with pytest.raises(ModelViolationError):
        limiting_rv(path, 1.4, 0.6)


def test_gamma_process_names_an_underflowing_cut_point():
    # c = x^(-1/gamma) is subnormal at x = 1e130 and 0.0 at x = 1e150 for
    # gamma = 0.42, where x^(1/gamma) alone would overflow
    path = _random_path(28, m=8, q=3.0)
    assert math.isfinite(gamma_process(1e130, path, 0.6, 1.4))
    with pytest.raises(NumericError, match="underflows"):
        gamma_process(1e150, path, 0.6, 1.4)


def test_delta_moments_frozen_values():
    mom = delta_moments(0.7)
    assert mom.d11 == pytest.approx(2.0 / (0.7 * 0.4), rel=1e-14)
    assert mom.d22 == pytest.approx(2.0 * 1.8 / (0.49 * 0.064), rel=1e-14)
    assert mom.d33 == 1.0
    assert mom.d12 == pytest.approx(-1.8 / (0.49 * 0.16), rel=1e-14)
    assert mom.d13 == pytest.approx(1.0 / 0.7, rel=1e-14)
    assert mom.d23 == pytest.approx(-1.0 / 0.49, rel=1e-14)
    with pytest.raises(ValueError):
        delta_moments(0.5)
    with pytest.raises(ValueError):
        delta_moments(1.0)


@pytest.mark.parametrize("rho,seed", [(0.6, 101), (0.9, 102)])
def test_delta_moments_mc_agrees_with_closed_form(rho, seed):
    n_paths = 30000
    mc = _delta_moments(_ensemble(_delta_rows(rho, 4096), seed, n_paths))
    cf = delta_moments(rho)
    pairs = {"d11": ("d11", "d11"), "d22": ("d22", "d22"), "d33": ("d33", "d33"),
             "d12": ("d11", "d22"), "d13": ("d11", "d33"), "d23": ("d22", "d33")}
    for name, (left, right) in pairs.items():
        got, want = getattr(mc, name), getattr(cf, name)
        # Gaussian product variance: Var(AB) = E[A^2]E[B^2] + (E[AB])^2
        spread = math.sqrt((getattr(cf, left) * getattr(cf, right) + want ** 2) / n_paths)
        assert abs(got - want) < 6.0 * spread + 0.01 * abs(want), name


def test_combined_moment_reproduces_limit_variance():
    for gamma1, gamma2 in ((0.6, 1.4), (0.8, 7.2), (0.3, 0.45), (1.0, 9.0)):
        gamma = gamma1 * gamma2 / (gamma1 + gamma2)
        assembled = gamma ** 2 * combined_delta_second_moment(gamma1, gamma2)
        assert assembled == pytest.approx(asymptotic_variance(gamma1, gamma2), abs=1e-9)


def test_mc_variance_reproducible_and_near_closed_form():
    a = mc_variance(0.6, 1.4, 4000, 4096, seed=5)
    b = mc_variance(0.6, 1.4, 4000, 4096, seed=5)
    assert a == b
    closed = asymptotic_variance(0.6, 1.4)
    assert abs(a.variance - closed) < 0.15
    assert abs(a.mean) < 5.0 * math.sqrt(a.variance / a.n_paths)
    d = a.to_dict()
    assert d["sigma2_closed_form"] == pytest.approx(closed, rel=1e-14)
    assert set(d) == {"gamma1", "gamma2", "n_paths", "m", "mean", "variance",
                      "std_error", "grid_variance", "grid_z", "sigma2_closed_form",
                      "relative_error"}
    assert d["relative_error"] == abs(a.variance / d["sigma2_closed_form"] - 1.0)
    # exact for a Gaussian functional: the same for every seed
    assert d["std_error"] == a.grid_variance * math.sqrt(2.0 / (a.n_paths - 1))
    assert mc_variance(0.6, 1.4, 4000, 4096, seed=6).std_error == a.std_error


@pytest.mark.parametrize("gamma1,gamma2,rho", [
    # gamma1 < gamma2 puts rho in (1/2, 1), but it can round to either end
    (1.3522987986828883, 1.3522987986828885, 0.5), (0.6, 1e300, 1.0)])
def test_mc_variance_names_a_rho_that_rounds_to_an_end(gamma1, gamma2, rho):
    with pytest.raises(NumericError, match=f"rho = 1 - gamma/gamma2 rounds to {rho} "):
        mc_variance(gamma1, gamma2, 2, 16, seed=1)


def test_mc_variance_second_pair():
    st = mc_variance(0.8, 3.2, 4000, 4096, seed=6)
    closed = asymptotic_variance(0.8, 3.2)
    assert abs(st.variance - closed) < 6.0 * st.std_error + 0.02 * closed


def test_grid_z_is_calibrated_over_groups_of_one_ensemble():
    # 400 groups of 125 paths at m = 256, each scored as its own
    # ensemble; grid_z should then have mean 0 and sd 1.  Over eight
    # seed chains (stable_key("calibration", c), c = 0..7) the mean of z
    # was -0.052..+0.060 and its sd 0.956..1.041; the sampling sd of the
    # mean is 0.05 and of the sd about 0.036.  A standard error missing
    # the factor sqrt(2) moves the sd to 1.41.
    n_groups, group = 400, 125
    row = _limit_row(0.6, 1.4, 256)
    values = _ensemble(row[np.newaxis], stable_key("calibration", 0), n_groups * group)[0]
    z = np.array([_ensemble_stats(0.6, 1.4, row, v).to_dict()["grid_z"]
                  for v in values.reshape(n_groups, group)])
    mean, sd = float(np.mean(z)), float(np.std(z, ddof=1))
    print(f"grid_z over {n_groups} groups of {group}: mean {mean:+.3f} sd {sd:.3f} "
          f"(|mean| <= 0.2, sd in [0.85, 1.15])")
    assert abs(mean) <= 0.2
    assert abs(sd - 1.0) <= 0.15


def _ensemble_oracle(rho, m, seed, n_paths):
    """The per-path cumsum-and-dot loop: (Delta1, Delta2, Delta3) rows."""
    grid = _warped_grid(rho, m)
    w_plain, w_log = _segment_weights(grid, rho - 2.0)
    sds = np.sqrt(np.diff(grid))
    values = np.zeros(m + 1)
    out = np.empty((3, n_paths))
    for i in range(n_paths):
        np.cumsum(derive_rng(seed, i).standard_normal(m) * sds, out=values[1:])
        out[:, i] = (w_plain @ values, w_log @ values, values[-1])
    return out


@pytest.mark.parametrize("rho,m,seed", [(0.7, 2 ** 14, 1), (0.6, 2 ** 14, 2),
                                        (0.55, 4096, 3), (0.9, 1024, 4), (0.95, 257, 5)])
def test_ensemble_matches_cumsum_oracle(rho, m, seed):
    oracle = _ensemble_oracle(rho, m, seed, 24)
    assert np.max(np.abs(_ensemble(_delta_rows(rho, m), seed, 24) - oracle)) <= 1e-12
    # the single L(W) row against L assembled from the oracle's Deltas
    gamma2 = 1.4
    gamma = gamma2 * (1.0 - rho)
    gamma1 = gamma * gamma2 / (gamma2 - gamma)
    row = _limit_row(gamma1, gamma2, m)
    d1, d2, d3 = oracle
    expected = (-gamma * d3
                + gamma / (gamma1 + gamma2) * ((gamma2 - gamma1) * d1 - gamma * d2))
    assert np.max(np.abs(_ensemble(row[np.newaxis], seed, 24)[0] - expected)) <= 1e-12


def test_ensemble_bits_do_not_depend_on_thread_count(monkeypatch):
    rows = _delta_rows(0.7, 2048)
    results = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(seeding, "_worker_count", lambda: threads)
        results.append(_ensemble(rows, 77, 50))
    assert all(np.array_equal(r, results[0]) for r in results[1:])
    assert results[0].shape == (3, 50)


def test_one_stacked_pass_gives_mc_variance_and_delta_moments_mc_exactly():
    # L(W)'s row for (0.6, 1.4) lives on the rho = 0.7 grid of the Delta
    # rows and the row for (0.8, 7.2) on the rho = 0.9 grid; a path's
    # increments depend only on its stream, so rows from any grids with
    # the same m stack.  The acceptance gates c4 and c5 read all three
    # statistics this way
    m, n_paths, seed = 2 ** 10, 2000, 20260824
    pairs = ((0.6, 1.4), (0.8, 7.2))
    rows = [_limit_row(gamma1, gamma2, m) for gamma1, gamma2 in pairs]
    values = _ensemble(np.vstack(rows + [_delta_rows(0.7, m)]), seed, n_paths)
    for (gamma1, gamma2), row, v in zip(pairs, rows, values):
        assert (_ensemble_stats(gamma1, gamma2, row, v)
                == mc_variance(gamma1, gamma2, n_paths, m, seed))
    alone = _ensemble(_delta_rows(0.7, m), seed, n_paths)
    assert _delta_moments(values[2:]) == _delta_moments(alone)


def test_ensemble_forks_one_child_per_extra_core_capped_at_paths(monkeypatch):
    rows = _delta_rows(0.7, 64)
    serial = [_ensemble(rows, 1, n_paths) for n_paths in (3, 20)]
    pids, fork_slice = [], seeding._fork_slice

    def forked(fn, tasks):
        child = fork_slice(fn, tasks)
        pids.append(child[0])
        return child

    monkeypatch.setattr(seeding, "_fork_slice", forked)
    monkeypatch.setattr(seeding, "_worker_count", lambda: 8)
    children = []
    for n_paths, expected in zip((3, 20), serial):
        pids.clear()
        assert np.array_equal(_ensemble(rows, 1, n_paths), expected)
        children.append(len(pids))
    assert children == [2, 7]
    with pytest.raises(ChildProcessError):   # every child reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("gamma1,gamma2,bias", [
    (0.6, 1.4, -1.79e-6), (0.8, 7.2, -1.5e-7),
    # bias None: the row of gamma_process at x = 2, which has no closed form here
    pytest.param(0.6, 1.4, None, id="0.6-1.4-gamma_process-x2")])
def test_grid_variance_is_the_discretized_limit_variance(gamma1, gamma2, bias):
    grid = _warped_grid(limit_process._tail_parameters(gamma1, gamma2)[1], 64)
    if bias is None:
        w = _process_weights(grid, 2.0, gamma1, gamma2)
    else:
        closed = asymptotic_variance(gamma1, gamma2)
        stats = mc_variance(gamma1, gamma2, 2, 2 ** 14, seed=1)
        assert abs(stats.grid_variance / closed - 1.0) <= 1e-5
        assert stats.grid_variance / closed - 1.0 == pytest.approx(bias, rel=0.05)
        w = _limit_weights(grid, gamma1, gamma2)
    # on a short grid, sum a_l^2 against the node-weight form
    # Var(w @ values) = w' Cov w with Cov(W(s), W(t)) = min(s, t)
    row = _increment_weights(grid, w)
    cov = np.minimum.outer(grid, grid)
    assert math.fsum(row * row) == pytest.approx(w @ cov @ w, rel=1e-10)
