"""Acceptance gate: one test per shipped guarantee.

Each test exercises one end-to-end guarantee at its stated tolerance
and prints the measured numbers, so `pytest -v tests/test_acceptance.py`
gives a one-line verdict per guarantee.  Seeds are fixed; every run
measures the same numbers.

Gates c4 and c5 read one shared ensemble: 100 000 paths at m = 2^14
from the streams (SEED, i).  A path's increments depend only on its
stream, and only the rows depend on the grid, so c4's two L(W) rows,
(0.6, 1.4) on the rho = 0.7 grid and (0.8, 7.2) on the rho = 0.9 grid,
stack on c5's three Delta rows (rho = 0.7) with the same m.  Each row
gets the bits of its own pass (see tests/test_limit_process.py), so
both gates measure the numbers that mc_variance and a pass of the
Delta rows alone would, from one pass instead of three.

Gate c9 checks the paper's central theorem: the product-limit tail
process D_n(x) of product_limit.tail_process is approximately the
Gaussian process Gamma(x) of limit_process.gamma_process, whose exact
variance on a grid is the sum of squares of its increment weights.
"""

import math
import time

import numpy as np
import pytest

from trunctail import (
    LYNDEN_BELL,
    TruncatedSample,
    WienerPath,
    asymptotic_variance,
    burr,
    combined_delta_second_moment,
    delta_moments,
    gamma1_estimate,
    gamma_process,
    hill,
    limiting_rv,
    simulate_wiener,
)
from trunctail import cli, fit_product_limit
from trunctail.limit_process import (_delta_moments, _delta_rows, _ensemble, _ensemble_stats,
                                     _increment_weights, _limit_row, _process_weights,
                                     _tail_parameters, _warped_grid)
from trunctail.montecarlo import StudyConfig, run_cell, run_study
from trunctail.product_limit import tail_process
from trunctail.seeding import _map, derive_rng, stable_key
from trunctail.truncation import TruncationModel, gamma2_for_target_p

SEED = 20260824
C4_PAIRS = ((0.6, 1.4), (0.8, 7.2))


def test_c1_burr_cell_bias_and_rmse_within_bands():
    t0 = time.perf_counter()
    row = run_cell(0.7, 0.6, 0.25, 500, replicates=500, theta=0.3, seed=SEED)
    elapsed = time.perf_counter() - t0
    print(f"c1: abs_bias={row.abs_bias:.4f} (<=0.25) "
          f"rmse={row.rmse:.4f} (in [0.14,0.45]) elapsed={elapsed:.1f}s")
    assert row.completed == 500
    assert row.abs_bias <= 0.25
    assert 0.14 <= row.rmse <= 0.45
    assert elapsed <= 300.0


def test_c2_error_trends_across_sample_size_and_truncation_strength():
    config = StudyConfig.from_dict({
        "cells": [
            {"p": 0.7, "gamma1": 0.6, "N": [200, 2000]},
            {"p": 0.9, "gamma1": 0.6, "N": [2000]},
        ],
        "replicates": 200,
        "master_seed": SEED,
    })
    report = run_study(config)
    rmse = {(row.p, row.big_n): row.rmse for row in report.rows}
    print(f"c2: rmse(p=0.7,N=200)={rmse[(0.7, 200)]:.4f} "
          f"rmse(p=0.7,N=2000)={rmse[(0.7, 2000)]:.4f} "
          f"rmse(p=0.9,N=2000)={rmse[(0.9, 2000)]:.4f}")
    assert rmse[(0.7, 2000)] < rmse[(0.7, 200)]
    assert rmse[(0.9, 2000)] <= 1.1 * rmse[(0.7, 2000)]


def _uniforms(n, seed):
    return derive_rng(seed).integers(1, 1 << 53, size=n) / 2.0 ** 53


def _pareto_sample(n, seed):
    """n Pareto(1) values, survival 1/x on [1, inf), by inversion of derive_rng(seed)'s uniforms."""
    return np.exp(-np.log1p(-_uniforms(n, seed)))


def _frechet_sample(n, seed):
    """n Frechet(0.9) values, df exp(-x^(-1/0.9)), by inversion of derive_rng(seed)'s uniforms."""
    return (-np.log(_uniforms(n, seed))) ** -0.9


def test_c3_complete_data_estimator_collapses_to_hill_exactly():
    families = (burr(0.25, 0.6).sample, _pareto_sample, _frechet_sample)
    worst = 0.0
    for i in range(100):
        rng = derive_rng(stable_key("hill-reduction", i))
        n = int(rng.integers(10, 501))
        k = int(rng.integers(1, n))
        values = families[i % 3](n, stable_key("hill-values", i))
        sample = TruncatedSample(values, np.full(n, 2.0 * values.max()))
        est = gamma1_estimate(sample, k=k, variant=LYNDEN_BELL)
        worst = max(worst, abs(est.gamma1_hat - hill(values, k)))
    print(f"c3: worst |lynden-bell - hill| over 100 samples = {worst:.3e}")
    assert worst <= 1e-12


@pytest.fixture(scope="module")
def shared_ensemble():
    """c4's EnsembleStats by (gamma1, gamma2), c5's DeltaMoments and the
    wall time of the one ensemble pass that yields all three."""
    t0 = time.perf_counter()
    m = 2 ** 14
    rows = [_limit_row(gamma1, gamma2, m) for gamma1, gamma2 in C4_PAIRS]
    values = _ensemble(np.vstack(rows + [_delta_rows(0.7, m)]), SEED, 100_000)
    stats = {pair: _ensemble_stats(*pair, row, v)
             for pair, row, v in zip(C4_PAIRS, rows, values)}
    moments = _delta_moments(values[len(rows):])
    return stats, moments, time.perf_counter() - t0


def test_c4_wiener_ensemble_variance_matches_closed_form(shared_ensemble):
    stats, _, elapsed = shared_ensemble
    rels = {}
    for (g1, g2), st in stats.items():
        closed = asymptotic_variance(g1, g2)
        rels[(g1, g2)] = abs(st.variance - closed) / closed
    print(f"c4: rel err (0.6,1.4)={rels[(0.6, 1.4)]:.4%} "
          f"(0.8,7.2)={rels[(0.8, 7.2)]:.4%} elapsed={elapsed:.1f}s "
          f"(one pass shared with c5) (<=180s)")
    assert rels[(0.6, 1.4)] <= 0.05
    assert rels[(0.8, 7.2)] <= 0.05
    assert elapsed <= 180.0


def test_c5_moment_closed_forms_match_monte_carlo_and_algebra(shared_ensemble):
    closed = delta_moments(0.7)
    _, sampled, _ = shared_ensemble
    worst = max(abs(s - c) / abs(c) for s, c in zip(sampled, closed))
    gamma = 0.6 * 1.4 / (0.6 + 1.4)
    assembled = gamma ** 2 * combined_delta_second_moment(0.6, 1.4)
    gap = abs(assembled - asymptotic_variance(0.6, 1.4))
    print(f"c5: worst moment rel err={worst:.4%} (<=3%), "
          f"algebra gap={gap:.2e} (<=1e-9)")
    assert worst <= 0.03
    assert gap <= 1e-9


def test_c6_limit_process_identities_are_exact():
    w = simulate_wiener(2048, seed=SEED)
    zero = WienerPath(w.grid, np.zeros_like(w.values))
    at_one = gamma_process(1.0, w, 0.6, 1.4)
    at_zero_path = limiting_rv(zero, 0.6, 1.4)
    w2 = simulate_wiener(2048, seed=SEED + 1)
    worst = 0.0
    for x in (1.0, 1.5, 4.0, 20.0):
        mix = WienerPath(w.grid, 0.3 * w.values - 1.7 * w2.values)
        lhs = gamma_process(x, mix, 0.6, 1.4)
        rhs = (0.3 * gamma_process(x, w, 0.6, 1.4)
               - 1.7 * gamma_process(x, w2, 0.6, 1.4))
        worst = max(worst, abs(lhs - rhs))
    print(f"c6: Gamma(1)={at_one!r} L(zero)={at_zero_path!r} "
          f"linearity gap={worst:.2e} (<=1e-10)")
    assert at_one == 0.0
    assert at_zero_path == 0.0
    assert worst <= 1e-10


def test_c7_model_tail_identities_hold_numerically():
    model = TruncationModel(burr(0.25, 0.6), burr(0.25, 1.4))
    _, g_bar, cov = model.observed_survivals(1.0e6)
    coverage_gap = abs(cov / g_bar - 1.0)
    gamma = model.observed_tail_index
    scaled = {}
    for x in (1.0e4, 1.0e6):
        f_bar, _, _ = model.observed_survivals(x)
        scaled[x] = x ** (1.0 / gamma) * f_bar
    stability = scaled[1.0e4] / scaled[1.0e6]
    print(f"c7: |C/Gbar - 1| at 1e6 = {coverage_gap:.2e} (<1e-4), "
          f"tail stability ratio={stability:.5f} (within 2%)")
    assert coverage_gap < 1e-4
    assert abs(stability - 1.0) <= 0.02


def test_c8_parallel_study_and_manifest_replay_are_byte_stable(tmp_path):
    config = StudyConfig.from_dict({
        "cells": [{"p": 0.7, "gamma1": 0.6, "N": [150]}],
        "replicates": 10,
        "master_seed": 5,
    })
    serial = run_study(config, workers=1).to_csv_text()
    parallel = run_study(config, workers=8).to_csv_text()
    assert serial == parallel

    model = TruncationModel(burr(0.25, 0.6), burr(0.25, 1.4))
    data = tmp_path / "pairs.csv"
    model.sample(300, seed=11).to_csv(data)
    report = tmp_path / "report.json"
    manifest = tmp_path / "report.manifest.json"
    code = cli.main(["estimate", str(data), "--json", str(report),
                     "--manifest", str(manifest)])
    assert code == 0
    replay_dir = tmp_path / "replayed"
    code = cli.main(["replay", str(manifest), "--outdir", str(replay_dir)])
    assert code == 0
    original = report.read_bytes()
    replayed = (replay_dir / "report.json").read_bytes()
    print(f"c8: study CSV identical across workers ({len(serial)} bytes); "
          f"estimate replay identical ({len(original)} bytes)")
    assert replayed == original


C9_XS = (1.5, 2.0, 4.0)


def _tail_process_replicate(task):
    p, seed = task
    model = TruncationModel(burr(0.25, 0.6), burr(0.25, gamma2_for_target_p(0.6, p)))
    fit = fit_product_limit(model.sample(10_000, seed))
    return tail_process(fit, 100, 0.6, C9_XS)[:, 1].tolist()


def test_c9_tail_process_matches_its_gaussian_limit():
    # Burr(0.25) pairs with gamma1 = 0.6, N = 10 000, k = 100, 400
    # replicates per p.  Over eight seed chains ("c9", "c9-1" to "c9-7")
    # the worst |sd(D_n)/exact - 1| of the six (p, x) cells was
    # 0.042-0.086 and the worst |mean D_n| 0.84-2.02 standard errors;
    # one sd ratio has a sampling sd of about 1/sqrt(2*399) = 3.5%.
    # Dropping Gamma's integral term moves the p = 0.7 ratios to 1.27-1.51,
    # and the naive empirical survival in place of the product-limit fit
    # moves mean D_n by 14-64 standard errors.  The exact sd is that of
    # Gamma(x) on the warped m = 2048 grid; m = 8192 moves it by <= 3.1e-4.
    t0 = time.perf_counter()
    lines, ratios, z_scores = [], [], []
    for p in (0.7, 0.9):
        gamma2 = gamma2_for_target_p(0.6, p)
        grid = _warped_grid(_tail_parameters(0.6, gamma2)[1], 2048)
        tasks = [(p, stable_key("c9", p, r)) for r in range(400)]
        d = np.array(_map(_tail_process_replicate, tasks, 2))
        for x, column in zip(C9_XS, d.T):
            row = _increment_weights(grid, _process_weights(grid, x, 0.6, gamma2))
            exact = math.sqrt(math.fsum(row * row))
            sd = float(np.std(column, ddof=1))
            mean = math.fsum(column) / column.size
            ratios.append(sd / exact)
            z_scores.append(mean / (sd / math.sqrt(column.size)))
            lines.append(f"p={p} x={x}: sd {sd:.3f} exact {exact:.3f} "
                         f"mean {mean:+.3f} ({z_scores[-1]:+.2f} se)")
    elapsed = time.perf_counter() - t0
    print("c9: " + "; ".join(lines) + f"; sd ratios in [0.85, 1.15], "
          f"|mean| <= 4 se, elapsed={elapsed:.1f}s")
    assert all(abs(ratio - 1.0) <= 0.15 for ratio in ratios)
    assert all(abs(z) <= 4.0 for z in z_scores)
